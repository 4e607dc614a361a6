import os
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC)


@pytest.fixture
def src_env():
    """The environment for a Python subprocess that imports fidsym from this
    checkout's src, whether or not fidsym is installed."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
