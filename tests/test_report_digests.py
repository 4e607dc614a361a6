"""Byte identity of the reports, beyond the golden files: one line of
tests/golden/report_digests.txt per report gives the tool, map kind, dim,
seed and trials of a run, and the SHA-256 of the report's CLI dict as
json.dumps(..., sort_keys=True). The runs are reconstruct at 1 and 64 trials,
d = 1, 2, 3, and classify_map at 1 and 200 trials, d = 2, each over every
zoo kind (mapzoo.zoo_specs) at seeds 0 and 1, the map built and scanned with
the same seed, as the CLI does. Only a change meant to alter reports may
regenerate the file:

    PYTHONPATH=src python tests/test_report_digests.py > tests/golden/report_digests.txt
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from fidsym import cli, mapzoo, wigner

DIGESTS = Path(__file__).parent / "golden" / "report_digests.txt"

# (tool, dim, trials)
RUNS = ([("reconstruct", d, trials) for d in (1, 2, 3) for trials in (1, 64)]
        + [("classify", 2, trials) for trials in (1, 200)])


def digest_lines() -> Iterator[str]:
    for tool, d, trials in RUNS:
        for spec in mapzoo.zoo_specs(d):
            for seed in (0, 1):
                oracle = mapzoo.make_map(spec, seed=seed)
                if tool == "reconstruct":
                    report = cli.reconstruction_to_dict(wigner.reconstruct(oracle, trials, seed))
                else:
                    report = cli.classification_to_dict(mapzoo.classify_map(oracle, trials, seed))
                digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
                yield f"{tool} {spec.kind} {d} {seed} {trials} {digest}"


def test_every_report_keeps_its_digest():
    want = DIGESTS.read_text().splitlines()
    got = list(digest_lines())
    changed = [f"{w}\n  now {g.split()[-1]}" for w, g in zip(want, got) if w != g]
    assert not changed, "reports changed:\n" + "\n".join(changed)
    assert len(got) == len(want), f"{len(got)} reports against {len(want)} digests"


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
