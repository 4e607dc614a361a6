"""Scoring groups: reconstruct's verification and classify_map score their
draw blocks in groups of 1, 2, 4, ... blocks, and no report depends on the
grouping. With the group cap at one block every scan reads one block per
call, as a block-by-block scan does, and every report keeps its bytes."""
import json

import numpy as np
import pytest
from adversarial_maps import ADVERSARIAL_MAPS
from trial_reference import group_calls, stack_size

from fidsym import wigner
from fidsym.cli import classification_to_dict, reconstruction_to_dict
from fidsym.mapzoo import ALL_KINDS, _trial_pairs, classify_map, make_map, zoo_specs
from fidsym.wigner import reconstruct, scoring_groups


@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_trial_pairs_of_k_blocks_are_k_single_block_calls(d, blocks):
    """One call for k blocks gives the bits of k single-block calls, leaves
    the RNG where they leave it, and is read-only."""
    size = stack_size(d)
    rng, single = np.random.default_rng(d), np.random.default_rng(d)
    grouped = _trial_pairs(rng, d, size, blocks=blocks)
    singles = np.concatenate([_trial_pairs(single, d, size) for _ in range(blocks)])
    assert grouped.shape == (blocks * size, 2, d, d)
    assert grouped.tobytes() == singles.tobytes()
    assert rng.uniform() == single.uniform()
    assert not grouped.flags.writeable


@pytest.mark.parametrize("count", [1, 16, 17, 64, 200, 300])
@pytest.mark.parametrize("d", [2, 3, 8, 20, 32, 40, 64])
def test_groups_follow_the_stated_schedule(d, count):
    """Consecutive block starts, in groups of 1, 2, 4, ... blocks up to
    4 TRIAL_STACK_ENTRIES entries per side (five blocks of two at d = 20,
    two blocks of one at d = 40, one at d = 64)."""
    size = stack_size(d)
    groups = list(scoring_groups(count, d))
    assert [s for g in groups for s in g] == list(range(0, count, size))
    assert [min(len(g) * size, count - g[0]) for g in groups] == group_calls(count, d)


def reports(oracle, seed=3):
    """The classify_map report and a 300-trial reconstruct report, as the
    JSON text of the CLI's dicts."""
    return (json.dumps(classification_to_dict(classify_map(oracle, seed=seed))),
            json.dumps(reconstruction_to_dict(
                reconstruct(oracle, verification_trials=300, seed=seed))))


def one_block_per_group(monkeypatch):
    """Cap every group at one draw block: a block-by-block scan."""
    monkeypatch.setattr(wigner, "GROUP_STACK_ENTRIES", 0)
    assert [len(g) for g in scoring_groups(200, 8)] == [1] * 13


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
def test_grouping_never_changes_a_zoo_report(kind, d, monkeypatch):
    oracle = make_map(zoo_specs(d)[ALL_KINDS.index(kind)], seed=3)
    grouped = reports(oracle)
    one_block_per_group(monkeypatch)
    assert reports(oracle) == grouped


@pytest.mark.parametrize("name", ADVERSARIAL_MAPS)
def test_grouping_never_changes_an_adversarial_report(name, monkeypatch):
    """Every row of the adversarial table, each through the tool that the
    table runs it through."""
    row = ADVERSARIAL_MAPS[name]
    oracle = row.build()

    def report():
        if row.verdict is None:
            return json.dumps(reconstruction_to_dict(reconstruct(oracle)))
        return json.dumps(classification_to_dict(classify_map(oracle)))

    grouped = report()
    one_block_per_group(monkeypatch)
    assert report() == grouped
