"""Sweep sizes of the verification routines, independent of the seed."""

import pytest

from cascadekit.verify import verify_shield

SHIELD_SWEEP = 131_868  # every condition on the 2x2x2 box, row pair and legal toggle


@pytest.mark.parametrize("seed", [0, 7, 300])
def test_shield_exhaustive_count_is_seed_independent(seed):
    report = verify_shield(trials=2, seed=seed)
    assert report.ok()
    assert report.trials == 2 + SHIELD_SWEEP
    assert report.notes.startswith(f"{SHIELD_SWEEP} exhaustive instances")
