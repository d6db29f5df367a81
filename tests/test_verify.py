"""Sweep sizes of the verification routines, independent of the seed."""

import pytest

from cascadekit import cli
from cascadekit.errors import DomainError
from cascadekit.verify import (
    MAX_DYADIC_DIM,
    REGISTRY,
    lemma_parameters,
    verify_dyadic,
    verify_shield,
    verify_starspan,
)

SHIELD_SWEEP = 131_868  # every condition on the 2x2x2 box, row pair and legal toggle


@pytest.mark.parametrize("seed", [0, 7, 300])
def test_shield_exhaustive_count_is_seed_independent(seed):
    report = verify_shield(trials=2, seed=seed)
    assert report.ok()
    assert report.trials == 2 + SHIELD_SWEEP
    assert report.notes.startswith(f"{SHIELD_SWEEP} exhaustive instances")


@pytest.mark.parametrize("lemma", list(REGISTRY))
def test_lemma_takes_only_the_seed_and_cli_flags(lemma):
    assert lemma_parameters(lemma) <= {"seed"} | set(cli._VERIFY_FLAGS)


def test_starspan_note_states_the_window_bound_applied():
    # no window can exceed --max-window, so the note must not claim the default sweep bound of 10
    report = verify_starspan(trials=20, seed=0, max_window=5)
    assert report.ok()
    assert report.notes == "all targets swept on windows up to 5 nodes"


def test_dyadic_dimension_above_the_sweep_bound_rejected():
    with pytest.raises(DomainError):
        verify_dyadic(dim=MAX_DYADIC_DIM + 1)
