"""``verify --all`` transcripts against committed golden files.

Each file is the CLI's full stdout for one seed (titles, notes and
``lemma=`` lines) with `` elapsed=...s`` stripped, so any change to a count,
a note or a verdict shows up as a diff.  Each seed runs once, in the
subprocess of ``conftest.verify_all_run``, which acceptance criterion 12
reads too for seed 0.  A change that moves a count regenerates both files,
from the repository root, with

    for seed in 0 300; do PYTHONPATH=src python -W error -O -m cascadekit.cli verify --all --seed "$seed" | sed 's/ elapsed=[0-9.]*s//' > "tests/golden/verify_all_seed$seed.txt"; done
"""

import re
from pathlib import Path

import pytest
from conftest import verify_all_run

from cascadekit import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [0, 300])
def test_verify_all_matches_the_golden_transcript(seed):
    returncode, stdout, _ = verify_all_run(seed)
    assert returncode == cli.EXIT_OK
    transcript = re.sub(r" elapsed=[0-9.]*s", "", stdout)
    assert transcript == (GOLDEN / f"verify_all_seed{seed}.txt").read_text()
