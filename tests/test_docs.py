"""The docs and the CI workflow stay in step."""

import inspect
import re
from pathlib import Path

from conftest import checked_sites

from cascadekit import verify

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_block() -> list[str]:
    """The commands of README's CLI block, one per line."""
    text = (ROOT / "README.md").read_text()
    after_heading = text.split("\n## CLI\n", 1)[1]
    block = after_heading.split("```\n", 2)[1]
    return [line.strip() for line in block.splitlines() if line.strip()]


def ci_step(name: str) -> list[str]:
    """The stripped lines of the CI step called ``name``."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    start = lines.index(f"      - name: {name}")
    step = []
    for line in lines[start + 1:]:
        if line.startswith("      - "):
            break
        step.append(line.strip())
    return step


def test_ci_runs_exactly_the_readme_cli_block():
    block = readme_cli_block()
    assert block and all(line.startswith("cascadekit ") for line in block)
    assert [line for line in ci_step("README CLI examples") if line.startswith("cascadekit ")] == block


def test_ci_runs_each_sampling_lemma_once_at_ten_times_its_trials_under_O():
    runs = [
        re.search(r"cascadekit\.cli verify ([a-z][a-z-]*)(?: --trials (\d+))?", line)
        for line in ci_step("verify --all with assertions stripped")
    ]
    ran = sorted((m[1], m[2] and int(m[2])) for m in runs if m)
    expected = []
    for lemma, (routine, _) in verify.REGISTRY.items():
        trials = inspect.signature(routine).parameters.get("trials")
        if trials is not None:
            expected.append((lemma, 10 * trials.default))
    assert expected and ran == sorted(expected)


def test_readme_names_exactly_the_verify_flags():
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = text.split("`verify` accepts a lemma id", 1)[1].split(" where applicable.", 1)[0]
    flags = re.findall(r"`(--[a-z-]+)`", sentence.split(" plus ", 1)[1])
    params = {p for lemma in verify.REGISTRY for p in verify.lemma_parameters(lemma)}
    assert sorted(flags) == sorted(f"--{p}" for p in params) == ["--seed", "--trials"]


def test_readme_layout_names_exactly_the_package_modules():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Package layout\n", 1)[1].split("```\n", 2)[1]
    listed = [line.split()[0] for line in block.splitlines()[1:] if line.strip()]
    modules = sorted(p.name for p in (ROOT / "src" / "cascadekit").glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules and len(listed) == len(set(listed))


def test_readme_escape_hatch_names_exactly_the_checked_sites():
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = text.split("**One escape hatch.**", 1)[1].split("A decoded scheme", 1)[0]
    listed = re.findall(r"`(\w+)\.([\w.]+)`", sentence.split("names them all:", 1)[1])
    assert len(listed) == len(set(listed))
    assert set(listed) == checked_sites((ROOT / "src" / "cascadekit").glob("*.py"))


def test_claim_ledger_rows_name_exactly_the_registered_lemmas():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Claim ledger\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| Claim |")]
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert cells and all(len(row) == 3 for row in cells)
    named = [lemma for _, lemmas, _ in cells for lemma in re.findall(r"`([a-z-]+)`", lemmas)]
    # every lemma a row names is registered, and every registered lemma is in some row
    assert set(named) <= set(verify.REGISTRY)
    assert set(verify.REGISTRY) <= set(named)
    kinds = ("exhaustive", "sampled", "not checked", "metatheory only")
    assert all(scope.startswith(kinds) for _, _, scope in cells)
