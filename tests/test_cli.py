"""CLI surface: exit codes, output formats, determinism."""

import re

import pytest

from cascadekit import verify
from cascadekit.cli import MAX_SIZE, main
from cascadekit.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def forest_file(tmp_path):
    path = tmp_path / "forest.txt"
    path.write_text("4\n1 0\n2 0\n3 1\n")
    return str(path)


class TestForestCommands:
    def test_gen_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert main(["forest", "gen", "--size", "5", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["forest", "gen", "--size", "5", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert out1.read_text().splitlines()[0] == "5"

    def test_size_above_bound_refused(self, capsys, tmp_path):
        out = tmp_path / "forest.txt"
        code, _, err = run_cli(capsys, "forest", "gen", "--size", str(MAX_SIZE + 1), "--out", str(out))
        assert code == 2
        assert err == f"error: --size must be at most {MAX_SIZE}, got {MAX_SIZE + 1}\n"
        assert not out.exists()

    def test_closure_output(self, capsys, forest_file):
        code, out, _ = run_cli(capsys, "forest", "closure", "--in", forest_file, "--set", "3")
        assert code == 0
        assert out.strip() == "0 1 3"

    def test_closure_empty_set(self, capsys, forest_file):
        code, out, _ = run_cli(capsys, "forest", "closure", "--in", forest_file, "--set", "")
        assert code == 0
        assert out.strip() == ""

    def test_malformed_file_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 zero\n")
        code, _, err = run_cli(capsys, "forest", "closure", "--in", str(bad), "--set", "1")
        assert code == 2
        assert "line 2" in err


class TestStarspan:
    def test_zero_target(self, capsys, forest_file):
        code, out, _ = run_cli(
            capsys, "starspan", "--in", forest_file, "--window", "0,1", "--target", "00"
        )
        assert code == 0
        assert "coefficients:" in out
        assert out.splitlines()[1] == "coefficients:"

    def test_chain_e0(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("2\n1 0\n")
        code, out, _ = run_cli(
            capsys, "starspan", "--in", str(path), "--window", "0,1", "--target", "10"
        )
        assert code == 0
        assert "coefficients: 0 1" in out

    def test_fork_all_ones(self, capsys, tmp_path):
        path = tmp_path / "fork.txt"
        path.write_text("3\n1 0\n2 0\n")
        code, out, _ = run_cli(
            capsys, "starspan", "--in", str(path), "--window", "0,1,2", "--target", "111"
        )
        assert code == 0
        assert "coefficients: 0\n" in out

    def test_whole_window_of_a_generated_forest(self, capsys, tmp_path):
        path = tmp_path / "forest.txt"
        assert main(["forest", "gen", "--size", "2000", "--seed", "3", "--out", str(path)]) == 0
        target = "1" * 2000
        code, out, _ = run_cli(
            capsys, "starspan", "--in", str(path), "--window", ",".join(map(str, range(2000))), "--target", target
        )
        assert code == 0
        assert out.splitlines()[2] == "reconstruction: " + target

    def test_non_closed_window_rejected(self, capsys, forest_file):
        code, _, err = run_cli(
            capsys, "starspan", "--in", forest_file, "--window", "3", "--target", "1"
        )
        assert code == 2
        assert "closed" in err

    def test_length_mismatch(self, capsys, forest_file):
        code, _, err = run_cli(
            capsys, "starspan", "--in", forest_file, "--window", "0,1", "--target", "101"
        )
        assert code == 2


class TestVerify:
    def test_single_lemma_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "selector", "--trials", "5", "--seed", "3")
        assert code == 0
        assert "lemma=selector trials=61 exhaustive=true failures=0 seed=3 elapsed=" in out
        # an exhaustive lemma reads no seed, so its line states none
        code, out, _ = run_cli(capsys, "verify", "fresh")
        assert code == 0
        assert "lemma=fresh trials=2261 exhaustive=true failures=0 elapsed=" in out
        assert "seed=" not in out

    def test_starspan_scaled_down(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "starspan", "--trials", "20")
        assert code == 0
        # the windows are drawn at random, so the run is sampled even when every target is swept
        assert "lemma=starspan trials=20 exhaustive=false failures=0" in out
        assert "note: all targets swept on windows up to 10 nodes" in out

    def test_unknown_lemma_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert err.startswith("error: unknown lemma id 'bogus'; valid ids: starspan,")
        assert "swap" in err

    def test_missing_lemma(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_lemma_id_beside_all_usage_error(self, capsys):
        # an id next to --all would otherwise be dropped without a word
        code, out, err = run_cli(capsys, "verify", "bogus", "--all")
        assert code == 2
        assert err == "error: verify takes a lemma id or --all, not both (got 'bogus')\n"
        assert "lemma=" not in out

    @pytest.mark.parametrize("argv", [("starspan", "--trials", "0"), ("--all", "--trials", "-3")])
    def test_nonpositive_trials_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "error: trials must be positive" in err
        assert "lemma=" not in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("fresh", "--trials", "5"), "--trials"),
            (("dyadic", "--trials", "5"), "--trials"),
            (("fresh", "--seed", "5"), "--seed"),
            (("odd-fixed", "--seed", "5"), "--seed"),
            (("dyadic", "--seed", "5"), "--seed"),
            (("lift", "--seed", "0"), "--seed"),
        ],
    )
    def test_inapplicable_flag_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert f"verify {argv[0]} does not accept {flag}" in err
        assert "lemma=" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("starspan", "--max-window", "6"),
            ("normalize", "--box", "2,2,2"),
            ("starspan", "--exhaustive"),
            ("dyadic", "--dim", "2"),
        ],
    )
    def test_window_and_box_size_flags_refused(self, capsys, argv):
        # window, box and sweep sizes are fixed in verify.py, so verify takes no flag for them
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in err
        assert "lemma=" not in out

    def test_help_lists_only_the_lemma_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--all", "--trials", "--seed", "--out"}

    def test_verify_deterministic_given_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "transport", "--trials", "30", "--seed", "5")
        _, out2, _ = run_cli(capsys, "verify", "transport", "--trials", "30", "--seed", "5")
        def strip_elapsed(text):
            return [ln.split(" elapsed=")[0] for ln in text.splitlines()]
        assert strip_elapsed(out1) == strip_elapsed(out2)

    def test_reports_print_as_each_lemma_returns(self, capsys, monkeypatch, tmp_path):
        # a library error in the last lemma keeps the twelve reports printed before it
        def broken(trials: int = 1, seed: int = 0):
            raise DomainError("injected fault")

        monkeypatch.setitem(verify.REGISTRY, "swap", (broken, "swap witnesses certify the complement flip"))
        out_path = tmp_path / "report.txt"
        code, out, err = run_cli(capsys, "verify", "--all", "--trials", "1", "--out", str(out_path))
        assert code == 2
        assert "injected fault" in err
        assert re.findall(r"^lemma=(\S+) ", out, re.M) == [lemma for lemma in verify.REGISTRY if lemma != "swap"]
        assert not out_path.exists()

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, _, _ = run_cli(
            capsys, "verify", "lift", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().startswith("lemma=lift")


class TestDemoNoSelector:
    def test_empty_condition_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "no-selector", "--box", "4,1,2", "--support", "0"
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "shield: {}" in out

    def test_shield_printed(self, capsys, tmp_path):
        cond = tmp_path / "cond.txt"
        cond.write_text("box 4 1 4\n2 0 2 1\n")
        code, out, _ = run_cli(capsys, "demo", "no-selector", "--in", str(cond), "--support", "0")
        assert code == 0
        assert "shield: {2}" in out
        assert out.count("PASS") == 3

    def test_certificate_exact_above_sixteen_coordinates(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "no-selector", "--box", "9,1,2", "--support", "0"
        )
        assert code == 0
        assert "pattern-flip: PASS (exhaustive, 2^18 assignments)" in out

    def test_certificate_count_on_a_huge_box(self, capsys):
        # 15,000 coordinates: 2**15000 has more decimal digits than str(int) allows
        code, out, _ = run_cli(
            capsys, "demo", "no-selector", "--box", "3,1,5000", "--support", "0"
        )
        assert code == 0
        assert "pattern-flip: PASS (exhaustive, 2^15000 assignments)" in out

    @pytest.mark.parametrize("source", ["box", "header"])
    def test_box_above_bound_refused(self, capsys, tmp_path, source):
        if source == "box":
            given = ("--box", f"{MAX_SIZE + 1},1,1")
        else:
            cond = tmp_path / "cond.txt"
            cond.write_text(f"box {MAX_SIZE + 1} 1 1\n")
            given = ("--in", str(cond))
        out = tmp_path / "witness.txt"
        code, printed, err = run_cli(
            capsys, "demo", "no-selector", *given, "--support", "0", "--out", str(out)
        )
        assert code == 2
        assert err == f"error: box {MAX_SIZE + 1},1,1 must hold 1 to {MAX_SIZE} coordinates\n"
        assert not printed and not out.exists()

    def test_saturated_support_capacity_error(self, capsys):
        code, _, err = run_cli(
            capsys, "demo", "no-selector", "--box", "3,1,2", "--support", "0,1,2"
        )
        assert code == 3
        assert "capacity" in err.lower()

    def test_box_header_mismatch(self, capsys, tmp_path):
        cond = tmp_path / "cond.txt"
        cond.write_text("box 4 1 4\n")
        code, _, err = run_cli(
            capsys, "demo", "no-selector", "--in", str(cond), "--box", "3,1,4", "--support", "0"
        )
        assert code == 2

    def test_explicit_forest_file(self, capsys, tmp_path, forest_file):
        code, out, _ = run_cli(
            capsys,
            "demo", "no-selector", "--box", "4,1,2", "--forest", forest_file, "--support", "1",
        )
        assert code == 0
        # support closes to {0,1}; fresh pair in the remaining nodes
        assert "beta: 3" in out and "gamma: 2" in out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("forest", "closure", "--in", "{latin1}"), id="forest-closure-in"),
        pytest.param(("demo", "no-selector", "--in", "{latin1}"), id="demo-in"),
        pytest.param(("forest", "gen", "--size", "4", "--out", "{missing}"), id="forest-gen-out"),
        pytest.param(("verify", "dyadic", "--out", "{missing}"), id="verify-out"),
        pytest.param(("verify", "--all", "--out", "{missing}"), id="verify-all-out"),
        pytest.param(("verify", "--all", "--out", "{outdir}"), id="verify-all-out-dir"),
    ],
)
def test_file_errors_are_usage_errors(capsys, tmp_path, argv):
    # exit 1 means a verification failure, so a non-UTF-8 or unwritable file must exit 2
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("4\n1 0\n2 0\n3 1 # \u00e9\n".encode("latin-1"))
    missing = tmp_path / "missing" / "out.txt"
    fields = {"latin1": latin1, "missing": missing, "outdir": tmp_path}
    code, out, err = run_cli(capsys, *(arg.format(**fields) for arg in argv))
    assert code == 2
    assert err.startswith("error: cannot ")
    # an unwritable --out is refused before the first lemma runs
    assert "lemma=" not in out
    assert not missing.exists()


@pytest.mark.parametrize(
    "given, message",
    [
        pytest.param((), "demo no-selector needs --in or --box", id="no-box"),
        pytest.param(("--box", "4,1,1", "--forest", "{forest3}"), "forest universe 3 disagrees with box size 4", id="forest-size"),
    ],
)
def test_demo_box_source_errors_are_usage_errors(capsys, tmp_path, given, message):
    forest3 = tmp_path / "forest3.txt"
    forest3.write_text("3\n1 0\n2 0\n")
    code, out, err = run_cli(capsys, "demo", "no-selector", *(a.format(forest3=forest3) for a in given), "--support", "0")
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out
