"""CLI surface: exit codes, output formats, determinism."""

import pytest

from cascadekit.cli import main


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
        code, out, _ = run_cli(
            capsys, "verify", "fresh", "--seed", "3"
        )
        assert code == 0
        assert "lemma=fresh" in out
        assert "failures=0" in out
        assert "seed=3" in out

    def test_starspan_scaled_down(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "starspan", "--trials", "20", "--max-window", "6", "--exhaustive"
        )
        assert code == 0
        assert "lemma=starspan trials=20" in out

    def test_dyadic_dim(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dyadic", "--dim", "2")
        assert code == 0
        assert "lemma=dyadic" in out and "failures=0" in out

    def test_unknown_lemma_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert "starspan" in err and "swap" in err

    def test_missing_lemma(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("argv", [("starspan", "--trials", "0"), ("--all", "--trials", "-3")])
    def test_nonpositive_trials_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "--trials must be positive" in err
        assert "lemma=" not in out

    @pytest.mark.parametrize(
        "argv, flag",
        [(("fresh", "--trials", "5"), "--trials"), (("dyadic", "--box", "2,2,2"), "--box")],
    )
    def test_inapplicable_flag_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert f"verify {argv[0]} does not accept {flag}" in err
        assert "lemma=" not in out

    def test_verify_deterministic_given_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "transport", "--trials", "30", "--seed", "5")
        _, out2, _ = run_cli(capsys, "verify", "transport", "--trials", "30", "--seed", "5")
        def strip_elapsed(text):
            return [ln.split(" elapsed=")[0] for ln in text.splitlines()]
        assert strip_elapsed(out1) == strip_elapsed(out2)

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
        assert "pattern-flip: PASS (exhaustive, 262144 assignments)" in out

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
