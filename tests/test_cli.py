"""Command-line interface: subcommands, formats, exit codes."""
import pytest

from chromaplex.cli import main
from chromaplex.models import base_to_text, quartic_base


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_uniform_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--model", "uniform",
                              "--D", "3", "--p", "5", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 5"
        assert len(lines) == 5

    def test_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "sample", "--model", "quartic",
                             "--D", "3", "--p", "4", "--seed", "9")
        _, second, _ = invoke(capsys, "sample", "--model", "quartic",
                              "--D", "3", "--p", "4", "--seed", "9")
        assert first == second

    def test_ribbon_format(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--model", "ribbon",
                              "--p", "3", "--seed", "0")
        assert code == 0
        assert out.startswith("ribbon 3\n")

    def test_missing_d_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "sample", "--model", "uniform", "--p", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (("quartic", "--D", "1", "--p", "5"), "error: quartic model needs D >= 2"),
        (("ribbon", "--p", "0"), "error: ribbon model needs p >= 1"),
    ], ids=["quartic-D1", "ribbon-p0"])
    def test_bad_size_exits_2(self, capsys, argv, message):
        code, out, err = invoke(capsys, "sample", "--model", *argv)
        assert code == 2
        assert err.strip() == message
        assert out == ""

    def test_ribbon_round_trips_through_inspect(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        code, _, _ = invoke(capsys, "sample", "--model", "ribbon", "--p", "7",
                            "--seed", "4", "--out", str(path))
        assert code == 0
        code, out, _ = invoke(capsys, "inspect", str(path))
        assert code == 0
        assert out == ("ribbon map: p=7 half-edges=14\nconnected: yes\n"
                       "faces = 1; vertices = 4\ngenus = 2\n")

    def test_uncolored_needs_base(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "sample", "--model", "uncolored", "--p", "3")
        assert code == 2
        base = tmp_path / "base.txt"
        base.write_text(base_to_text(quartic_base(3)))
        code, out, _ = invoke(capsys, "sample", "--model", "uncolored",
                              "--p", "3", "--base", str(base))
        assert code == 0
        assert out.splitlines()[0] == "3 6"


class TestInspect:
    def test_melon_summary(self, capsys, tmp_path):
        path = tmp_path / "melon.txt"
        path.write_text("3 1\n1\n1\n1\n1\n")
        code, out, _ = invoke(capsys, "inspect", str(path))
        assert code == 0
        assert "b = [2, 4, 6, 4, 1]" in out
        assert "degree (face formula) = 0" in out
        assert "degree (jacket genera) = 0" in out
        assert "4 points, 6 edges" in out

    def test_ribbon_summary(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("ribbon 2\n2 1 4 3\n3 4 1 2\n")
        code, out, _ = invoke(capsys, "inspect", str(path))
        assert code == 0
        assert "genus = " in out

    @pytest.mark.parametrize("text, message", [
        ("ribbon\n", "bad header line 'ribbon'"),
        ("ribbon x\n2 1\n1 2\n", "bad header line 'ribbon x'"),
        ("ribbon 1\n2 1\n", "expected 2 permutation lines, got 1"),
        ("ribbon 1\n2 1\n1 2\n2 1\n", "expected 2 permutation lines, got 3"),
        ("ribbon 2\n2 1\n1 2\n", "delta and psi must act on the 2p half-edges"),
    ], ids=["no-p", "bad-p", "one-line", "three-lines", "size-mismatch"])
    def test_malformed_ribbon_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "map.txt"
        path.write_text(text)
        code, out, err = invoke(capsys, "inspect", str(path))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "inspect", "/nonexistent/file.txt")
        assert code == 2


class TestExact:
    def test_quartic_table(self, capsys):
        code, out, _ = invoke(capsys, "exact", "--model", "quartic",
                              "--D", "3", "--p", "2000")
        assert code == 0
        assert out.splitlines()[0] == "name,model,D,p,value,kind,anchor"
        b2_row = next(ln for ln in out.splitlines() if ln.startswith("quartic.b2,"))
        # E[b2] = 4*2000 + 3*H_4000 as an exact rational
        from chromaplex.predictions import harmonic
        expected = 4 * 2000 + 3 * harmonic(4000)
        assert f"{expected.numerator}/{expected.denominator}" in b2_row

    def test_ribbon_table(self, capsys):
        code, out, _ = invoke(capsys, "exact", "--model", "ribbon", "--p", "100")
        assert code == 0
        assert any(ln.startswith("ribbon.genus,") for ln in out.splitlines())

    def test_uncolored_needs_base(self, capsys):
        code, _, _ = invoke(capsys, "exact", "--model", "uncolored", "--p", "5")
        assert code == 2


class TestOracle:
    def test_uniform_d2_p2(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--model", "uniform",
                              "--D", "2", "--p", "2")
        assert code == 0
        assert "P(connected) = 3/4" in out

    def test_ribbon(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--model", "ribbon", "--p", "2")
        assert code == 0
        assert "parity invariant: holds" in out

    def test_bound_error(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--model", "uniform",
                              "--D", "2", "--p", "8")
        assert code == 2
        assert "exceeds" in err

    def test_work_bound_error(self, capsys):
        code, out, err = invoke(capsys, "oracle", "--model", "uniform",
                                "--D", "10000", "--p", "1")
        assert code == 2
        assert "exceeds" in err
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (("uniform", "--D", "2", "--p", "0"), "error: need p >= 1"),
        (("uniform", "--D", "0", "--p", "2"), "error: need at least two colors (D >= 1)"),
        (("ribbon", "--p", "0"), "error: ribbon map needs p >= 1"),
        (("ribbon", "--p", "-1"), "error: ribbon map needs p >= 1"),
    ], ids=["uniform-p0", "uniform-D0", "ribbon-p0", "ribbon-p-1"])
    def test_bad_size_exits_2(self, capsys, argv, message):
        code, out, err = invoke(capsys, "oracle", "--model", *argv)
        assert code == 2
        assert err.strip() == message
        assert out == ""


class TestExperiment:
    def test_run_and_exit_codes(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        out_prefix = tmp_path / "out" / "report"
        config.write_text(
            "model = uniform\nD = 2\np = 20\ntrials = 100\nseed = 4\n"
            f"observables = connected,b2\noutput = {out_prefix}\n"
        )
        code, out, _ = invoke(capsys, "experiment", "--config", str(config))
        assert code == 0
        assert "verdict: PASS" in out
        assert (tmp_path / "out" / "report.csv").exists()

    def test_failed_verdict_exits_1(self, capsys, tmp_path):
        # the leading-order variance band is genuinely wrong at p = 2, so
        # this experiment must report FAIL and exit 1
        config = tmp_path / "exp.cfg"
        config.write_text(
            "model = uniform\nD = 3\np = 2\ntrials = 400\nseed = 13\n"
            "observables = b2\n"
        )
        code, out, _ = invoke(capsys, "experiment", "--config", str(config))
        assert code == 1
        assert "verdict: FAIL" in out

    def test_bad_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("model = uniform\n")
        code, _, err = invoke(capsys, "experiment", "--config", str(config))
        assert code == 2
        assert "error" in err

    def test_missing_d_exits_2(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("model = quartic\np = 20\ntrials = 5\nseed = 1\nobservables = b2\n")
        code, out, err = invoke(capsys, "experiment", "--config", str(config))
        assert code == 2
        assert err == "error: quartic model needs D >= 2\n"
        assert out == ""

    def test_bad_value_names_line_and_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("model = uniform\nD = 2\np = abc\ntrials = 5\nseed = 1\n")
        code, out, err = invoke(capsys, "experiment", "--config", str(config))
        assert code == 2
        assert err == "error: line 3: bad value for key 'p': 'abc'\n"
        assert out == ""

    def test_reproducible_output(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "model = ribbon\np = 30\ntrials = 80\nseed = 2\n"
            "observables = genus,connected\n"
        )
        _, first, _ = invoke(capsys, "experiment", "--config", str(config))
        _, second, _ = invoke(capsys, "experiment", "--config", str(config))
        assert first == second

    def test_zero_threads_exits_2(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("model = ribbon\np = 10\ntrials = 5\nseed = 2\nobservables = genus\n")
        code, _, err = invoke(capsys, "experiment", "--config", str(config), "--threads", "0")
        assert code == 2
        assert "threads" in err
