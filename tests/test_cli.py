"""Command-line interface: exit codes, report files, determinism."""

import json
import subprocess
import sys

import pytest

from ellrmx import cli

BASE = [sys.executable, "-m", "ellrmx.cli"]


def run_cli(*args: str):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120
    )


class TestExitCodes:
    def test_pass_is_zero(self):
        proc = run_cli("fay", "--trials", "2")
        assert proc.returncode == 0
        assert "pass" in proc.stdout and "overall: PASS" in proc.stdout

    def test_failure_is_one(self):
        proc = run_cli("fay", "--trials", "1", "--tol", "1e-30")
        assert proc.returncode == 1
        assert "overall: FAIL" in proc.stdout

    def test_config_error_is_two(self):
        proc = run_cli("ybe", "--n", "5", "--m", "3")
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_rll_past_its_memory_bound_is_two(self):
        for n, m in (("6", "2"), ("12", "1")):
            for check in ("rll", "all"):
                proc = run_cli(check, "--n", n, "--m", m, "--trials", "1")
                assert proc.returncode == 2, (check, n, m)
                assert "configuration error" in proc.stderr and "1 GB" in proc.stderr
                assert "Traceback" not in proc.stderr

    def test_largest_tv_reduce_runs(self):
        # 10,296 relations over 20,736 words, held as their terms
        proc = run_cli("tv-reduce", "--n", "1", "--m", "12", "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_pinned_sizes_are_not_guarded(self):
        # tv-reduce runs at n = 1 and bb-reduce at m = 1, whatever is asked
        cases = (("tv-reduce", "12", "2", "n=1 m=2"), ("bb-reduce", "2", "7", "n=2 m=1"))
        for check, n, m, runs in cases:
            proc = run_cli(check, "--n", n, "--m", m, "--trials", "1")
            assert proc.returncode == 0, proc.stderr
            assert runs in proc.stdout
            proc = run_cli("all", "--n", n, "--m", m, "--trials", "1")
            assert proc.returncode == 2 and "exceeds" in proc.stderr

    def test_fixed_hbar_on_a_pole_is_two_and_named(self):
        proc = run_cli("ybe", "--hbar", "0,0", "--trials", "1")
        assert proc.returncode == 2
        assert "sampling error" in proc.stderr and "fixed hbar=0+0j" in proc.stderr

    def test_shallow_tau_is_two(self):
        proc = run_cli("ybe", "--tau", "0.5,0.1")
        assert proc.returncode == 2

    def test_non_finite_tau_or_hbar_is_two(self):
        for flag, value in (("--tau", "nan,0.8"), ("--tau", "0.3,inf"), ("--hbar", "nan,0")):
            proc = run_cli("ybe", flag, value, "--trials", "1")
            assert proc.returncode == 2, (flag, value, proc.stderr)
            assert "configuration error" in proc.stderr

    def test_seed_outside_64_bits_is_two(self):
        for seed in ("-1", "18446744073709551616"):
            proc = run_cli("fay", "--seed", seed, "--trials", "1")
            assert proc.returncode == 2, (seed, proc.stderr)
            assert "configuration error" in proc.stderr and "2**64" in proc.stderr

    def test_non_finite_tolerance_is_two(self):
        # an infinite tolerance would pass any finite residual
        for tol in ("inf", "nan"):
            proc = run_cli("fay", "--trials", "1", "--tol", tol)
            assert proc.returncode == 2, (tol, proc.stdout)
            assert "configuration error" in proc.stderr and "overall" not in proc.stdout

    def test_report_in_a_missing_directory_is_two(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        proc = run_cli("fay", "--trials", "1", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ellrmx: cannot write report to {out}: No such file or directory"
        ]

    def test_report_at_a_directory_is_two(self, tmp_path):
        proc = run_cli("fay", "--trials", "1", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ellrmx: cannot write report to {tmp_path}: Is a directory"
        ]

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_report_fails_before_any_check(self, monkeypatch, capsys, tmp_path, where):
        out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
        calls = []
        monkeypatch.setattr(cli, "run_check", lambda cfg: calls.append(cfg))
        assert cli.main(["fay", "--trials", "1", "--out", str(out)]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_sampling_error_is_two(self):
        proc = run_cli("ybe", "--hbar", "0,0", "--trials", "1")
        assert proc.returncode == 2
        assert "sampling error" in proc.stderr

    def test_unknown_check_is_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_malformed_tau_is_two(self):
        proc = run_cli("ybe", "--tau", "0.3")
        assert proc.returncode == 2


class TestReports:
    def test_report_file_schema(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("tv-reduce", "--m", "2", "--trials", "2", "--out", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "ellrmx-report/1"
        assert data["pass"] is True
        assert data["seed"] == 42
        assert data["generator"] == "numpy-pcg64"
        (rep,) = data["checks"]
        assert rep["check"] == "tv-reduce"
        assert rep["n"] == 1 and rep["m"] == 2
        assert len(rep["residuals"]) == 2
        assert rep["rank"] == 6

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            proc = run_cli("dybe-felder", "--trials", "2", "--out", str(path))
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fay", "--trials", "2", "--out", str(a))
        run_cli("fay", "--trials", "2", "--seed", "7", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_summary_reports_effective_sizes(self):
        proc = run_cli("bb-reduce", "--n", "3", "--m", "2", "--trials", "2")
        assert proc.returncode == 0
        assert "n=3 m=1" in proc.stdout

    def test_summary_counts_null_trials(self, tmp_path):
        # At the skewed tau, trial 0 of ybe at seed 42 trips a pole guard.
        out = tmp_path / "report.json"
        proc = run_cli("ybe", "--tau", "5.3,0.3", "--trials", "2", "--out", str(out))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout and "(1 of 2 trials null)" in proc.stdout
        (rep,) = json.loads(out.read_text())["checks"]
        assert rep["residuals"][0] is None and rep["residuals"][1] is not None
        assert set(rep) == {
            "check", "n", "m", "tol", "residuals", "max_residual",
            "mean_residual", "rank", "pass", "runtime_ms",
        }
        proc = run_cli("fay", "--trials", "2")
        assert "trials null" not in proc.stdout
