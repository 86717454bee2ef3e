"""Experiment runner: determinism, serialization, exit codes."""
import csv
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from roelcke import cli, semigroup
from roelcke.cli import (
    ExperimentConfig,
    export_csv,
    export_json,
    main,
    run_suite,
)


def config(**kw):
    base = dict(suite="forward", atoms=8, cells=2,
                epsilon=Fraction(1, 4), trials=5, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            config(suite="nope")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            config(trials=0)

    def test_rejects_more_cells_than_atoms(self):
        with pytest.raises(ValueError, match="cells"):
            config(cells=9)


class TestSuites:
    def test_forward_small_run_clean(self):
        report = run_suite(config())
        assert report.violations == 0
        assert len(report.records) == 5
        # Observed distances stay below the bound 2 * epsilon.
        for r in report.records:
            assert Fraction(r.observed["distance"]) < Fraction(1, 2)

    def test_backward_hand_case_scale(self):
        report = run_suite(config(suite="backward", atoms=4, trials=3))
        assert report.violations == 0
        for r in report.records:
            assert r.observed["exact_product"] is True

    def test_dichotomy_reports_two(self):
        report = run_suite(config(suite="dichotomy", atoms=3, trials=1))
        assert report.violations == 0
        assert report.records[0].observed["count"] == 2

    def test_dichotomy_default_atoms(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--suite", "dichotomy", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["atoms"] == 16
        assert report["records"][0]["observed"] == {"count": 2, "expected_pair": True}

    def test_all_suites_run(self):
        for suite in ("realize", "birkhoff", "psd", "modulus", "net"):
            report = run_suite(config(suite=suite, trials=3))
            assert report.violations == 0, suite

    def test_cesaro_suite(self):
        report = run_suite(config(suite="cesaro", atoms=6, trials=2, tol=1e-8))
        assert report.violations == 0

    def test_cesaro_fails_a_limit_classified_other(self, monkeypatch):
        # A converged window that misses the exact limit is a violation,
        # however small its defect and absorption errors.
        def missed(K, tol):
            return semigroup.IdempotentReport(
                matrix=np.eye(K.size), idempotency_defect=0.0, absorb_left=0.0,
                absorb_right=0.0, classification="other", iterations=2)

        monkeypatch.setattr(semigroup, "cesaro_idempotent", missed)
        report = run_suite(config(suite="cesaro", atoms=6, trials=2, tol=1e-8))
        assert [r.passed for r in report.records] == [False, False]


class TestReproducibility:
    def test_identical_reports_modulo_timestamp(self):
        r1 = run_suite(config(seed=9)).to_json_obj(timestamp="T")
        r2 = run_suite(config(seed=9)).to_json_obj(timestamp="T")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_changes_records(self):
        r1 = run_suite(config(seed=1))
        r2 = run_suite(config(seed=2))
        assert [x.digest for x in r1.records] != [x.digest for x in r2.records]


# sha256 of the seed-0 report with its timestamp removed, for the suites whose
# reports are exact; the float suites (cesaro, psd, modulus) are left out
# because numpy/BLAS results may differ between machines.
PINNED_REPORTS = {
    ("forward",): "4e5f672daa3d564a47770d3257f19c477db52f4817c4e5a046e7ff9bf582a0f2",
    ("backward",): "ae12bbbb19c61c7749c05aaea79c2ba8a89213bad22a89d392acbbd3ebf584e8",
    ("realize",): "9bb084a03291424d967aaeb3ec02a7ca47d2846d997765e0000bf80406d0e61f",
    ("birkhoff",): "76cb3c86cd256b7e74d5443b830506a074983d17877a1f7d0c3e4f4fed444878",
    ("dichotomy", "--atoms", "6"):
        "1087104c47f89b0d6e74354c71b9f586a2ab88c7f12c99559967702cda633850",
    ("net", "--atoms", "32", "--epsilon", "1/16"):
        "14ad268969e65afb04c06c69e33d7376e73ebd41aa07e7900150258b9895dfed",
}


@pytest.mark.parametrize("args", PINNED_REPORTS, ids=lambda a: a[0])
def test_report_bytes_pinned(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--suite", *args, "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report.pop("timestamp")
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_REPORTS[args]


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        report = run_suite(config(trials=3))
        path = tmp_path / "out.csv"
        export_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, record in zip(rows, report.records):
            assert Fraction(row["distance"]) == Fraction(record.observed["distance"])
            assert row["digest"] == record.digest

    def test_empty_observed_keys(self, tmp_path):
        report = run_suite(config(trials=1))
        report.records = []
        path = tmp_path / "empty.csv"
        export_csv(report, str(path))
        with open(path, newline="") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_json_export(self, tmp_path):
        report = run_suite(config(trials=2))
        path = tmp_path / "out.json"
        export_json(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["config"]["suite"] == "forward"
        assert loaded["aggregates"]["violations"] == 0
        assert len(loaded["records"]) == 2


class TestMain:
    def test_exit_zero_on_clean_run(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "--suite", "forward", "--atoms", "8", "--cells", "2",
            "--epsilon", "1/4", "--trials", "3", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["aggregates"]["violations"] == 0

    def test_usage_error_without_suite(self, capsys):
        assert main([]) == 2

    def test_usage_error_on_bad_epsilon(self, capsys):
        assert main(["--suite", "forward", "--epsilon", "0"]) == 2

    def test_csv_format_flag(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "--suite", "realize", "--atoms", "8", "--cells", "2",
            "--trials", "2", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("index,digest,passed")


class TestExitCodes:
    """Exit codes 1 to 3 (0 is TestMain's); none of these may raise."""

    def test_one_on_violation(self, monkeypatch, capsys):
        def failing(cfg, rng):
            yield {"trial": 0}, {"value": "1/2"}, False

        monkeypatch.setitem(cli._RUNNERS, "forward", failing)
        assert main(["--suite", "forward"]) == 1
        assert "violations=1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--suite", "forward", "--atoms", "-3", "--cells", "-5"],
        ["--suite", "forward", "--cells", "0"],
        ["--suite", "dichotomy", "--atoms", "65"],  # classifies up to 64 atoms
        ["--suite", "dichotomy", "--atoms", "1", "--cells", "1"],  # I = J at N = 1
        ["--suite", "cesaro", "--tol", "0"],
        ["--suite", "cesaro", "--tol", "-1"],
        ["--suite", "cesaro", "--tol", "nan"],
        ["--suite", "realize", "--format", "csv"],  # csv is written only to --out
    ], ids=["negative-sizes", "zero-cells", "dichotomy-65-atoms",
            "dichotomy-1-atom", "tol-zero", "tol-negative", "tol-nan",
            "csv-without-out"])
    def test_two_out_of_regime(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_two_zero_denominator(self, capsys):
        # Either main returns 2 or argparse exits 2 itself; never a traceback.
        try:
            code = main(["--suite", "forward", "--epsilon", "1/0"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_two_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        argv = ["--suite", "realize", "--atoms", "8", "--trials", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert main(argv + ["--out", str(out), "--format", "csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    def test_three_net_over_cap(self, capsys):
        # Four cells of 6 atoms at step 1: 132,724 grid points, above the
        # default cap of 100,000.
        argv = ["--suite", "net", "--atoms", "24", "--cells", "4",
                "--epsilon", "1/24", "--trials", "1"]
        assert main(argv) == 3
        assert "cap" in capsys.readouterr().err
