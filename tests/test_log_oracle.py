import importlib.util
import math
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "log_oracle", Path(__file__).resolve().parents[1] / "tools" / "log_oracle.py")
log_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(log_oracle)

OLD = "k,energy,surrogate,decrease_ok\n1,2.0,3.0,1\n2,1.5,2.5,1\n3,1.0,nan,1\n"


class TestDiffCsv:
    def test_equal_texts_report_nothing(self):
        assert log_oracle.diff_csv(OLD, OLD) == []

    def test_names_each_moved_column_with_rows_and_largest_change(self):
        new = "k,energy,surrogate,decrease_ok\n1,2.0,3.0000000000000004,1\n2,1.5,2.4,1\n3,1.0,nan,0\n"
        report = log_oracle.diff_csv(OLD, new)
        assert [(col, rows) for col, rows, _ in report] == [("surrogate", 2), ("decrease_ok", 1)]
        assert math.isclose(report[0][2], 0.1 / 2.5)
        assert report[1][2] == 1.0

    def test_a_signed_zero_is_a_change_of_size_zero(self):
        new = OLD.replace("3,1.0,nan,1", "3,-0.0,nan,1")
        old = OLD.replace("3,1.0,nan,1", "3,0.0,nan,1")
        assert log_oracle.diff_csv(old, new) == [("energy", 1, 0.0)]

    def test_non_finite_and_missing_cells_change_infinitely(self):
        new = "k,energy,surrogate,decrease_ok,r_norm\n1,2.0,inf,1,0.5\n2,1.5,2.5,1,0.5\n"
        report = dict((col, (rows, worst)) for col, rows, worst in log_oracle.diff_csv(OLD, new))
        # row 3 is gone, so every column changes there
        assert report["k"] == (1, math.inf)
        assert report["surrogate"] == (2, math.inf)
        assert report["r_norm"] == (2, math.inf)


def _outputs(files):
    return {path: text.encode() for path, text in files.items()}


class TestReport:
    OLD = _outputs({
        "deconv-linbreg/config.resolved": "alpha = 0.05\nmax_iter = 40\nseed = 0\n",
        "deconv-linbreg/log.csv": OLD,
        "deconv-linbreg/snapshots/iter_1.pgm": "a",
        "deconv-linbreg/snapshots/iter_1.pgm.range": "b",
        "deconv-linbreg/snapshots/iter_10.pgm": "c",
        "mri-linbreg/log.csv": OLD,
    })

    def test_equal_outputs_report_only_the_count(self):
        assert log_oracle.report(self.OLD, dict(self.OLD)) == ["0 of 6 files changed"]

    def test_names_changed_config_lines(self):
        new = self.OLD | _outputs({
            "deconv-linbreg/config.resolved": "alpha = 0.1\nmax_iter = 40\nseed = 0\ntv_x = 1\n"})
        assert log_oracle.report(self.OLD, new) == [
            "changed: deconv-linbreg/config.resolved",
            "  - alpha = 0.05",
            "  + alpha = 0.1",
            "  + tv_x = 1",
            "1 of 6 files changed",
        ]

    def test_counts_changed_snapshots_once_per_run(self):
        new = self.OLD | _outputs({
            "deconv-linbreg/snapshots/iter_1.pgm": "x",
            "deconv-linbreg/snapshots/iter_10.pgm": "y",
            "mri-linbreg/log.csv": OLD.replace("2,1.5,2.5,1", "2,1.5,2.6,1"),
        })
        lines = log_oracle.report(self.OLD, new)
        assert lines[0] == "changed: deconv-linbreg/snapshots/ (2 of 3 snapshot files)"
        assert lines[1:3] == ["changed: mri-linbreg/log.csv",
                              "  column surrogate: 1 rows changed, largest relative change 0.0385"]
        assert lines[3:] == ["3 of 6 files changed"]

    def test_a_file_on_one_side_only_is_named_without_a_diff(self):
        new = self.OLD | _outputs({"mri-linbreg/snapshots/iter_1.csv": "z"})
        assert log_oracle.report(self.OLD, new) == [
            "changed: mri-linbreg/snapshots/ (1 of 1 snapshot files)", "1 of 7 files changed"]
        del new["mri-linbreg/log.csv"]
        assert log_oracle.report(self.OLD, new) == [
            "changed: mri-linbreg/log.csv",
            "changed: mri-linbreg/snapshots/ (1 of 1 snapshot files)", "2 of 7 files changed"]


SRC = Path(__file__).resolve().parents[1] / "src"


class TestSideEnvironments:
    @pytest.fixture
    def runs(self, monkeypatch):
        """Stand in for ``python -m linbreg run``: each run writes a log.csv
        holding its thread variable and its PYTHONPATH, and is recorded."""
        seen = []

        def fake_run(cmd, env, check, stdout):
            seen.append(env)
            out = Path(cmd[cmd.index("--out") + 1])
            out.mkdir()
            threads = env.get("OPENBLAS_NUM_THREADS", "unset")
            (out / "log.csv").write_text(f"k,threads,path\n1,{threads},{env['PYTHONPATH']}\n")

        monkeypatch.setattr(log_oracle.subprocess, "run", fake_run)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        return seen

    def test_each_side_gets_only_its_own_variables(self, runs, capsys):
        code = log_oracle.main([str(SRC), str(SRC), "--env-old", "OPENBLAS_NUM_THREADS=1",
                                "--env-new", "OPENBLAS_NUM_THREADS=2",
                                "--env-new", "ORACLE_TEST_VAR=a=b"])
        n = len(log_oracle.CONFIGS) * len(log_oracle.SOLVERS)
        assert len(runs) == 2 * n
        assert {env["OPENBLAS_NUM_THREADS"] for env in runs[:n]} == {"1"}
        assert {env["OPENBLAS_NUM_THREADS"] for env in runs[n:]} == {"2"}
        assert "ORACLE_TEST_VAR" not in runs[0]
        assert {env["ORACLE_TEST_VAR"] for env in runs[n:]} == {"a=b"}
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["changed: classifier-130-linbreg/log.csv",
                             "  column threads: 1 rows changed, largest relative change 0.5"]
        assert lines[-1] == f"{n} of {n} files changed"
        assert code == 1

    def test_the_tree_is_always_on_the_path(self, runs, capsys):
        code = log_oracle.main([str(SRC), str(SRC), "--env-old", "PYTHONPATH=elsewhere"])
        assert {env["PYTHONPATH"] for env in runs} == {str(SRC)}
        assert capsys.readouterr().out.splitlines()[-1].startswith("0 of ")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["--env-old", "OPENBLAS_NUM_THREADS"],
        ["--env-old", "=1"],
        ["--env-new", "OPENBLAS_NUM_THREADS=2"],  # no second tree
    ])
    def test_malformed_or_one_sided_assignments_are_usage_errors(self, runs, argv):
        with pytest.raises(SystemExit) as exc:
            log_oracle.main([str(SRC), *argv])
        assert exc.value.code == 2
        assert runs == []
