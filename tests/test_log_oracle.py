import importlib.util
import math
from pathlib import Path

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
