import numpy as np
import pytest

from linbreg.cli import main


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


QUAD = """
problem = quadratic
n = 6
reg = l1
reg_alpha = 0.1
max_iter = 10
seed = 2
tau0 = 1.0
"""


class TestCheck:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD)
        assert main(["check", cfg]) == 0
        assert "problem=quadratic" in capsys.readouterr().out

    def test_invalid_config_exit_code_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = quadratic\nwat = 1\n")
        assert main(["check", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.cfg")]) == 2


# values outside the range of the object each key configures: (config, key)
OUT_OF_RANGE = [
    ("problem = quadratic\nn = 6\ntau0 = 0\n", "tau0"),
    ("problem = quadratic\nn = 6\nmax_iter = -3\n", "max_iter"),
    ("problem = quadratic\nn = 6\neps_decrease = -1\n", "eps_decrease"),
    ("problem = deconv\nheight = 8\nwidth = 8\ntv_maxit = 0\n", "tv_maxit"),
]


class TestOutOfRange:
    @pytest.mark.parametrize("text, key", OUT_OF_RANGE, ids=[k for _, k in OUT_OF_RANGE])
    def test_check_exit_code_2(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        assert main(["check", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err

    @pytest.mark.parametrize("text, flags, key",
                             [(t, [], k) for t, k in OUT_OF_RANGE]
                             + [("problem = quadratic\nn = 6\n", ["--max-iter", "-2"], "max_iter")],
                             ids=[k for _, k in OUT_OF_RANGE] + ["--max-iter"])
    def test_run_exit_code_2(self, tmp_path, capsys, text, flags, key):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err
        assert not out.exists()


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "log.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "config.resolved").exists()
        assert "stopped: max_iter" in capsys.readouterr().out

    def test_seed_and_max_iter_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--seed", "9", "--max-iter", "3"]) == 0
        resolved = (out / "config.resolved").read_text()
        assert "seed = 9" in resolved
        assert len((out / "log.csv").read_text().splitlines()) == 4  # header + 3

    def test_rerun_same_seed_bit_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "log.csv").read_bytes()
                == (tmp_path / "b" / "log.csv").read_bytes())


class TestSolverErrorExitCode:
    def test_numerics_error_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        import linbreg.cli as cli
        from linbreg.exceptions import NumericsError

        def boom(cfg, out_dir):
            raise NumericsError("non-finite gradient at iteration 3")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = write_cfg(tmp_path, QUAD)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "solver error" in capsys.readouterr().err


class TestGradCheck:
    def test_deconv_gradient_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = deconv\nheight = 8\nwidth = 8\nseed = 1\n")
        assert main(["grad-check", cfg]) == 0
        assert "max_rel_err" in capsys.readouterr().out

    def test_mri_gradient_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "problem = mri\nn = 8\ncoils = 1\nmask = random\nseed = 1\n")
        assert main(["grad-check", cfg]) == 0

    def test_classifier_gradient_passes(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "problem = classifier\ntrain_n = 20\nhidden = 5\n"
                        "activation = smooth-max\nseed = 1\n")
        assert main(["grad-check", cfg]) == 0
