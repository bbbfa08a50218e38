import errno
import os
import struct
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import linbreg
from linbreg.cli import main
from helpers import write_idx_images, write_idx_labels


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

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_non_utf8_config_exit_code_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"problem = q\xffuadratic\n")
        out = tmp_path / "out"
        flags = ["--out", str(out)] if command == "run" else []
        assert main([command, str(cfg)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert "byte 0xff at offset 11" in err
        assert not out.exists()


# values outside the range of the object or problem each key configures:
# (test id, config, key)
OUT_OF_RANGE = [
    ("tau0", "problem = quadratic\nn = 6\ntau0 = 0\n", "tau0"),
    ("max_iter", "problem = quadratic\nn = 6\nmax_iter = -3\n", "max_iter"),
    ("eps_decrease", "problem = quadratic\nn = 6\neps_decrease = -1\n", "eps_decrease"),
    ("tv_maxit", "problem = deconv\nheight = 8\nwidth = 8\ntv_maxit = 0\n", "tv_maxit"),
    # each of these passed check; run then failed with a traceback
    ("quadratic-n", "problem = quadratic\nn = 0\n", "n"),
    ("l_const", "problem = quadratic\nn = 6\nl_const = -1\n", "l_const"),
    ("reg_alpha", "problem = quadratic\nn = 6\nreg_alpha = -1\n", "reg_alpha"),
    ("height", "problem = deconv\nheight = 0\nwidth = 8\n", "height"),
    ("kernel_h", "problem = deconv\nheight = 4\nwidth = 4\nkernel_h = 7\n", "kernel_h"),
    ("mri-n", "problem = mri\nn = 1\n", "n"),
    ("hidden", "problem = classifier\ntrain_n = 20\nhidden = 0\n", "hidden"),
    ("alpha1", "problem = classifier\ntrain_n = 20\nhidden = 3\nalpha1 = -1\n", "alpha1"),
    ("alpha_b", "problem = mri\nn = 8\nalpha_b = -1\n", "alpha_b"),
    ("w_low", "problem = mri\nn = 8\nw_low = -1\n", "w_low"),
    # ... or ran to the end on wrong input
    ("deconv-alpha", "problem = deconv\nheight = 8\nwidth = 8\nalpha = -1\n", "alpha"),
    ("mri-alpha", "problem = mri\nn = 8\nalpha = -1\n", "alpha"),
    ("train_n", "problem = classifier\ntrain_n = 0\n", "train_n"),
    ("coils", "problem = mri\nn = 8\ncoils = 0\n", "coils"),
    ("sigma", "problem = deconv\nheight = 8\nwidth = 8\nsigma = -1\n", "sigma"),
    # a target below a nonnegative energy, which no run can reach
    ("deconv-discrepancy_eta", "problem = deconv\nheight = 8\nwidth = 8\ndiscrepancy_eta = -1\n",
     "discrepancy_eta"),
    ("mri-discrepancy_eta", "problem = mri\nn = 8\ndiscrepancy_eta = -1\n", "discrepancy_eta"),
    ("classifier-discrepancy_eta", "problem = classifier\ntrain_n = 20\ndiscrepancy_eta = -1\n",
     "discrepancy_eta"),
    # names no factory accepts: run failed with a traceback, or for reg exited 2
    # only after check had printed ok
    ("activation", "problem = classifier\ntrain_n = 20\nactivation = bogus\n", "activation"),
    ("loss", "problem = classifier\ntrain_n = 20\nloss = bogus\n", "loss"),
    ("mask", "problem = mri\nn = 8\nmask = bogus\n", "mask"),
    ("reg", "problem = quadratic\nn = 6\nreg = bogus\n", "reg"),
    ("kl-loss_eps", "problem = classifier\ntrain_n = 20\nloss = kl\nloss_eps = -1\n",
     "loss_eps"),
    ("kl-sym-loss_eps", "problem = classifier\ntrain_n = 20\nloss = kl-sym\nloss_eps = 0\n",
     "loss_eps"),
    # meaningless values that ran to the end
    ("mask_p", "problem = mri\nn = 8\nmask = random\nmask_p = 2\n", "mask_p"),
    ("beta", "problem = classifier\ntrain_n = 20\nactivation = smooth-max\nbeta = 0\n", "beta"),
    ("tv_tol", "problem = deconv\nheight = 8\nwidth = 8\ntv_tol = -1\n", "tv_tol"),
    ("iterate_gap_tol", "problem = quadratic\nn = 6\niterate_gap_tol = -1\n",
     "iterate_gap_tol"),
    ("snapshots", "problem = quadratic\nn = 6\nsnapshots = -1,0\n", "snapshots"),
    ("epsilon", "problem = mri\nn = 8\nepsilon = -1\n", "epsilon"),
    # one data file without the other trained on synthetic digits
    ("data_images-only", "problem = classifier\ndata_images = {tmp}/images.idx\n", "data_images"),
    ("data_labels-only", "problem = classifier\ndata_labels = {tmp}/labels.idx\n", "data_labels"),
    # check printed ok; run then failed with a traceback or exited 3
    ("seed", "problem = quadratic\nn = 6\nseed = -1\n", "seed"),
    ("tau0-nan", "problem = quadratic\nn = 6\ntau0 = nan\n", "tau0"),
    ("tau0-inf", "problem = quadratic\nn = 6\ntau0 = inf\n", "tau0"),
    ("l_const-inf", "problem = quadratic\nn = 6\nl_const = inf\n", "l_const"),
    ("deconv-alpha-inf", "problem = deconv\nheight = 8\nwidth = 8\nalpha = inf\n", "alpha"),
    ("mri-alpha-inf", "problem = mri\nn = 8\nalpha = inf\n", "alpha"),
    ("w_high-inf", "problem = mri\nn = 8\nw_high = inf\n", "w_high"),
    ("sigma-inf", "problem = deconv\nheight = 8\nwidth = 8\nsigma = inf\n", "sigma"),
    ("reg_alpha-inf", "problem = quadratic\nn = 6\nreg_alpha = inf\n", "reg_alpha"),
    ("epsilon-inf", "problem = mri\nn = 8\nepsilon = inf\n", "epsilon"),
    ("beta-inf", "problem = classifier\ntrain_n = 20\nactivation = smooth-max\nbeta = inf\n",
     "beta"),
    ("loss_eps-inf", "problem = classifier\ntrain_n = 20\nloss = kl\nloss_eps = inf\n",
     "loss_eps"),
    ("alpha1-inf", "problem = classifier\ntrain_n = 20\nhidden = 3\nalpha1 = inf\n", "alpha1"),
    # alpha is the deconv and mri TV weight; these two ran and ignored it
    ("classifier-alpha", "problem = classifier\ntrain_n = 20\nalpha = 3\n", "alpha"),
    ("quadratic-alpha", "problem = quadratic\nn = 6\nalpha = 3\n", "alpha"),
]

# data files that fail to load when the instance is built: missing,
# truncated, a header whose sizes no file could hold, an image file given as
# labels, mismatched counts, and a label that is no digit
DIGITS = "problem = classifier\nhidden = 2\ndata_images = {tmp}/%s\ndata_labels = {tmp}/%s\n"
BAD_DATA_FILES = [
    ("missing-images", DIGITS % ("nope.idx", "labels.idx"), "data_images"),
    ("truncated-images", DIGITS % ("truncated.idx", "labels.idx"), "data_images"),
    ("oversized-images", DIGITS % ("oversized.idx", "labels.idx"), "data_images"),
    ("images-as-labels", DIGITS % ("images.idx", "images.idx"), "data_labels"),
    ("count-mismatch", DIGITS % ("images.idx", "labels3.idx"), "data_labels"),
    ("label-out-of-range", DIGITS % ("images.idx", "labels12.idx") + "train_n = 4\n",
     "data_labels"),
]


def write_digit_files(directory):
    """A valid 4-sample IDX image and label pair, a truncated image file, an
    image header claiming (2^31 - 1)^3 pixels, 3 labels, and 4 labels of
    which the third is 12."""
    write_idx_images(directory / "images.idx", np.zeros((4, 28, 28), dtype=np.uint8))
    write_idx_labels(directory / "labels.idx", np.arange(4))
    write_idx_labels(directory / "labels3.idx", np.arange(3))
    write_idx_labels(directory / "labels12.idx", [0, 1, 12, 3])
    (directory / "truncated.idx").write_bytes((directory / "images.idx").read_bytes()[:100])
    (directory / "oversized.idx").write_bytes(
        struct.pack(">iiii", 2051, *[2**31 - 1] * 3) + bytes(16))


class TestOutOfRange:
    @pytest.mark.parametrize("text, key", [(t, k) for _, t, k in OUT_OF_RANGE + BAD_DATA_FILES],
                             ids=[i for i, _, _ in OUT_OF_RANGE + BAD_DATA_FILES])
    def test_check_exit_code_2(self, tmp_path, capsys, text, key):
        write_digit_files(tmp_path)
        cfg = write_cfg(tmp_path, text.format(tmp=tmp_path))
        assert main(["check", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err

    @pytest.mark.parametrize("text, flags, key",
                             [(t, [], k) for _, t, k in OUT_OF_RANGE + BAD_DATA_FILES]
                             + [("problem = quadratic\nn = 6\n", ["--max-iter", "-2"], "max_iter"),
                                ("problem = quadratic\nn = 6\n", ["--seed", "-1"], "seed")],
                             ids=[i for i, _, _ in OUT_OF_RANGE + BAD_DATA_FILES]
                             + ["--max-iter", "--seed"])
    def test_run_exit_code_2(self, tmp_path, capsys, text, flags, key):
        write_digit_files(tmp_path)
        cfg = write_cfg(tmp_path, text.format(tmp=tmp_path))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "problem = mri\nn = 2\ncoils = 1\n",
        "problem = deconv\nheight = 1\nwidth = 8\nkernel_h = 1\n",
        "problem = deconv\nheight = 3\nwidth = 5\nalpha = 0\n",
        "problem = quadratic\nn = 1\nl_const = 0\nreg_alpha = 0\n",
        "problem = classifier\ntrain_n = 1\nhidden = 1\n",
        "problem = mri\nn = 4\nmask = random\nmask_p = 0\n",
        "problem = mri\nn = 4\nmask = random\nmask_p = 1\n",
        "problem = deconv\nheight = 4\nwidth = 5\ntv_tol = 0\ntv_maxit = 5\n",
        "problem = quadratic\nn = 3\niterate_gap_tol = 0\n",
        "problem = quadratic\nn = 3\nsnapshots = 1\n",
        DIGITS % ("images.idx", "labels.idx") + "train_n = 4\n",
        # a quadratic's energy can be negative, and so can its target
        "problem = quadratic\nn = 3\ndiscrepancy_eta = -1\n",
    ], ids=["mri", "deconv", "deconv-full-kernel", "quadratic", "classifier", "mask_p-0",
            "mask_p-1", "tv_tol-0", "iterate_gap_tol-0", "snapshots-1", "data-files",
            "quadratic-discrepancy_eta"])
    def test_smallest_values_run(self, tmp_path, text):
        write_digit_files(tmp_path)
        cfg = write_cfg(tmp_path, text.format(tmp=tmp_path) + "max_iter = 2\n")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "log.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "config.resolved").exists()
        assert "stopped: max_iter" in capsys.readouterr().out

    def test_infinite_eps_decrease_is_a_fixed_stepsize(self, tmp_path):
        # tau0 = 3 > 2 / l_const: backtracking shrinks it, inf keeps it
        text = "problem = quadratic\nn = 6\nl_const = 1\ntau0 = 3\nmax_iter = 5\n"

        def taus(extra, name):
            cfg = write_cfg(tmp_path, text + extra, name=f"{name}.cfg")
            assert main(["run", cfg, "--out", str(tmp_path / name)]) == 0
            rows = (tmp_path / name / "log.csv").read_text().splitlines()[1:]
            return {float(row.split(",")[1]) for row in rows}

        assert taus("eps_decrease = inf\n", "fixed") == {3.0}
        assert min(taus("", "backtracked")) < 3.0

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


FOOTPRINT_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path
    from linbreg.cli import main

    work = Path(sys.argv[1])
    configs = {
        "deconv": "problem = deconv\\nheight = 12\\nwidth = 12\\nmax_iter = 3\\n",
        "classifier": "problem = classifier\\ntrain_n = 20\\nhidden = 4\\nmax_iter = 3\\n",
        "quadratic": "problem = quadratic\\nn = 6\\nreg = l1\\nmax_iter = 3\\n",
        "mri": "problem = mri\\nn = 8\\nmax_iter = 2\\n",
    }
    for name, text in configs.items():
        cfg = work / (name + ".cfg")
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(work / name)]) == 0
        print(name, "scipy" in sys.modules)
""")


class TestImportFootprint:
    def test_scipy_loads_only_at_the_first_dct(self, tmp_path):
        # a fresh interpreter: this one may already hold scipy
        src = str(Path(linbreg.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert [ln for ln in proc.stdout.splitlines() if ln.endswith(("True", "False"))] == [
            "deconv False", "classifier False", "quadratic False", "mri True"]


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


    def test_nan_gradient_from_third_evaluation_exits_3_without_output(
            self, tmp_path, capsys, monkeypatch):
        # a real run, not a stubbed one: the energy turns bad mid-run
        from linbreg.problems.quadratic import QuadraticObjective

        value_and_grad = QuadraticObjective.value_and_grad
        calls = []

        def nan_from_third_call(self, u, facts=None):
            calls.append(1)
            value, g = value_and_grad(self, u, facts)
            return value, (np.full_like(g, np.nan) if len(calls) >= 3 else g)

        monkeypatch.setattr(QuadraticObjective, "value_and_grad", nan_from_third_call)
        t0 = time.perf_counter()
        cfg = write_cfg(tmp_path, QUAD)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert "non-finite gradient at iteration 2" in capsys.readouterr().err
        assert len(calls) == 3
        assert not out.exists()
        assert time.perf_counter() - t0 < 1.0

    def test_kl_domain_error_at_u0_exits_3_without_output(self, tmp_path, capsys):
        # the smooth-max output at u0 leaves the shifted KL domain for this eps
        cfg = write_cfg(tmp_path, "problem = classifier\ntrain_n = 20\nhidden = 3\n"
                                  "activation = smooth-max\nloss = kl\nloss_eps = 1e-3\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--max-iter", "0"]) == 3
        assert "solver error" in capsys.readouterr().err
        assert not out.exists()

    # the first step overflows the TV prox argument, so no inner gap is finite;
    # the NumericsError is the one report of it: a RuntimeWarning fails these tests
    OVERFLOW = "problem = deconv\nheight = 8\nwidth = 8\ntau0 = 1e305\nmax_iter = 3\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_tv_prox_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.OVERFLOW)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert "solver error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_removes_the_outermost_directory_it_created(self, tmp_path):
        cfg = write_cfg(tmp_path, self.OVERFLOW)
        assert main(["run", cfg, "--out", str(tmp_path / "a" / "b" / "out")]) == 3
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "exp.cfg").is_file()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_keeps_an_existing_output_directory(self, tmp_path):
        # only what the run created goes: here the snapshots directory
        cfg = write_cfg(tmp_path, self.OVERFLOW + "snapshots = 1\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"


class TestOverflowingTrial:
    # tau0 = 1e305 overflows the first trial's energy, which backtracking
    # rejects until tau underflows; the suite turns any numpy warning into an
    # error, so a warning on the way fails the run
    @pytest.mark.parametrize("text", [
        "problem = deconv\nheight = 8\nwidth = 8\nalpha = 0\n",
        "problem = classifier\ntrain_n = 20\nhidden = 3\n",
        "problem = quadratic\nn = 6\n",
        # the overflow of u * b_j inside the DFT makes inf - inf residuals
        "problem = mri\nn = 8\nalpha = 0\n",
    ], ids=["deconv", "classifier", "quadratic", "mri"])
    def test_stagnation_is_the_one_report(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text + "tau0 = 1e305\nmax_iter = 3\n")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: backtracking stagnated") and err.count("\n") == 1


class TestOutputErrors:
    def test_output_directory_under_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["run", cfg, "--out", str(afile / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1
        assert afile.read_text() == "kept\n"

    def test_unwritable_output_removes_the_directories_the_run_created(
            self, tmp_path, capsys, monkeypatch):
        import linbreg.experiment as experiment

        def disk_full(path, records, extra_columns):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(experiment, "write_log_csv", disk_full)
        cfg = write_cfg(tmp_path, QUAD + "snapshots = 1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "a" / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and "No space left on device" in err
        assert not (tmp_path / "a").exists()


class TestDigitSetSize:
    def test_fewer_samples_than_train_n_exits_2(self, tmp_path, capsys):
        write_idx_images(tmp_path / "images.idx", np.zeros((12, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "labels.idx", np.arange(12) % 10)
        cfg = write_cfg(tmp_path, (DIGITS % ("images.idx", "labels.idx")).format(tmp=tmp_path)
                        + "train_n = 500\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'train_n' = 500" in err and "only 12 samples" in err
        assert not out.exists()
        assert main(["grad-check", cfg]) == 2


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "problem = quadratic\nn = 6\nseed = -1\n")
        assert main(["grad-check", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'seed'" in err

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (DIGITS % ("nope.idx", "nope.idx")).format(tmp=tmp_path))
        assert main(["grad-check", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'data_images'" in err
