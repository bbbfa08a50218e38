import numpy as np
import pytest

from linbreg import ConfigError
from linbreg.experiment import (
    apply_overrides,
    parse_config_text,
    prediction_rate,
    rank_of,
    read_image_snapshot,
    run_experiment,
)
from linbreg.problems import init_weights, nn_forward, synthetic_digits
from linbreg.problems.classify import make_activation, one_hot
from linbreg.regularizers import project_simplex


QUAD_CFG = """
# toy quadratic experiment
problem = quadratic
n = 8
reg = l1
reg_alpha = 0.1
max_iter = 25
seed = 4
tau0 = 1.0
"""


class TestConfigParsing:
    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("problem = quadratic\n\nbogus_key = 1\n", source="cfg")

    def test_bad_syntax_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("problem = quadratic\nnot a key value line\n", source="cfg")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("problem = quadratic\nmax_iter = many\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("problem = quadratic\nseed = 1\nseed = 2\n")

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config_text("seed = 1\n")

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem = sudoku\n")

    def test_key_scoped_to_other_problem_rejected(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config_text("problem = quadratic\nkernel_h = 3\n")

    def test_defaults_filled(self):
        cfg = parse_config_text("problem = deconv\n")
        assert parse_config_text("problem = deconv  # blind\n").values == cfg.values
        assert cfg["tau0"] == 2.0
        assert cfg["alpha"] == 0.05
        assert cfg["max_iter"] == 100
        assert cfg["kernel_h"] == 3 and cfg["kernel_w"] == 5

    def test_tv_defaults_are_the_regularizer_default_budget(self):
        from linbreg import PdhgConfig, TotalVariation2D

        for problem in ("deconv", "mri"):
            cfg = parse_config_text(f"problem = {problem}\n")
            budget = PdhgConfig(tol=cfg["tv_tol"], maxit=cfg["tv_maxit"])
            assert budget == TotalVariation2D(1.0, (2, 2)).config

    def test_overrides(self):
        cfg = parse_config_text(QUAD_CFG)
        cfg2 = apply_overrides(cfg, seed=99, max_iter=7)
        assert cfg2["seed"] == 99 and cfg2["max_iter"] == 7
        assert cfg["seed"] == 4  # original untouched


class TestRankAndPrediction:
    def test_rank_zero_matrix(self):
        assert rank_of(np.zeros((4, 3))) == 0

    def test_rank_ignores_tiny_singular_values(self):
        assert rank_of(np.diag([3.0, 1e-14]), tol=1e-8) == 1

    def test_rank_full(self):
        assert rank_of(np.diag([3.0, 2.0, 1.0])) == 3

    def test_prediction_exact_match(self):
        # single identity layer on one-hot data reproduces Y exactly
        Y = one_hot(np.array([0, 1, 2]), classes=3)
        act = make_activation("rectifier")
        assert prediction_rate([np.eye(3)], Y.copy(), Y, act) == 1.0

    def test_all_zero_output_ties_break_low(self):
        # zero output predicts class 0 everywhere, so the rate equals the
        # fraction of class-0 labels
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=200)
        Y = one_hot(labels, classes=10)
        D = rng.uniform(size=(6, 200))
        As = [np.zeros((10, 4)), np.zeros((4, 6))]
        act = make_activation("rectifier")
        rate = prediction_rate(As, D, Y, act)
        assert rate == pytest.approx(np.mean(labels == 0))


class TestClassifierRankGrowth:
    def test_rank_grows_from_near_zero_init(self):
        # with a near-zero init the nuclear threshold truncates at first and
        # the accumulated dual releases components over time: after the early
        # transient the rank is nondecreasing and ends above its minimum
        from linbreg import (
            BacktrackingPolicy,
            NuclearNorm,
            SeparableSum,
            StoppingRule,
            initial_state,
            run,
        )
        from linbreg.problems import ClassifierObjective

        D, labels = synthetic_digits(3, 120)
        Y = one_hot(labels)
        shapes = [(10, 12), (12, 784)]
        E = ClassifierObjective(D, Y, shapes, activation_kind="rectifier",
                                loss_kind="frobenius", eps=1e-12)
        rng = np.random.default_rng(5)
        # small positive offset keeps the rectifier out of its dead point
        As0 = [1e-4 * rng.uniform(-1, 1, size=s) / np.sqrt(s[1]) + 3e-4 for s in shapes]
        sizes = [m * n for m, n in shapes]
        R = SeparableSum([
            (NuclearNorm(0.5, shapes[0]), sizes[0]),
            (NuclearNorm(0.5, shapes[1]), sizes[1]),
        ])
        st0 = initial_state(E, R, E.pack(As0), tau0=0.02)
        ranks = []

        def extras(st):
            A1, _ = E.split(st.u)
            ranks.append(rank_of(A1))
            return {}

        run(E, R, st0, BacktrackingPolicy(tau0=0.02), StoppingRule(max_iter=400),
            extras_fn=extras)
        tail = ranks[100:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert ranks[-1] > min(ranks)


class TestRunExperiment:
    def test_zero_iterations(self, tmp_path):
        cfg = parse_config_text(QUAD_CFG)
        cfg = apply_overrides(cfg, max_iter=0)
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 0
        assert log.stop_reason == "max_iter"
        text = (tmp_path / "run" / "log.csv").read_text()
        assert len(text.splitlines()) == 1  # header only
        assert "stop_reason = max_iter" in (tmp_path / "run" / "summary.txt").read_text()

    def test_resolved_config_written(self, tmp_path):
        cfg = parse_config_text(QUAD_CFG)
        run_experiment(cfg, tmp_path / "run")
        resolved = (tmp_path / "run" / "config.resolved").read_text()
        assert "problem = quadratic" in resolved
        assert "seed = 4" in resolved
        assert "eps_decrease" in resolved  # defaults present too

    def test_deterministic_log_bit_exact(self, tmp_path):
        cfg = parse_config_text(QUAD_CFG)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()

    def test_different_seed_changes_log(self, tmp_path):
        cfg = parse_config_text(QUAD_CFG)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(apply_overrides(cfg, seed=5), tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_bytes() != (tmp_path / "b" / "log.csv").read_bytes()

    def test_csv_header_fixed(self, tmp_path):
        cfg = parse_config_text(QUAD_CFG)
        log = run_experiment(cfg, tmp_path / "run")
        header = (tmp_path / "run" / "log.csv").read_text().splitlines()[0]
        assert header == ("k,tau,energy,surrogate,iterate_gap,breg_sym,r_norm,"
                          "rho2_bound,decrease_ok,bound_ok")

    def test_scale_space_snapshot_schedule(self, tmp_path):
        # the canonical coarse-to-fine inspection schedule; snapshots beyond
        # the iteration budget simply never materialise
        cfg = parse_config_text(
            "problem = deconv\nheight = 12\nwidth = 12\nkernel_h = 3\nkernel_w = 3\n"
            "alpha = 0.05\nmax_iter = 60\nseed = 4\n"
            "snapshots = 1,10,50,500,1500,3000\n")
        run_experiment(cfg, tmp_path / "run")
        snaps = tmp_path / "run" / "snapshots"
        for k in (1, 10, 50):
            assert (snaps / f"iter_{k}.pgm").exists()
            assert (snaps / f"iter_{k}.pgm.range").exists()
        for k in (500, 1500, 3000):
            assert not (snaps / f"iter_{k}.pgm").exists()

    def test_out_key_in_config(self, tmp_path):
        # the output directory can come from the config itself (no --out flag)
        from linbreg.cli import main

        p = tmp_path / "cfg.txt"
        p.write_text(QUAD_CFG + f"out = {tmp_path / 'from_cfg'}\n")
        assert main(["run", str(p)]) == 0
        assert (tmp_path / "from_cfg" / "log.csv").exists()

    def test_deconv_run_with_snapshots(self, tmp_path):
        cfg = parse_config_text(
            "problem = deconv\nheight = 12\nwidth = 12\nkernel_h = 3\nkernel_w = 3\n"
            "alpha = 0.01\nmax_iter = 6\nsnapshots = 1,5\nseed = 2\n"
            "tv_tol = 1e-5\ntv_maxit = 50000\n")
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 6
        header = (tmp_path / "run" / "log.csv").read_text().splitlines()[0]
        assert header.endswith(",tv_value")
        snap = tmp_path / "run" / "snapshots" / "iter_5.pgm"
        assert snap.exists()
        assert (tmp_path / "run" / "snapshots" / "iter_1.pgm").exists()

    def test_snapshot_roundtrip_within_quantisation(self, tmp_path):
        cfg = parse_config_text(
            "problem = deconv\nheight = 10\nwidth = 10\nkernel_h = 3\nkernel_w = 3\n"
            "alpha = 0.0\nmax_iter = 3\nsnapshots = 3\nseed = 3\n")
        run_experiment(cfg, tmp_path / "run")
        back = read_image_snapshot(tmp_path / "run" / "snapshots" / "iter_3.pgm")
        assert back.shape == (10, 10)

        # regenerate the k=3 iterate through the library (runs are deterministic)
        from linbreg import BacktrackingPolicy, StoppingRule, initial_state, run
        from linbreg.experiment import build_experiment

        built = build_experiment(cfg)
        st0 = initial_state(built.E, built.R, built.u0, cfg["tau0"])
        res = run(built.E, built.R, st0, BacktrackingPolicy(tau0=cfg["tau0"]),
                  StoppingRule(max_iter=3))
        u_img, _ = built.E.split(res.state.u)
        span = u_img.max() - u_img.min()
        assert np.abs(back - u_img).max() <= 1.6e-5 * max(span, 1e-300)

    def test_classifier_run_logs_ranks(self, tmp_path):
        cfg = parse_config_text(
            "problem = classifier\ntrain_n = 40\nhidden = 6\nmax_iter = 5\nseed = 1\n")
        log = run_experiment(cfg, tmp_path / "run")
        header = (tmp_path / "run" / "log.csv").read_text().splitlines()[0]
        assert header.endswith("rank_A1,rank_A2,prediction_rate")
        assert 0.0 <= log.final_extras["prediction_rate"] <= 1.0

    def test_mri_run(self, tmp_path):
        cfg = parse_config_text(
            "problem = mri\nn = 8\ncoils = 1\nmask = full\nmax_iter = 3\nseed = 0\n"
            "alpha = 0.0\n")
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 3
        assert np.isfinite(log.final_energy)

    def test_projected_gd_solver(self, tmp_path, monkeypatch):
        cfg = parse_config_text(
            "problem = deconv\nheight = 10\nwidth = 10\nsolver = projected-gd\n"
            "alpha = 0.0\nmax_iter = 4\nseed = 5\ntau0 = 1.0\n")
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 4
        _assert_baseline_rows(tmp_path / "run" / "log.csv")

        # the first iterate is a gradient step on the image and a projected
        # gradient step on the kernel
        import linbreg.experiment as experiment

        calls = []
        solver_run = experiment.run

        def spy(E, R, st0, *args, **kwargs):
            calls.append((E, st0, solver_run(E, R, st0, *args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(experiment, "run", spy)
        run_experiment(apply_overrides(cfg, max_iter=1), tmp_path / "one")
        (E, st0, result), = calls
        tau = result.records[0].tau
        u, h = E.split(st0.u)
        gu, gh = E.split(E.value_and_grad(st0.u)[1])
        expected = E.pack(u - tau * gu, project_simplex(h - tau * gh))
        assert np.array_equal(result.state.u, expected)

    def test_proximal_gd_solver(self, tmp_path):
        cfg = parse_config_text(
            "problem = deconv\nheight = 10\nwidth = 10\nsolver = proximal-gd\n"
            "alpha = 0.01\nmax_iter = 4\nseed = 5\ntv_tol = 1e-5\ntv_maxit = 50000\n")
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 4
        _assert_baseline_rows(tmp_path / "run" / "log.csv")


class TestAutoEta:
    NOISY = "problem = deconv\nheight = 10\nwidth = 12\nsigma = 0.01\nmax_iter = 2\n"

    def stopping_rule(self, text, tmp_path, monkeypatch):
        """The StoppingRule that run_experiment hands to the solver for config ``text``."""
        import linbreg.experiment as experiment

        rules = []
        solver_run = experiment.run

        def spy(E, R, st0, policy, stop, **kwargs):
            rules.append(stop)
            return solver_run(E, R, st0, policy, stop, **kwargs)

        monkeypatch.setattr(experiment, "run", spy)
        run_experiment(parse_config_text(text), tmp_path / "run")
        return rules[0]

    def test_auto_eta_derives_the_discrepancy_from_sigma(self, tmp_path, monkeypatch):
        from linbreg.problems import discrepancy_eta

        stop = self.stopping_rule(self.NOISY + "auto_eta = true\n", tmp_path, monkeypatch)
        assert stop.discrepancy_eta == discrepancy_eta(0.01, 10, 12)
        assert stop.discrepancy_eta > 0

    def test_explicit_discrepancy_eta_wins(self, tmp_path, monkeypatch):
        stop = self.stopping_rule(self.NOISY + "auto_eta = true\ndiscrepancy_eta = 0.5\n",
                                  tmp_path, monkeypatch)
        assert stop.discrepancy_eta == 0.5

    def test_no_discrepancy_without_auto_eta(self, tmp_path, monkeypatch):
        assert self.stopping_rule(self.NOISY, tmp_path, monkeypatch).discrepancy_eta is None


def _assert_baseline_rows(path):
    """Baselines carry no dual variable: the monitors that need one read nan,
    and the certificates they cannot check read 1."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows
    for row in rows:
        rec = dict(zip(header, row))
        for col in ("surrogate", "breg_sym", "r_norm", "rho2_bound"):
            assert rec[col] == "nan"
        assert rec["decrease_ok"] == "1" and rec["bound_ok"] == "1"


CLASSIFIER_CFG = "problem = classifier\ntrain_n = 40\nhidden = 6\nmax_iter = 6\nseed = 2\n"


class TestClassifierComputesOncePerPoint:
    def test_one_forward_pass_per_evaluated_point(self, tmp_path, monkeypatch):
        import linbreg.problems.classify as classify

        calls = {"forward": 0, "evaluate": 0}
        forward = classify._forward
        value_and_grad = classify.ClassifierObjective.value_and_grad

        def counted_forward(*args):
            calls["forward"] += 1
            return forward(*args)

        def counted_value_and_grad(self, x, facts=None):
            calls["evaluate"] += facts is not None
            return value_and_grad(self, x, facts)

        monkeypatch.setattr(classify, "_forward", counted_forward)
        monkeypatch.setattr(classify.ClassifierObjective, "value_and_grad",
                            counted_value_and_grad)
        log = run_experiment(parse_config_text(CLASSIFIER_CFG), tmp_path / "run")
        # u0, then one evaluation per backtracking trial; prediction_rate
        # reads the accepted trial's output from its state
        assert calls["evaluate"] > log.iterations
        assert calls["forward"] == calls["evaluate"]

    @pytest.mark.parametrize("solver", ["linbreg", "proximal-gd", "projected-gd"])
    def test_one_svd_per_layer_per_iterate_outside_the_prox(self, tmp_path, monkeypatch,
                                                            solver):
        import linbreg.regularizers as regularizers

        calls = {"svd": 0, "thin": 0}
        svd = np.linalg.svd
        svd_thin = regularizers.svd_thin

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        def counted_thin(a):
            calls["thin"] += 1
            return svd_thin(a)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(regularizers, "svd_thin", counted_thin)
        cfg = parse_config_text(CLASSIFIER_CFG + f"solver = {solver}\n")
        log = run_experiment(cfg, tmp_path / "run")
        assert log.iterations == 6
        # R(u) and rank_A* share one SVD per layer and point, from u0 on; the
        # conjugate decides on the Gram matrix
        assert calls["svd"] - calls["thin"] == 2 * (log.iterations + 1)


class TestStateOwnsItsFacts:
    def test_interleaved_runs_sharing_e_and_r_match_separate_runs(self):
        # facts live on each run's states, never on the shared E or R: run b
        # takes a whole step between run a's evaluations and a's extras, and
        # no record of either run changes
        from linbreg import BacktrackingPolicy, StoppingRule, initial_state, run
        from linbreg.experiment import build_experiment
        from linbreg.solver import iterate

        built = build_experiment(parse_config_text(CLASSIFIER_CFG))
        E, R = built.E, built.R
        # a rank-one start keeps run b's ranks below run a's full ones
        rank_one = [s[0] * np.outer(U[:, 0], Vt[0]) for U, s, Vt in
                    (np.linalg.svd(A, full_matrices=False) for A in init_weights(E.shapes, 8))]
        starts = [built.u0, E.pack(rank_one)]
        policy = BacktrackingPolicy(tau0=1e-3)
        stop = StoppingRule(max_iter=8)

        def fresh(u0):
            return initial_state(E, R, u0, policy.tau0)

        separate = [run(E, R, fresh(u0), policy, stop, extras_fn=built.extras_fn).records
                    for u0 in starts]

        steps_b = iterate(E, R, fresh(starts[1]), policy, built.extras_fn)
        records_b = []

        def extras_a(st):
            records_b.append(next(steps_b)[1])
            return built.extras_fn(st)

        records_a = run(E, R, fresh(starts[0]), policy, stop, extras_fn=extras_a).records
        for got, want in zip((records_a, records_b), separate):
            assert [repr(r) for r in got] == [repr(r) for r in want]
        # at every step the runs differ in each column that reads a fact
        for a, b in zip(*separate):
            assert a.surrogate != b.surrogate
            assert all(a.extras[c] != b.extras[c] for c in ("rank_A1", "prediction_rate"))

    def test_replace_starts_a_state_without_facts(self):
        from dataclasses import replace

        from linbreg import initial_state
        from linbreg.experiment import build_experiment

        built = build_experiment(parse_config_text(CLASSIFIER_CFG))
        st = initial_state(built.E, built.R, built.u0, 1e-3)
        assert "output" in st.facts
        assert replace(st, u=np.zeros_like(st.u)).facts == {}
        # the warm start belongs to the run, not to the point
        assert replace(st, u=np.zeros_like(st.u)).warm is st.warm


DECONV_CFG = "problem = deconv\nheight = 12\nwidth = 12\nmax_iter = 6\n"


class TestRunOwnsItsWarmStart:
    @pytest.mark.parametrize("text", [
        DECONV_CFG,
        "problem = mri\nn = 8\n",
        CLASSIFIER_CFG,
        "problem = quadratic\nn = 10\n",
    ], ids=["deconv", "mri", "classifier", "quadratic"])
    def test_a_run_changes_neither_e_nor_r(self, text):
        import pickle

        from linbreg import BacktrackingPolicy, StoppingRule, initial_state, run
        from linbreg.experiment import build_experiment

        cfg = parse_config_text(text)
        built = build_experiment(cfg)
        before = pickle.dumps((built.E, built.R))
        st0 = initial_state(built.E, built.R, built.u0, cfg["tau0"])
        result = run(built.E, built.R, st0, BacktrackingPolicy(tau0=cfg["tau0"]),
                     StoppingRule(max_iter=5), extras_fn=built.extras_fn)
        assert len(result.records) == 5
        assert pickle.dumps((built.E, built.R)) == before

    def test_interleaved_deconv_runs_sharing_one_tv_match_separate_runs(self):
        # run b takes a whole step between run a's steps; each run warm-starts
        # the shared TotalVariation2D from its own states only
        from linbreg import BacktrackingPolicy, StoppingRule, initial_state, run
        from linbreg.experiment import build_experiment
        from linbreg.solver import iterate

        cfg = parse_config_text(DECONV_CFG)
        built = build_experiment(cfg)
        E, R = built.E, built.R
        image, kernel = E.split(built.u0)
        starts = [built.u0, E.pack(image + 0.5, kernel)]
        policy = BacktrackingPolicy(tau0=cfg["tau0"])
        stop = StoppingRule(max_iter=cfg["max_iter"])

        def fresh(u0):
            return initial_state(E, R, u0, policy.tau0)

        separate = [run(E, R, fresh(u0), policy, stop, extras_fn=built.extras_fn).records
                    for u0 in starts]

        steps_b = iterate(E, R, fresh(starts[1]), policy, built.extras_fn)
        records_b = []

        def extras_a(st):
            records_b.append(next(steps_b)[1])
            return built.extras_fn(st)

        records_a = run(E, R, fresh(starts[0]), policy, stop, extras_fn=extras_a).records
        for got, want in zip((records_a, records_b), separate):
            assert [repr(r) for r in got] == [repr(r) for r in want]
        for a, b in zip(*separate):
            assert a.energy != b.energy and a.extras["tv_value"] != b.extras["tv_value"]

    def test_mri_blocks_share_one_tv_and_keep_separate_warm_records(self):
        from linbreg import BacktrackingPolicy, StoppingRule, TotalVariation2D, initial_state, run
        from linbreg.experiment import build_experiment

        cfg = parse_config_text("problem = mri\nn = 8\n")
        built = build_experiment(cfg)
        (re_part, a, b), (im_part, c, d) = built.R.parts[:2]
        assert isinstance(re_part, TotalVariation2D) and re_part is im_part
        st0 = initial_state(built.E, built.R, built.u0, cfg["tau0"])
        st = run(built.E, built.R, st0, BacktrackingPolicy(tau0=cfg["tau0"]),
                 StoppingRule(max_iter=2)).state
        re_rec, im_rec = st.warm[(a, b)]["tv"], st.warm[(c, d)]["tv"]
        assert re_rec is not im_rec
        assert not np.array_equal(re_rec[1].dual, im_rec[1].dual)

    def test_exhausted_tv_budget_returns_and_records_its_iterations(self):
        # an inner budget of 3 cannot reach the default tolerance: each call
        # returns its best iterate and records the 3 iterations it ran
        from linbreg import (
            BacktrackingPolicy,
            PdhgConfig,
            SeparableSum,
            SimplexIndicator,
            StoppingRule,
            TotalVariation2D,
            initial_state,
            run,
        )
        from linbreg.experiment import build_experiment

        cfg = parse_config_text(DECONV_CFG)
        built = build_experiment(cfg)
        E = built.E
        tv = TotalVariation2D(cfg["alpha"], E.image_shape, PdhgConfig(maxit=3))
        R = SeparableSum([(tv, E.n_image), (SimplexIndicator(), E.n_kernel, False)])
        st = run(E, R, initial_state(E, R, built.u0, cfg["tau0"]),
                 BacktrackingPolicy(tau0=cfg["tau0"]), StoppingRule(max_iter=3)).state
        _, res = st.warm[(0, E.n_image)]["tv"]
        assert res.iters == 3 and tv.config.tol < res.gap < np.inf
