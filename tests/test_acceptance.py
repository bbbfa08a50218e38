"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Criterion 5 is split in two: the run-behaviour checks, and the
closed form q^k = -k of the dual iterates, derived in the test's docstring
from the update equations and checked against an independent scalar
recursion.
"""

from dataclasses import replace

import numpy as np
import pytest

from linbreg import (
    L1,
    BacktrackingPolicy,
    NuclearNorm,
    SeparableSum,
    SimplexIndicator,
    StoppingRule,
    TotalVariation2D,
    WeightedL1Dct,
    Zero,
    initial_state,
    linbreg_step,
    run,
)
from linbreg.experiment import (
    apply_overrides,
    parse_config_text,
    prediction_rate,
    rank_of,
    run_experiment,
)
from linbreg.pdhg import PdhgConfig
from linbreg.problems import (
    BlindDeconvObjective,
    ClassifierObjective,
    LeastSquares,
    ParallelMriObjective,
    counterexample_run,
    discrepancy_eta,
    init_weights,
    make_mask,
    make_synthetic_deconv,
    make_synthetic_mri,
    nn_forward,
    synthetic_digits,
)
from linbreg.problems.classify import one_hot
from linbreg.regularizers import symmetric_bregman_distance
from linbreg.solver import check_sufficient_decrease, surrogate_subgradient
from linbreg.tensor_ops import dct2, idct2, total_variation
from linbreg.verify import finite_difference_gradient_check

from helpers import (
    project_simplex_bisection,
    prox_oracle_check,
    separable_prox_oracle,
    tv_prox_dual_oracle,
)
from instances import run_instance


# ---------------------------------------------------------------------------
# 1. gradient-descent equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_descent_equivalence():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(32)
    u0 = rng.standard_normal(32)
    tau = 0.7
    E = LeastSquares(f)
    st = initial_state(E, Zero(), u0, tau0=tau)
    for k in range(1, 51):
        st = linbreg_step(E, Zero(), st)
        closed = f + (1.0 - tau) ** k * (u0 - f)
        scale = max(1.0, float(np.abs(closed).max()))
        assert np.abs(st.u - closed).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# 2-4. decrease, subgradient bound and step identity on the three families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
def test_criterion_02_sufficient_decrease_audit(kind):
    E, _, st0, result, tau, rho1 = run_instance(kind, 500, seed=10)
    assert tau == pytest.approx(2.0 / (E.lipschitz + 2.0 * rho1), rel=1e-15)
    report = check_sufficient_decrease(result.records, E.lipschitz,
                                       st0.surrogate, rtol=1e-10)
    assert report.checked == 500
    assert report.violations == []


@pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
def test_criterion_03_subgradient_bound_audit(kind):
    E, _, st0, result, _, _ = run_instance(kind, 500, seed=10)
    tau_min = min([st0.tau] + [rec.tau for rec in result.records])
    rho2 = 1.0 + E.lipschitz + 1.0 / tau_min
    for rec in result.records:
        bound = rho2 * rec.iterate_gap
        assert rec.r_norm <= bound * (1.0 + 1e-9) + 1e-12


@pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
def test_criterion_04_step_identity_audit(kind):
    from instances import make_instance

    E, R, u0 = make_instance(kind, seed=10)
    tau = 2.0 / (E.lipschitz + 2.0 * (E.lipschitz / 4.0))
    st = initial_state(E, R, u0, tau0=tau)
    for _ in range(200):
        st_new = linbreg_step(E, R, st)
        delta = st_new.u - st.u
        lhs = -float(E.value_and_grad(st.u)[1] @ delta)
        rhs = float(delta @ delta) / tau + symmetric_bregman_distance(
            st_new.u, st.u, st_new.q, st.q)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))
        st = st_new


# ---------------------------------------------------------------------------
# 5. counterexample reproduction
# ---------------------------------------------------------------------------

def test_criterion_05_counterexample_behaviour():
    t = counterexample_run(0.5, 100)
    # the primal iterates reach and stay at 0 exactly, which is not a
    # stationary point of the parabola: |grad E| = 1 there
    assert np.array_equal(t.us[1:], np.zeros(100))
    assert t.final_grad_norm == 1.0
    # the dual iterates diverge linearly with slope exactly one
    assert np.allclose(np.diff(t.qs[1:]), -1.0, atol=0.0)


def test_criterion_05_counterexample_literal_closed_form():
    """The dual iterates follow the closed form q^k = q0 - k = -k for every u0 > 0.

    Applying the iteration u^{k+1} = prox(u^k + tau (q^k - grad E(u^k))),
    q^{k+1} = q^k - (u^{k+1} - u^k + tau grad E(u^k))/tau to E(u) = (u+1)^2/2,
    R the nonnegativity indicator, u0 > 0, q0 = 0, tau = 1 gives by direct
    substitution u^1 = max(u0 - (u0 + 1), 0) = 0 and q^1 = -(0 - u0 + u0 + 1)
    = -1, then q^{k+1} = q^k - 1.  The expected values come from that scalar
    recursion in plain floats, not from the solver.  The form q^k = u0 - k
    drops the u0 in the first gradient grad E(u0) = u0 + 1: it is off by
    exactly u0 and holds only in the limit u0 -> 0.
    """
    n = 100
    ks = np.arange(1, n + 1, dtype=float)
    closed_form = -ks

    def scalar_recursion(u0):
        u, q, tau, qs = u0, 0.0, 1.0, []
        for _ in range(n):
            g = u + 1.0
            u_next = max(u + tau * (q - g), 0.0)
            q = q - (u_next - u + tau * g) / tau
            u = u_next
            qs.append(q)
        return np.array(qs)

    # dyadic starts are exact in binary, so every iterate is; otherwise allow
    # a few ulps per step, far below u0 so that u0 - k still fails
    for u0, atol in [(0.25, 0.0), (0.5, 0.0), (3.0, 0.0),
                     (0.7, 4 * np.finfo(float).eps * ks),
                     (1e-3, 4 * np.finfo(float).eps * ks)]:
        assert np.all(atol < 1e-3 * u0)
        expected = scalar_recursion(u0)
        assert np.all(np.abs(expected - closed_form) <= atol), u0

        t = counterexample_run(u0, n)
        assert np.array_equal(t.us[1:], np.zeros(n)), u0
        assert np.all(np.abs(t.qs[1:] - closed_form) <= atol), (
            f"u0 = {u0}: q^k = {t.qs[1:4]}..., not -k = {closed_form[:3]}..."
        )
        # the form u0 - k misses every iterate by exactly u0
        assert np.all(np.abs((t.qs[1:] - (u0 - ks)) + u0) <= atol), u0


# ---------------------------------------------------------------------------
# 6. prox correctness against independent oracles
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_prox_oracles_closed_forms():
    rng = np.random.default_rng(6)
    for i in range(20):
        tau = float(rng.uniform(0.3, 2.0))

        # l1
        alpha = float(rng.uniform(0.2, 1.5))
        R = L1(alpha)
        z = 2.0 * rng.standard_normal(10)
        ternary = separable_prox_oracle(lambda t: alpha * abs(t), z, tau)
        gap = prox_oracle_check(R, z, tau, iters=3000, seed=i,
                                subgrad=lambda u, a=alpha: a * np.sign(u),
                                extra_candidates=[ternary])
        assert gap <= 1e-8

        # weighted l1 in transform coefficients
        w = rng.uniform(0.0, 2.0, size=(3, 3))
        Rw = SeparableSum([(WeightedL1Dct(alpha, w), (3, 3))])
        zw = rng.standard_normal(9)
        # per-coefficient search with the true weights, mapped back
        zc = dct2(zw.reshape(3, 3))
        best_c = np.array([
            separable_prox_oracle(lambda t, wi=wi: alpha * wi * abs(t),
                                  np.array([c]), tau)[0]
            for c, wi in zip(zc.ravel(), w.ravel())
        ]).reshape(3, 3)
        cand = idct2(best_c).ravel()
        gap = prox_oracle_check(Rw, zw, tau, iters=0, seed=i, extra_candidates=[cand])
        assert gap <= 1e-8

        # simplex
        Rs = SimplexIndicator()
        zs = 3.0 * rng.standard_normal(8)
        gap = prox_oracle_check(Rs, zs, tau, iters=500, seed=i,
                                subgrad=lambda u: np.zeros_like(u),
                                project=project_simplex_bisection,
                                extra_candidates=[project_simplex_bisection(zs)])
        assert gap <= 1e-8

        # nuclear
        Rn = SeparableSum([(NuclearNorm(alpha), (4, 3))])
        zn = rng.standard_normal(12)

        def nuc_subgrad(u, a=alpha):
            U, s, Vh = np.linalg.svd(u.reshape(4, 3), full_matrices=False)
            return (a * (U * np.sign(s)) @ Vh).ravel()

        gap = prox_oracle_check(Rn, zn, tau, iters=3000, seed=i, subgrad=nuc_subgrad)
        assert gap <= 1e-8


@pytest.mark.slow
def test_criterion_06_prox_oracle_tv():
    # 1xN step signal
    z1 = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
    R1 = TotalVariation2D(1.0, config=PdhgConfig(tol=1e-10, maxit=100000))
    warm = {}
    R1.prox(z1, 1.0, warm)
    assert warm["tv"][1].gap <= R1.config.tol
    u_oracle, og = tv_prox_dual_oracle(z1, 1.0, gap_tol=1e-12)
    assert og <= 1e-12
    gap = prox_oracle_check(R1, z1, 1.0, iters=0, extra_candidates=[u_oracle])
    assert gap <= 1e-6

    # 8x8 random images
    rng = np.random.default_rng(1)
    for _ in range(2):
        z = rng.standard_normal((8, 8))
        lam = float(rng.uniform(0.2, 0.35))
        R = TotalVariation2D(lam, config=PdhgConfig(tol=1e-9, maxit=200000))
        warm = {}
        R.prox(z, 1.0, warm)
        assert warm["tv"][1].gap <= R.config.tol
        u_oracle, og = tv_prox_dual_oracle(z, lam, gap_tol=1e-12)
        assert og <= 1e-12
        gap = prox_oracle_check(R, z, 1.0, iters=0, extra_candidates=[u_oracle])
        assert gap <= 1e-6


# ---------------------------------------------------------------------------
# 7. desk-scale blind deconvolution against the projected-gradient baseline
# ---------------------------------------------------------------------------

def _deconv_setup(sigma=0.0, seed=0, N=32):
    prob = make_synthetic_deconv(seed, N, N, (3, 5), sigma=sigma)
    E = BlindDeconvObjective(prob.f, prob.kernel_shape)
    u0 = E.pack([np.zeros((N, N)), np.full((3, 5), 1.0 / 15.0)])
    return prob, E, u0


def _bregman_deconv_regularizer(alpha, N):
    tv = TotalVariation2D(alpha, config=PdhgConfig(tol=1e-8, maxit=400))
    parts = [(tv, (N, N))] if alpha > 0 else [(Zero(), N * N)]
    parts.append((SimplexIndicator(), 15, False))
    return SeparableSum(parts)


@pytest.mark.slow
def test_criterion_07_blind_deconvolution_beats_projected_gradient():
    budget = 3500
    prob, E, u0 = _deconv_setup(sigma=0.0, seed=0)

    constraint = SeparableSum(list(zip([Zero(), SimplexIndicator()], E.sizes)))
    st0 = replace(initial_state(E, Zero(), u0, tau0=1.0), q=None)
    baseline = run(E, constraint, st0, BacktrackingPolicy(tau0=1.0),
                   StoppingRule(max_iter=budget))
    _, h_pgd = E.split(baseline.state.u)
    herr_pgd = float(np.linalg.norm(h_pgd - prob.h_true))

    passed = False
    for alpha in (0.05, 0.2, 0.0125):  # harness tunes alpha over the grid
        R = _bregman_deconv_regularizer(alpha, 32)
        st0 = initial_state(E, R, u0, tau0=2.0)
        tvs = []

        def extras(st):
            img, _ = E.split(st.u)
            tvs.append(total_variation(img))
            return {}

        res = run(E, R, st0, BacktrackingPolicy(tau0=2.0),
                  StoppingRule(max_iter=budget, discrepancy_eta=1e-9),
                  extras_fn=extras)
        _, h_lb = E.split(res.state.u)
        herr_lb = float(np.linalg.norm(h_lb - prob.h_true))
        if res.state.energy <= 1e-8 and herr_lb <= 0.5 * herr_pgd:
            # the run that wins does so the coarse-to-fine way: image total
            # variation trends upward after burn-in
            burn = len(tvs) // 4
            assert np.mean(tvs[-burn:]) >= np.mean(tvs[burn:2 * burn])
            passed = True
            break
    assert passed, (
        f"no alpha in the grid reached fit <= 1e-8 with kernel error at most "
        f"half the baseline's {herr_pgd:.4f}"
    )


# ---------------------------------------------------------------------------
# 8. discrepancy stopping on noisy data
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_discrepancy_stopping():
    sigma = 1e-4
    N = 16
    eta = discrepancy_eta(sigma, N, N)
    assert eta == pytest.approx(1.2 * sigma ** 2 / (2.0 * np.sqrt(N * N)), rel=1e-15)
    prob, E, u0 = _deconv_setup(sigma=sigma, seed=0, N=N)
    tv = TotalVariation2D(1e-3, config=PdhgConfig(tol=1e-10, maxit=400))
    R = SeparableSum([(tv, (N, N)),
                      (SimplexIndicator(), 15, False)])
    st0 = initial_state(E, R, u0, tau0=2.0)
    max_iter = 30000
    res = run(E, R, st0, BacktrackingPolicy(tau0=2.0),
              StoppingRule(max_iter=max_iter, discrepancy_eta=eta))
    assert res.stop_reason == "discrepancy"
    assert res.state.energy <= eta
    assert len(res.records) < max_iter


# ---------------------------------------------------------------------------
# 9. classifier rank monotonicity and prediction improvement
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_classifier_rank_monotone_and_learning():
    D, labels = synthetic_digits(0, 500)
    Y = one_hot(labels)
    shapes = [(10, 30), (30, 784)]
    E = ClassifierObjective(D, Y, shapes, activation_kind="rectifier",
                            loss_kind="frobenius", eps=float(np.finfo(float).eps))
    R = SeparableSum([(NuclearNorm(0.2), shapes[0]), (NuclearNorm(0.2), shapes[1])])
    u0 = E.pack(init_weights(shapes, seed=0))
    st0 = initial_state(E, R, u0, tau0=1e-3)

    ranks1, ranks2, rates = [], [], []

    def extras(st):
        As = E.split(st.u)
        ranks1.append(rank_of(np.linalg.svd(As[0], compute_uv=False)))
        ranks2.append(rank_of(np.linalg.svd(As[1], compute_uv=False)))
        rates.append(prediction_rate(nn_forward(As, D, E.activation), Y))
        return {}

    run(E, R, st0, BacktrackingPolicy(tau0=1e-3), StoppingRule(max_iter=200),
        extras_fn=extras)
    assert len(rates) == 200
    assert all(b >= a for a, b in zip(ranks1, ranks1[1:]))
    assert all(b >= a for a, b in zip(ranks2, ranks2[1:]))
    assert rates[-1] > rates[0]


# ---------------------------------------------------------------------------
# 10. MRI sanity
# ---------------------------------------------------------------------------

def test_criterion_10_mri_sanity():
    eps = float(np.finfo(float).eps)
    prob = make_synthetic_mri(0, 8, coils=1, mask_kind="full", eps=eps)
    E = ParallelMriObjective(prob.data, prob.mask, prob.eps)
    x = E.pack([prob.u_true, *prob.b_true])
    eps_terms = 0.5 * eps * (float(np.sum(np.abs(prob.u_true) ** 2))
                             + sum(float(np.sum(np.abs(b) ** 2)) for b in prob.b_true))
    assert E.value_and_grad(x)[0] - eps_terms <= 1e-12

    frac = make_mask("spiral", 64).mean()
    assert 0.20 <= frac <= 0.30


# ---------------------------------------------------------------------------
# 11. finite-difference gradient checks across all drivers
# ---------------------------------------------------------------------------

def test_criterion_11_finite_difference_checks():
    checks = []

    prob, E, u0 = _deconv_setup(sigma=0.01, seed=3, N=8)
    checks.append((E, u0, 0.3))

    mri = make_synthetic_mri(4, 8, coils=2, mask_kind="random", p=0.5)
    Em = ParallelMriObjective(mri.data, mri.mask, eps=1e-6)
    checks.append((Em, np.zeros(Em.size), 0.4))

    D, labels = synthetic_digits(5, 30)
    Y = one_hot(labels)
    for loss in ("frobenius", "kl", "kl-sym"):
        Ec = ClassifierObjective(D, Y, [(10, 8), (8, 784)],
                                 activation_kind="smooth-max", beta=5.0,
                                 loss_kind=loss, loss_eps=1.0, eps=1e-8)
        checks.append((Ec, Ec.pack(init_weights(Ec.shapes, seed=6)), 0.02))

    for idx, (E_obj, base, spread) in enumerate(checks):
        for point in range(10):
            rng = np.random.default_rng(1000 * idx + point)
            x = np.ravel(base) + spread * rng.standard_normal(np.ravel(base).size)
            report = finite_difference_gradient_check(E_obj, x, n_coords=12,
                                                      seed=point)
            assert report.max_rel_err <= 1e-4, (idx, point, report)


# ---------------------------------------------------------------------------
# 12. determinism of experiment runs
# ---------------------------------------------------------------------------

def test_criterion_12_experiment_determinism(tmp_path):
    for text in (
        "problem = quadratic\nn = 8\nreg = l1\nmax_iter = 40\nseed = 11\ntau0 = 1.0\n",
        "problem = deconv\nheight = 12\nwidth = 12\nkernel_h = 3\nkernel_w = 3\n"
        "alpha = 0.01\nmax_iter = 8\nseed = 12\n",
        "problem = classifier\ntrain_n = 30\nhidden = 5\nmax_iter = 5\nseed = 13\n",
    ):
        cfg = parse_config_text(text)
        name = cfg["problem"]
        run_experiment(cfg, tmp_path / f"{name}_a")
        run_experiment(cfg, tmp_path / f"{name}_b")
        a = (tmp_path / f"{name}_a" / "log.csv").read_bytes()
        b = (tmp_path / f"{name}_b" / "log.csv").read_bytes()
        assert a == b
