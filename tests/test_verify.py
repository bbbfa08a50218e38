import numpy as np
import pytest

from linbreg import (
    L1,
    NumericsError,
    SimplexIndicator,
    TotalVariation2D,
    WeightedL1Dct,
)
from linbreg.problems import LeastSquares
from linbreg.solver import SmoothObjective
from linbreg.tensor_ops import total_variation
from linbreg.verify import (
    finite_difference_gradient_check,
    project_simplex_bisection,
    prox_oracle_check,
    tv_prox_dual_oracle,
)


class LinearObjective(SmoothObjective):
    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)

    def value_and_grad(self, u, facts=None):
        return float(np.ravel(u) @ np.ravel(self.a)), self.a.reshape(np.asarray(u).shape)


class HalfSquared(SmoothObjective):
    def value_and_grad(self, u, facts=None):
        x = np.ravel(u)
        return 0.5 * float(x @ x), np.asarray(u, dtype=np.float64)


class TestFdCheck:
    def test_linear_energy_exact(self):
        rng = np.random.default_rng(0)
        E = LinearObjective(rng.standard_normal(12))
        rep = finite_difference_gradient_check(E, rng.standard_normal(12), seed=1)
        assert rep.max_rel_err < 1e-9

    def test_quadratic_energy(self):
        rng = np.random.default_rng(1)
        rep = finite_difference_gradient_check(HalfSquared(), rng.standard_normal(10), seed=2)
        assert rep.max_rel_err < 1e-10

    def test_wrong_gradient_detected(self):
        class Wrong(HalfSquared):
            def value_and_grad(self, u, facts=None):
                return super().value_and_grad(u)[0], 2.0 * np.asarray(u)

        rng = np.random.default_rng(2)
        rep = finite_difference_gradient_check(Wrong(), rng.standard_normal(10) + 1.0, seed=3)
        assert rep.max_rel_err > 1e-2

    def test_seed_deterministic(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(20)
        r1 = finite_difference_gradient_check(HalfSquared(), u, seed=7)
        r2 = finite_difference_gradient_check(HalfSquared(), u, seed=7)
        assert r1 == r2

    def test_non_finite_energy_reported(self):
        class Exploding(SmoothObjective):
            def value_and_grad(self, u, facts=None):
                x = np.ravel(u)
                return (float("inf") if np.any(x > 1.5) else float(x @ x)), 2.0 * np.asarray(u)

        with pytest.raises(NumericsError):
            finite_difference_gradient_check(Exploding(), np.full(4, 1.5), seed=0)


class TestSimplexBisection:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_optimal(self, seed):
        rng = np.random.default_rng(seed)
        z = 3.0 * rng.standard_normal(8)
        p = project_simplex_bisection(z)
        assert abs(p.sum() - 1.0) < 1e-10
        assert p.min() >= -1e-12
        # optimality against the production projection is tested elsewhere;
        # here, verify the KKT condition directly
        r = z - p
        assert np.max(r) - float(r @ p) <= 1e-9


class TestProxOracleCheck:
    def test_l1_closed_form_within_tolerance(self):
        rng = np.random.default_rng(4)
        R = L1(0.8)
        gap = prox_oracle_check(R, rng.standard_normal(6), 0.9,
                                subgrad=lambda u: 0.8 * np.sign(u))
        assert gap <= 1e-10

    def test_simplex_projection_exactness(self):
        rng = np.random.default_rng(5)
        R = SimplexIndicator()
        gap = prox_oracle_check(R, rng.standard_normal(6), 1.0, iters=2000,
                                subgrad=lambda u: np.zeros_like(u),
                                project=project_simplex_bisection)
        assert gap <= 1e-10

    def test_detects_broken_prox(self):
        class BrokenL1(L1):
            def prox(self, z, tau):
                return super().prox(z, 2.5 * tau)  # over-shrinks

        rng = np.random.default_rng(6)
        z = 2.0 + rng.uniform(size=6)
        gap = prox_oracle_check(BrokenL1(1.0), z, 1.0,
                                subgrad=lambda u: np.sign(u))
        assert gap > 1e-3

    def test_tv_prox_against_dual_oracle(self):
        z = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
        R = TotalVariation2D(1.0, (1, 6))
        u_oracle, og = tv_prox_dual_oracle(z, 1.0, gap_tol=1e-12)
        gap = prox_oracle_check(R, z.ravel(), 1.0, iters=0,
                                extra_candidates=[u_oracle.ravel()])
        assert og <= 1e-12
        assert gap <= 1e-6


class TestTvDualOracle:
    def test_matches_known_1d_solution(self):
        # two-level step: prox moves each plateau toward the mean by lam * jumps / length
        z = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
        u, gap = tv_prox_dual_oracle(z, 1.0, gap_tol=1e-12)
        assert gap <= 1e-12
        assert np.abs(u - [[0.5, 0.5, 3.0, 3.0, 0.5, 0.5]]).max() < 1e-6

    def test_mean_preserved(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 6))
        u, gap = tv_prox_dual_oracle(z, 0.4, gap_tol=1e-11)
        assert abs(u.mean() - z.mean()) < 1e-10
        assert gap <= 1e-11
