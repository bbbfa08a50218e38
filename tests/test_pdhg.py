import numpy as np
import pytest

from linbreg import NotConvergedError, PdhgConfig
from linbreg.pdhg import SIGMA, TAU_INNER, pdhg_tv_prox
from linbreg.tensor_ops import div2d, total_variation
from linbreg.verify import tv_prox_dual_oracle


def prox_objective(u, z, lam):
    return 0.5 * np.sum((u - z) ** 2) + lam * total_variation(u)


class TestConfig:
    def test_defaults_valid(self):
        assert SIGMA * TAU_INNER * 8.0 <= 1.0 + 1e-12


class TestTrivialInputs:
    def test_lambda_zero_returns_argument(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 4))
        res = pdhg_tv_prox(z, 0.0)
        assert np.array_equal(res.u, z)
        assert res.gap == 0.0
        assert res.iters == 1

    def test_constant_image_fixed(self):
        z = np.full((5, 5), 1.3)
        res = pdhg_tv_prox(z, 2.0)
        assert np.abs(res.u - z).max() < 1e-12
        assert res.gap <= 1e-7


class TestAgainstDualOracle:
    def test_step_signal_matches_oracle(self):
        z = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
        res = pdhg_tv_prox(z, 1.0)
        oracle_u, oracle_gap = tv_prox_dual_oracle(z, 1.0, gap_tol=1e-12)
        assert oracle_gap <= 1e-12
        assert np.abs(res.u - oracle_u).max() < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_random_images_match_oracle_objective(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((8, 8))
        lam = rng.uniform(0.15, 0.35)
        res = pdhg_tv_prox(z, lam, PdhgConfig(tol=1e-8, maxit=100000))
        oracle_u, oracle_gap = tv_prox_dual_oracle(z, lam, gap_tol=1e-12)
        assert oracle_gap <= 1e-12
        assert prox_objective(res.u, z, lam) - prox_objective(oracle_u, z, lam) <= 1e-6


class TestInvariants:
    def test_reported_gap_monotone_at_checkpoints(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((8, 8))
        # the reported gap is the best so far; budgets on the check schedule
        # (every iteration up to 50, then every 10th) see nested sets of checks
        budgets = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 40000]
        gaps = []
        for maxit in budgets:
            try:
                res = pdhg_tv_prox(z, 0.5, PdhgConfig(tol=1e-7, maxit=maxit))
            except NotConvergedError as err:
                res = err.result
            gaps.append(res.gap)
        assert gaps[0] > 1e-7 >= gaps[-1]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_primal_fixed_point_export_exact(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 6))
        res = pdhg_tv_prox(z, 0.3)
        assert np.array_equal(res.u, z + div2d(res.dual))

    def test_dual_pointwise_feasible(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 6))
        lam = 0.4
        res = pdhg_tv_prox(z, lam)
        mag = np.sqrt(res.dual[0] ** 2 + res.dual[1] ** 2)
        assert mag.max() <= lam * (1.0 + 1e-12)

    def test_mean_preserved(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((7, 5))
        res = pdhg_tv_prox(z, 0.6)
        assert abs(res.u.mean() - z.mean()) < 1e-10

    def test_warm_start_cuts_iterations(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 8))
        cold = pdhg_tv_prox(z, 0.5)
        warm = pdhg_tv_prox(z + 1e-6 * rng.standard_normal((8, 8)), 0.5, dual0=cold.dual)
        assert warm.iters < cold.iters


class TestNotConverged:
    def test_error_carries_best_iterate(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((8, 8))
        with pytest.raises(NotConvergedError) as err:
            pdhg_tv_prox(z, 0.5, PdhgConfig(tol=1e-14, maxit=5))
        res = err.value.result
        assert res.iters == 5
        assert res.u.shape == z.shape
        assert np.isfinite(res.gap)
