import numpy as np
import pytest

from linbreg import (
    L1,
    NonnegativeIndicator,
    NuclearNorm,
    SeparableSum,
    SimplexIndicator,
    SquaredL2,
    TotalVariation2D,
    UnsupportedOperation,
    WeightedL1Dct,
    Zero,
)
from linbreg.pdhg import PdhgConfig, pdhg_tv_prox
from linbreg.regularizers import (
    FEAS_TOL,
    bregman_distance,
    fenchel_residual,
    project_simplex,
    symmetric_bregman_distance,
)
from linbreg.tensor_ops import dct2
from helpers import separable_prox_oracle


class TestBregmanDistance:
    def test_quadratic_is_half_squared_distance(self):
        R = SquaredL2()
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, 6))
        d = bregman_distance(R, u, v, q=v)
        assert d == pytest.approx(0.5 * np.sum((u - v) ** 2), rel=1e-12)

    def test_l1_same_sign_ray(self):
        R = L1()
        assert bregman_distance(R, np.array([2.0]), np.array([1.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_l1_opposite_sign(self):
        R = L1()
        d = bregman_distance(R, np.array([-1.0]), np.array([1.0]), np.array([1.0]))
        assert d == pytest.approx(2.0, abs=1e-14)

    def test_infinite_value_is_valid_result(self):
        R = SimplexIndicator()
        v = np.array([0.5, 0.5])
        assert bregman_distance(R, np.array([2.0, 2.0]), v, np.zeros(2)) == np.inf

    def test_base_point_outside_domain_rejected(self):
        R = SimplexIndicator()
        with pytest.raises(ValueError):
            bregman_distance(R, np.array([0.5, 0.5]), np.array([3.0, 3.0]), np.zeros(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegativity_on_certified_inputs(self, seed):
        rng = np.random.default_rng(seed)
        for R in (L1(0.7), SquaredL2(1.3)):
            z = rng.standard_normal(8)
            v = R.prox(z, 0.5)
            q = (z - v) / 0.5
            u = rng.standard_normal(8)
            d = bregman_distance(R, u, v, q)
            assert d >= -1e-12 * (1.0 + abs(R.value(u)))


class TestSymmetricBregman:
    def test_zero_at_same_point(self):
        R = L1()
        u = np.array([1.0, -2.0])
        q = R.initial_subgradient(u)
        assert symmetric_bregman_distance(u, u, q, q) == 0.0

    def test_quadratic_gives_squared_distance(self):
        R = SquaredL2()
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((2, 5))
        d = symmetric_bregman_distance(u, v, p=u, q=v)
        assert d == pytest.approx(np.sum((u - v) ** 2), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sum_of_two_distances(self, seed):
        rng = np.random.default_rng(seed)
        R = L1(0.8)
        z1, z2 = rng.standard_normal((2, 7))
        u = R.prox(z1, 1.0)
        v = R.prox(z2, 1.0)
        p = z1 - u
        q = z2 - v
        lhs = symmetric_bregman_distance(u, v, p, q)
        rhs = bregman_distance(R, u, v, q) + bregman_distance(R, v, u, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFenchelResidual:
    def test_squared_norm_self_conjugate(self):
        R = SquaredL2()
        u = np.array([1.0, -3.0])
        assert fenchel_residual(R, u, u) == pytest.approx(0.0, abs=1e-14)

    def test_l1_subgradient_certifies(self):
        R = L1()
        assert fenchel_residual(R, np.array([1.0, 0.0]), np.array([1.0, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_l1_non_subgradient(self):
        R = L1()
        assert fenchel_residual(R, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_unavailable_conjugate_raises(self):
        R = TotalVariation2D(1.0)
        with pytest.raises(UnsupportedOperation):
            fenchel_residual(R, np.zeros((2, 2)), np.zeros((2, 2)))


class TestProxL1:
    def test_lambda_zero_identity(self):
        z = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(L1(1.0).prox(z, 0.0), z)

    def test_analytic_shrinkage(self):
        assert np.allclose(L1(1.0).prox(np.array([2.0, -0.5, 0.0]), 1.0), [1.0, 0.0, 0.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            L1(1.0).prox(np.zeros(2), -0.1)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_scalar_search_oracle(self, seed):
        # golden-section argument precision is ~sqrt(eps); compare objectives,
        # where the prox must match or beat the oracle to 1e-10
        rng = np.random.default_rng(seed)
        z = 2.0 * rng.standard_normal(6)
        tau = rng.uniform(0.2, 2.0)
        oracle = separable_prox_oracle(abs, z, tau)
        got = L1(1.0).prox(z, tau)

        def phi(u):
            return 0.5 * np.sum((u - z) ** 2) + tau * np.sum(np.abs(u))

        assert phi(got) <= phi(oracle) + 1e-10
        assert np.abs(got - oracle).max() < 1e-6


class TestProxWeightedL1Dct:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 4))
        assert np.abs(WeightedL1Dct(1.0, np.zeros((4, 4))).prox(z, 1.0) - z).max() < 1e-13

    def test_constant_image_with_free_dc(self):
        z = np.full((4, 4), 2.0)
        w = np.full((4, 4), 1e6)
        w[0, 0] = 0.0
        assert np.abs(WeightedL1Dct(1.0, w).prox(z, 1.0) - z).max() < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedL1Dct(1.0, -np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_coefficient_space_oracle(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 4))
        w = rng.uniform(0.0, 2.0, size=(4, 4))
        lam = rng.uniform(0.1, 1.0)
        out = WeightedL1Dct(lam, w).prox(z, 1.0)
        # solve per DCT coefficient with golden-section search, compare objectives
        zc = dct2(z).ravel()
        wf = w.ravel()
        oracle_c = np.array([
            separable_prox_oracle(lambda t, wi=wi: wi * abs(t), np.array([c]), lam)[0]
            for c, wi in zip(zc, wf)
        ])

        def phi_coef(c):
            return 0.5 * np.sum((c - zc) ** 2) + lam * np.sum(wf * np.abs(c))

        assert phi_coef(dct2(out).ravel()) <= phi_coef(oracle_c) + 1e-10
        assert np.abs(dct2(out).ravel() - oracle_c).max() < 1e-6


class TestProxTvFunction:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 4))
        res = pdhg_tv_prox(z, 0.0, PdhgConfig(tol=1e-7, maxit=2000))
        assert np.array_equal(res.u, z)
        assert res.gap == 0.0

    def test_delegates_to_inner_solver_with_gap(self):
        from linbreg.tensor_ops import total_variation

        z = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
        res = pdhg_tv_prox(z, 1.0, PdhgConfig(tol=1e-8, maxit=50000))
        assert res.gap <= 1e-8
        # prox objective must not exceed the argument's own objective
        assert (0.5 * np.sum((res.u - z) ** 2) + total_variation(res.u)
                <= total_variation(z) + 1e-12)

    def test_strict_budget_error(self):
        from linbreg import NotConvergedError

        rng = np.random.default_rng(1)
        with pytest.raises(NotConvergedError):
            pdhg_tv_prox(rng.standard_normal((8, 8)), 0.5, PdhgConfig(tol=1e-14, maxit=10))


class TestProjectSimplex:
    def test_identity_on_feasible_point(self):
        z = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(z), z, atol=1e-12)

    def test_symmetry(self):
        assert np.allclose(project_simplex(np.array([1.0, 1.0])), [0.5, 0.5])

    def test_vertex_case_with_kkt_and_grid(self):
        z = np.array([2.0, 0.0, -1.0])
        p = project_simplex(z)
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
        # KKT: z - p in the normal cone at p, i.e. max over the simplex of
        # <z - p, h - p> is nonpositive; the max over vertices suffices
        r = z - p
        assert np.max(r - float(r @ p)) <= 1e-12
        # dense grid search over the 2-simplex at resolution 1e-3
        ticks = np.linspace(0.0, 1.0, 1001)
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        pts = np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]])
        d2 = np.sum((pts - z[:, None]) ** 2, axis=0)
        assert np.sum((p - z) ** 2) <= d2.min() + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_output_feasible(self, seed):
        rng = np.random.default_rng(seed)
        p = project_simplex(rng.standard_normal(9) * 3.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p.min() >= 0.0


class TestProxNuclear:
    def test_diagonal_svt(self):
        out = NuclearNorm(2.0).prox(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_lambda_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3))
        assert np.abs(NuclearNorm(0.0).prox(a, 1.0) - a).max() < 1e-10

    def test_zero_matrix(self):
        R = NuclearNorm(0.5)
        assert np.array_equal(R.prox(np.zeros((3, 2)), 1.0), np.zeros((3, 2)))
        assert np.array_equal(R.initial_subgradient(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_initial_subgradient_of_a_rank_deficient_wide_matrix(self):
        # alpha U_r V_r^T over the nonzero singular values only; the wide shape
        # makes a transposed V fail on shape or value
        rng = np.random.default_rng(11)
        U, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        u = (U * [2.0, 1.0]) @ V.T
        g = NuclearNorm(0.5).initial_subgradient(u)
        assert g.shape == (3, 5)
        assert np.abs(g - 0.5 * U @ V.T).max() < 1e-10

    def test_local_optimality_sampling(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 3))
        lam = 0.7
        out = NuclearNorm(lam).prox(a, 1.0)

        def objective(x):
            return 0.5 * np.sum((x - a) ** 2) + lam * np.sum(
                np.linalg.svd(x, compute_uv=False))

        base = objective(out)
        for _ in range(200):
            assert base <= objective(out + 0.01 * rng.standard_normal((4, 3))) + 1e-12


def _with_top_singular_value(rng, shape, smax):
    """A seeded matrix of ``shape`` whose largest singular value is ``smax``."""
    m, n = shape
    p = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, p)))
    V, _ = np.linalg.qr(rng.standard_normal((n, p)))
    s = np.sort(rng.uniform(0.0, 0.9, size=p))[::-1] * smax
    s[0] = smax
    return (U * s) @ V.T


def _svd_decision(R, q):
    """The conjugate as the SVD alone decides it."""
    s = np.linalg.svd(np.asarray(q), compute_uv=False)
    bound = R.alpha + FEAS_TOL * (1.0 + R.alpha)
    return 0.0 if (float(s[0]) if s.size else 0.0) <= bound else float("inf")


class TestNuclearConjugateGram:
    SHAPES = [(10, 30), (30, 10), (12, 12)]
    DELTAS = [-1e-6, -1e-12, 0.0, 1e-12, 1e-6]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.5])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_decision_equals_svd_near_the_bound(self, shape, alpha, delta):
        R = NuclearNorm(alpha)
        bound = alpha + FEAS_TOL * (1.0 + alpha)
        for seed in range(5):
            q = _with_top_singular_value(np.random.default_rng(seed), shape,
                                         bound * (1.0 + delta))
            assert R.conjugate_value(q) == _svd_decision(R, q)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.5])
    def test_decision_equals_svd_at_alpha_as_the_prox_makes_it(self, shape, alpha):
        # q = (z - prox(z)) / tau has top singular value alpha up to rounding
        R = NuclearNorm(alpha)
        rng = np.random.default_rng(7)
        for tau in (1e-3, 0.5, 3.0):
            z = 4.0 * rng.standard_normal(shape)
            q = (z - R.prox(z, tau)) / tau
            assert R.conjugate_value(q) == _svd_decision(R, q) == 0.0

    @pytest.mark.parametrize("shape", SHAPES + [(0, 4), (4, 0)])
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_zero_matrix_is_feasible(self, shape, alpha):
        assert NuclearNorm(alpha).conjugate_value(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_seeded_matrices_far_from_the_bound(self, alpha):
        rng = np.random.default_rng(11)
        for shape in self.SHAPES:
            R = NuclearNorm(alpha)
            for scale in (1e-12, 1e-3, 0.1, 1.0, 10.0):
                q = scale * rng.standard_normal(shape)
                assert R.conjugate_value(q) == _svd_decision(R, q)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_svd_only_inside_the_rounding_band(self, shape, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        R = NuclearNorm(0.2)
        bound = 0.2 + FEAS_TOL * 1.2
        rng = np.random.default_rng(3)
        far = [_with_top_singular_value(rng, shape, bound * (1.0 + d)) for d in (-1e-6, 1e-6)]
        at = _with_top_singular_value(rng, shape, bound)
        monkeypatch.setattr(np.linalg, "svd", counted)
        for q in far:
            R.conjugate_value(q)
        assert calls == []
        R.conjugate_value(at)
        assert calls == [1]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_fall_back_to_the_svd(self, monkeypatch, bad):
        # the rounding band is not finite, so the SVD decides, as it did alone
        q = np.ones((3, 4))
        q[1, 2] = bad
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        def outcome(decide):
            try:
                return decide()
            except np.linalg.LinAlgError as err:
                return type(err)

        R = NuclearNorm(1.0)
        expected = outcome(lambda: _svd_decision(R, q))
        monkeypatch.setattr(np.linalg, "svd", counted)
        assert outcome(lambda: R.conjugate_value(q)) == expected
        assert calls == [1]


class TestInstancesCommon:
    """Cross-instance invariants: nonexpansiveness, scaling, certification."""

    def _instances(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.0, 2.0, size=(3, 3))
        return [
            (Zero(), 9),
            (SquaredL2(1.5), 9),
            (L1(0.8), 9),
            (SeparableSum([(WeightedL1Dct(0.6, w), (3, 3))]), 9),
            (SimplexIndicator(), 9),
            (NonnegativeIndicator(), 9),
            (SeparableSum([(NuclearNorm(0.5), (3, 3))]), 9),
            (SeparableSum([(NuclearNorm(0.5), (3, 6))]), 18),
            (SeparableSum([(NuclearNorm(0.5), (6, 2))]), 12),
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_firm_nonexpansiveness(self, seed):
        rng = np.random.default_rng(seed)
        for R, n in self._instances():
            x, y = rng.standard_normal((2, n))
            tau = rng.uniform(0.3, 2.0)
            d_out = np.linalg.norm(np.ravel(R.prox(x, tau)) - np.ravel(R.prox(y, tau)))
            assert d_out <= np.linalg.norm(x - y) * (1.0 + 1e-12) + 1e-13

    def test_tv_nonexpansive_up_to_inner_gap(self):
        R = TotalVariation2D(0.5)
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 4, 4))
        warm_x, warm_y = {}, {}
        d_out = np.linalg.norm(R.prox(x, 1.0, warm_x) - R.prox(y, 1.0, warm_y))
        assert max(warm_x["tv"][1].gap, warm_y["tv"][1].gap) <= R.config.tol
        assert d_out <= np.linalg.norm(x - y) + 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_scaling_consistency(self, seed):
        # prox of (tau*R) at step 1 equals prox of R at step tau
        rng = np.random.default_rng(seed)
        tau = rng.uniform(0.2, 3.0)
        w = rng.uniform(0.0, 2.0, size=(3, 3))
        pairs = [
            (SquaredL2(1.5), SquaredL2(1.5 * tau)),
            (L1(0.8), L1(0.8 * tau)),
            (WeightedL1Dct(0.6, w), WeightedL1Dct(0.6 * tau, w)),
            (NuclearNorm(0.5), NuclearNorm(0.5 * tau)),
        ]
        z = rng.standard_normal((3, 3))
        for R, R_scaled in pairs:
            assert np.abs(np.ravel(R.prox(z, tau)) - np.ravel(R_scaled.prox(z, 1.0))).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_prox_subgradient_certification(self, seed):
        rng = np.random.default_rng(seed)
        for R, n in self._instances():
            z = rng.standard_normal(n)
            tau = rng.uniform(0.3, 2.0)
            u = np.ravel(R.prox(z, tau))
            q = (z - u) / tau
            res = fenchel_residual(R, u, q)
            assert res <= 1e-8 * (1.0 + abs(R.value(u)))

    @pytest.mark.parametrize("seed", range(5))
    def test_initial_subgradient_certification(self, seed):
        rng = np.random.default_rng(seed)
        for R, n in self._instances():
            z = rng.standard_normal(n)
            points = [np.ravel(R.prox(z, 1.0))]  # a point guaranteed inside dom(R)
            if not isinstance(R, (SimplexIndicator, NonnegativeIndicator)):
                points.append(z)  # dom(R) is the whole space: any point will do
            for u in points:
                q = np.ravel(R.initial_subgradient(u))
                res = fenchel_residual(R, u, q)
                assert res <= 1e-8 * (1.0 + abs(R.value(u)))

    @pytest.mark.parametrize("seed", range(3))
    def test_convexity_along_segments(self, seed):
        rng = np.random.default_rng(seed)
        for R, n in self._instances():
            z1, z2 = rng.standard_normal((2, n))
            u = np.ravel(R.prox(z1, 1.0))
            v = np.ravel(R.prox(z2, 1.0))
            lam = rng.uniform()
            mid = R.value(lam * u + (1 - lam) * v)
            assert mid <= lam * R.value(u) + (1 - lam) * R.value(v) + 1e-10


class TestComposeSeparable:
    def test_single_part_identity(self):
        R = L1(0.5)
        S = SeparableSum([(R, 4)])
        rng = np.random.default_rng(7)
        z = rng.standard_normal(4)
        assert S.value(z) == pytest.approx(R.value(z))
        assert np.array_equal(S.prox(z, 0.7), R.prox(z, 0.7))

    def test_two_quadratic_blocks(self):
        S = SeparableSum([(SquaredL2(), 3), (SquaredL2(), 2)])
        z = np.arange(5.0)
        assert np.allclose(S.prox(z, 2.0), z / 3.0)

    def test_l1_plus_simplex_blockwise(self):
        S = SeparableSum([(L1(1.0), 3), (SimplexIndicator(), 3)])
        rng = np.random.default_rng(8)
        z = rng.standard_normal(6)
        out = S.prox(z, 0.5)
        assert np.allclose(out[:3], L1(1.0).prox(z[:3], 0.5))
        assert np.allclose(out[3:], project_simplex(z[3:]))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            SeparableSum([(L1(), 3), (L1(), 0)])  # empty block
        with pytest.raises(ValueError):
            SeparableSum([(L1(), 3), (L1(), -1)])  # negative size

    def test_conjugate_availability_propagates(self):
        S = SeparableSum([(L1(), 2), (TotalVariation2D(1.0), (1, 2))])
        assert not S.has_conjugate
        with pytest.raises(UnsupportedOperation):
            S.conjugate_value(np.zeros(4))

    def test_separable_conjugate_value(self):
        S = SeparableSum([(SquaredL2(), 2), (SquaredL2(), 2)])
        q = np.array([1.0, 2.0, 3.0, 4.0])
        assert S.conjugate_value(q) == pytest.approx(0.5 * np.sum(q ** 2))

    def test_parts_receive_views_of_their_blocks_in_their_shapes(self):
        seen = []

        class Recording(L1):
            def value(self, u, facts=None):
                seen.append(u)
                return super().value(u, facts)

        S = SeparableSum([(Recording(), 2), (Recording(), (3, 4)), (Recording(), (5,))])
        u = np.arange(19.0)
        S.value(u)
        assert [v.shape for v in seen] == [(2,), (3, 4), (5,)]
        assert all(np.shares_memory(v, u) for v in seen)
        assert np.array_equal(seen[1], u[2:14].reshape(3, 4))

    def test_an_int_part_is_a_1d_shape(self):
        R = L1(0.5)
        assert SeparableSum([(R, 6)]).parts == SeparableSum([(R, (6,))]).parts

    def test_nuclear_norm_of_a_stacked_block(self):
        # the block is a 3 x 4 matrix; read as 4 x 3 its nuclear norm differs
        rng = np.random.default_rng(9)
        u = rng.standard_normal(17)
        M = u[5:].reshape(3, 4)
        S = SeparableSum([(L1(0.3), 5), (NuclearNorm(0.7), (3, 4))])
        facts = {}
        assert S.value(u, facts) == L1(0.3).value(u[:5]) + NuclearNorm(0.7).value(M)
        assert NuclearNorm(0.7).value(M) != NuclearNorm(0.7).value(M.reshape(4, 3))
        s = facts[(5, 17)]["singular_values"]
        assert np.array_equal(s, np.linalg.svd(M, compute_uv=False))
        assert S.parts[1][0].singular_values(M, S.block_facts(facts, 1)) is s
