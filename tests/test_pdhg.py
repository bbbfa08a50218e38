import hashlib

import numpy as np
import pytest

from linbreg import NotConvergedError, NumericsError, PdhgConfig, TotalVariation2D
from linbreg.pdhg import SIGMA, TAU_INNER, PdhgResult, pdhg_tv_prox
from linbreg.tensor_ops import div2d, grad2d_forward, total_variation
from helpers import tv_prox_dual_oracle


# a one-off solve's budget, tighter than a run's PdhgConfig()
STRICT = PdhgConfig(tol=1e-7, maxit=2000)


def prox_objective(u, z, lam):
    return 0.5 * np.sum((u - z) ** 2) + lam * total_variation(u)


class TestConfig:
    def test_defaults_valid(self):
        assert SIGMA * TAU_INNER * 8.0 <= 1.0 + 1e-12

    def test_frozen(self):
        # TotalVariation2D instances share one default config
        from dataclasses import FrozenInstanceError

        cfg = PdhgConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.maxit = 5
        with pytest.raises(FrozenInstanceError):
            TotalVariation2D(1.0, (2, 2)).config.tol = 1.0


class TestTrivialInputs:
    def test_lambda_zero_returns_argument(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 4))
        res = pdhg_tv_prox(z, 0.0, STRICT)
        assert np.array_equal(res.u, z)
        assert res.gap == 0.0
        assert res.iters == 1

    def test_constant_image_fixed(self):
        z = np.full((5, 5), 1.3)
        res = pdhg_tv_prox(z, 2.0, STRICT)
        assert np.abs(res.u - z).max() < 1e-12
        assert res.gap <= 1e-7


class TestAgainstDualOracle:
    def test_step_signal_matches_oracle(self):
        z = np.array([[0.0, 0.0, 4.0, 4.0, 0.0, 0.0]])
        res = pdhg_tv_prox(z, 1.0, STRICT)
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
        res = pdhg_tv_prox(z, 0.3, STRICT)
        assert np.array_equal(res.u, z + div2d(res.dual))

    def test_dual_pointwise_feasible(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 6))
        lam = 0.4
        res = pdhg_tv_prox(z, lam, STRICT)
        mag = np.sqrt(res.dual[0] ** 2 + res.dual[1] ** 2)
        assert mag.max() <= lam * (1.0 + 1e-12)

    def test_mean_preserved(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((7, 5))
        res = pdhg_tv_prox(z, 0.6, STRICT)
        assert abs(res.u.mean() - z.mean()) < 1e-10

    def test_warm_start_cuts_iterations(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 8))
        cold = pdhg_tv_prox(z, 0.5, STRICT)
        warm = pdhg_tv_prox(z + 1e-6 * rng.standard_normal((8, 8)), 0.5, STRICT, dual0=cold.dual)
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


def digest(u, dual, gap, iters):
    """SHA-256 over the dtype, shape and C-order bytes of u, dual, gap and iters."""
    h = hashlib.sha256()
    for a in (u, dual, np.float64(gap), np.int64(iters)):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def solve(fn, z, lam, cfg, dual0=None):
    """(u, dual, gap, iters) of one prox call, from either exit."""
    try:
        res = fn(z, lam, cfg, dual0=dual0)
    except NotConvergedError as err:
        res = err.result
    return res.u, res.dual, res.gap, res.iters


def pdhg_loop_reference(z, lam, cfg, dual0=None):
    """The allocating loop the workspace kernel replaced, kept as a bit reference."""
    z = np.asarray(z, dtype=np.float64)
    u = z.copy()
    ubar = u
    if dual0 is not None and np.asarray(dual0).shape == (2,) + z.shape:
        p = np.array(dual0, dtype=np.float64, copy=True)
        p = project_ball_reference(p, lam)
    else:
        p = np.zeros((2,) + z.shape, dtype=np.float64)
    best_gap, best_u, best_p = np.inf, None, None
    for it in range(1, cfg.maxit + 1):
        p = project_ball_reference(p + SIGMA * grad2d_forward(ubar), lam)
        div_p = div2d(p)
        if it <= 50 or it % 10 == 0 or it == cfg.maxit:
            cand = z + div_p
            g = grad2d_forward(cand)
            tv_cand = float(np.sum(np.sqrt(g[0] ** 2 + g[1] ** 2)))
            primal = 0.5 * float(np.dot(div_p.ravel(), div_p.ravel())) + lam * tv_cand
            gap_abs = lam * tv_cand - float(np.vdot(g.ravel(), p.ravel()))
            gap_rel = gap_abs / (1.0 + abs(primal))
            if gap_rel < best_gap:
                best_gap, best_u, best_p = gap_rel, cand, p.copy()
            if best_gap <= cfg.tol:
                return PdhgResult(u=best_u, gap=best_gap, iters=it, dual=best_p)
        u_new = (u + TAU_INNER * (div_p + z)) / (1.0 + TAU_INNER)
        ubar = u_new + (u_new - u)
        u = u_new
    raise NotConvergedError("reference loop exhausted",
                            result=PdhgResult(u=best_u, gap=best_gap, iters=cfg.maxit, dual=best_p))


def project_ball_reference(p, lam):
    mag = np.sqrt(p[0] ** 2 + p[1] ** 2)
    scale = np.ones_like(mag)
    np.divide(lam, mag, out=scale, where=mag > lam)
    return p * scale[None, :, :]


def pin_args(shape, seed, lam, tol, maxit, dual0=None, scale=1.0):
    """Seeded prox arguments; ``dual0`` is None, "random", "badshape" or "chained"."""
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal(shape)
    cfg = PdhgConfig(tol=tol, maxit=maxit)
    if dual0 == "random":
        dual0 = rng.standard_normal((2,) + shape)
    elif dual0 == "badshape":
        dual0 = rng.standard_normal((2, shape[0] + 1, shape[1]))
    elif dual0 == "chained":
        # the warm start of an outer run: the previous call's dual at a nearby argument
        dual0 = solve(pdhg_loop_reference, z + 0.05 * rng.standard_normal(shape), lam, cfg)[1]
    return z, lam, cfg, dual0


# (shape, seed, lam, tol, maxit, dual0[, scale]); the comment names the exit
PIN_CASES = {
    "cold-8x8": ((8, 8), 0, 0.5, 1e-7, 2000),  # exhausted on the schedule
    "cold-8x8-early": ((8, 8), 1, 0.2, 1e-3, 2000),  # converged at iteration 13
    "warm-random-8x8": ((8, 8), 2, 0.3, 1e-7, 2000, "random"),  # converged at iteration 140
    "warm-chained-8x8": ((8, 8), 3, 0.3, 1e-7, 2000, "chained"),
    "dual0-badshape-8x8": ((8, 8), 4, 0.3, 1e-7, 2000, "badshape"),
    "lam0-cold-6x6": ((6, 6), 5, 0.0, 1e-7, 2000),
    "lam0-warm-6x6": ((6, 6), 6, 0.0, 1e-7, 2000, "random"),
    "row-1x9": ((1, 9), 7, 0.4, 1e-9, 300),
    "col-9x1": ((9, 1), 8, 0.4, 1e-9, 300),
    "tiny-2x2": ((2, 2), 9, 0.4, 1e-9, 300),
    "odd-5x7": ((5, 7), 10, 0.4, 1e-9, 300, "random"),
    "deconv-like-32x32": ((32, 32), 11, 0.1, 1e-8, 400, None, 0.3),  # exhausted, as in deconv runs
    "deconv-like-32x32-warm": ((32, 32), 12, 0.1, 1e-8, 400, "chained", 0.3),
    "maxit-73": ((8, 8), 13, 0.5, 1e-14, 73),  # exhausted off the check schedule
}

PIN_SHA = {
    "cold-8x8": "3fbd55e917fd92a4439daedbc84dc103479486b0ec7234287e1f3c6547a5982d",
    "cold-8x8-early": "f857fe0f0588cc4413ae085c495b481b9a207ea2bf9246c5dd47d64e3bfbb42d",
    "warm-random-8x8": "67246659643ac4b0b7d5d8c9cd1770db37417522d03136e08bfeb559b6bb6b73",
    "warm-chained-8x8": "19a644671ff58480580f474562defe52d630c60e98eed59eae891505a4445aec",
    "dual0-badshape-8x8": "70a98c42dc4cee93047069887823dd342b0a3dbbcd58996e9c8c9241caf95e60",
    "lam0-cold-6x6": "f86305881e46152c35c65d5d8381119c138c1fa16383ea9f358a0da47454509b",
    "lam0-warm-6x6": "024b2a51b1d89d2292e302dabfa66fb3857b77a29298eecadf3025301309d06c",
    "row-1x9": "fe5aaf41b75c6484a8489d4a45f5a139e83b1c0c7a245ac1e017049b8a6132e2",
    "col-9x1": "83b1b0c8513d2b374c2e3071e07b2225c1a46d3f016a812d0ff18d5b0954e8e7",
    "tiny-2x2": "f7519e5793bf717a717c69a75960237becce0c0be4b495d0619393681174b5bb",
    "odd-5x7": "7b6ecd558d2b768105f520b8251026722525e727806a4e375dd038525be36413",
    "deconv-like-32x32": "c01366015f063edfcb41a723b9e23524f1c5522c3ada44a6261f54dc77c536e6",
    "deconv-like-32x32-warm": "166826bbafe9698193de3f95c71f78c7f6d11ec51c4fb5d7f4d31e27dff31b6a",
    "maxit-73": "b1eda30b072e8c6775454752e4278af49fcc438a7c2679457a685a4edcf36804",
}


class TestDigestPins:
    """Digests recorded from the allocating loop before the workspace kernel."""

    @pytest.mark.parametrize("name", sorted(PIN_CASES))
    def test_pinned_bits(self, name):
        args = pin_args(*PIN_CASES[name])
        assert digest(*solve(pdhg_tv_prox, *args)) == PIN_SHA[name]

    @pytest.mark.parametrize("name", sorted(PIN_CASES))
    def test_reference_reproduces_pins(self, name):
        args = pin_args(*PIN_CASES[name])
        assert digest(*solve(pdhg_loop_reference, *args)) == PIN_SHA[name]


def shape_id(shape):
    return f"{shape[0]}x{shape[1]}"


def same_bits(*args):
    """Whether the kernel and the reference loop return the same bits on ``args``."""
    return digest(*solve(pdhg_tv_prox, *args)) == digest(*solve(pdhg_loop_reference, *args))


class TestLoopReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_equal_bits_on_seeded_arguments(self, seed):
        rng = np.random.default_rng(1000 + seed)
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 12)))
        if rng.uniform() < 0.5:
            shape = shape[::-1]
        lam = float(rng.choice([0.0, rng.uniform(0.01, 1.0)], p=[0.15, 0.85]))
        tol = float(10.0 ** rng.uniform(-10, -3))
        maxit = int(rng.integers(1, 260))
        dual0 = str(rng.choice(["none", "random", "badshape", "chained"]))
        args = pin_args(shape, seed, lam, tol, maxit, None if dual0 == "none" else dual0,
                        float(rng.uniform(0.1, 3.0)))
        assert digest(*solve(pdhg_tv_prox, *args)) == digest(*solve(pdhg_loop_reference, *args))

    def test_equal_bits_on_constant_image(self):
        args = (np.full((5, 5), 1.3), 2.0, PdhgConfig(tol=1e-7, maxit=100), None)
        assert digest(*solve(pdhg_tv_prox, *args)) == digest(*solve(pdhg_loop_reference, *args))

    # The kernel takes column differences and divergence terms on flat views,
    # which cross row ends; the cases below are where that could show.

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_bits_with_signed_zeros_in_argument(self, seed):
        rng = np.random.default_rng(1100 + seed)
        z = rng.standard_normal((6, 7))
        z[rng.uniform(size=z.shape) < 0.5] = 0.0
        z[rng.uniform(size=z.shape) < 0.5] *= -1.0  # -0.0 where the zero entries flip
        assert np.signbit(z[z == 0.0]).any() and not np.signbit(z[z == 0.0]).all()
        for dual0 in (None, rng.standard_normal((2,) + z.shape)):
            assert same_bits(z, 0.3, PdhgConfig(tol=1e-10, maxit=120), dual0)

    def test_equal_bits_on_negative_zero_image(self):
        assert same_bits(np.full((4, 5), -0.0), 0.5, PdhgConfig(tol=1e-7, maxit=60), None)

    @pytest.mark.parametrize("shape", [(5, 6), (1, 6), (6, 1), (2, 2)], ids=shape_id)
    @pytest.mark.parametrize("edge", ["+0", "-0", "nonzero", "large"])
    def test_equal_bits_with_dual0_on_structural_zeros(self, shape, edge):
        # p[0, H-1, :] and p[1, :, W-1] multiply zero gradient entries; they
        # still enter the projection, so they must reach it unchanged
        H, W = shape
        rng = np.random.default_rng(1200 + 10 * H + W)
        z = rng.standard_normal(shape)
        dual0 = 0.2 * rng.standard_normal((2, H, W))
        dual0[rng.uniform(size=dual0.shape) < 0.2] = -0.0
        fill = {"+0": 0.0, "-0": -0.0, "nonzero": None, "large": 5.0}[edge]
        for k, index in ((0, (H - 1, slice(None))), (1, (slice(None), W - 1))):
            if fill is None:
                dual0[(k,) + index] = rng.standard_normal(dual0[(k,) + index].shape)
            else:
                dual0[(k,) + index] = fill
        assert same_bits(z, 0.4, PdhgConfig(tol=1e-10, maxit=120), dual0)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2), (1, 9), (9, 1), (2, 9), (9, 2)],
                             ids=shape_id)
    @pytest.mark.parametrize("dual0", [None, "random", "chained"])
    def test_equal_bits_with_one_or_two_rows_or_columns(self, shape, dual0):
        for tol in (1e-12, 1e-4):  # exhausted on the schedule, and an early exit
            assert same_bits(*pin_args(shape, 1300 + shape[0] + 10 * shape[1], 0.35, tol, 130,
                                       dual0))

    @pytest.mark.parametrize("shape", [(3, 40), (40, 3), (64, 64)], ids=shape_id)
    @pytest.mark.parametrize("dual0", [None, "chained"])
    def test_equal_bits_on_thin_and_large_images(self, shape, dual0):
        assert same_bits(*pin_args(shape, 1400 + shape[0], 0.1, 1e-8, 400, dual0, 0.3))

    @pytest.mark.parametrize("lam", [0.0, -0.0], ids=["+0", "-0"])
    def test_equal_bits_at_lam_zero_with_underflowing_dual0(self, lam):
        # at lam = 0 the projection keeps a 2-vector whose squares underflow to
        # mag == 0 and scales every other one by lam, a zero of lam's sign;
        # the last pixel's gradient is zero, so its tiny dual survives each step
        rng = np.random.default_rng(1500)
        z = rng.standard_normal((6, 5))
        dual0 = 1e-170 * rng.standard_normal((2, 6, 5))
        assert np.all(dual0 ** 2 == 0.0)
        dual0[:, ::2] *= 1e150  # rows whose squares do not underflow
        assert same_bits(z, lam, PdhgConfig(tol=1e-10, maxit=60), dual0)


class TestAliasing:
    def test_result_owns_its_arrays(self):
        z, lam, cfg, dual0 = pin_args((6, 6), 20, 0.3, 1e-7, 200, "random")
        z_before, dual0_before = z.copy(), dual0.copy()
        res = pdhg_tv_prox(z, lam, cfg, dual0=dual0)
        for a, b in [(res.u, z), (res.dual, dual0), (res.u, res.dual)]:
            assert not np.shares_memory(a, b)
        assert np.array_equal(z, z_before) and np.array_equal(dual0, dual0_before)

    def test_second_call_leaves_first_result(self):
        z, lam, cfg, _ = pin_args((6, 6), 21, 0.3, 1e-7, 200)
        first = pdhg_tv_prox(z, lam, cfg)
        u, dual = first.u.copy(), first.dual.copy()
        pdhg_tv_prox(z, lam, cfg, dual0=first.dual)
        pdhg_tv_prox(z + 1.0, lam, cfg)
        assert np.array_equal(first.u, u) and np.array_equal(first.dual, dual)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
    def test_single_row_or_column_through_regularizer(self, shape):
        z = np.random.default_rng(22).standard_normal(shape)
        R = TotalVariation2D(0.4, shape, config=PdhgConfig(tol=1e-10, maxit=5000))
        warm = {}
        u = R.prox(z.ravel(), 1.0, warm)
        assert warm["tv"][1].gap <= R.config.tol
        oracle_u, oracle_gap = tv_prox_dual_oracle(z, 0.4, gap_tol=1e-12)
        assert oracle_gap <= 1e-12
        assert u.shape == (z.size,)
        assert np.abs(u.reshape(shape) - oracle_u).max() < 1e-6

    @pytest.mark.parametrize("z", [np.array([[1.0]]), np.array([1.0, 2.0]), np.zeros((2, 2, 2))])
    def test_degenerate_image_rejected(self, z):
        with pytest.raises(ValueError, match="at least 2 pixels"):
            pdhg_tv_prox(z, 0.5, STRICT)

    def test_one_pixel_image_rejected_through_regularizer(self):
        with pytest.raises(ValueError, match="at least 2 pixels"):
            TotalVariation2D(0.5, (1, 1)).prox(np.array([1.0]), 1.0)


# NumericsError is the one report of an overflow: a RuntimeWarning fails these tests
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e305])
    def test_no_finite_gap_raises_numerics_error(self, bad):
        z = np.random.default_rng(23).standard_normal((4, 4))
        z[1, 2] = bad
        z[2, 1] = -bad
        with pytest.raises(NumericsError, match="no finite gap"):
            pdhg_tv_prox(z, 1e300, PdhgConfig(tol=1e-7, maxit=3))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (3, 8)], ids=shape_id)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_no_finite_gap_on_thin_images(self, shape, bad):
        # the bad entry starts the last row, where the flat column difference
        # crosses from the row above
        z, lam, cfg, dual0 = pin_args(shape, 1500, 0.3, 1e-7, 75, "random")
        z[-1, 0] = bad
        with pytest.raises(NumericsError, match="no finite gap"):
            pdhg_tv_prox(z, lam, cfg, dual0=dual0)

    def test_regularizer_raises_numerics_error(self):
        # and the raising call leaves the previous call's warm record in place
        R = TotalVariation2D(1.0, (4, 4), config=PdhgConfig(tol=1e-7, maxit=3))
        warm = {}
        R.prox(np.arange(16.0), 1.0, warm)
        last = warm["tv"]
        z = np.full(16, 1e305)
        z[::2] = -1e305
        with pytest.raises(NumericsError):
            R.prox(z, 1e300, warm)
        assert warm["tv"] is last
