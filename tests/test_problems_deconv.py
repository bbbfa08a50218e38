import numpy as np
import pytest

from linbreg.problems import (
    BlindDeconvObjective,
    discrepancy_eta,
    make_synthetic_deconv,
)
from linbreg.tensor_ops import conv2d_periodic, total_variation
from linbreg.verify import finite_difference_gradient_check


def blind_deconv_grad(u, h, f):
    """Gradient blocks (d/du, d/dh) of 0.5*||u * h - f||^2, from the stacked objective."""
    E = BlindDeconvObjective(f, np.shape(h))
    return E.split(E.value_and_grad(E.pack(u, h))[1])


class TestBlindDeconvGrad:
    def test_exact_fit_gives_zero_gradients(self):
        prob = make_synthetic_deconv(0, 8, 8, (3, 3), sigma=0.0)
        gu, gh = blind_deconv_grad(prob.u_true, prob.h_true, prob.f)
        assert np.abs(gu).max() < 1e-12
        assert np.abs(gh).max() < 1e-12

    def test_delta_kernel_gives_residual(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 6))
        f = rng.standard_normal((6, 6))
        h = np.zeros((3, 3))
        h[1, 1] = 1.0  # centre anchor: identity operator
        gu, _ = blind_deconv_grad(u, h, f)
        assert np.abs(gu - (u - f)).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blind_deconv_grad(np.zeros((4, 4)), np.zeros((3, 3)), np.zeros((5, 5)))

    @pytest.mark.parametrize("seed", range(3))
    def test_both_blocks_pass_finite_differences(self, seed):
        prob = make_synthetic_deconv(seed, 8, 8, (3, 3), sigma=0.01)
        E = BlindDeconvObjective(prob.f, prob.kernel_shape)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal(E.size) * 0.5
        report = finite_difference_gradient_check(E, x, n_coords=20, seed=seed)
        assert report.max_rel_err < 1e-5


class TestEnergySymmetry:
    def test_swap_image_and_kernel_full_support(self):
        # convolution with a kernel of full image size is commutative up to
        # the shared centre anchoring
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 5))
        h = rng.standard_normal((5, 5))
        f = rng.standard_normal((5, 5))
        E = BlindDeconvObjective(f, (5, 5))
        assert E.value_and_grad(E.pack(u, h))[0] == pytest.approx(
            E.value_and_grad(E.pack(h, u))[0], rel=1e-12)


class TestSyntheticInstances:
    def test_noiseless_data_in_range(self):
        prob = make_synthetic_deconv(3, 16, 16, (3, 5), sigma=0.0)
        E = BlindDeconvObjective(prob.f, prob.kernel_shape)
        assert E.value_and_grad(E.pack(prob.u_true, prob.h_true))[0] <= 1e-20
        assert prob.h_true.min() >= 0
        assert prob.h_true.sum() == pytest.approx(1.0, abs=1e-12)

    def test_discrepancy_eta_formula(self):
        # eta = 1.2 sigma^2 / (2 sqrt(H W)) at the reported working resolution
        eta = discrepancy_eta(1e-4, 424, 640)
        assert eta == pytest.approx(1.2e-8 / (2.0 * np.sqrt(424 * 640)), rel=1e-12)

    def test_seed_reproducibility_bit_exact(self):
        a = make_synthetic_deconv(7, 12, 12, (3, 3), sigma=1e-4)
        b = make_synthetic_deconv(7, 12, 12, (3, 3), sigma=1e-4)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.u_true, b.u_true)
        assert np.array_equal(a.h_true, b.h_true)

    def test_noise_has_requested_scale(self):
        clean = make_synthetic_deconv(9, 32, 32, (3, 5), sigma=0.0)
        noisy = make_synthetic_deconv(9, 32, 32, (3, 5), sigma=1e-3)
        resid = noisy.f - conv2d_periodic(noisy.u_true, noisy.h_true)
        assert np.std(resid) == pytest.approx(1e-3, rel=0.2)
        assert np.array_equal(clean.u_true, noisy.u_true)


class TestScaleSpaceTrend:
    def test_tv_grows_coarse_to_fine(self):
        # the Bregman iteration introduces detail progressively: the total
        # variation of the image iterates trends upward after burn-in
        from linbreg import (
            BacktrackingPolicy,
            SeparableSum,
            SimplexIndicator,
            StoppingRule,
            TotalVariation2D,
            initial_state,
            run,
        )
        from linbreg.pdhg import PdhgConfig

        prob = make_synthetic_deconv(11, 16, 16, (3, 3), sigma=0.0)
        E = BlindDeconvObjective(prob.f, prob.kernel_shape)
        tv = TotalVariation2D(0.05, (16, 16), config=PdhgConfig(tol=1e-7, maxit=200),
                              strict=False)
        R = SeparableSum([(tv, E.n_image), (SimplexIndicator(), E.n_kernel)])
        u0 = E.pack(np.zeros((16, 16)), np.full((3, 3), 1.0 / 9.0))
        st0 = initial_state(E, R, u0, tau0=2.0)
        tvs = []

        def extras(st):
            img, _ = E.split(st.u)
            tvs.append(total_variation(img))
            return {}

        run(E, R, st0, BacktrackingPolicy(tau0=2.0), StoppingRule(max_iter=250),
            extras_fn=extras)
        burn = len(tvs) // 4
        early = np.mean(tvs[burn:2 * burn])
        late = np.mean(tvs[-burn:])
        assert late >= early
