import hashlib

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
    return E.split(E.value_and_grad(E.pack([u, h]))[1])


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


def seeded_point(shape, kernel_shape, seed):
    """A deconv objective with seeded data f and a seeded stacked point x."""
    rng = np.random.default_rng(seed)
    E = BlindDeconvObjective(rng.standard_normal(shape), kernel_shape)
    return E, rng.standard_normal(E.size)


def digest(value, g):
    """SHA-256 over the bytes of the energy and of the stacked gradient."""
    return hashlib.sha256(np.float64(value).tobytes() + g.tobytes()).hexdigest()


# (image shape, kernel shape, seed): square, non-square, an even kernel, a
# kernel the size of the image, and a single-row image
SPECTRA_CASES = {
    "square-8x8-k3x3": ((8, 8), (3, 3), 0),
    "nonsquare-6x9-k3x5": ((6, 9), (3, 5), 1),
    "even-12x10-k4x2": ((12, 10), (4, 2), 2),
    "full-6x7-k6x7": ((6, 7), (6, 7), 3),
    "row-1x9-k1x4": ((1, 9), (1, 4), 4),
}

# recorded from the energy that called conv2d_periodic, its adjoint and
# kernel_gradient in turn, before it took each spectrum once
SPECTRA_SHA = {
    "square-8x8-k3x3": "935887afc630a2bf28ed98d4dc0d12a3c510a3ddb38011003696b70861f6d0c2",
    "nonsquare-6x9-k3x5": "5193cd2a0369e5be47c34d12daf416f7b9f6a6c364f2ebb547af9f5e3f905dbe",
    "even-12x10-k4x2": "d1a6edbde8ca5b9963b6eb59af587a75bff02e55288affb068fd9becf05c0989",
    "full-6x7-k6x7": "50ac8a9c73fdd32b0727c8a6fa562d95ea6db19ff3280b325b9db1aa07710c2e",
    "row-1x9-k1x4": "6f4e45fde7497b21d2b04ee9d9b0d918d4e0b06cad3791017bcf4ed7aff4fff7",
}


class TestEnergySpectra:
    """The energy's gradient blocks are the adjoints of the forward model."""

    @pytest.mark.parametrize("name", sorted(SPECTRA_CASES))
    def test_adjoint_identities(self, name):
        # <grad_u, w> = <r, w * h> and <grad_h, k> = <r, u * k> for random w, k
        shape, kshape, seed = SPECTRA_CASES[name]
        E, x = seeded_point(shape, kshape, seed)
        u, h = E.split(x)
        gu, gh = E.split(E.value_and_grad(x)[1])
        r = conv2d_periodic(u, h) - E.f
        rng = np.random.default_rng(seed + 50)
        for _ in range(3):
            w = rng.standard_normal(shape)
            k = rng.standard_normal(kshape)
            rhs_u = np.vdot(r, conv2d_periodic(w, h))
            rhs_h = np.vdot(r, conv2d_periodic(u, k))
            assert abs(np.vdot(gu, w) - rhs_u) <= 1e-12 * (1.0 + abs(rhs_u)) * E.size
            assert abs(np.vdot(gh, k) - rhs_h) <= 1e-12 * (1.0 + abs(rhs_h)) * E.size

    def test_zero_residual_gives_zero_gradients(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((5, 5))
        h = rng.standard_normal((3, 3))
        E = BlindDeconvObjective(conv2d_periodic(u, h), (3, 3))
        value, g = E.value_and_grad(E.pack([u, h]))
        assert value == 0.0
        assert np.array_equal(g, np.zeros(E.size))

    def test_single_pixel_image(self):
        # u is one pixel at (2, 1) and h the 1x1 kernel [c], so r = c u - f,
        # grad_u = c r and grad_h = r[2, 1]
        u = np.zeros((4, 4))
        u[2, 1] = 1.0
        f = np.arange(16.0).reshape(4, 4)
        E = BlindDeconvObjective(f, (1, 1))
        gu, gh = E.split(E.value_and_grad(E.pack([u, [[0.5]]]))[1])
        r = 0.5 * u - f
        assert np.allclose(gu, 0.5 * r, atol=1e-12)
        assert np.allclose(gh, [[r[2, 1]]], atol=1e-12)

    def test_kernel_larger_than_image_rejected(self):
        E = BlindDeconvObjective(np.zeros((3, 3)), (4, 2))
        with pytest.raises(ValueError, match="larger than image"):
            E.value_and_grad(np.zeros(E.size))

    def test_three_forward_and_three_inverse_ffts(self, monkeypatch):
        calls = {"fft2": 0, "ifft2": 0}

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        E, x = seeded_point((8, 8), (3, 3), 0)
        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        E.value_and_grad(x)
        assert calls == {"fft2": 3, "ifft2": 3}

    @pytest.mark.parametrize("name", sorted(SPECTRA_CASES))
    def test_pinned_bits(self, name):
        E, x = seeded_point(*SPECTRA_CASES[name])
        assert digest(*E.value_and_grad(x)) == SPECTRA_SHA[name]


class TestEnergySymmetry:
    def test_swap_image_and_kernel_full_support(self):
        # convolution with a kernel of full image size is commutative up to
        # the shared centre anchoring
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 5))
        h = rng.standard_normal((5, 5))
        f = rng.standard_normal((5, 5))
        E = BlindDeconvObjective(f, (5, 5))
        assert E.value_and_grad(E.pack([u, h]))[0] == pytest.approx(
            E.value_and_grad(E.pack([h, u]))[0], rel=1e-12)


class TestSyntheticInstances:
    def test_noiseless_data_in_range(self):
        prob = make_synthetic_deconv(3, 16, 16, (3, 5), sigma=0.0)
        E = BlindDeconvObjective(prob.f, prob.kernel_shape)
        assert E.value_and_grad(E.pack([prob.u_true, prob.h_true]))[0] <= 1e-20
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
        tv = TotalVariation2D(0.05, config=PdhgConfig(tol=1e-7, maxit=200))
        R = SeparableSum(list(zip([tv, SimplexIndicator()], E.shapes)))
        u0 = E.pack([np.zeros((16, 16)), np.full((3, 3), 1.0 / 9.0)])
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


class TestLibraryDefaults:
    @pytest.mark.parametrize("seed", range(3))
    def test_default_tv_runs_the_readme_size_problem(self, seed):
        # with TotalVariation2D's defaults a library run of the README-size
        # deconv problem goes on when the first, cold prox call exhausts its
        # inner budget
        from linbreg import (
            BacktrackingPolicy,
            SeparableSum,
            SimplexIndicator,
            StoppingRule,
            TotalVariation2D,
            initial_state,
            run,
        )

        prob = make_synthetic_deconv(seed, 32, 32)
        E = BlindDeconvObjective(prob.f, prob.kernel_shape)
        tv = TotalVariation2D(0.05)
        R = SeparableSum(list(zip([tv, SimplexIndicator()], E.shapes)))
        u0 = E.pack([np.zeros((32, 32)), np.full(prob.kernel_shape, 1.0 / E.sizes[1])])
        res = run(E, R, initial_state(E, R, u0, tau0=2.0), BacktrackingPolicy(tau0=2.0),
                  StoppingRule(max_iter=5))
        assert len(res.records) == 5
        _, last = res.state.warm[(0, E.sizes[0])]["tv"]
        assert 1 <= last.iters <= tv.config.maxit and np.isfinite(last.gap)
