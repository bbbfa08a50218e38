import numpy as np
import pytest

from linbreg.tensor_ops import (
    as_tensor,
    conv2d_periodic,
    dct2,
    dft2,
    div2d,
    grad2d_forward,
    idct2,
    idft2,
    total_variation,
)
from helpers import conv2d_oracle, dft2_oracle


class TestAsTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            as_tensor([[np.inf, 0.0]])

    def test_complex_gate(self):
        with pytest.raises(ValueError):
            as_tensor(np.array([1j]))


class TestConv2dPeriodic:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((4, 4))
        assert np.allclose(conv2d_periodic(u, np.array([[1.0]])), u, atol=1e-14)

    def test_mean_preserving_kernel_on_constant(self):
        u = np.full((6, 5), 3.7)
        rng = np.random.default_rng(1)
        h = rng.uniform(size=(3, 3))
        h /= h.sum()
        out = conv2d_periodic(u, h)
        assert np.allclose(out, 3.7, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 5))
        h = rng.standard_normal((3, 3))
        assert np.abs(conv2d_periodic(u, h) - conv2d_oracle(u, h)).max() < 1e-12

    @pytest.mark.parametrize("kshape", [(2, 2), (1, 4), (3, 2), (5, 5)])
    def test_oracle_various_kernel_shapes(self, kshape):
        rng = np.random.default_rng(hash(kshape) % 2**32)
        u = rng.standard_normal((5, 6))
        h = rng.standard_normal(kshape)
        assert np.abs(conv2d_periodic(u, h) - conv2d_oracle(u, h)).max() < 1e-12

    def test_linear_in_each_argument(self):
        rng = np.random.default_rng(3)
        u1, u2 = rng.standard_normal((2, 4, 4))
        h = rng.standard_normal((3, 3))
        lhs = conv2d_periodic(2.0 * u1 - u2, h)
        rhs = 2.0 * conv2d_periodic(u1, h) - conv2d_periodic(u2, h)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            conv2d_periodic(np.zeros((3, 3)), np.zeros((4, 2)))

    def test_agrees_with_spectral_route(self):
        # pointwise spectral product with the zero-padded centre-anchored kernel
        rng = np.random.default_rng(4)
        for kshape in [(3, 3), (5, 5), (6, 6), (2, 5)]:
            u = rng.standard_normal((6, 6))
            h = rng.standard_normal(kshape)
            kh, kw = kshape
            pad = np.zeros((6, 6))
            for a in range(kh):
                for b in range(kw):
                    pad[(a - kh // 2) % 6, (b - kw // 2) % 6] = h[a, b]
            spectral = np.real(idft2(dft2(u) * dft2(pad))) * 6.0  # sqrt(H*W)
            assert np.abs(conv2d_periodic(u, h) - spectral).max() < 1e-10


class TestGradDiv:
    def test_constant_image_zero_gradient(self):
        g = grad2d_forward(np.full((4, 6), 2.5))
        assert np.array_equal(g, np.zeros((2, 4, 6)))

    def test_linear_ramp(self):
        # u(i, j) = j: column differences 1 in the interior, 0 at the last column
        u = np.tile(np.arange(5.0), (4, 1))
        g = grad2d_forward(u)
        assert np.array_equal(g[0], np.zeros((4, 5)))
        expected = np.ones((4, 5))
        expected[:, -1] = 0.0
        assert np.array_equal(g[1], expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((5, 7))
        g = rng.standard_normal((2, 5, 7))
        lhs = np.vdot(grad2d_forward(u), g)
        rhs = -np.vdot(u, div2d(g))
        assert abs(lhs - rhs) < 1e-12

    def test_single_row_image_allowed(self):
        g = grad2d_forward(np.array([[0.0, 1.0, 3.0]]))
        assert np.array_equal(g[0], np.zeros((1, 3)))
        assert np.array_equal(g[1], [[1.0, 2.0, 0.0]])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            grad2d_forward(np.array([[1.0]]))
        with pytest.raises(ValueError):
            grad2d_forward(np.array([1.0, 2.0]))

    def test_total_variation_of_step(self):
        u = np.array([[0.0, 0.0, 1.0, 1.0]])
        assert total_variation(u) == pytest.approx(1.0, abs=1e-14)


class TestTransforms:
    def test_dft_constant_image_dc(self):
        N = 6
        c = 1.7
        coef = dft2(np.full((N, N), c))
        assert abs(coef[0, 0] - c * N) < 1e-12
        coef[0, 0] = 0.0
        assert np.abs(coef).max() < 1e-12

    def test_dct_constant_image_dc(self):
        N = 5
        c = -0.3
        coef = dct2(np.full((N, N), c))
        assert abs(coef[0, 0] - c * N) < 1e-12
        coef[0, 0] = 0.0
        assert np.abs(coef).max() < 1e-12

    def test_round_trips(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((8, 8))
        assert np.abs(idct2(dct2(u)) - u).max() < 1e-12
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.abs(idft2(dft2(z)) - z).max() < 1e-12

    def test_dft_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.abs(dft2(u) - dft2_oracle(u)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((7, 5))
        assert abs(np.linalg.norm(dft2(u)) - np.linalg.norm(u)) < 1e-12
        assert abs(np.linalg.norm(dct2(u)) - np.linalg.norm(u)) < 1e-12
