import numpy as np
import pytest

from linbreg.tensor_ops import dft2, idft2
from linbreg.verify import finite_difference_gradient_check
from linbreg.problems import (
    ParallelMriObjective,
    make_mask,
    make_synthetic_mri,
)


class TestEnergyGrad:
    def test_all_zero_variables(self):
        prob = make_synthetic_mri(0, 8, coils=2, mask_kind="full")
        z = np.zeros((8, 8), dtype=np.complex128)
        E = ParallelMriObjective(prob.data, prob.mask, eps=0.0)
        value, g = E.value_and_grad(E.pack(z, [z, z]))
        gu, gbs = E.split(g)
        expected = 0.5 * sum(np.sum(np.abs(f) ** 2) for f in prob.data)
        assert value == pytest.approx(expected, rel=1e-12)
        # the coil-image product kills all first-order terms at the origin
        assert np.abs(gu).max() == 0.0
        assert all(np.abs(g).max() == 0.0 for g in gbs)

    def test_exact_fit_stationary_in_u(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = np.ones((8, 8), dtype=np.complex128)
        mask = np.ones((8, 8))
        data = [dft2(u * b)]
        eps = 1e-9
        E = ParallelMriObjective(data, mask, eps=eps)
        gu, _ = E.split(E.value_and_grad(E.pack(u, [b]))[1])
        assert np.abs(gu - eps * u).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParallelMriObjective([np.zeros((4, 4))], np.ones((5, 5)), eps=0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_all_blocks_pass_finite_differences(self, seed):
        prob = make_synthetic_mri(seed, 8, coils=2, mask_kind="random", p=0.5)
        E = ParallelMriObjective(prob.data, prob.mask, eps=1e-6)
        rng = np.random.default_rng(seed + 50)
        x = rng.standard_normal(E.size) * 0.5
        report = finite_difference_gradient_check(E, x, n_coords=20, seed=seed)
        assert report.max_rel_err < 1e-5


class TestParsevalReduction:
    def test_full_mask_single_unit_coil(self):
        # E reduces to 0.5 ||F u - f||^2 = 0.5 ||u - F* f||^2 by Parseval
        rng = np.random.default_rng(2)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = np.ones((8, 8), dtype=np.complex128)
        E = ParallelMriObjective([f], np.ones((8, 8)), eps=0.0)
        value, _ = E.value_and_grad(E.pack(u, [b]))
        direct = 0.5 * np.sum(np.abs(u - idft2(f)) ** 2)
        assert value == pytest.approx(direct, rel=1e-10)


class TestMasks:
    def test_full_mask(self):
        assert np.array_equal(make_mask("full", 16), np.ones((16, 16)))

    def test_spiral_fraction_near_quarter_at_64(self):
        mask = make_mask("spiral", 64)
        frac = mask.mean()
        assert 0.20 <= frac <= 0.30

    def test_random_mask_reproducible(self):
        a = make_mask("random", 16, p=0.5, seed=3)
        b = make_mask("random", 16, p=0.5, seed=3)
        assert np.array_equal(a, b)
        assert 0.2 < a.mean() < 0.8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_mask("radial", 16)


class TestSyntheticProblem:
    def test_full_mask_exact_data_energy_at_truth(self):
        eps = np.finfo(float).eps
        prob = make_synthetic_mri(4, 8, coils=1, mask_kind="full", eps=eps)
        E = ParallelMriObjective(prob.data, prob.mask, prob.eps)
        x = E.pack(prob.u_true, prob.b_true)
        eps_terms = 0.5 * eps * (np.sum(np.abs(prob.u_true) ** 2)
                                 + sum(np.sum(np.abs(b) ** 2) for b in prob.b_true))
        assert E.value_and_grad(x)[0] - eps_terms <= 1e-12

    def test_pack_split_roundtrip(self):
        prob = make_synthetic_mri(5, 8, coils=2, mask_kind="spiral")
        E = ParallelMriObjective(prob.data, prob.mask, prob.eps)
        x = E.pack(prob.u_true, prob.b_true)
        u, bs = E.split(x)
        assert np.array_equal(u, prob.u_true)
        assert all(np.array_equal(a, b) for a, b in zip(bs, prob.b_true))
