import numpy as np
import pytest

from linbreg.verify import finite_difference_gradient_check
from linbreg.problems import (
    ClassifierObjective,
    ClassifierProblem,
    init_weights,
    nn_energy_grad,
    nn_forward,
    synthetic_digits,
)
from linbreg.problems.classify import make_activation, one_hot


def small_problem(activation="rectifier", loss="frobenius", loss_eps=1.0, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.uniform(size=(4, 5))
    Y = one_hot(rng.integers(0, 2, size=5), classes=2)
    return ClassifierProblem(D=D, Y=Y, shapes=[(2, 3), (3, 4)],
                             activation_kind=activation, loss_kind=loss,
                             loss_eps=loss_eps, eps=1e-8)


class TestForward:
    def test_zero_weights_rectifier_zero_output(self):
        rng = np.random.default_rng(0)
        D = rng.uniform(size=(4, 6))
        act = make_activation("rectifier")
        out = nn_forward([np.zeros((2, 3)), np.zeros((3, 4))], D, act)
        assert np.array_equal(out, np.zeros((2, 6)))
        Y = one_hot(np.zeros(6, dtype=int), classes=2)
        value, _ = nn_energy_grad([np.zeros((2, 3)), np.zeros((3, 4))], D, Y, act)
        assert value == pytest.approx(0.5 * np.sum(Y ** 2), rel=1e-14)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        D = rng.uniform(size=(4, 7))
        As = init_weights([(3, 5), (5, 4)], seed=2)
        out = nn_forward(As, D, make_activation("soft-max"))
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert out.min() >= 0.0

    def test_rectifier_clips_to_unit_interval(self):
        act = make_activation("rectifier")
        z = np.array([[-1.0, 0.2, 3.0]])
        assert np.array_equal(act.value(z), [[0.0, 0.2, 1.0]])

    def test_shape_mismatch_rejected(self):
        act = make_activation("rectifier")
        with pytest.raises(ValueError):
            nn_forward([np.zeros((2, 3)), np.zeros((4, 4))], np.zeros((4, 5)), act)


class TestGradients:
    def test_two_layer_smooth_max_finite_differences(self):
        prob = small_problem(activation="smooth-max")
        prob.beta = 5.0
        E = ClassifierObjective(prob)
        rng = np.random.default_rng(3)
        x = E.pack(init_weights(prob.shapes, seed=3)) + 0.01 * rng.standard_normal(E.size)
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=4)
        assert report.max_rel_err < 1e-4

    @pytest.mark.parametrize("loss", ["kl", "kl-sym"])
    def test_kl_losses_finite_differences(self, loss):
        prob = small_problem(activation="smooth-max", loss=loss, loss_eps=1.0)
        E = ClassifierObjective(prob)
        x = E.pack(init_weights(prob.shapes, seed=5))
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=6)
        assert report.max_rel_err < 1e-4

    def test_softmax_finite_differences(self):
        prob = small_problem(activation="soft-max")
        E = ClassifierObjective(prob)
        x = E.pack(init_weights(prob.shapes, seed=7))
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=8)
        assert report.max_rel_err < 1e-4

    def test_rectifier_finite_differences_at_smooth_point(self):
        # pick a point where no pre-activation sits at a kink: positive weights
        # keep every pre-activation inside (0, 1) or clearly outside
        prob = small_problem(activation="rectifier")
        E = ClassifierObjective(prob)
        rng = np.random.default_rng(9)
        x = 0.3 + 0.05 * rng.uniform(size=E.size)
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=10)
        assert report.max_rel_err < 1e-4

    def test_kl_domain_error(self):
        from linbreg.problems.classify import loss_value_grad

        X = np.array([[-0.5]])
        Y = np.array([[1.0]])
        with pytest.raises(ValueError):
            loss_value_grad("kl", X, Y, eps=0.1)


class TestSyntheticDigits:
    def test_deterministic_and_bounded(self):
        D1, l1 = synthetic_digits(0, 40)
        D2, l2 = synthetic_digits(0, 40)
        assert np.array_equal(D1, D2)
        assert np.array_equal(l1, l2)
        assert D1.shape == (784, 40)
        assert D1.min() >= 0.0 and D1.max() <= 1.0
        assert set(np.unique(l1)) <= set(range(10))

    def test_distinct_digits_differ(self):
        D, labels = synthetic_digits(1, 60)
        zero_cols = D[:, labels == 0]
        one_cols = D[:, labels == 1]
        if zero_cols.shape[1] and one_cols.shape[1]:
            assert np.abs(zero_cols[:, 0] - one_cols[:, 0]).max() > 0.3
