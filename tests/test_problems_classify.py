import tracemalloc

import numpy as np
import pytest

from linbreg.verify import finite_difference_gradient_check
from linbreg.problems import (
    ClassifierObjective,
    init_weights,
    nn_forward,
    synthetic_digits,
)
from linbreg.problems.classify import (
    ACTIVATION_KINDS,
    LOSS_KINDS,
    loss_value_grad,
    make_activation,
    one_hot,
)


def small_problem(activation="rectifier", loss="frobenius", loss_eps=1.0, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.uniform(size=(4, 5))
    Y = one_hot(rng.integers(0, 2, size=5), classes=2)
    return ClassifierObjective(D, Y, [(2, 3), (3, 4)],
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
        E = ClassifierObjective(D, Y, [(2, 3), (3, 4)], eps=0.0)
        value, _ = E.value_and_grad(E.pack([np.zeros((2, 3)), np.zeros((3, 4))]))
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

    def test_label_columns_must_match_data(self):
        # rejected when the objective is built, before any evaluation
        with pytest.raises(ValueError, match="columns"):
            ClassifierObjective(np.zeros((4, 5)), np.zeros((2, 6)), [(2, 3), (3, 4)])


class TestGradients:
    def test_two_layer_smooth_max_finite_differences(self):
        E = small_problem(activation="smooth-max")
        rng = np.random.default_rng(3)
        x = E.pack(init_weights(E.shapes, seed=3)) + 0.01 * rng.standard_normal(E.size)
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=4)
        assert report.max_rel_err < 1e-4

    @pytest.mark.parametrize("loss", ["kl", "kl-sym"])
    def test_kl_losses_finite_differences(self, loss):
        E = small_problem(activation="smooth-max", loss=loss, loss_eps=1.0)
        x = E.pack(init_weights(E.shapes, seed=5))
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=6)
        assert report.max_rel_err < 1e-4

    @pytest.mark.parametrize("loss", ["kl", "kl-sym"])
    def test_kl_losses_finite_with_the_default_shift(self, loss):
        # the one-hot labels have zero entries, which an unshifted KL loss rejects
        base = small_problem()
        E = ClassifierObjective(base.D, base.Y, base.shapes, loss_kind=loss)
        value, grad = E.value_and_grad(E.pack(init_weights(E.shapes, seed=5)))
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    def test_softmax_finite_differences(self):
        E = small_problem(activation="soft-max")
        x = E.pack(init_weights(E.shapes, seed=7))
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=8)
        assert report.max_rel_err < 1e-4

    def test_rectifier_finite_differences_at_smooth_point(self):
        # pick a point where no pre-activation sits at a kink: positive weights
        # keep every pre-activation inside (0, 1) or clearly outside
        E = small_problem(activation="rectifier")
        rng = np.random.default_rng(9)
        x = 0.3 + 0.05 * rng.uniform(size=E.size)
        report = finite_difference_gradient_check(E, x, n_coords=E.size, seed=10)
        assert report.max_rel_err < 1e-4

    def test_kl_domain_error(self):
        from linbreg.exceptions import NumericsError
        from linbreg.problems.classify import loss_value_grad

        X = np.array([[-0.5]])
        Y = np.array([[1.0]])
        with pytest.raises(NumericsError):
            loss_value_grad("kl", X, Y, eps=0.1)


def nn_energy_grad_loop(As, D, Y, activation, loss_kind, loss_eps, eps):
    """Reference backward pass: every layer propagates G, the innermost layer
    included, whose G is the gradient with respect to D."""
    T = D
    layers = []
    for A in reversed(As):
        Z = A @ T
        layers.append((T, Z))
        T = activation.value(Z)
    value, G = loss_value_grad(loss_kind, T, Y, eps=loss_eps)
    grads = []
    for A, (T_in, Z) in zip(As, layers[::-1]):
        Gz = activation.backprop(Z, G)
        grads.append(Gz @ T_in.T + eps * A)
        G = A.T @ Gz
        value += 0.5 * eps * float(np.sum(A * A))
    return value, grads


class TestBackwardPass:
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @pytest.mark.parametrize("activation", ACTIVATION_KINDS)
    def test_three_layers_equal_the_reference_loop(self, activation, loss):
        rng = np.random.default_rng(11)
        D = rng.uniform(size=(6, 9))
        Y = one_hot(rng.integers(0, 3, size=9), classes=3)
        As = init_weights([(3, 5), (5, 4), (4, 6)], seed=12)
        act = make_activation(activation)
        E = ClassifierObjective(D, Y, [A.shape for A in As], activation_kind=activation,
                                loss_kind=loss, loss_eps=1.0, eps=1e-3)
        value, g = E.value_and_grad(E.pack(As))
        grads = E.split(g)
        ref_value, ref_grads = nn_energy_grad_loop(As, D, Y, act, loss, 1.0, 1e-3)
        assert value == ref_value
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]

    def test_no_data_gradient_at_bench_size(self):
        # the gradient with respect to D alone would take D.nbytes
        D, labels = synthetic_digits(0, 500)
        E = ClassifierObjective(D, one_hot(labels), [(10, 30), (30, 784)])
        x = E.pack(init_weights(E.shapes, seed=0))
        tracemalloc.start()
        try:
            E.value_and_grad(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < D.nbytes


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
