import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import linbreg.solver
from linbreg import (
    L1,
    BacktrackingPolicy,
    NonnegativeIndicator,
    NuclearNorm,
    SeparableSum,
    SimplexIndicator,
    SquaredL2,
    StagnationError,
    StoppingRule,
    TotalVariation2D,
    WeightedL1Dct,
    Zero,
    initial_state,
    linbreg_step,
    run,
)
from linbreg.exceptions import NumericsError
from linbreg.problems import (
    BlindDeconvObjective,
    ClassifierObjective,
    LeastSquares,
    ParallelMriObjective,
    QuadraticObjective,
    make_synthetic_mri,
    random_psd_quadratic,
)
from linbreg.regularizers import (
    bregman_distance,
    fenchel_residual,
    project_simplex,
    symmetric_bregman_distance,
)
from linbreg.solver import (
    RunResult,
    SmoothObjective,
    SolverState,
    StackedObjective,
    backtrack,
    check_sufficient_decrease,
    surrogate_subgradient,
    surrogate_value,
)
from linbreg.tensor_ops import dct2

from helpers import iterate_reference
from instances import make_instance, run_instance


class TestLinbregStep:
    def test_reduces_to_gradient_descent_with_zero_regularizer(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6)
        E = LeastSquares(f)
        st = initial_state(E, Zero(), np.zeros(6), tau0=0.4)
        for _ in range(10):
            st_gd = st.u - 0.4 * E.value_and_grad(st.u)[1]
            st = linbreg_step(E, Zero(), st)
            assert np.allclose(st.u, st_gd, atol=1e-15)
            assert np.array_equal(st.q, np.zeros(6))

    def test_analytic_shrinkage_step(self):
        f = np.array([2.0, 0.5])
        E = LeastSquares(f)
        st = initial_state(E, L1(1.0), np.zeros(2), tau0=1.0)
        st1 = linbreg_step(E, L1(1.0), st)
        assert np.allclose(st1.u, [1.0, 0.0], atol=1e-14)
        assert np.allclose(st1.q, [1.0, 0.5], atol=1e-14)
        # the new dual point is a valid subgradient at the new primal point
        assert fenchel_residual(L1(1.0), st1.u, st1.q) <= 1e-12

    def test_aggregate_form_constant_stepsize(self):
        # u^{k+1} = prox(u0 + tau*q0 - tau * sum grad E(u^n), tau)
        rng = np.random.default_rng(1)
        E = random_psd_quadratic(3, 8, L=1.5)
        R = L1(0.25)
        tau = 0.5
        u0 = rng.standard_normal(8) * 0.1
        st = initial_state(E, R, u0, tau0=tau)
        q0 = st.q.copy()
        grad_sum = np.zeros(8)
        for _ in range(10):
            grad_sum += E.value_and_grad(st.u)[1]
            st = linbreg_step(E, R, st)
            aggregate = R.prox(u0 + tau * q0 - tau * grad_sum, tau)
            assert np.abs(st.u - aggregate).max() < 1e-10

    def test_non_finite_gradient_aborts(self):
        class Bad(SmoothObjective):
            def value_and_grad(self, u, facts=None):
                return 0.0, np.full_like(np.asarray(u), np.nan)

        st = initial_state(Bad(), Zero(), np.zeros(3), tau0=1.0)
        with pytest.raises(NumericsError):
            linbreg_step(Bad(), Zero(), st)


class TestProjectedGradientStep:
    def test_fixed_point_at_feasible_stationary_point(self):
        c = np.array([0.2, 0.3, 0.5])
        E = LeastSquares(c)
        st = replace(initial_state(E, SimplexIndicator(), c.copy(), tau0=1.0), q=None)
        st1 = linbreg_step(E, SimplexIndicator(), st)
        assert np.allclose(st1.u, c, atol=1e-12)

    def test_single_step_projects_target(self):
        c = np.array([2.0, 0.0, -1.0])
        E = LeastSquares(c)
        h0 = np.full(3, 1.0 / 3.0)
        st = replace(initial_state(E, SimplexIndicator(), h0, tau0=1.0), q=None)
        st1 = linbreg_step(E, SimplexIndicator(), st)
        assert np.allclose(st1.u, project_simplex(c), atol=1e-14)

    def test_equivalence_with_linbreg_on_indicator(self):
        # with R the simplex indicator and iterates staying strictly inside the
        # simplex, the dual memory is a multiple of the all-ones vector, which
        # the projection cancels: iterates coincide with projected gradient
        rng = np.random.default_rng(2)
        n = 5
        target = np.full(n, 1.0 / n) + 0.02 * rng.standard_normal(n)
        target += (1.0 - target.sum()) / n  # interior point of the simplex
        E = LeastSquares(target)
        R = SimplexIndicator()
        u0 = np.full(n, 1.0 / n)
        st_b = initial_state(E, R, u0, tau0=0.3)
        st_p = replace(initial_state(E, R, u0.copy(), tau0=0.3), q=None)
        for _ in range(30):
            st_b = linbreg_step(E, R, st_b)
            st_p = linbreg_step(E, R, st_p)
            assert np.abs(st_b.u - st_p.u).max() < 1e-12


class TestDualMemoryMask:
    def test_top_level_wrapper_equals_projected_gradient(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(5)
        E = LeastSquares(c)
        R = SeparableSum([(SimplexIndicator(), 5, False)])
        st = initial_state(E, R, np.full(5, 0.2), tau0=0.4)
        ref = np.full(5, 0.2)
        for _ in range(8):
            st = linbreg_step(E, R, st)
            ref = project_simplex(ref - 0.4 * (ref - c))
            assert np.array_equal(st.q, np.zeros(5))
            assert np.array_equal(st.u, ref)

    def test_masked_block_in_separable_sum(self):
        rng = np.random.default_rng(12)
        target = rng.standard_normal(6)
        target[3:] = project_simplex(target[3:]) + 0.5  # infeasible kernel block
        E = LeastSquares(target)
        R = SeparableSum([
            (L1(0.2), 3),
            (SimplexIndicator(), 3, False),
        ])
        u0 = np.concatenate([np.zeros(3), np.full(3, 1.0 / 3.0)])
        st = initial_state(E, R, u0, tau0=0.5)
        for _ in range(6):
            st = linbreg_step(E, R, st)
            # the l1 block carries memory, the simplex block never does
            assert np.array_equal(st.q[3:], np.zeros(3))
        assert np.abs(st.q[:3]).max() > 0

    def test_nested_sum_mask_splices(self):
        inner = SeparableSum([
            (L1(0.1), 2),
            (SimplexIndicator(), 2, False),
        ])
        outer = SeparableSum([(SquaredL2(), 3), (inner, 4)])
        mask = outer.memory_mask
        assert np.array_equal(mask, [1, 1, 1, 1, 1, 0, 0])


class TestProximalGradientStep:
    def test_zero_regularizer_is_gradient_descent(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(5)
        E = LeastSquares(f)
        u0 = rng.standard_normal(5)
        st = replace(initial_state(E, Zero(), u0, tau0=0.7), q=None)
        st1 = linbreg_step(E, Zero(), st)
        assert np.allclose(st1.u, u0 - 0.7 * E.value_and_grad(u0)[1], atol=1e-15)

    def test_first_step_coincides_with_linbreg_then_diverges(self):
        f = np.array([2.0, 0.5, -1.5])
        E = LeastSquares(f)
        R = L1(1.0)
        u0 = np.zeros(3)
        st_b = initial_state(E, R, u0, tau0=1.0)
        st_p = replace(initial_state(E, R, u0.copy(), tau0=1.0), q=None)

        st_b = linbreg_step(E, R, st_b)
        st_p = linbreg_step(E, R, st_p)
        assert np.allclose(st_b.u, L1(1.0).prox(f, 1.0), atol=1e-14)
        assert np.abs(st_b.u - st_p.u).max() < 1e-14

        st_b = linbreg_step(E, R, st_b)
        st_p = linbreg_step(E, R, st_p)
        assert np.abs(st_b.u - st_p.u).max() > 1e-3  # dual memory changes the argument


class TestBacktrack:
    def test_safe_stepsize_accepted_immediately(self):
        E = LeastSquares(np.array([1.0, -1.0]))  # L = 1
        st = initial_state(E, Zero(), np.zeros(2), tau0=0.5)
        st1 = backtrack(E, Zero(), st, BacktrackingPolicy(
            tau0=0.5, eps_decrease=1e-12 * max(1.0, abs(st.energy))))
        assert st1.tau == 0.5

    @pytest.mark.parametrize("tau0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tau0_must_be_positive_and_finite(self, tau0):
        with pytest.raises(ValueError, match="tau0"):
            BacktrackingPolicy(tau0=tau0)

    def test_unresolved_eps_decrease_is_a_value_error(self):
        E = LeastSquares(np.array([1.0, -1.0]))
        st = initial_state(E, Zero(), np.zeros(2), tau0=0.5)
        with pytest.raises(ValueError, match="iterate resolves eps_decrease=None"):
            backtrack(E, Zero(), st, BacktrackingPolicy(tau0=0.5))

    def test_hand_simulated_shrink_sequence(self):
        # E(u) = u^2/2 from u = 1 with tau0 = 4: trials 4, 3, 2.25 all raise E,
        # 4 * (3/4)^3 = 1.6875 gives u = -0.6875 and E decreases
        E = LeastSquares(np.array([0.0]))
        st = initial_state(E, Zero(), np.array([1.0]), tau0=4.0)
        st1 = backtrack(E, Zero(), st, BacktrackingPolicy(tau0=4.0, eps_decrease=0.0))
        assert st1.tau == pytest.approx(1.6875, abs=0.0)
        assert st1.u[0] == pytest.approx(-0.6875, abs=0.0)

    def test_dual_not_advanced_on_rejected_trials(self):
        # after backtracking, the accepted state must equal a single step taken
        # directly at the accepted stepsize from the same (u, q)
        E = LeastSquares(np.array([0.0, 0.0]))
        R = L1(0.5)
        st = initial_state(E, R, np.array([1.0, -2.0]), tau0=4.0)
        st1 = backtrack(E, R, st, BacktrackingPolicy(tau0=4.0, eps_decrease=0.0))
        direct = linbreg_step(E, R, SolverState(u=st.u, q=st.q, tau=st1.tau,
                                                energy=st.energy, grad=st.grad))
        assert np.array_equal(st1.u, direct.u)
        assert np.array_equal(st1.q, direct.q)

    def test_stagnation_error_on_underflow(self):
        # sqrt-shaped energy: any step away from the start raises the value,
        # so no stepsize can ever satisfy the decrease check
        class Worse(SmoothObjective):
            def value_and_grad(self, u, facts=None):
                x = np.ravel(u)
                value = float(np.abs(x[0] - 1.0) ** 0.5) if x[0] != 1.0 else 0.0
                return value, np.ones_like(np.asarray(u))

        E = Worse()
        st = initial_state(E, Zero(), np.array([1.0]), tau0=1.0)
        with pytest.raises(StagnationError):
            backtrack(E, Zero(), st, BacktrackingPolicy(tau0=1.0, eps_decrease=0.0))

    def test_nan_energy_raises_at_once(self):
        # a NaN trial energy is a numerical fault, not a too-long step: no
        # shrinking, and the error names the iteration and the stepsize
        class NanAway(SmoothObjective):
            calls = 0

            def value_and_grad(self, u, facts=None):
                self.calls += 1
                return float("nan"), np.ones_like(np.asarray(u))

        E = NanAway()
        st = SolverState(u=np.array([1.0]), q=np.zeros(1), tau=0.5, k=7, energy=1.0,
                         grad=np.ones(1))
        with pytest.raises(NumericsError, match="iteration 7.*tau = 0.5") as info:
            backtrack(E, Zero(), st, BacktrackingPolicy(tau0=0.5, eps_decrease=1e-12))
        assert type(info.value) is NumericsError
        assert E.calls == 1

    def test_infinite_energy_keeps_shrinking(self):
        # an overflowing trial (E = +inf) is rejected like any too-long step
        class Overflow(LeastSquares):
            def value_and_grad(self, u, facts=None):
                value, g = super().value_and_grad(u)
                return (float("inf") if float(np.ravel(u)[0]) < -0.9 else value), g

        # from u = 1 with grad 1: tau = 2 lands on -1 (inf), tau = 1.5 on -0.5
        E = Overflow(np.array([0.0]))
        st = initial_state(E, Zero(), np.array([1.0]), tau0=2.0)
        st1 = backtrack(E, Zero(), st, BacktrackingPolicy(
            tau0=2.0, eps_decrease=1e-12 * max(1.0, abs(st.energy))))
        assert st1.tau == 1.5
        assert st1.u[0] == -0.5


class TestEvaluationCount:
    @pytest.mark.parametrize("memory", [True, False])
    def test_one_evaluation_per_trial(self, monkeypatch, memory):
        # tau0 = 3 exceeds 2/L = 2, so backtracking rejects trials; the solver
        # evaluates E once at u0 and once per trial, at the trial's iterate
        points = []

        class Counted(QuadraticObjective):
            def value_and_grad(self, u, facts=None):
                points.append(np.array(u, copy=True))
                return super().value_and_grad(u, facts)

        base = random_psd_quadratic(0, 20, L=1.0)
        E = Counted(base.A, base.b, lipschitz=base.lipschitz)
        R = L1(0.1)
        trials = []
        step = linbreg.solver.linbreg_step

        def counted_step(*args):
            trials.append(step(*args))
            return trials[-1]

        monkeypatch.setattr(linbreg.solver, "linbreg_step", counted_step)
        u0 = np.zeros(20)
        st0 = initial_state(E, R, u0, tau0=3.0)
        if not memory:
            st0 = replace(st0, q=None)
        result = run(E, R, st0, BacktrackingPolicy(tau0=3.0), StoppingRule(max_iter=30))
        assert len(result.records) == 30
        assert len(trials) > len(result.records)
        assert len(points) == 1 + len(trials)
        assert np.array_equal(points[0], u0)
        assert all(np.array_equal(p, t.u) for p, t in zip(points[1:], trials))


class TestInterfacePins:
    def test_energy_is_one_method(self):
        assert [name for name, v in vars(SmoothObjective).items()
                if callable(v)] == ["value_and_grad"]
        for name in ("evaluate", "value", "grad"):
            assert not hasattr(SmoothObjective, name)

    def test_shipped_energies_define_only_value_and_grad(self):
        from linbreg.problems import (
            BlindDeconvObjective,
            ClassifierObjective,
            ParallelMriObjective,
        )
        from linbreg.problems.counterexample import ShiftedParabola

        for cls in (QuadraticObjective, LeastSquares, ShiftedParabola, BlindDeconvObjective,
                    ParallelMriObjective, ClassifierObjective):
            for name in ("evaluate", "value", "grad"):
                assert not hasattr(cls, name), (cls.__name__, name)

    def test_state_requires_energy_and_grad(self):
        with pytest.raises(TypeError):
            SolverState(u=np.zeros(2), q=np.zeros(2), tau=1.0)
        with pytest.raises(TypeError):
            SolverState(u=np.zeros(2), q=np.zeros(2), tau=1.0, energy=0.0)
        with pytest.raises(TypeError):
            SolverState(u=np.zeros(2), q=np.zeros(2), tau=1.0, grad=np.zeros(2))

    def test_run_result_holds_what_the_run_produced(self):
        assert [f.name for f in fields(RunResult)] == ["state", "records", "stop_reason"]


class TestFaultInjection:
    def test_inf_gradient_at_a_step_names_the_iteration(self):
        # the third evaluation, at the second step's iterate, returns an Inf gradient
        class InfFromThirdCall(QuadraticObjective):
            calls = 0

            def value_and_grad(self, u, facts=None):
                self.calls += 1
                value, g = super().value_and_grad(u, facts)
                return value, (np.full_like(g, np.inf) if self.calls >= 3 else g)

        t0 = time.perf_counter()
        base = random_psd_quadratic(0, 8, L=1.0)
        E = InfFromThirdCall(base.A, base.b, lipschitz=base.lipschitz)
        R = L1(0.1)
        st0 = initial_state(E, R, np.zeros(8), tau0=0.5)
        with pytest.raises(NumericsError, match="non-finite gradient at iteration 2"):
            run(E, R, st0, BacktrackingPolicy(tau0=0.5), StoppingRule(max_iter=10))
        assert E.calls == 3
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("R, u0", [(SimplexIndicator(), np.array([0.5, 0.6, 0.1])),
                                       (NonnegativeIndicator(), np.array([0.5, -0.1, 1.0]))],
                             ids=["simplex", "nonnegative"])
    def test_infeasible_u0_raises_value_error(self, R, u0):
        with pytest.raises(ValueError):
            initial_state(LeastSquares(np.zeros(3)), R, u0, tau0=1.0)


class TestSurrogate:
    def test_zero_regularizer_gives_energy(self):
        rng = np.random.default_rng(4)
        E = LeastSquares(rng.standard_normal(4))
        x = rng.standard_normal(4)
        ex = E.value_and_grad(x)[0]
        assert surrogate_value(ex, Zero(), x, np.zeros(4)) == pytest.approx(ex, rel=1e-14)

    def test_vanishes_to_energy_at_base_point(self):
        rng = np.random.default_rng(5)
        E = LeastSquares(rng.standard_normal(4))
        R = L1(0.7)
        x = rng.standard_normal(4)
        y = R.initial_subgradient(x)
        ex = E.value_and_grad(x)[0]
        assert surrogate_value(ex, R, x, y) == pytest.approx(ex, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_form_equals_bregman_form(self, seed):
        rng = np.random.default_rng(seed)
        E = LeastSquares(rng.standard_normal(5))
        R = L1(0.9)
        z = rng.standard_normal(5)
        v = R.prox(z, 1.0)
        y = z - v  # in dR(v) scaled by alpha... exact prox subgradient at step 1
        x = rng.standard_normal(5)
        ex = E.value_and_grad(x)[0]
        conj_form = surrogate_value(ex, R, x, y)
        breg_form = ex + bregman_distance(R, x, v, y)
        assert conj_form == pytest.approx(breg_form, abs=1e-12)

    def test_surrogate_upper_bounds_energy(self):
        _, _, _, result, _, _ = run_instance("l1", 50, seed=1)
        for rec in result.records:
            assert rec.surrogate >= rec.energy - 1e-10 * (1.0 + abs(rec.energy))


class TestSurrogateSubgradient:
    def test_zero_at_fixed_point(self):
        E = LeastSquares(np.zeros(3))
        prev = initial_state(E, Zero(), np.zeros(3), tau0=1.0)
        st = replace(prev, k=1)
        r = surrogate_subgradient(st, prev)
        assert np.array_equal(r, np.zeros(6))

    def test_unavailable_at_start(self):
        E = LeastSquares(np.zeros(3))
        st = initial_state(E, Zero(), np.ones(3), tau0=1.0)
        with pytest.raises(ValueError):
            surrogate_subgradient(st, None)

    def test_zero_regularizer_form(self):
        rng = np.random.default_rng(6)
        E = LeastSquares(rng.standard_normal(4))
        st = initial_state(E, Zero(), rng.standard_normal(4), tau0=0.5)
        st1 = linbreg_step(E, Zero(), st)
        r = surrogate_subgradient(st1, st)
        g1, g0 = E.value_and_grad(st1.u)[1], E.value_and_grad(st.u)[1]
        expected = np.concatenate([g1, st.u - st1.u])
        assert np.allclose(r, expected, atol=1e-14)
        # from the update identity, the first block is bounded by the gap terms
        first = np.linalg.norm(g1)
        bound = np.linalg.norm(st1.u - st.u) / st1.tau + np.linalg.norm(g1 - g0)
        assert first <= bound + 1e-12

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_bound_by_iterate_gap(self, kind):
        E, R, _, result, tau, _ = run_instance(kind, 120, seed=2)
        L = E.lipschitz
        rho2 = 1.0 + L + 1.0 / tau
        for rec in result.records:
            assert rec.r_norm <= rho2 * rec.iterate_gap * (1.0 + 1e-9) + 1e-12


class TestSufficientDecrease:
    def test_stepsize_bound_arithmetic(self):
        # L = 1, rho1 = 0.25 -> admissible tau up to 4/3; the audit's rho1
        # derivation inverts it
        L, rho1 = 1.0, 0.25
        tau = 2.0 / (L + 2.0 * rho1)
        assert tau == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert max(0.0, 1.0 / tau - L / 2.0) == pytest.approx(rho1, rel=1e-12)

    def test_gradient_descent_monotone_energy_and_surrogate(self):
        rng = np.random.default_rng(7)
        E = random_psd_quadratic(5, 10, L=2.0)
        st0 = initial_state(E, Zero(), rng.standard_normal(10), tau0=0.5)  # 1/L
        result = run(E, Zero(), st0, BacktrackingPolicy(tau0=0.5), StoppingRule(max_iter=60))
        energies = [st0.energy] + [r.energy for r in result.records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        for rec in result.records:
            assert rec.surrogate == pytest.approx(rec.energy, abs=1e-12)

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_zero_violations_over_500_iterations(self, kind):
        E, _, st0, result, _, _ = run_instance(kind, 500, seed=3)
        report = check_sufficient_decrease(result.records, E.lipschitz, st0.surrogate)
        assert report.checked == 500
        assert report.violations == []

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_monotone_surrogate(self, kind):
        _, _, st0, result, _, _ = run_instance(kind, 200, seed=4)
        fs = [st0.surrogate] + [r.surrogate for r in result.records]
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_iterate_gap_summability_proxy(self, kind):
        _, _, st0, result, _, rho1 = run_instance(kind, 300, seed=5)
        fs = [st0.surrogate] + [r.surrogate for r in result.records]
        total = sum(r.iterate_gap ** 2 for r in result.records)
        bound = (fs[0] - min(fs)) / rho1
        assert total <= bound * (1.0 + 1e-9) + 1e-12


class TestStepIdentity:
    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_intermediate_identity_each_step(self, kind):
        # -<grad E(u^k), u^{k+1} - u^k> = ||gap||^2 / tau + sym Bregman distance
        E, R, _, _, tau, _ = run_instance(kind, 0, seed=6)
        _, _, u0 = make_instance(kind, seed=6)
        st = initial_state(E, R, u0, tau0=tau)
        for _ in range(80):
            st_new = linbreg_step(E, R, st)
            delta = st_new.u - st.u
            lhs = -float(E.value_and_grad(st.u)[1] @ delta)
            dsym = symmetric_bregman_distance(st_new.u, st.u, st_new.q, st.q)
            rhs = float(delta @ delta) / tau + dsym
            scale = 1.0 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-9 * scale
            st = st_new

    def test_symmetric_distance_matches_value_route_l1(self):
        E, R, _, _, tau, _ = run_instance("l1", 0, seed=7)
        _, _, u0 = make_instance("l1", seed=7)
        st = initial_state(E, R, u0, tau0=tau)
        for _ in range(30):
            st_new = linbreg_step(E, R, st)
            inner = symmetric_bregman_distance(st_new.u, st.u, st_new.q, st.q)
            values = (bregman_distance(R, st_new.u, st.u, st.q)
                      + bregman_distance(R, st.u, st_new.u, st_new.q))
            assert inner == pytest.approx(values, abs=1e-10)
            st = st_new


class TestDualFeasibility:
    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_certified_subgradients_every_step(self, kind):
        E, R, _, result, _, _ = run_instance(kind, 100, seed=8)
        st = result.state
        assert fenchel_residual(R, st.u, st.q) <= 1e-8 * (1.0 + abs(R.value(st.u)))

    def test_certification_along_whole_run(self):
        E, R, _, _, tau, _ = run_instance("l1", 0, seed=9)
        _, _, u0 = make_instance("l1", seed=9)
        st = initial_state(E, R, u0, tau0=tau)
        for _ in range(60):
            st = linbreg_step(E, R, st)
            assert fenchel_residual(R, st.u, st.q) <= 1e-8 * (1.0 + abs(R.value(st.u)))


class TestRun:
    def test_zero_max_iter_returns_initial_state(self):
        E = LeastSquares(np.array([1.0, 2.0]))
        st0 = initial_state(E, Zero(), np.zeros(2), tau0=0.5)
        result = run(E, Zero(), st0, BacktrackingPolicy(tau0=0.5), StoppingRule(max_iter=0))
        assert result.state is st0
        assert result.records == []
        assert result.stop_reason == "max_iter"

    def test_discrepancy_stop(self):
        rng = np.random.default_rng(8)
        target = rng.standard_normal(6)
        noise_floor = 0.05
        E = QuadraticObjective(np.eye(6), target, c=0.5 * float(target @ target) + noise_floor)
        # E(u) = 0.5 ||u - target||^2 + noise_floor, minimised at noise_floor
        st0 = initial_state(E, Zero(), np.zeros(6), tau0=1.0)
        eta = 0.06  # above the floor
        result = run(E, Zero(), st0, BacktrackingPolicy(tau0=1.0),
                     StoppingRule(max_iter=10000, discrepancy_eta=eta))
        assert result.stop_reason == "discrepancy"
        assert result.state.energy <= eta
        assert len(result.records) < 10000

    def test_discrepancy_already_satisfied_at_start(self):
        E = LeastSquares(np.zeros(3))
        st0 = initial_state(E, Zero(), np.zeros(3), tau0=1.0)
        result = run(E, Zero(), st0, BacktrackingPolicy(tau0=1.0),
                     StoppingRule(max_iter=10, discrepancy_eta=1.0))
        assert result.stop_reason == "discrepancy"
        assert result.records == []

    def test_iterate_gap_stop(self):
        E = LeastSquares(np.ones(4))
        st0 = initial_state(E, Zero(), np.zeros(4), tau0=0.5)
        result = run(E, Zero(), st0, BacktrackingPolicy(tau0=0.5),
                     StoppingRule(max_iter=100000, iterate_gap_tol=1e-6))
        assert result.stop_reason == "iterate_gap"
        assert result.records[-1].iterate_gap <= 1e-6

    def test_stopping_rule_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(max_iter=-1)


class TestGradientDescentEquivalence:
    @pytest.mark.parametrize("tau", [0.3, 0.8, 1.5])
    def test_closed_form_sequence(self, tau):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(7)
        u0 = rng.standard_normal(7)
        E = LeastSquares(f)
        st = initial_state(E, Zero(), u0, tau0=tau)
        for k in range(1, 31):
            st = linbreg_step(E, Zero(), st)
            closed = f + (1.0 - tau) ** k * (u0 - f)
            assert np.abs(st.u - closed).max() <= 1e-14 * max(1.0, np.abs(closed).max())

    def test_general_quadratic_closed_form(self):
        # u^k = u* + (I - tau A)^k (u0 - u*) with u* = A^{-1} b
        rng = np.random.default_rng(10)
        E = random_psd_quadratic(4, 6, L=2.0)
        tau = 0.4
        u0 = rng.standard_normal(6)
        u_star = np.linalg.solve(E.A, E.b)
        M = np.eye(6) - tau * E.A
        st = initial_state(E, Zero(), u0, tau0=tau)
        diff = u0 - u_star
        for _ in range(25):
            st = linbreg_step(E, Zero(), st)
            diff = M @ diff
            closed = u_star + diff
            assert np.abs(st.u - closed).max() <= 1e-13 * max(1.0, np.abs(closed).max())


def _certified_instance(kind: str, seed: int):
    """(R, u0) for a regularizer with a conjugate, u0 in dom(R), on 12 entries."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(12)
    h = rng.uniform(0.1, 1.0, size=12)
    if kind == "zero":
        return Zero(), u
    if kind == "squared-l2":
        return SquaredL2(0.7), u
    if kind == "l1":
        return L1(0.3), u
    if kind == "weighted-l1-dct":
        return SeparableSum([(WeightedL1Dct(0.3, rng.uniform(0.0, 2.0, size=(3, 4))), (3, 4))]), u
    if kind == "nonnegative":
        return NonnegativeIndicator(), np.abs(u)
    if kind == "simplex":
        return SimplexIndicator(), h / h.sum()
    if kind == "nuclear":
        return SeparableSum([(NuclearNorm(0.4), (4, 3))]), u
    # two blocks: l1 and a simplex
    return (SeparableSum([(L1(0.3), 6), (SimplexIndicator(), 6)]),
            np.concatenate([u[:6], h[6:] / h[6:].sum()]))


CERTIFIED_KINDS = ["zero", "squared-l2", "l1", "weighted-l1-dct", "nonnegative",
                   "simplex", "nuclear", "separable-sum"]


class TestCertificateProperties:
    """On seeded quadratics with known L and tau0 <= 1/L, every record's
    decrease and bound flags hold, for every regularizer with a conjugate."""

    @pytest.fixture(scope="class", autouse=True)
    def _dct_loaded(self):
        # dct2 imports scipy.fft at its first call; keep that out of the timed region
        dct2(np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", CERTIFIED_KINDS)
    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(seed=strategies.integers(0, 2**16), L=strategies.floats(0.5, 4.0),
           # below about 1e-5 / L rounding in q = (z - u) / tau trips the
           # flags (see test_tiny_stepsize_trips_the_decrease_flag)
           tau_frac=strategies.floats(1e-3, 1.0), backtracking=strategies.booleans())
    def test_flags_hold(self, kind, seed, L, tau_frac, backtracking):
        t0 = time.perf_counter()
        E = random_psd_quadratic(seed, 12, L=L)
        assert E.lipschitz == L
        R, u0 = _certified_instance(kind, seed)
        tau0 = tau_frac / L
        policy = BacktrackingPolicy(tau0=tau0, eps_decrease=None if backtracking else np.inf)
        result = run(E, R, initial_state(E, R, u0, tau0), policy, StoppingRule(max_iter=60))
        assert len(result.records) == 60
        assert all(rec.decrease_ok and rec.bound_ok for rec in result.records)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("kind", CERTIFIED_KINDS)
    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(seed=strategies.integers(0, 2**16))
    def test_initial_surrogate_is_the_energy(self, kind, seed):
        # initial_state sets F(s0) = E(u0) without evaluating the formula:
        # Fenchel-Young makes R(u0) + R*(q0) - <u0, q0> vanish for q0 in dR(u0)
        E = random_psd_quadratic(seed, 12, L=2.0)
        R, u0 = _certified_instance(kind, seed)
        st0 = initial_state(E, R, u0, 0.5)
        assert st0.surrogate == st0.energy == E.value_and_grad(u0)[0]
        formula = surrogate_value(st0.energy, R, u0, st0.q, base=u0)
        assert abs(formula - st0.energy) <= 1e-12 * (1.0 + abs(st0.energy))

    @pytest.mark.xfail(strict=True, reason="the decrease check's tolerances do not "
                       "scale with the rounding error of q, which grows like 1/tau")
    def test_tiny_stepsize_trips_the_decrease_flag(self):
        E = random_psd_quadratic(0, 12, L=2.0)
        R, u0 = _certified_instance("nuclear", 0)
        tau0 = 1e-6 / 2.0
        result = run(E, R, initial_state(E, R, u0, tau0),
                     BacktrackingPolicy(tau0=tau0, eps_decrease=np.inf), StoppingRule(max_iter=60))
        assert all(rec.decrease_ok for rec in result.records)


def _loop_bytes(steps, n):
    """Every record field's repr and the state bytes of the first n accepted steps."""
    out = []
    for _ in range(n):
        st, rec = next(steps)
        out.append((tuple(repr(getattr(rec, f.name)) for f in fields(rec)),
                    st.u.shape, st.u.tobytes(), None if st.q is None else st.q.tobytes(),
                    st.grad.tobytes()))
    return out


def _same_loop(E, R, u0, tau0, eps_decrease, n=40, memory=True, extras_fn=None):
    """Run ``iterate`` and the reference loop side by side from equal start states."""
    starts = []
    for _ in range(2):
        st0 = initial_state(E, R, u0, tau0)
        starts.append(st0 if memory else replace(st0, q=None))
    policy = BacktrackingPolicy(tau0=tau0, eps_decrease=eps_decrease)
    new = _loop_bytes(linbreg.solver.iterate(E, R, starts[0], policy, extras_fn), n)
    ref = _loop_bytes(iterate_reference(E, R, starts[1], policy, extras_fn), n)
    assert new == ref
    return new


class TestLoopMatchesReference:
    """``iterate`` writes the same record and state bytes as the loop kept in
    ``helpers``, which its bookkeeping was trimmed from."""

    @pytest.mark.parametrize("kind", CERTIFIED_KINDS)
    @pytest.mark.parametrize("step", ["rejecting", "fixed"])
    def test_certified_regularizers(self, kind, step):
        E = random_psd_quadratic(3, 12, L=4.0)
        R, u0 = _certified_instance(kind, 3)
        if step == "rejecting":
            # tau0 = 3/L exceeds 2/L, so backtracking rejects trials; on this
            # instance every squared-l2 trial passes the energy check
            loop = _same_loop(E, R, u0, 0.75, None)
            assert (float(loop[-1][0][1]) < 0.75) == (kind != "squared-l2")
        else:
            _same_loop(E, R, u0, 0.25, np.inf)

    @pytest.mark.parametrize("kind", ["l1", "simplex", "separable-sum"])
    def test_baseline_without_dual(self, kind):
        E = random_psd_quadratic(4, 12, L=1.0)
        R, u0 = _certified_instance(kind, 4)
        loop = _same_loop(E, R, u0, 3.0, None, memory=False)
        assert loop[0][3] is None

    def test_block_without_memory(self):
        E = random_psd_quadratic(5, 12, L=1.0)
        R = SeparableSum([(L1(0.3), 6), (SimplexIndicator(), 6, False)])
        u0 = np.concatenate([np.linspace(-1.0, 1.0, 6), np.full(6, 1.0 / 6.0)])
        loop = _same_loop(E, R, u0, 3.0, None)
        assert not np.frombuffer(loop[-1][3])[6:].any()

    def test_two_dimensional_iterate_with_extras(self):
        # TV has no conjugate, so the surrogate takes the Bregman form
        rng = np.random.default_rng(6)
        f = rng.standard_normal((6, 5))
        E = LeastSquares(f)
        R = TotalVariation2D(0.2)
        loop = _same_loop(E, R, np.zeros((6, 5)), 0.9, None, n=12,
                          extras_fn=lambda st: {"mean": float(st.u.mean())})
        assert loop[0][1] == (6, 5)
        _same_loop(E, NuclearNorm(0.3), f, 0.9, np.inf, n=12)


def _stacked_instance(kind: str):
    """(objective, arrays) on a small instance of each stacked objective."""
    rng = np.random.default_rng(12)
    if kind == "deconv":
        E = BlindDeconvObjective(rng.standard_normal((6, 7)), (3, 2))
        return E, [rng.standard_normal(s) for s in E.shapes]
    if kind == "mri":
        prob = make_synthetic_mri(12, 4, coils=2, mask_kind="full")
        E = ParallelMriObjective(prob.data, prob.mask, prob.eps)
        return E, [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                   for _ in range(3)]
    D = rng.uniform(size=(16, 5))
    Y = np.eye(10)[:, rng.integers(0, 10, size=5)]
    E = ClassifierObjective(D, Y, [(10, 3), (3, 16)])
    return E, [rng.standard_normal(s) for s in E.shapes]


class TestStackedLayout:
    @pytest.mark.parametrize("kind", ["deconv", "mri", "classifier"])
    def test_split_pack_views_and_length_check(self, kind):
        E, arrays = _stacked_instance(kind)
        x = E.pack(arrays)
        assert x.shape == (E.size,) and E.size == sum(E.sizes)
        got = E.split(x)
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
            [(a.dtype, a.shape, a.tobytes()) for a in arrays]
        # MRI joins its real blocks into new complex arrays; the blocks under
        # them, and every block of the real objectives, are views of x
        blocks = StackedObjective.split(E, x)
        assert [b.shape for b in blocks] == E.shapes
        assert all(np.shares_memory(b, x) for b in blocks)
        with pytest.raises(ValueError, match=f"expected {E.size} entries, got {E.size + 1}"):
            E.split(np.zeros(E.size + 1))
