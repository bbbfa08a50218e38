from dataclasses import replace

import numpy as np
import pytest

import linbreg.solver
from linbreg import (
    L1,
    BacktrackingPolicy,
    SeparableSum,
    SimplexIndicator,
    SquaredL2,
    StagnationError,
    StoppingRule,
    Zero,
    initial_state,
    linbreg_step,
    run,
)
from linbreg.exceptions import NumericsError
from linbreg.problems import LeastSquares, QuadraticObjective, random_psd_quadratic
from linbreg.regularizers import (
    bregman_distance,
    fenchel_residual,
    project_simplex,
    symmetric_bregman_distance,
)
from linbreg.solver import (
    SmoothObjective,
    SolverState,
    backtrack,
    check_sufficient_decrease,
    surrogate_subgradient,
    surrogate_value,
)

from instances import make_instance, run_instance


class TestLinbregStep:
    def test_reduces_to_gradient_descent_with_zero_regularizer(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6)
        E = LeastSquares(f)
        st = initial_state(E, Zero(), np.zeros(6), tau0=0.4)
        for _ in range(10):
            st_gd = st.u - 0.4 * E.grad(st.u)
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
            grad_sum += E.grad(st.u)
            st = linbreg_step(E, R, st)
            aggregate = R.prox(u0 + tau * q0 - tau * grad_sum, tau)
            assert np.abs(st.u - aggregate).max() < 1e-10

    def test_non_finite_gradient_aborts(self):
        class Bad(SmoothObjective):
            def value_and_grad(self, u):
                return 0.0, np.full_like(np.asarray(u), np.nan)

        st = SolverState(u=np.zeros(3), q=np.zeros(3), tau=1.0, energy=0.0)
        with pytest.raises(NumericsError):
            linbreg_step(Bad(), Zero(), st)


class TestProjectedGradientStep:
    def test_fixed_point_at_feasible_stationary_point(self):
        c = np.array([0.2, 0.3, 0.5])
        E = LeastSquares(c)
        st = SolverState(u=c.copy(), q=None, tau=1.0, energy=E.value(c))
        st1 = linbreg_step(E, SimplexIndicator(), st)
        assert np.allclose(st1.u, c, atol=1e-12)

    def test_single_step_projects_target(self):
        c = np.array([2.0, 0.0, -1.0])
        E = LeastSquares(c)
        h0 = np.full(3, 1.0 / 3.0)
        st = SolverState(u=h0, q=None, tau=1.0, energy=E.value(h0))
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
        st_p = SolverState(u=u0.copy(), q=None, tau=0.3, energy=E.value(u0))
        for _ in range(30):
            st_b = linbreg_step(E, R, st_b)
            st_p = linbreg_step(E, R, st_p)
            assert np.abs(st_b.u - st_p.u).max() < 1e-12


class TestDualMemoryMask:
    def test_top_level_wrapper_equals_projected_gradient(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(5)
        E = LeastSquares(c)
        R = SeparableSum([(SimplexIndicator(), (0, 5), False)])
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
            (L1(0.2), (0, 3)),
            (SimplexIndicator(), (3, 6), False),
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
            (L1(0.1), (0, 2)),
            (SimplexIndicator(), (2, 4), False),
        ])
        outer = SeparableSum([(SquaredL2(), (0, 3)), (inner, (3, 7))])
        mask = outer.memory_mask
        assert np.array_equal(mask, [1, 1, 1, 1, 1, 0, 0])


class TestProximalGradientStep:
    def test_zero_regularizer_is_gradient_descent(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(5)
        E = LeastSquares(f)
        u0 = rng.standard_normal(5)
        st = SolverState(u=u0, q=None, tau=0.7, energy=E.value(u0))
        st1 = linbreg_step(E, Zero(), st)
        assert np.allclose(st1.u, u0 - 0.7 * E.grad(u0), atol=1e-15)

    def test_first_step_coincides_with_linbreg_then_diverges(self):
        f = np.array([2.0, 0.5, -1.5])
        E = LeastSquares(f)
        R = L1(1.0)
        u0 = np.zeros(3)
        st_b = initial_state(E, R, u0, tau0=1.0)
        st_p = SolverState(u=u0.copy(), q=None, tau=1.0, energy=E.value(u0))

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
        st1 = backtrack(E, Zero(), st, BacktrackingPolicy(tau0=0.5))
        assert st1.tau == 0.5

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
                                                energy=st.energy))
        assert np.array_equal(st1.u, direct.u)
        assert np.array_equal(st1.q, direct.q)

    def test_stagnation_error_on_underflow(self):
        # sqrt-shaped energy: any step away from the start raises the value,
        # so no stepsize can ever satisfy the decrease check
        class Worse(SmoothObjective):
            def value_and_grad(self, u):
                x = np.ravel(u)
                value = float(np.abs(x[0] - 1.0) ** 0.5) if x[0] != 1.0 else 0.0
                return value, np.ones_like(np.asarray(u))

        E = Worse()
        st = SolverState(u=np.array([1.0]), q=np.zeros(1), tau=1.0,
                         energy=E.value(np.array([1.0])))
        with pytest.raises(StagnationError):
            backtrack(E, Zero(), st, BacktrackingPolicy(tau0=1.0, eps_decrease=0.0))

    def test_nan_energy_raises_at_once(self):
        # a NaN trial energy is a numerical fault, not a too-long step: no
        # shrinking, and the error names the iteration and the stepsize
        class NanAway(SmoothObjective):
            calls = 0

            def value_and_grad(self, u):
                self.calls += 1
                return float("nan"), np.ones_like(np.asarray(u))

        E = NanAway()
        st = SolverState(u=np.array([1.0]), q=np.zeros(1), tau=0.5, k=7, energy=1.0,
                         grad=np.ones(1))
        with pytest.raises(NumericsError, match="iteration 7.*tau = 0.5") as info:
            backtrack(E, Zero(), st, BacktrackingPolicy(tau0=0.5))
        assert type(info.value) is NumericsError
        assert E.calls == 1

    def test_infinite_energy_keeps_shrinking(self):
        # an overflowing trial (E = +inf) is rejected like any too-long step
        class Overflow(LeastSquares):
            def value_and_grad(self, u):
                value, g = super().value_and_grad(u)
                return (float("inf") if float(np.ravel(u)[0]) < -0.9 else value), g

        # from u = 1 with grad 1: tau = 2 lands on -1 (inf), tau = 1.5 on -0.5
        E = Overflow(np.array([0.0]))
        st = initial_state(E, Zero(), np.array([1.0]), tau0=2.0)
        st1 = backtrack(E, Zero(), st, BacktrackingPolicy(tau0=2.0))
        assert st1.tau == 1.5
        assert st1.u[0] == -0.5


class TestEvaluationCount:
    @pytest.mark.parametrize("memory", [True, False])
    def test_one_evaluation_per_trial(self, monkeypatch, memory):
        # tau0 = 3 exceeds 2/L = 2, so backtracking rejects trials; the solver
        # evaluates E once at u0 and once per trial, never through value or grad
        class Counted(QuadraticObjective):
            calls = 0

            def value_and_grad(self, u):
                self.calls += 1
                return super().value_and_grad(u)

            def value(self, u):
                raise AssertionError("the solver called E.value")

            def grad(self, u):
                raise AssertionError("the solver called E.grad")

        base = random_psd_quadratic(0, 20, L=1.0)
        E = Counted(base.A, base.b, lipschitz=base.lipschitz)
        R = L1(0.1)
        trials = 0
        step = linbreg.solver.linbreg_step

        def counted_step(*args):
            nonlocal trials
            trials += 1
            return step(*args)

        monkeypatch.setattr(linbreg.solver, "linbreg_step", counted_step)
        st0 = initial_state(E, R, np.zeros(20), tau0=3.0)
        if not memory:
            st0 = replace(st0, q=None)
        result = run(E, R, st0, BacktrackingPolicy(tau0=3.0), StoppingRule(max_iter=30))
        assert len(result.records) == 30
        assert trials > len(result.records)
        assert E.calls == 1 + trials


class TestSurrogate:
    def test_zero_regularizer_gives_energy(self):
        rng = np.random.default_rng(4)
        E = LeastSquares(rng.standard_normal(4))
        x = rng.standard_normal(4)
        ex = E.value(x)
        assert surrogate_value(ex, Zero(), x, np.zeros(4)) == pytest.approx(ex, rel=1e-14)

    def test_vanishes_to_energy_at_base_point(self):
        rng = np.random.default_rng(5)
        E = LeastSquares(rng.standard_normal(4))
        R = L1(0.7)
        x = rng.standard_normal(4)
        y = R.initial_subgradient(x)
        assert surrogate_value(E.value(x), R, x, y) == pytest.approx(E.value(x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_form_equals_bregman_form(self, seed):
        rng = np.random.default_rng(seed)
        E = LeastSquares(rng.standard_normal(5))
        R = L1(0.9)
        z = rng.standard_normal(5)
        v = R.prox(z, 1.0)
        y = z - v  # in dR(v) scaled by alpha... exact prox subgradient at step 1
        x = rng.standard_normal(5)
        conj_form = surrogate_value(E.value(x), R, x, y)
        breg_form = E.value(x) + bregman_distance(R, x, v, y)
        assert conj_form == pytest.approx(breg_form, abs=1e-12)

    def test_surrogate_upper_bounds_energy(self):
        _, _, result, _, _ = run_instance("l1", 50, seed=1)
        for rec in result.records:
            assert rec.surrogate >= rec.energy - 1e-10 * (1.0 + abs(rec.energy))


class TestSurrogateSubgradient:
    def test_zero_at_fixed_point(self):
        E = LeastSquares(np.zeros(3))
        R = Zero()
        st = SolverState(u=np.zeros(3), q=np.zeros(3), tau=1.0,
                         u_prev=np.zeros(3), q_prev=np.zeros(3), k=1,
                         energy=0.0)
        r = surrogate_subgradient(E, R, st)
        assert np.array_equal(r, np.zeros(6))

    def test_unavailable_at_start(self):
        E = LeastSquares(np.zeros(3))
        st = initial_state(E, Zero(), np.ones(3), tau0=1.0)
        with pytest.raises(ValueError):
            surrogate_subgradient(E, Zero(), st)

    def test_zero_regularizer_form(self):
        rng = np.random.default_rng(6)
        E = LeastSquares(rng.standard_normal(4))
        st = initial_state(E, Zero(), rng.standard_normal(4), tau0=0.5)
        st1 = linbreg_step(E, Zero(), st)
        r = surrogate_subgradient(E, Zero(), st1)
        expected = np.concatenate([E.grad(st1.u), st.u - st1.u])
        assert np.allclose(r, expected, atol=1e-14)
        # from the update identity, the first block is bounded by the gap terms
        first = np.linalg.norm(E.grad(st1.u))
        bound = np.linalg.norm(st1.u - st.u) / st1.tau + np.linalg.norm(
            E.grad(st1.u) - E.grad(st.u))
        assert first <= bound + 1e-12

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_bound_by_iterate_gap(self, kind):
        E, R, result, tau, _ = run_instance(kind, 120, seed=2)
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
        energies = [result.initial_energy] + [r.energy for r in result.records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        for rec in result.records:
            assert rec.surrogate == pytest.approx(rec.energy, abs=1e-12)

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_zero_violations_over_500_iterations(self, kind):
        E, _, result, _, _ = run_instance(kind, 500, seed=3)
        report = check_sufficient_decrease(result.records, E.lipschitz,
                                           result.initial_surrogate)
        assert report.checked == 500
        assert report.violations == []

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_monotone_surrogate(self, kind):
        _, _, result, _, _ = run_instance(kind, 200, seed=4)
        fs = [result.initial_surrogate] + [r.surrogate for r in result.records]
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_iterate_gap_summability_proxy(self, kind):
        _, _, result, _, rho1 = run_instance(kind, 300, seed=5)
        fs = [result.initial_surrogate] + [r.surrogate for r in result.records]
        total = sum(r.iterate_gap ** 2 for r in result.records)
        bound = (fs[0] - min(fs)) / rho1
        assert total <= bound * (1.0 + 1e-9) + 1e-12


class TestStepIdentity:
    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_intermediate_identity_each_step(self, kind):
        # -<grad E(u^k), u^{k+1} - u^k> = ||gap||^2 / tau + sym Bregman distance
        E, R, _, tau, _ = run_instance(kind, 0, seed=6)
        _, _, u0 = make_instance(kind, seed=6)
        st = initial_state(E, R, u0, tau0=tau)
        for _ in range(80):
            st_new = linbreg_step(E, R, st)
            delta = st_new.u - st.u
            lhs = -float(E.grad(st.u) @ delta)
            dsym = symmetric_bregman_distance(R, st_new.u, st.u, st_new.q, st.q)
            rhs = float(delta @ delta) / tau + dsym
            scale = 1.0 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-9 * scale
            st = st_new

    def test_symmetric_distance_matches_value_route_l1(self):
        E, R, _, tau, _ = run_instance("l1", 0, seed=7)
        _, _, u0 = make_instance("l1", seed=7)
        st = initial_state(E, R, u0, tau0=tau)
        for _ in range(30):
            st_new = linbreg_step(E, R, st)
            inner = symmetric_bregman_distance(R, st_new.u, st.u, st_new.q, st.q)
            values = (bregman_distance(R, st_new.u, st.u, st.q)
                      + bregman_distance(R, st.u, st_new.u, st_new.q))
            assert inner == pytest.approx(values, abs=1e-10)
            st = st_new


class TestDualFeasibility:
    @pytest.mark.parametrize("kind", ["l1", "simplex", "nuclear"])
    def test_certified_subgradients_every_step(self, kind):
        E, R, result, _, _ = run_instance(kind, 100, seed=8)
        st = result.state
        assert fenchel_residual(R, st.u, st.q) <= 1e-8 * (1.0 + abs(R.value(st.u)))

    def test_certification_along_whole_run(self):
        E, R, _, tau, _ = run_instance("l1", 0, seed=9)
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
