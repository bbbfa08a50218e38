import numpy as np
import pytest

from linbreg.problems import counterexample_run
from linbreg.problems.counterexample import ShiftedParabola


class TestCounterexample:
    def test_primal_hits_zero_and_stays(self):
        t = counterexample_run(0.5, 50)
        assert t.us[0] == 0.5
        assert np.array_equal(t.us[1:], np.zeros(50))

    def test_dual_descends_by_one_each_step(self):
        # from the update q^{k+1} = q^k - grad E(u^k) - (u^{k+1} - u^k)/tau the
        # dual iterates obey q^k = q0 - k once the primal variable reaches 0
        t = counterexample_run(0.25, 30)
        assert np.array_equal(t.qs, -np.arange(31.0))

    def test_dual_norm_grows_linearly_slope_one(self):
        t = counterexample_run(0.7, 40)
        diffs = np.diff(np.abs(t.qs[1:]))
        assert np.allclose(diffs, 1.0)

    def test_limit_is_not_a_critical_point(self):
        t = counterexample_run(0.5, 20)
        assert t.final_grad_norm == pytest.approx(1.0, abs=0.0)
        # the energy's only critical point, -1, is outside the feasible set
        E = ShiftedParabola()
        assert E.grad(np.array([-1.0]))[0] == 0.0

    def test_requires_positive_start(self):
        with pytest.raises(ValueError):
            counterexample_run(0.0, 5)
