"""Fixed 1-D instance where the dual iterates diverge and the primal limit is
not a stationary point of the energy: E(u) = (u+1)^2/2 constrained to u >= 0
through the Bregman function."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..regularizers import NonnegativeIndicator
from ..solver import SmoothObjective, initial_state, linbreg_step


class ShiftedParabola(SmoothObjective):
    """E(u) = 0.5 * (u + 1)^2 on scalars; unique stationary point at u = -1."""

    lipschitz = 1.0

    def value_and_grad(self, u, facts=None):
        x = float(np.ravel(u)[0])
        return 0.5 * (x + 1.0) ** 2, np.asarray(u, dtype=np.float64) + 1.0


@dataclass
class CounterexampleTrajectory:
    us: np.ndarray
    qs: np.ndarray
    final_grad_norm: float


def counterexample_run(u0: float, steps: int) -> CounterexampleTrajectory:
    """Run the instance from u0 > 0 with q0 = 0 and constant stepsize 1.

    Returns the trajectories u^k, q^k for k = 0..steps and the gradient
    magnitude at the final iterate (which stays at 1: the limit u = 0 is not a
    stationary point of the parabola, whose only critical point is -1).

    For every u0 > 0 the iterates have the closed form u^k = 0 and
    q^k = q0 - k = -k for k >= 1: the first step gives u^1 = max(u0 - (u0 + 1), 0)
    = 0 and q^1 = -(0 - u0 + u0 + 1) = -1, and each later step subtracts
    grad E(0) = 1 from q.
    """
    if u0 <= 0:
        raise ValueError("u0 must be positive")
    E, R = ShiftedParabola(), NonnegativeIndicator()
    st = initial_state(E, R, np.array([float(u0)]), tau0=1.0)

    us = [float(st.u[0])]
    qs = [float(st.q[0])]
    for _ in range(steps):
        st = linbreg_step(E, R, st)
        us.append(float(st.u[0]))
        qs.append(float(st.q[0]))
    return CounterexampleTrajectory(
        us=np.array(us), qs=np.array(qs),
        final_grad_norm=abs(float(st.grad[0])),
    )
