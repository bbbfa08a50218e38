"""Finite-difference gradient check, independent of the gradients it checks.

The CLI's ``grad-check`` and the problem tests call it; the test suite's other
references (the prox, simplex and TV oracles) live in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericsError


@dataclass
class FdCheckReport:
    """Result of a finite-difference gradient check."""

    max_rel_err: float
    worst_coordinate: int
    step: float


def finite_difference_gradient_check(E, u, n_coords: int = 10, seed: int = 0) -> FdCheckReport:
    """Compare the gradient ``E.value_and_grad`` returns at u against central
    differences of the values it returns, on random coordinates.

    The step is 1e-6 * (1 + ||u||).  The per-coordinate error is
    |fd - g| / (1 + |fd| + |g|), i.e. relative for O(1) gradients and
    absolute near zero.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    step = 1e-6 * (1.0 + float(np.linalg.norm(flat)))
    rng = np.random.default_rng(seed)
    n = flat.size
    coords = rng.choice(n, size=min(n_coords, n), replace=False)
    g = np.ravel(E.value_and_grad(u)[1])

    worst = -1.0
    worst_i = -1
    for i in coords:
        e = np.zeros(n)
        e[i] = step
        ep = float(E.value_and_grad((flat + e).reshape(u.shape))[0])
        em = float(E.value_and_grad((flat - e).reshape(u.shape))[0])
        if not (np.isfinite(ep) and np.isfinite(em)):
            raise NumericsError(f"non-finite energy while perturbing coordinate {i}")
        fd = (ep - em) / (2.0 * step)
        err = abs(fd - g[i]) / (1.0 + abs(fd) + abs(g[i]))
        if err > worst:
            worst = err
            worst_i = int(i)
    return FdCheckReport(max_rel_err=worst, worst_coordinate=worst_i, step=step)
