"""Shared solver test instances: quadratics paired with each Bregman function,
run at the admissible stepsize tau = 2/(L + 2*rho1) for rho1 = L/4."""

import numpy as np

from linbreg import (
    L1,
    BacktrackingPolicy,
    NuclearNorm,
    SimplexIndicator,
    StoppingRule,
    initial_state,
    run,
)
from linbreg.problems import random_psd_quadratic


def make_instance(kind: str, seed: int = 0):
    """(E, R, u0) for kind in {'l1', 'simplex', 'nuclear'}; L is exact."""
    if kind == "l1":
        E = random_psd_quadratic(seed, 12, L=2.0)
        R = L1(0.3)
        u0 = np.zeros(12)
    elif kind == "simplex":
        E = random_psd_quadratic(seed, 9, L=2.0)
        R = SimplexIndicator()
        u0 = np.full(9, 1.0 / 9.0)
    elif kind == "nuclear":
        E = random_psd_quadratic(seed, 12, L=2.0)
        R = NuclearNorm(0.4, (4, 3))
        u0 = np.zeros(12)
    else:
        raise ValueError(kind)
    return E, R, u0


def run_instance(kind: str, iters: int, seed: int = 0, rho1_factor: float = 0.25):
    """Run with the fixed admissible stepsize; returns (E, R, st0, result, tau, rho1)."""
    E, R, u0 = make_instance(kind, seed)
    L = E.lipschitz
    rho1 = rho1_factor * L
    tau = 2.0 / (L + 2.0 * rho1)
    st0 = initial_state(E, R, u0, tau)
    policy = BacktrackingPolicy(tau0=tau, eps_decrease=float("inf"))
    result = run(E, R, st0, policy, StoppingRule(max_iter=iters))
    return E, R, st0, result, tau, rho1
