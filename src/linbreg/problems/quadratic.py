"""Quadratic test energies with exactly known Lipschitz constants."""

from __future__ import annotations

import numpy as np

from ..solver import SmoothObjective


class QuadraticObjective(SmoothObjective):
    """E(u) = 0.5 * u^T A u - b^T u + c for symmetric positive semidefinite A."""

    def __init__(self, A, b, c: float = 0.0, lipschitz: float | None = None):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.ravel(np.asarray(b, dtype=np.float64))
        self.c = float(c)
        if self.A.shape != (self.b.size, self.b.size):
            raise ValueError("A must be square and match b")
        if lipschitz is None:
            lipschitz = float(np.max(np.linalg.eigvalsh(0.5 * (self.A + self.A.T))))
        self.lipschitz = lipschitz

    def value_and_grad(self, u, facts=None):
        shape = np.asarray(u).shape
        u = np.ravel(u)
        return (0.5 * float(u @ self.A @ u) - float(self.b @ u) + self.c,
                (self.A @ u - self.b).reshape(shape))


class LeastSquares(SmoothObjective):
    """E(u) = 0.5 * ||u - f||^2; gradient u - f, Lipschitz constant 1."""

    lipschitz = 1.0

    def __init__(self, f):
        self.f = np.asarray(f, dtype=np.float64)

    def value_and_grad(self, u, facts=None):
        d = np.ravel(u) - np.ravel(self.f)
        return 0.5 * float(d @ d), d.reshape(np.shape(u))


def random_psd_quadratic(seed: int, n: int, L: float = 1.0) -> QuadraticObjective:
    """Seeded PSD quadratic with spectrum in [0.05*L, L] and largest eigenvalue exactly L."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.05 * L, L, size=n)
    eigs[0] = L
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    return QuadraticObjective(A, b, lipschitz=float(L))
