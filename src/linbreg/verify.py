"""Independent numerical oracles used by the test suite.

Nothing here shares an algorithm with the code paths it checks: gradients are
verified with central finite differences, proximal maps against derivative-free
or first-order minimisation of the prox objective, the simplex projection
against a threshold bisection, and the TV prox against an accelerated
projected-gradient solve of the dual problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericsError
from .tensor_ops import div2d, grad2d_forward


@dataclass
class FdCheckReport:
    """Result of a finite-difference gradient check."""

    max_rel_err: float
    worst_coordinate: int
    step: float


def finite_difference_gradient_check(E, u, step: float | None = None,
                                     n_coords: int = 10, seed: int = 0) -> FdCheckReport:
    """Compare the gradient ``E.value_and_grad`` returns at u against central
    differences of the values it returns, on random coordinates.

    The per-coordinate error is |fd - g| / (1 + |fd| + |g|), i.e. relative for
    O(1) gradients and absolute near zero.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    if step is None:
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


def project_simplex_bisection(z: np.ndarray, iters: int = 100) -> np.ndarray:
    """Simplex projection by bisection on the shift theta with sum(max(z+theta,0)) = 1.

    Independent of the sort-and-threshold production routine.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    lo = (1.0 - np.sum(np.maximum(z, 0.0))) / z.size + np.min(z) - 1.0
    hi = 1.0 / z.size - np.min(z) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(z + mid, 0.0)) > 1.0:
            hi = mid
        else:
            lo = mid
    theta = 0.5 * (lo + hi)
    return np.maximum(z + theta, 0.0)


def minimize_scalar_convex(f, lo: float, hi: float, iters: int = 200) -> float:
    """Golden-section minimisation of a convex scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def separable_prox_oracle(scalar_value, z: np.ndarray, tau: float) -> np.ndarray:
    """Minimise 0.5*(u-z)^2 + tau*r(u) per coordinate by golden-section search.

    ``scalar_value(u)`` is the scalar convex summand r.  The search bracket
    [min(z,0) - 1, max(z,0) + 1] contains the minimiser whenever r attains its
    minimum at 0, which holds for every separable instance in this package.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    flat = z.ravel()
    res = out.ravel()
    for i, zi in enumerate(flat):
        obj = lambda u: 0.5 * (u - zi) ** 2 + tau * scalar_value(u)
        res[i] = minimize_scalar_convex(obj, min(zi, 0.0) - 1.0, max(zi, 0.0) + 1.0)
    return res.reshape(z.shape)


def prox_oracle_check(R, z: np.ndarray, tau: float, iters: int = 20000,
                      seed: int = 0, subgrad=None, project=None,
                      extra_candidates=()) -> float:
    """Objective gap of R.prox(z, tau) against an independent minimisation.

    Runs projected subgradient descent on phi(u) = 0.5*||u - z||^2 + tau*R(u)
    from both z and the prox output (plus seeded perturbations of the output),
    and returns phi(prox) - best objective seen.  Nonpositive for an exact
    prox; a positive return bounds the prox suboptimality from below.

    Parameters
    ----------
    subgrad : callable, optional
        u -> an element of the subdifferential of the finite part of R.
        Without it, only feasibility projection and sampling are used.
    project : callable, optional
        Projection onto dom(R) (identity if omitted).  Supply an independent
        implementation when the prox under test is itself a projection.
    extra_candidates : iterable of arrays
        Additional points to include in the comparison.
    """
    z = np.asarray(z, dtype=np.float64)
    u_prox = np.asarray(R.prox(z, tau), dtype=np.float64)

    def phi(u):
        return 0.5 * float(np.sum((u - z) ** 2)) + tau * float(R.value(u))

    def descend(x0):
        x = np.array(x0, dtype=np.float64, copy=True)
        if project is not None:
            x = project(x)
        best = phi(x)
        for k in range(iters):
            g = (x - z).copy()
            if subgrad is not None:
                g += tau * np.asarray(subgrad(x), dtype=np.float64)
            # steps for a 1-strongly-convex objective
            x = x - (2.0 / (k + 2.0)) * g
            if project is not None:
                x = project(x)
            val = phi(x)
            if val < best:
                best = val
        return best

    target = phi(u_prox)
    best = min(descend(z), descend(u_prox))
    rng = np.random.default_rng(seed)
    scale = 1e-4 * (1.0 + float(np.linalg.norm(u_prox)))
    for _ in range(200):
        cand = u_prox + scale * rng.standard_normal(u_prox.shape)
        if project is not None:
            cand = project(cand)
        best = min(best, phi(cand))
    for cand in extra_candidates:
        cand = np.asarray(cand, dtype=np.float64)
        if project is not None:
            cand = project(cand)
        best = min(best, phi(cand))
    return target - best


def tv_prox_dual_oracle(z: np.ndarray, lam: float, gap_tol: float = 1e-12,
                        maxit: int = 200000):
    """High-precision TV prox via accelerated projected gradient on the dual.

    Minimises 0.5*||div p + z||^2 over the pointwise lam-ball and reconstructs
    u = z + div p.  Returns (u, relative_gap).  Algorithmically independent of
    the production PDHG route.
    """
    z = np.asarray(z, dtype=np.float64)
    if lam == 0:
        return z.copy(), 0.0
    shape = (2,) + z.shape
    p = np.zeros(shape)
    y = np.zeros(shape)
    t = 1.0
    step = 1.0 / 8.0  # 1 / ||div grad||

    def project(q):
        mag = np.sqrt(q[0] ** 2 + q[1] ** 2)
        scale = np.ones_like(mag)
        np.divide(lam, mag, out=scale, where=mag > lam)
        return q * scale[None, :, :]

    gap = np.inf
    for _ in range(maxit):
        grad_h = -grad2d_forward(div2d(y) + z)
        p_new = project(y - step * grad_h)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = p_new + ((t - 1.0) / t_new) * (p_new - p)
        p, t = p_new, t_new

        u = z + div2d(p)
        g = grad2d_forward(u)
        tv = float(np.sum(np.sqrt(g[0] ** 2 + g[1] ** 2)))
        primal = 0.5 * float(np.sum((u - z) ** 2)) + lam * tv
        gap = (lam * tv - float(np.vdot(g.ravel(), p.ravel()))) / (1.0 + abs(primal))
        if gap <= gap_tol:
            break
    return z + div2d(p), gap
