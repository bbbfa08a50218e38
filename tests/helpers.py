"""Independent references used by the test suite.

Nothing here shares an algorithm with the code it checks: convolution and the
DFT are direct double-loop sums (independent of the FFT paths), proximal maps
are checked against derivative-free or first-order minimisation of the prox
objective, the simplex projection against a threshold bisection, and the TV
prox against an accelerated projected-gradient solve of the dual problem.  The
IDX writers make reader fixtures, and ``read_image_snapshot`` reads back the
image snapshots of a run.  The outer loop of the solver, as it was
before its bookkeeping was trimmed, is kept as a bit reference
(``iterate_reference``).
"""

import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from linbreg.exceptions import NumericsError, StagnationError, UnsupportedOperation
from linbreg.problems.mnist import IMAGES_MAGIC, LABELS_MAGIC
from linbreg.problems.pgm import read_pgm
from linbreg.regularizers import bregman_distance, symmetric_bregman_distance
from linbreg.solver import NAN, SHRINK, MonitorRecord, SolverState
from linbreg.tensor_ops import div2d, grad2d_forward


def conv2d_oracle(u, h):
    """Direct double-loop circular convolution with a centre-anchored kernel."""
    H, W = u.shape
    kh, kw = h.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += h[a, b] * u[(i - (a - ch)) % H, (j - (b - cw)) % W]
            out[i, j] = acc
    return out


def dft2_oracle(u):
    """Direct O(n^2) orthonormal 2-D DFT summation."""
    u = np.asarray(u, dtype=np.complex128)
    H, W = u.shape
    out = np.zeros((H, W), dtype=np.complex128)
    for k in range(H):
        for l in range(W):
            acc = 0.0 + 0.0j
            for m in range(H):
                for n in range(W):
                    acc += u[m, n] * np.exp(-2j * np.pi * (k * m / H + l * n / W))
            out[k, l] = acc
    return out / np.sqrt(H * W)


def project_simplex_bisection(z: np.ndarray, iters: int = 100) -> np.ndarray:
    """Simplex projection by bisection on the shift theta with sum(max(z+theta,0)) = 1.

    Independent of the sort-and-threshold production routine.  The bisection
    runs on plain floats: the test vectors have a few entries, where one numpy
    call costs more than the whole sum.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    zs = z.tolist()

    def mass(theta):
        """sum(max(z + theta, 0))"""
        total = 0.0
        for x in zs:
            if x + theta > 0.0:
                total += x + theta
        return total

    lo = (1.0 - mass(0.0)) / len(zs) + min(zs) - 1.0
    hi = 1.0 / len(zs) - min(zs) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mass(mid) > 1.0:
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


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array in IDX image format."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("expected (count, rows, cols)")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a label vector in IDX label format."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())


def read_image_snapshot(path) -> np.ndarray:
    """Invert a run's 16-bit PGM image snapshot using its sidecar affine map."""
    pixels, maxval = read_pgm(path)
    lines = Path(str(path) + ".range").read_text().splitlines()
    lo = float(lines[0].split("=")[1])
    hi = float(lines[1].split("=")[1])
    span = hi - lo if hi > lo else 1.0
    return pixels.astype(np.float64) / maxval * span + lo


# ---------------------------------------------------------------------------
# the solver's outer loop before its bookkeeping was trimmed, kept as a bit
# reference: the same steps, surrogate and monitor record, with the same
# numpy and BLAS operations on the same operands
# ---------------------------------------------------------------------------

def _checked_grad_reference(st):
    if not np.all(np.isfinite(st.grad)):
        raise NumericsError(f"non-finite gradient at iteration {st.k}")
    return st.grad


def _evaluated_reference(E, u, q, tau, k, warm):
    facts = {}
    energy, grad = E.value_and_grad(u, facts)
    st = SolverState(u=u, q=q, tau=tau, energy=float(energy),
                     grad=np.asarray(grad, dtype=np.float64), k=k, warm=warm)
    st.facts = facts
    return st


def linbreg_step_reference(E, R, st):
    g = _checked_grad_reference(st)
    if st.q is None:
        u_new = np.asarray(R.prox(st.u - st.tau * g, st.tau, st.warm), dtype=np.float64)
        q_new = None
    else:
        z = st.u + st.tau * (st.q - g)
        u_new = np.asarray(R.prox(z, st.tau, st.warm), dtype=np.float64)
        q_new = (z - u_new) / st.tau
        if R.memory_mask is not None:
            q_new *= R.memory_mask
    return _evaluated_reference(E, u_new, q_new, st.tau, st.k + 1, st.warm)


def backtrack_reference(E, R, st, policy):
    tau = st.tau
    while True:
        trial = linbreg_step_reference(E, R, replace(st, tau=tau))
        if trial.energy <= st.energy + policy.eps_decrease:
            return trial
        if np.isnan(trial.energy):
            raise NumericsError(f"NaN energy at iteration {st.k} with tau = {tau:g}")
        tau *= SHRINK
        if tau < 1e-16 * policy.tau0:
            raise StagnationError(
                f"backtracking stagnated at iteration {st.k}: tau underflow below "
                f"{1e-16 * policy.tau0:g}"
            )


def surrogate_value_reference(energy, R, x, y, base=None, facts=None):
    ex = float(energy)
    if R.has_conjugate:
        rx = R.value(x, facts)
        rstar = R.conjugate_value(y)
        return ex + float(rx) + float(rstar) - float(np.vdot(np.ravel(x), np.ravel(y)).real)
    if base is None:
        raise UnsupportedOperation(
            "no conjugate available and no base point given for the Bregman form")
    return ex + bregman_distance(R, x, base, y)


def surrogate_subgradient_reference(st, prev):
    top = np.ravel(_checked_grad_reference(st)) + np.ravel(st.q) - np.ravel(prev.q)
    bottom = np.ravel(prev.u) - np.ravel(st.u)
    return np.concatenate([top, bottom])


def monitor_reference(st_new, st_old, L, tau_min, extras_fn=None):
    gap = float(np.linalg.norm(np.ravel(st_new.u) - np.ravel(st_old.u)))

    if st_new.q is not None:
        breg_sym = symmetric_bregman_distance(st_new.u, st_old.u, st_new.q, st_old.q)
        r = surrogate_subgradient_reference(st_new, st_old)
        r_norm = float(np.linalg.norm(r))
    else:
        breg_sym = NAN
        r_norm = NAN

    if L is not None and st_new.q is not None:
        rho1 = max(0.0, 1.0 / st_new.tau - L / 2.0)
        decrease_ok = (
            not np.isfinite(st_old.surrogate)
            or st_new.surrogate + rho1 * gap ** 2
            <= st_old.surrogate + 1e-10 * (1.0 + abs(st_old.surrogate))
        )
        rho2 = 1.0 + L + 1.0 / tau_min
        rho2_bound = rho2 * gap
        bound_ok = r_norm <= rho2_bound * (1.0 + 1e-9) + 1e-12
    else:
        decrease_ok = True
        bound_ok = True
        rho2_bound = NAN

    extras = extras_fn(st_new) if extras_fn is not None else {}
    return MonitorRecord(
        k=st_new.k, tau=st_new.tau, energy=st_new.energy, surrogate=st_new.surrogate,
        iterate_gap=gap, breg_sym=breg_sym, r_norm=r_norm, rho2_bound=rho2_bound,
        decrease_ok=bool(decrease_ok), bound_ok=bool(bound_ok), extras=extras,
    )


def iterate_reference(E, R, st, policy, extras_fn=None):
    """Yield (state, record) for every accepted step from ``st``, as ``solver.iterate``."""
    if policy.eps_decrease is None:
        policy = replace(policy, eps_decrease=1e-12 * max(1.0, abs(st.energy)))
    L = E.lipschitz
    tau_min = st.tau
    while True:
        st_new = backtrack_reference(E, R, st, policy)
        if st_new.q is not None:
            st_new.surrogate = surrogate_value_reference(st_new.energy, R, st_new.u, st.q,
                                                         base=st.u, facts=st_new.facts)
        tau_min = min(tau_min, st_new.tau)
        yield st_new, monitor_reference(st_new, st, L, tau_min, extras_fn)
        st = st_new
