"""Convex Bregman functions: values, proximal maps, subgradients, conjugates.

Every regularizer is a :class:`BregmanFunction` exposing

* ``value(u, facts)``     -- extended-real function value,
* ``prox(z, tau, warm)``  -- argmin_u 0.5*||u - z||^2 + tau * R(u),
* ``initial_subgradient`` -- a deterministic element of the subdifferential,
* ``conjugate_value(q)``  -- the convex conjugate R*(q), where available.

``facts`` is an optional dict of facts about the point u, and ``warm`` an
optional dict the run keeps from one prox call to the next; the caller's
solver state owns both (see ``SolverState``).  A regularizer may store what it
computed there, under a key that names it completely, and read it back on a
later call.  Without them every call starts cold.

Instances are immutable after construction and act on the array they are
given, of any shape unless the function names one (a 2-D image for TV, a
matrix for the nuclear norm, an array of its weights' shape for the DCT
l1-norm); outputs have the input's shape.  No function stores a shape: a
stacked variable's blocks get theirs from :class:`SeparableSum`.
"""

from __future__ import annotations

import math

import numpy as np

from . import pdhg
from .exceptions import NotConvergedError, UnsupportedOperation
from .tensor_ops import dct2, div2d, grad2d_forward, idct2, total_variation

# Feasibility band used when evaluating indicator-type values and conjugates;
# certifies subgradients produced by floating-point prox computations.
FEAS_TOL = 1e-9

INF = float("inf")


# ---------------------------------------------------------------------------
# Bregman-distance calculus
# ---------------------------------------------------------------------------

def bregman_distance(R: "BregmanFunction", u: np.ndarray, v: np.ndarray, q: np.ndarray) -> float:
    """Generalised Bregman distance R(u) - R(v) - <q, u - v> for q in dR(v)."""
    rv = R.value(v)
    if not np.isfinite(rv):
        raise ValueError("base point v lies outside dom(R)")
    ru = R.value(u)
    if ru == INF:
        return INF
    return float(ru - rv - np.vdot(np.ravel(q), np.ravel(u) - np.ravel(v)).real)


def symmetric_bregman_distance(u, v, p, q) -> float:
    """Symmetric Bregman distance <p - q, u - v> for p in dR(u), q in dR(v)."""
    du = np.ravel(u) - np.ravel(v)
    dq = np.ravel(p) - np.ravel(q)
    return float(np.vdot(dq, du).real)


def fenchel_residual(R: "BregmanFunction", u: np.ndarray, q: np.ndarray) -> float:
    """Fenchel-Young residual R(u) + R*(q) - <u, q>; zero iff q in dR(u)."""
    rstar = R.conjugate_value(q)
    ru = R.value(u)
    if not np.isfinite(ru) or not np.isfinite(rstar):
        return INF
    return float(ru + rstar - np.vdot(np.ravel(u), np.ravel(q)).real)


# ---------------------------------------------------------------------------
# the abstraction
# ---------------------------------------------------------------------------

class BregmanFunction:
    """Proper, lower semi-continuous, convex function with a proximal map."""

    #: 0/1 per-entry mask the solver multiplies into each new dual iterate;
    #: None keeps the full Bregman memory everywhere
    memory_mask = None

    @property
    def has_conjugate(self) -> bool:
        """Whether ``conjugate_value`` is implemented: the class overrides it."""
        return type(self).conjugate_value is not BregmanFunction.conjugate_value

    def value(self, u, facts=None) -> float:
        raise NotImplementedError

    def prox(self, z, tau: float, warm=None) -> np.ndarray:
        raise NotImplementedError

    def initial_subgradient(self, u) -> np.ndarray:
        """A deterministic element of dR(u) (minimal-norm where a choice exists)."""
        raise NotImplementedError

    def conjugate_value(self, q) -> float:
        raise UnsupportedOperation(f"{type(self).__name__} has no convex conjugate evaluation")


class Zero(BregmanFunction):
    """R = 0; the linearised Bregman iteration degenerates to gradient descent."""

    def value(self, u, facts=None):
        return 0.0

    def prox(self, z, tau, warm=None):
        return np.array(z, dtype=np.float64, copy=True)

    def initial_subgradient(self, u):
        return np.zeros_like(np.asarray(u, dtype=np.float64))

    def conjugate_value(self, q):
        q = np.ravel(q)
        scale = FEAS_TOL * (1.0 + np.sqrt(q.size))
        return 0.0 if np.all(np.abs(q) <= scale) else INF


class SquaredL2(BregmanFunction):
    """R(u) = (alpha/2) ||u||^2."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    def value(self, u, facts=None):
        u = np.ravel(u)
        return 0.5 * self.alpha * float(np.dot(u, u))

    def prox(self, z, tau, warm=None):
        return np.asarray(z, dtype=np.float64) / (1.0 + tau * self.alpha)

    def initial_subgradient(self, u):
        return self.alpha * np.asarray(u, dtype=np.float64)

    def conjugate_value(self, q):
        q = np.ravel(q)
        return 0.5 / self.alpha * float(np.dot(q, q))


class L1(BregmanFunction):
    """R(u) = alpha ||u||_1."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def value(self, u, facts=None):
        return self.alpha * float(np.abs(u).sum())

    def prox(self, z, tau, warm=None):
        """Soft thresholding: sign(z) * max(|z| - tau * alpha, 0)."""
        lam = tau * self.alpha
        if lam < 0:
            raise ValueError("threshold must be nonnegative")
        z = np.asarray(z, dtype=np.float64)
        return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)

    def initial_subgradient(self, u):
        return self.alpha * np.sign(np.asarray(u, dtype=np.float64))

    def conjugate_value(self, q):
        bound = self.alpha + FEAS_TOL * (1.0 + self.alpha)
        return 0.0 if np.abs(q).max(initial=0.0) <= bound else INF


class WeightedL1Dct(BregmanFunction):
    """R(u) = alpha * sum_l w_l |(C u)_l| with orthonormal 2-D DCT coefficients.

    u is an image of the weights' shape.
    """

    def __init__(self, alpha: float, weights):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        self.weights = w

    def value(self, u, facts=None):
        return self.alpha * float(np.sum(self.weights * np.abs(dct2(u))))

    def prox(self, z, tau, warm=None):
        """Exact because the DCT is orthonormal: shrink the coefficients, transform back."""
        coef = dct2(z)
        lam = tau * self.alpha
        return idct2(np.sign(coef) * np.maximum(np.abs(coef) - lam * self.weights, 0.0))

    def initial_subgradient(self, u):
        return idct2(self.alpha * self.weights * np.sign(dct2(u)))

    def conjugate_value(self, q):
        coef = np.abs(dct2(q))
        bound = self.alpha * self.weights + FEAS_TOL * (1.0 + self.alpha * self.weights)
        return 0.0 if np.all(coef <= bound) else INF


def project_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {h : h >= 0, sum h = 1} by sort-and-threshold."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size < 1:
        raise ValueError("cannot project an empty vector")
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, z.size + 1)
    rho = np.nonzero(u - css / j > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(z - theta, 0.0)


class SimplexIndicator(BregmanFunction):
    """Indicator of the probability simplex {h >= 0, sum h = 1}."""

    def _feasible(self, u):
        u = np.ravel(u)
        tol = FEAS_TOL * (1.0 + np.sqrt(u.size))
        return abs(float(np.sum(u)) - 1.0) <= tol and float(np.min(u)) >= -tol

    def value(self, u, facts=None):
        return 0.0 if self._feasible(u) else INF

    def prox(self, z, tau, warm=None):
        z = np.asarray(z, dtype=np.float64)
        return project_simplex(z).reshape(z.shape)

    def initial_subgradient(self, u):
        if not self._feasible(u):
            raise ValueError("initial point lies outside the simplex")
        return np.zeros_like(np.asarray(u, dtype=np.float64))

    def conjugate_value(self, q):
        # support function of the simplex
        return float(np.max(np.ravel(q)))


class NonnegativeIndicator(BregmanFunction):
    """Indicator of the nonnegative orthant {u >= 0}."""

    def value(self, u, facts=None):
        return 0.0 if float(np.min(np.ravel(u), initial=0.0)) >= -FEAS_TOL else INF

    def prox(self, z, tau, warm=None):
        return np.maximum(np.asarray(z, dtype=np.float64), 0.0)

    def initial_subgradient(self, u):
        if self.value(u) == INF:
            raise ValueError("initial point has negative entries")
        return np.zeros_like(np.asarray(u, dtype=np.float64))

    def conjugate_value(self, q):
        return 0.0 if float(np.max(np.ravel(q), initial=0.0)) <= FEAS_TOL else INF


# Width of the band around bound^2, in units of (m + n) * eps * ||M||_F^2, inside
# which ``spectral_norm_at_most`` leaves the decision to the SVD.
GRAM_BAND = 64.0


def spectral_norm_at_most(M: np.ndarray, bound: float) -> bool:
    """Whether s_max(M), as ``np.linalg.svd`` computes it, is at most ``bound``.

    Decides from the top eigenvalue t of the smaller Gram matrix G (M M^T or
    M^T M, p x p with p = min(m, n)) by ``np.linalg.eigvalsh``, several times
    cheaper than the SVD of a wide M.  Rounding moves t from the exact
    s_max^2 by at most n eps ||M||_F^2 in the product (n the inner dimension;
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5)
    plus a small multiple of p eps ||G||_2 in ``eigvalsh``, and LAPACK's SVD
    moves s_max^2 by a small multiple of max(m, n) eps ||M||_2^2.
    ``GRAM_BAND * (m + n) * eps * trace(G)`` bounds their sum with room to
    spare, so wherever t is farther than that from bound^2 both routes decide
    alike.  Within the band, or when the band is not finite (an entry of M is
    not, or G overflows), the SVD decides.
    """
    m, n = M.shape
    G = M @ M.T if m <= n else M.T @ M
    band = GRAM_BAND * (m + n) * np.finfo(np.float64).eps * float(np.trace(G))
    if math.isfinite(band):
        t = float(np.linalg.eigvalsh(G)[-1]) if G.size else 0.0
        b2 = bound * bound
        if abs(t - b2) > band:
            return t <= b2
    s = np.linalg.svd(M, compute_uv=False)
    return (float(s[0]) if s.size else 0.0) <= bound


class NuclearNorm(BregmanFunction):
    """R(A) = alpha * sum of singular values of the matrix A.

    ``value(u, facts)`` stores the singular values of u in ``facts`` under
    ``"singular_values"``; ``singular_values`` reads them back.  The
    conjugate is the indicator of {s_max(q) <= alpha + FEAS_TOL (1 + alpha)},
    decided by ``spectral_norm_at_most`` from the top eigenvalue t of the
    smaller Gram matrix G of q.  Where t lies within the rounding-error bound
    ``GRAM_BAND * (m + n) * eps * trace(G)`` of bound^2, the SVD decides, so
    every decision is the one the SVD alone would make.
    """

    def __init__(self, alpha: float):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def singular_values(self, u, facts=None) -> np.ndarray:
        """``np.linalg.svd(u, compute_uv=False)``, taken from and stored in
        ``facts`` when given."""
        facts = {} if facts is None else facts
        if "singular_values" not in facts:
            facts["singular_values"] = np.linalg.svd(np.asarray(u, dtype=np.float64),
                                                     compute_uv=False)
        return facts["singular_values"]

    def value(self, u, facts=None):
        return self.alpha * float(np.sum(self.singular_values(u, facts)))

    def prox(self, z, tau, warm=None):
        """Singular value soft thresholding: U max(s - tau * alpha, 0) V^T."""
        lam = tau * self.alpha
        if lam < 0:
            raise ValueError("threshold must be nonnegative")
        u, s, vt = np.linalg.svd(np.asarray(z, dtype=np.float64), full_matrices=False)
        return (u * np.maximum(s - lam, 0.0)) @ vt

    def initial_subgradient(self, u):
        uu, s, vt = np.linalg.svd(np.asarray(u, dtype=np.float64), full_matrices=False)
        cutoff = 1e-12 * max(float(s[0]) if s.size else 0.0, 1e-300)
        keep = s > cutoff
        return self.alpha * (uu[:, keep] @ vt[keep])

    def conjugate_value(self, q):
        bound = self.alpha + FEAS_TOL * (1.0 + self.alpha)
        return 0.0 if spectral_norm_at_most(np.asarray(q, dtype=np.float64), bound) else INF


class TotalVariation2D(BregmanFunction):
    """R(u) = alpha * TV(u) of a 2-D image u; prox via the PDHG inner solver.

    No closed-form conjugate exists in this discretisation, so subgradient
    certification for TV relies on prox-construction optimality only.

    ``prox(z, tau, warm)`` keeps ``(lam, PdhgResult)`` of the call in
    ``warm["tv"]`` and warm-starts the next call from that dual, rescaled to
    the new lam, cutting inner iterations when consecutive arguments are close
    (as they are along an outer solver run).  A call that raises keeps nothing.

    A call stops at relative gap ``config.tol`` or after ``config.maxit``
    inner iterations, whichever comes first, and returns the best iterate
    found; ``warm["tv"][1].gap`` is its gap.  The default ``config`` is
    ``PdhgConfig()``, the budget a run can afford.  A prox argument for which
    no inner gap is finite raises ``NumericsError``.  For a one-off accurate
    solve, call ``pdhg.pdhg_tv_prox`` with a config of its own: it raises
    ``NotConvergedError`` when it misses that tolerance.  The inexactness
    need not vanish along an outer run: on 32x32 blind deconvolution every
    warm-started call exhausted the default budget, the relative gap
    stalling at 4e-5 to 6e-5.  The stored q is then only an
    epsilon-subgradient of R at the new iterate; no log reports the gap.
    """

    def __init__(self, alpha: float, config: pdhg.PdhgConfig = pdhg.PdhgConfig()):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)
        self.config = config

    def value(self, u, facts=None):
        return self.alpha * total_variation(u)

    def prox(self, z, tau, warm=None):
        lam = tau * self.alpha
        last_lam, last = (warm or {}).get("tv", (None, None))
        dual0 = None if last is None else last.dual
        # the dual solution scales with the ball radius; rescale the warm
        # start when the outer stepsize changed between calls
        if last_lam and last_lam > 0 and lam > 0:
            dual0 = dual0 * (lam / last_lam)
        try:
            res = pdhg.pdhg_tv_prox(z, lam, self.config, dual0=dual0)
        except NotConvergedError as err:
            res = err.result
        if warm is not None:
            warm["tv"] = (lam, res)
        return res.u

    def initial_subgradient(self, u):
        g = grad2d_forward(u)
        mag = np.sqrt(g[0] ** 2 + g[1] ** 2)
        field = np.zeros_like(g)
        np.divide(g, mag[None, :, :], out=field, where=mag[None, :, :] > 0)
        return -self.alpha * div2d(field)


class SeparableSum(BregmanFunction):
    """Block-separable sum R(u) = sum_i R_i(u_i) over consecutive blocks u_i of u.

    A part is ``(R_i, shape)`` or ``(R_i, shape, memory)``; an int shape is a
    1-D one, as numpy reads it.  The blocks follow each other in list order,
    block i taking prod(shape) entries of the flat u, and R_i receives the
    view ``u[a:b].reshape(shape)``.  A stacked objective's ``shapes`` are the
    shapes of its blocks.  With ``memory=False`` the solver zeroes the
    block's dual variable after every step, so the block takes
    proximal-gradient steps while the others keep their Bregman memory.  Meant
    for indicators, where 0 is a subgradient at every feasible point and the
    certificates stay valid.  The facts and the warm dict of block u[a:b] are
    dicts inside those of u, under the key (a, b).
    """

    def __init__(self, parts):
        self.parts = []
        self.size = 0
        mask = []
        for R, shape, *memory in parts:
            shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
            size = math.prod(shape)
            if size < 1:
                raise ValueError(f"block size must be at least 1, got {size}")
            self.parts.append((R, self.size, self.size + size, shape))
            self.size += size
            if memory and not memory[0]:
                mask.append(np.zeros(size))
            else:
                mask.append(np.ones(size) if R.memory_mask is None else np.ravel(R.memory_mask))
        mask = np.concatenate(mask)
        self.memory_mask = None if mask.all() else mask

    @property
    def has_conjugate(self) -> bool:
        return all(R.has_conjugate for R, *_ in self.parts)

    def _blocks(self, u, facts=None):
        """(R_i, a, b, u_i, facts of u_i) per part, u_i a view of u in its shape."""
        u = np.ravel(np.asarray(u, dtype=np.float64))
        if u.size != self.size:
            raise ValueError(f"expected {self.size} entries, got {u.size}")
        for i, (R, a, b, shape) in enumerate(self.parts):
            yield R, a, b, u[a:b].reshape(shape), self.block_facts(facts, i)

    def block_facts(self, facts, i):
        """The facts (or warm dict) of block i inside those of u, or None without."""
        return None if facts is None else facts.setdefault(self.parts[i][1:3], {})

    def value(self, u, facts=None):
        total = 0.0
        for R, _, _, ui, fi in self._blocks(u, facts):
            v = R.value(ui, fi)
            if v == INF:
                return INF
            total += v
        return total

    def prox(self, z, tau, warm=None):
        out = np.empty(self.size)
        for R, a, b, zi, wi in self._blocks(z, warm):
            out[a:b] = np.ravel(R.prox(zi, tau, wi))
        return out.reshape(np.shape(z))

    def initial_subgradient(self, u):
        out = np.empty(self.size)
        for R, a, b, ui, _ in self._blocks(u):
            out[a:b] = np.ravel(R.initial_subgradient(ui))
        return out.reshape(np.shape(u))

    def conjugate_value(self, q):
        if not self.has_conjugate:
            raise UnsupportedOperation("a block has no conjugate evaluation")
        total = 0.0
        for R, _, _, qi, _ in self._blocks(q):
            v = R.conjugate_value(qi)
            if not np.isfinite(v):
                return INF
            total += v
        return total
