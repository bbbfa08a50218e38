"""Primal-dual hybrid gradient solver for the total-variation proximal subproblem.

Solves  argmin_u  0.5*||u - z||^2 + lam * TV(u)  with a certified relative
primal-dual gap.  This is the only iterative inner solver the package needs;
every other proximal map has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotConvergedError, NumericsError
from .tensor_ops import check_image

# dual and primal steps: SIGMA * TAU_INNER * ||grad||^2 = 1, with ||grad||^2 <= 8
# for the forward-difference operator; the extrapolation parameter is 1
SIGMA = TAU_INNER = 1.0 / np.sqrt(8.0)


@dataclass(frozen=True)
class PdhgConfig:
    """Stopping parameters: relative gap tolerance and iteration budget."""

    tol: float = 1e-7
    maxit: int = 2000

    def __post_init__(self):
        if self.maxit < 1:
            raise ValueError("maxit must be positive")


@dataclass
class PdhgResult:
    """Best primal-dual pair found: u = z + div(dual) exactly, with its relative gap."""

    u: np.ndarray
    gap: float
    iters: int
    dual: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # NumericsError reports a non-finite run
def pdhg_tv_prox(z: np.ndarray, lam: float, cfg: PdhgConfig | None = None,
                 dual0: np.ndarray | None = None) -> PdhgResult:
    """Solve the TV proximal subproblem to a relative primal-dual gap <= cfg.tol.

    Parameters
    ----------
    z : array, shape (H, W)
        Prox argument; a 2-D image with at least 2 pixels.
    lam : float
        Total-variation weight (tau * alpha of the outer iteration).
    cfg : PdhgConfig, optional
        Stopping parameters.
    dual0 : array, shape (2, H, W), optional
        Warm-start dual variable, typically the ``dual`` of the previous call.
        Ignored when its shape differs.

    Returns
    -------
    PdhgResult
        The returned primal iterate is reconstructed as u = z + div(p) from the
        best dual found, so it satisfies the primal optimality relation exactly;
        -div(p) is then a certified subgradient of lam*TV at u up to the gap.
        The reported gap is the best (hence nonincreasing) relative gap so far.
        Each call allocates its own workspace once and writes every iterate in
        place; ``u`` and ``dual`` are arrays of that call which no later call
        writes, and they share no memory with ``z`` or ``dual0``.

    Raises
    ------
    ValueError
        If ``lam`` is negative or ``z`` is not a 2-D image with at least 2 pixels.
    NotConvergedError
        If ``cfg.maxit`` iterations do not reach ``cfg.tol``; the exception
        carries the best result found.
    NumericsError
        If no gap check gave a finite gap, as when ``z`` or ``lam`` overflow.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if cfg is None:
        cfg = PdhgConfig()
    z = check_image(np.asarray(z, dtype=np.float64))
    H, W = z.shape

    # The workspace.  Each step below repeats the element operations of
    # grad2d_forward, div2d and the projection onto the lam-ball in their
    # order, so the bits match the allocating form of the loop.  Every ufunc
    # call reads and writes contiguous memory (only the fills that zero one
    # column are strided), and for lam > 0 nothing is allocated per iteration.
    # Column differences are taken on flat views, x_flat[1:] - x_flat[:-1];
    # that also writes the cross-row difference x[i+1, 0] - x[i, W-1] into
    # entry (i, W-1), which one fill zeroes again, so g and gc keep the zero
    # trailing row (channel 0) and column (channel 1) of grad2d_forward.
    # The divergence reads channel 1 from p1z, a copy of p[1] with its last
    # column zeroed, on flat views too: where div2d skips an entry, it adds
    # or subtracts +0.0, which changes no value: div starts at +0.0, and
    # x + y or x - y is -0.0 only where x is.  The projection still sees the
    # true p[1], nonzero last column included.
    p = np.zeros((2, H, W))
    g = np.zeros((2, H, W))  # SIGMA * grad(ubar)
    gc = np.zeros((2, H, W))  # grad(z + div p), for the gap check
    sq = np.empty((2, H, W))
    best_p = np.empty((2, H, W))
    mag, div_p, best_u, u_new, p1z = (np.empty((H, W)) for _ in range(5))
    u = z.copy()
    ubar = z.copy()

    p0, p1 = p
    sq0, sq1 = sq
    p_rows = p0[: H - 1]
    g_rows, g_cols, g_edge = g[0, : H - 1], g[1].ravel()[:-1], g[1, :, W - 1]
    gc_rows, gc_cols, gc_edge = gc[0, : H - 1], gc[1].ravel()[:-1], gc[1, :, W - 1]
    ubar_down, ubar_up = ubar[1:], ubar[: H - 1]
    ubar_next, ubar_prev = ubar.ravel()[1:], ubar.ravel()[:-1]
    div_flat, gc_flat, p_flat = div_p.ravel(), gc.ravel(), p.ravel()
    div_up, div_down = div_p[: H - 1], div_p[1:]
    div_prev, div_next = div_flat[:-1], div_flat[1:]
    p1z_prev, p1z_edge = p1z.ravel()[:-1], p1z[:, W - 1]
    denom = 1.0 + TAU_INNER
    # the loop is bound by per-call overhead at these sizes: look names up once
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    sqrt, maximum, copyto = np.sqrt, np.maximum, np.copyto

    def project():
        # scale each 2-vector of p by lam / mag where mag > lam, else by 1
        multiply(p, p, out=sq)
        add(sq0, sq1, out=mag)
        sqrt(mag, out=mag)
        if lam == 0:
            # lam / max(mag, lam) would be 0/0 where mag == 0, an underflowed
            # square included; there the scale is 1, and lam / mag is lam
            # itself, a zero of lam's sign, wherever mag > 0
            multiply(p, np.where(mag == 0, 1.0, lam), out=p)
            return
        # lam / lam is exactly 1 where mag <= lam
        maximum(mag, lam, out=mag)
        divide(lam, mag, out=mag)
        multiply(p0, mag, out=p0)
        multiply(p1, mag, out=p1)

    if dual0 is not None and np.asarray(dual0).shape == (2,) + z.shape:
        copyto(p, dual0)
        project()

    best_gap = np.inf
    maxit = cfg.maxit
    for it in range(1, maxit + 1):
        subtract(ubar_down, ubar_up, out=g_rows)
        subtract(ubar_next, ubar_prev, out=g_cols)
        g_edge.fill(0.0)
        multiply(g, SIGMA, out=g)
        add(p, g, out=p)
        project()
        copyto(p1z, p1)
        p1z_edge.fill(0.0)
        div_p.fill(0.0)
        add(div_up, p_rows, out=div_up)
        subtract(div_down, p_rows, out=div_down)
        add(div_prev, p1z_prev, out=div_prev)
        subtract(div_next, p1z_prev, out=div_next)

        # ubar holds z + div p: the dual-feasible primal candidate, the exact
        # minimiser of the Lagrangian at p
        add(z, div_p, out=ubar)
        # gap evaluation costs about half an update; check on a schedule
        if it <= 50 or it % 10 == 0 or it == maxit:
            subtract(ubar_down, ubar_up, out=gc_rows)
            subtract(ubar_next, ubar_prev, out=gc_cols)
            gc_edge.fill(0.0)
            multiply(gc, gc, out=sq)
            add(sq0, sq1, out=mag)
            sqrt(mag, out=mag)
            tv_cand = float(add.reduce(mag, axis=None))
            primal = 0.5 * float(np.dot(div_flat, div_flat)) + lam * tv_cand
            gap_abs = lam * tv_cand - float(np.vdot(gc_flat, p_flat))
            gap_rel = gap_abs / (1.0 + abs(primal))
            if gap_rel < best_gap:
                best_gap = gap_rel
                copyto(best_u, ubar)
                copyto(best_p, p)

            if best_gap <= cfg.tol:
                return PdhgResult(u=best_u, gap=best_gap, iters=it, dual=best_p)

        # ubar = TAU (z + div p); u+ = (u + ubar) / (1 + TAU), then ubar = u+ + (u+ - u)
        multiply(ubar, TAU_INNER, out=ubar)
        add(u, ubar, out=u_new)
        divide(u_new, denom, out=u_new)
        subtract(u_new, u, out=ubar)
        add(u_new, ubar, out=ubar)
        u, u_new = u_new, u

    if best_gap == np.inf:
        raise NumericsError(f"TV prox found no finite gap in {maxit} iterations")
    result = PdhgResult(u=best_u, gap=best_gap, iters=maxit, dual=best_p)
    raise NotConvergedError(
        f"TV prox did not reach gap {cfg.tol:g} in {maxit} iterations (best {best_gap:g})",
        result=result,
    )
