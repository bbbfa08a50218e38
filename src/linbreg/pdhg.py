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


def _project_ball(p: np.ndarray, lam: float) -> np.ndarray:
    """Project each 2-vector p[:, i, j] onto the Euclidean ball of radius lam."""
    mag = np.sqrt(p[0] ** 2 + p[1] ** 2)
    scale = np.ones_like(mag)
    np.divide(lam, mag, out=scale, where=mag > lam)
    return p * scale[None, :, :]


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
    # grad2d_forward, div2d and _project_ball in their order, so the bits
    # match the allocating form of the loop; the trailing row of channel 0
    # and column of channel 1 of g and gc stay zero, as grad2d_forward's do.
    p = np.zeros((2, H, W))
    g = np.zeros((2, H, W))  # SIGMA * grad(ubar)
    gc = np.zeros((2, H, W))  # grad(cand), for the gap check
    sq = np.empty((2, H, W))
    best_p = np.empty((2, H, W))
    mag, div_p, cand, best_u, u_new = (np.empty((H, W)) for _ in range(5))
    u = z.copy()
    ubar = z.copy()

    sq0, sq1 = sq
    p_rows, p_cols = p[0, : H - 1], p[1, :, : W - 1]
    g_rows, g_cols = g[0, : H - 1], g[1, :, : W - 1]
    gc_rows, gc_cols = gc[0, : H - 1], gc[1, :, : W - 1]
    ubar_down, ubar_up = ubar[1:], ubar[: H - 1]
    ubar_right, ubar_left = ubar[:, 1:], ubar[:, : W - 1]
    cand_down, cand_up = cand[1:], cand[: H - 1]
    cand_right, cand_left = cand[:, 1:], cand[:, : W - 1]
    div_up, div_down = div_p[: H - 1], div_p[1:]
    div_left, div_right = div_p[:, : W - 1], div_p[:, 1:]
    div_flat, gc_flat, p_flat = div_p.ravel(), gc.ravel(), p.ravel()
    denom = 1.0 + TAU_INNER

    def project():
        if lam == 0:  # the 0/0 of lam / max(mag, lam) would differ from _project_ball
            p[...] = _project_ball(p, lam)
            return
        np.multiply(p, p, out=sq)
        np.add(sq0, sq1, out=mag)
        np.sqrt(mag, out=mag)
        # lam / lam is exactly 1, so this is _project_ball's scale bit for bit
        np.maximum(mag, lam, out=mag)
        np.divide(lam, mag, out=mag)
        np.multiply(p, mag, out=p)

    if dual0 is not None and np.asarray(dual0).shape == (2,) + z.shape:
        np.copyto(p, dual0)
        project()

    best_gap = np.inf
    maxit = cfg.maxit
    for it in range(1, maxit + 1):
        np.subtract(ubar_down, ubar_up, out=g_rows)
        np.subtract(ubar_right, ubar_left, out=g_cols)
        np.multiply(g, SIGMA, out=g)
        np.add(p, g, out=p)
        project()
        div_p.fill(0.0)
        np.add(div_up, p_rows, out=div_up)
        np.subtract(div_down, p_rows, out=div_down)
        np.add(div_left, p_cols, out=div_left)
        np.subtract(div_right, p_cols, out=div_right)

        # gap evaluation costs about half an update; check on a schedule
        if it <= 50 or it % 10 == 0 or it == maxit:
            # dual-feasible primal candidate: exact minimiser of the Lagrangian at p
            np.add(z, div_p, out=cand)
            np.subtract(cand_down, cand_up, out=gc_rows)
            np.subtract(cand_right, cand_left, out=gc_cols)
            np.multiply(gc, gc, out=sq)
            np.add(sq0, sq1, out=mag)
            np.sqrt(mag, out=mag)
            tv_cand = float(np.sum(mag))
            primal = 0.5 * float(np.dot(div_flat, div_flat)) + lam * tv_cand
            gap_abs = lam * tv_cand - float(np.vdot(gc_flat, p_flat))
            gap_rel = gap_abs / (1.0 + abs(primal))
            if gap_rel < best_gap:
                best_gap = gap_rel
                np.copyto(best_u, cand)
                np.copyto(best_p, p)

            if best_gap <= cfg.tol:
                return PdhgResult(u=best_u, gap=best_gap, iters=it, dual=best_p)

        # u+ = (u + TAU (div p + z)) / (1 + TAU), then ubar = u+ + (u+ - u)
        np.add(div_p, z, out=ubar)
        np.multiply(ubar, TAU_INNER, out=ubar)
        np.add(u, ubar, out=u_new)
        np.divide(u_new, denom, out=u_new)
        np.subtract(u_new, u, out=ubar)
        np.add(u_new, ubar, out=ubar)
        u, u_new = u_new, u

    if best_gap == np.inf:
        raise NumericsError(f"TV prox found no finite gap in {maxit} iterations")
    result = PdhgResult(u=best_u, gap=best_gap, iters=maxit, dual=best_p)
    raise NotConvergedError(
        f"TV prox did not reach gap {cfg.tol:g} in {maxit} iterations (best {best_gap:g})",
        result=result,
    )
