"""Primal-dual hybrid gradient solver for the total-variation proximal subproblem.

Solves  argmin_u  0.5*||u - z||^2 + lam * TV(u)  with a certified relative
primal-dual gap.  This is the only iterative inner solver the package needs;
every other proximal map has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotConvergedError
from .tensor_ops import div2d, grad2d_forward

# dual and primal steps: SIGMA * TAU_INNER * ||grad||^2 = 1, with ||grad||^2 <= 8
# for the forward-difference operator; the extrapolation parameter is 1
SIGMA = TAU_INNER = 1.0 / np.sqrt(8.0)


@dataclass
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
        Prox argument.
    lam : float
        Total-variation weight (tau * alpha of the outer iteration).
    cfg : PdhgConfig, optional
        Stopping parameters.
    dual0 : array, shape (2, H, W), optional
        Warm-start dual variable, typically the ``dual`` of the previous call.

    Returns
    -------
    PdhgResult
        The returned primal iterate is reconstructed as u = z + div(p) from the
        best dual found, so it satisfies the primal optimality relation exactly;
        -div(p) is then a certified subgradient of lam*TV at u up to the gap.
        The reported gap is the best (hence nonincreasing) relative gap so far.

    Raises
    ------
    NotConvergedError
        If ``cfg.maxit`` iterations do not reach ``cfg.tol``; the exception
        carries the best result found.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if cfg is None:
        cfg = PdhgConfig()
    z = np.asarray(z, dtype=np.float64)

    u = z.copy()
    ubar = u
    if dual0 is not None and np.asarray(dual0).shape == (2,) + z.shape:
        p = np.array(dual0, dtype=np.float64, copy=True)
        p = _project_ball(p, lam)
    else:
        p = np.zeros((2,) + z.shape, dtype=np.float64)

    best_gap = np.inf
    best_u = None
    best_p = None

    for it in range(1, cfg.maxit + 1):
        p = _project_ball(p + SIGMA * grad2d_forward(ubar), lam)
        div_p = div2d(p)

        # gap evaluation costs about as much as an update; check on a schedule
        if it <= 50 or it % 10 == 0 or it == cfg.maxit:
            # dual-feasible primal candidate: exact minimiser of the Lagrangian at p
            cand = z + div_p
            g = grad2d_forward(cand)
            tv_cand = float(np.sum(np.sqrt(g[0] ** 2 + g[1] ** 2)))
            primal = 0.5 * float(np.dot(div_p.ravel(), div_p.ravel())) + lam * tv_cand
            gap_abs = lam * tv_cand - float(np.vdot(g.ravel(), p.ravel()))
            gap_rel = gap_abs / (1.0 + abs(primal))
            if gap_rel < best_gap:
                best_gap = gap_rel
                best_u = cand
                best_p = p.copy()

            if best_gap <= cfg.tol:
                return PdhgResult(u=best_u, gap=best_gap, iters=it, dual=best_p)

        u_new = (u + TAU_INNER * (div_p + z)) / (1.0 + TAU_INNER)
        ubar = u_new + (u_new - u)
        u = u_new

    result = PdhgResult(u=best_u, gap=best_gap, iters=cfg.maxit, dual=best_p)
    raise NotConvergedError(
        f"TV prox did not reach gap {cfg.tol:g} in {cfg.maxit} iterations (best {best_gap:g})",
        result=result,
    )
