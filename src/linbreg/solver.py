"""The linearised Bregman iteration and its baselines, with convergence monitors.

One outer step of the main method, for a smooth energy E and a convex
Bregman function R with stepsize tau:

    u_next = prox_{tau R}( u + tau * (q - grad E(u)) )
    q_next = q - (u_next - u + tau * grad E(u)) / tau        (in dR(u_next))

With R = 0 this is plain gradient descent.  From a state without the Bregman
memory (``q = None``) the same step is the proximal-gradient baseline
u_next = prox_{tau R}(u - tau * grad E(u)), or projected gradient when R is an
indicator.  The module also provides the energy-backtracking stepsize rule and
monitors for the decrease and subgradient-bound inequalities the method
satisfies for admissible stepsizes.

Each point is evaluated once: every state is built at an evaluated point, so
the start costs one ``value_and_grad`` call and so does each backtracking
trial, and the next step and the monitors reuse what the accepted trial
computed.  The start's surrogate is F(s0) = E(u0), which Fenchel-Young gives
for q0 in dR(u0), so nothing but E is evaluated at u0.  What an evaluation
computes besides E and grad E (the classifier's network output, the singular
values of R's matrix blocks) belongs to the state of its point, in
``SolverState.facts``, and every later reader of that point takes it from
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NumericsError, StagnationError, UnsupportedOperation
from .regularizers import BregmanFunction, bregman_distance, symmetric_bregman_distance

NAN = float("nan")
# backtracking multiplies tau by this factor after every rejected trial
SHRINK = 0.75


class SmoothObjective:
    """Differentiable energy; subclasses implement ``value_and_grad(u, facts=None)``.

    It returns E(u) and grad E(u).  Given the facts of the point u (see
    ``SolverState``), it may store there what it computed besides them, as
    ``R.value(u, facts)`` does; without facts it stores nothing.
    ``lipschitz`` may be None.
    """

    lipschitz: float | None = None

    def value_and_grad(self, u, facts=None) -> tuple[float, np.ndarray]:
        raise NotImplementedError


class StackedObjective(SmoothObjective):
    """An energy of several arrays, which the solver sees as one stacked vector.

    Block j holds the array of shape ``shapes[j]``, raveled in C order; the
    blocks follow each other in list order, so block j has ``sizes[j]``
    entries and the vector ``size`` in all.  ``split`` returns views of the
    blocks and ``pack`` takes a list of arrays.
    """

    def __init__(self, shapes):
        self.shapes = [tuple(s) for s in shapes]
        self.sizes = [math.prod(s) for s in self.shapes]
        self.size = sum(self.sizes)
        ends = np.cumsum(self.sizes).tolist()
        self._blocks = list(zip([0] + ends, ends, self.shapes))

    def split(self, x) -> list:
        """Stacked vector -> the list of its blocks, as views of x."""
        x = np.ravel(x)
        if x.size != self.size:
            raise ValueError(f"expected {self.size} entries, got {x.size}")
        return [x[a:b].reshape(shape) for a, b, shape in self._blocks]

    def pack(self, arrays) -> np.ndarray:
        return np.concatenate([np.ravel(a) for a in arrays])


@dataclass
class SolverState:
    """Iterate pair (u^k, q^k) plus stepsize, counter and E, grad E at u^k.

    Every state is an evaluated point: ``energy`` and ``grad`` are required,
    and the solver builds its states with one ``E.value_and_grad`` call each.
    ``facts`` belong to the point u^k: what ``E.value_and_grad(u, facts)`` and
    ``R.value(u, facts)`` computed there besides E and grad E, each under a key
    that names it completely, for later readers of the point.  ``replace``
    starts a state with no facts, since it may change u.  ``warm`` belongs to
    the run: what ``R.prox(z, tau, warm)`` keeps for its next call, the TV
    warm start.  Each step hands it on and ``replace`` keeps it, so two runs
    started from one state object share one warm dict.
    """

    u: np.ndarray
    q: np.ndarray | None
    tau: float
    energy: float
    grad: np.ndarray
    k: int = 0
    surrogate: float = NAN
    warm: dict = field(default_factory=dict, repr=False, compare=False)
    facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class StoppingRule:
    """Iteration budget plus optional discrepancy and iterate-gap criteria."""

    max_iter: int
    discrepancy_eta: float | None = None
    iterate_gap_tol: float | None = None

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass
class BacktrackingPolicy:
    """Initial stepsize and the decrease slack; failed trials shrink tau by ``SHRINK``.

    ``eps_decrease=None`` resolves to 1e-12 * max(1, |E(u0)|) in ``iterate``;
    ``eps_decrease=inf`` disables backtracking (fixed stepsize).
    """

    tau0: float
    eps_decrease: float | None = None

    def __post_init__(self):
        if not 0 < self.tau0 < np.inf:
            raise ValueError("tau0 must be positive and finite")
        if self.eps_decrease is not None and not self.eps_decrease >= 0:
            raise ValueError("eps_decrease must be nonnegative")


@dataclass
class MonitorRecord:
    """Per-accepted-iteration convergence diagnostics."""

    k: int
    tau: float
    energy: float
    surrogate: float
    iterate_gap: float
    breg_sym: float
    r_norm: float
    rho2_bound: float
    decrease_ok: bool
    bound_ok: bool
    extras: dict = field(default_factory=dict)


@dataclass
class RunResult:
    """Final state, the full monitor log, and which stopping criterion fired."""

    state: SolverState
    records: list
    stop_reason: str


def _checked_grad(st: SolverState) -> np.ndarray:
    g = st.grad
    # <g, g> is finite unless an entry of g is not or the sum overflows
    if not math.isfinite(np.vdot(g, g).real) and not np.isfinite(g).all():
        raise NumericsError(f"non-finite gradient at iteration {st.k}")
    return g


def _evaluated(E: SmoothObjective, u, q, tau: float, k: int, warm: dict) -> SolverState:
    """The state at u, with E, grad E and their byproducts from one evaluation."""
    facts = {}
    energy, grad = E.value_and_grad(u, facts)
    st = SolverState(u=u, q=q, tau=tau, energy=float(energy),
                     grad=np.asarray(grad, dtype=np.float64), k=k, warm=warm)
    st.facts = facts
    return st


def initial_state(E: SmoothObjective, R: BregmanFunction, u0, tau0: float) -> SolverState:
    """Build the k=0 state with q0 = R.initial_subgradient(u0) and F(s0) = E(u0).

    Fenchel-Young makes R(u0) + R*(q0) - <u0, q0> vanish, so R is not evaluated.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    q0 = np.asarray(R.initial_subgradient(u0), dtype=np.float64)
    st = _evaluated(E, u0, q0, float(tau0), 0, {})
    st.surrogate = st.energy
    return st


def linbreg_step(E: SmoothObjective, R: BregmanFunction, st: SolverState) -> SolverState:
    """One linearised Bregman step; the new q is the exact prox subgradient, zeroed
    where ``R.memory_mask`` is 0.  From ``q = None`` it takes the baseline step
    u_next = prox_{tau R}(u - tau * grad E(u)) and q stays None."""
    g = _checked_grad(st)
    if st.q is None:
        u_new = np.asarray(R.prox(st.u - st.tau * g, st.tau, st.warm), dtype=np.float64)
        q_new = None
    else:
        z = st.u + st.tau * (st.q - g)
        u_new = np.asarray(R.prox(z, st.tau, st.warm), dtype=np.float64)
        q_new = (z - u_new) / st.tau
        if R.memory_mask is not None:
            q_new *= R.memory_mask
    return _evaluated(E, u_new, q_new, st.tau, st.k + 1, st.warm)


def backtrack(E: SmoothObjective, R: BregmanFunction, st: SolverState,
              policy: BacktrackingPolicy) -> SolverState:
    """Retry the step with tau shrunk by ``SHRINK`` until the energy check holds.

    Accepts the first trial with E(u_next) <= E(u) + eps_decrease, which must
    be a number: ``iterate`` resolves None, and here None raises ``ValueError``.
    The accepted tau is kept for the next iteration.  Rejected trials never
    advance the dual state: each retry re-runs the step from the same (u, q),
    though its TV prox warm-starts from the rejected trial before it (see
    ``SolverState``).  A trial energy of +inf (an overflowing step) shrinks tau
    like any other rejection; a NaN energy raises ``NumericsError`` at once.
    """
    if policy.eps_decrease is None:
        raise ValueError("backtrack needs a numeric eps_decrease; iterate resolves "
                         "eps_decrease=None from the start energy")
    tau = st.tau
    start = st
    while True:
        trial = linbreg_step(E, R, start)
        if trial.energy <= st.energy + policy.eps_decrease:
            return trial
        if math.isnan(trial.energy):
            raise NumericsError(f"NaN energy at iteration {st.k} with tau = {tau:g}")
        tau *= SHRINK
        if tau < 1e-16 * policy.tau0:
            raise StagnationError(
                f"backtracking stagnated at iteration {st.k}: tau underflow below "
                f"{1e-16 * policy.tau0:g}"
            )
        start = replace(st, tau=tau)


def surrogate_value(energy: float, R: BregmanFunction, x, y, base=None,
                    facts=None) -> float:
    """Surrogate objective F(x, y) = E(x) + R(x) + R*(y) - <x, y>, given E(x).

    When R has no conjugate evaluation, falls back to the equivalent Bregman
    form E(x) + D_R^y(x, base) for a point ``base`` with y in dR(base).
    ``facts`` are the facts of the point x, which ``R.value`` reads and fills.
    """
    ex = float(energy)
    if R.has_conjugate:
        rx = R.value(x, facts)
        rstar = R.conjugate_value(y)
        # vdot flattens both arguments in C order, as np.ravel does
        return ex + float(rx) + float(rstar) - float(np.vdot(x, y).real)
    if base is None:
        raise UnsupportedOperation(
            "no conjugate available and no base point given for the Bregman form")
    return ex + bregman_distance(R, x, base, y)


def surrogate_subgradient(st: SolverState, prev: SolverState | None) -> np.ndarray:
    """The canonical subgradient of F at s^k: (grad E(u^k) + q^k - q^{k-1}, u^{k-1} - u^k)."""
    if prev is None or prev.q is None or st.q is None:
        raise ValueError("surrogate subgradient needs two consecutive states with a dual variable")
    top = _checked_grad(st).ravel() + st.q.ravel() - prev.q.ravel()
    return np.concatenate([top, prev.u.ravel() - st.u.ravel()])


@dataclass
class DecreaseReport:
    """Outcome of auditing the surrogate decrease inequality over a run."""

    checked: int
    violations: list
    max_violation: float


def check_sufficient_decrease(records, L: float, initial_surrogate: float,
                              rtol: float = 1e-10) -> DecreaseReport:
    """Audit F(s^{k+1}) + rho1 * ||u^{k+1} - u^k||^2 <= F(s^k) over a monitor log.

    rho1 is derived per iteration as max(0, 1/tau - L/2), the largest value for
    which the recorded tau satisfies the admissible-stepsize bound
    tau <= 2 / (L + 2*rho1).
    """
    violations = []
    worst = 0.0
    prev_f = initial_surrogate
    for rec in records:
        rho1 = max(0.0, 1.0 / rec.tau - L / 2.0)
        lhs = rec.surrogate + rho1 * rec.iterate_gap ** 2
        slack = lhs - prev_f
        tol = rtol * (1.0 + abs(prev_f))
        if slack > tol:
            violations.append(rec.k)
            worst = max(worst, slack)
        prev_f = rec.surrogate
    return DecreaseReport(checked=len(records), violations=violations, max_violation=worst)


def _monitor(st_new: SolverState, st_old: SolverState, L, tau_min,
             extras_fn=None) -> MonitorRecord:
    """Fill a MonitorRecord for an accepted step st_old -> st_new whose surrogate is set;
    linbreg only fields degrade to NaN for the baselines, which carry no dual variable."""
    # each norm is np.linalg.norm's own sqrt(x . x); r's second half is
    # u^{k-1} - u^k, the negated u^k - u^{k-1}, with the same squares
    if st_new.q is not None:
        r = surrogate_subgradient(st_new, st_old)
        du = r[st_new.u.size:]
        breg_sym = symmetric_bregman_distance(st_new.u, st_old.u, st_new.q, st_old.q)
        r_norm = math.sqrt(r.dot(r))
    else:
        du = st_new.u.ravel() - st_old.u.ravel()
        breg_sym = NAN
        r_norm = NAN
    gap = math.sqrt(du.dot(du))

    if L is not None and st_new.q is not None:
        rho1 = max(0.0, 1.0 / st_new.tau - L / 2.0)
        decrease_ok = (
            not math.isfinite(st_old.surrogate)
            or st_new.surrogate + rho1 * gap ** 2
            <= st_old.surrogate + 1e-10 * (1.0 + abs(st_old.surrogate))
        )
        rho2 = 1.0 + L + 1.0 / tau_min
        rho2_bound = rho2 * gap
        # absolute floor absorbs rounding dust when the gap is exactly zero
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


def iterate(E: SmoothObjective, R: BregmanFunction, st: SolverState,
            policy: BacktrackingPolicy, extras_fn=None):
    """Yield (state, record) for every accepted step from ``st``, without end.

    ``eps_decrease=None`` resolves here, and only here, to
    1e-12 * max(1, |E|) at the start state ``st``.  Each generator owns
    its states, so several runs may share E and R and advance in any order.
    """
    if policy.eps_decrease is None:
        policy = replace(policy, eps_decrease=1e-12 * max(1.0, abs(st.energy)))
    L = E.lipschitz
    tau_min = st.tau
    while True:
        st_new = backtrack(E, R, st, policy)
        if st_new.q is not None:
            st_new.surrogate = surrogate_value(st_new.energy, R, st_new.u, st.q, base=st.u,
                                               facts=st_new.facts)
        tau_min = min(tau_min, st_new.tau)
        yield st_new, _monitor(st_new, st, L, tau_min, extras_fn)
        st = st_new


def run(E: SmoothObjective, R: BregmanFunction, st0: SolverState,
        policy: BacktrackingPolicy, stop: StoppingRule, extras_fn=None) -> RunResult:
    """Iterate until a stopping criterion fires; returns state, monitor log and reason.

    From ``q = None`` it runs the baseline, whose records carry NaN in the
    fields that need a dual variable.

    Parameters
    ----------
    extras_fn : callable, optional
        Maps an accepted state to a dict of extra metric columns.
    """
    records: list[MonitorRecord] = []
    st = st0
    if stop.discrepancy_eta is not None and st.energy <= stop.discrepancy_eta:
        return RunResult(st, records, "discrepancy")

    reason = "max_iter"
    steps = iterate(E, R, st0, policy, extras_fn)
    # an overflowing trial is a rejection, and a non-finite value an error the
    # solver reports itself: neither needs numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(stop.max_iter):
            st, rec = next(steps)
            records.append(rec)
            if stop.discrepancy_eta is not None and st.energy <= stop.discrepancy_eta:
                reason = "discrepancy"
                break
            if stop.iterate_gap_tol is not None and rec.iterate_gap <= stop.iterate_gap_tol:
                reason = "iterate_gap"
                break
    return RunResult(st, records, reason)
