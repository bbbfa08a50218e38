"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: each wrapper is installed at the
place its caller looks the name up (``pdhg`` and the problem drivers import
``tensor_ops`` functions into their own namespaces, ``regularizers`` reaches
the TV solver through the ``pdhg`` module, the solver and the experiment
runner call their helpers through module globals, and the solver calls
objective and regularizer methods through the class).  Installing a wrapper
never changes arguments or results, so a traced run writes the same
``log.csv`` bytes as an untraced one; the benchmark checks this.

A span is (name, start, end, parent, run id), kept in flat arrays while the
benchmark runs and written out when it ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

# A span's layer is the text of its name before the first dot.
SOLVE = "solver.run"
TENSOR_CATEGORIES = ("grad_div", "fft", "dct", "svd")
# regularizer method -> the label its spans carry
REGULARIZER_METHODS = {"value": "value", "prox": "prox", "conjugate_value": "conjugate",
                       "initial_subgradient": "initial_subgradient"}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self._stack: list[int] = []
        # one row per inner TV solve: (run id, inner iterations, exit gap, converged)
        self.pdhg_rows: list[tuple] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _wrap_pdhg(self, fn, not_converged):
        nid = self._intern("pdhg.tv_prox")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                res = fn(*args, **kwargs)
                self.pdhg_rows.append((self.run_id, res.iters, res.gap, True))
                return res
            except not_converged as err:
                self.pdhg_rows.append((self.run_id, err.result.iters, err.result.gap, False))
                raise
            finally:
                self._close(i)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self) -> None:
        """Wrap every layer boundary of the package; ``uninstall`` restores them."""
        import linbreg.experiment as experiment
        import linbreg.pdhg as pdhg
        import linbreg.problems as problems
        import linbreg.regularizers as regularizers
        import linbreg.solver as solver
        import linbreg.tensor_ops as tensor_ops
        from linbreg.exceptions import NotConvergedError

        def span(name):
            return lambda fn: self.wrap(name, fn)

        tensor_sites = {
            "grad_div": [(pdhg, "grad2d_forward"), (pdhg, "div2d"),
                         (tensor_ops, "grad2d_forward"), (tensor_ops, "div2d"),
                         (regularizers, "total_variation"), (experiment, "total_variation")],
            "fft": [(problems.deconv, "conv2d_periodic"),
                    (problems.deconv, "conv2d_periodic_adjoint"),
                    (problems.deconv, "kernel_gradient"),
                    (problems.mri, "dft2"), (problems.mri, "idft2")],
            "dct": [(regularizers, "dct2"), (regularizers, "idct2")],
            # every SVD: svd_thin, the nuclear-norm value and conjugate, rank_of
            "svd": [(np.linalg, "svd")],
        }
        for category, sites in tensor_sites.items():
            for owner, attr in sites:
                self._patch(owner, attr, span(f"tensor_ops.{category}"))

        self._patch(pdhg, "pdhg_tv_prox", lambda fn: self._wrap_pdhg(fn, NotConvergedError))

        for cls in _subclasses(regularizers, regularizers.BregmanFunction):
            for method, label in REGULARIZER_METHODS.items():
                if method in cls.__dict__:
                    self._patch(cls, method, span(f"regularizers.{label}.{cls.__name__}"))

        for module in (problems.deconv, problems.mri, problems.classify, problems.quadratic):
            for cls in _subclasses(module, solver.SmoothObjective):
                for method in ("value", "grad"):
                    if method in cls.__dict__:
                        self._patch(cls, method, span(f"problems.{method}"))

        for attr in ("linbreg_step", "proximal_gradient_step", "projected_gradient_step"):
            self._patch(solver, attr, span("solver.step"))
        self._patch(solver, "backtrack", span("solver.backtrack"))
        self._patch(solver, "_monitor", span("solver.monitor"))
        self._patch(experiment, "run", span(SOLVE))
        self._patch(experiment, "initial_state", span("solver.initial_state"))
        self._patch(experiment, "write_log_csv", span("experiment.write_log"))
        self._patch(experiment, "build_experiment", self._wrap_build)

    def _wrap_build(self, fn):
        build = self.wrap("experiment.build", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            built = build(*args, **kwargs)
            # run_experiment looks both hooks up on the returned object per call
            built.extras_fn = self.wrap("experiment.extras", built.extras_fn)
            built.snapshot_fn = self.wrap("experiment.snapshot", built.snapshot_fn)
            return built

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent, run id."""
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.run, dtype=np.int32))

    def save(self, path) -> None:
        name, start, end, parent, run = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, run=run)

    def _within(self, span_name: str) -> np.ndarray:
        """Mask of the spans named ``span_name`` and all their descendants."""
        target = self._ids.get(span_name, -1)
        mask = [False] * len(self.name)
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            # parents are recorded before their children
            mask[i] = nid == target or (p >= 0 and mask[p])
        return np.array(mask, dtype=bool)

    def summary(self, runs: int, iterations: int) -> dict:
        """Per-layer totals over ``runs`` traced runs with ``iterations`` accepted steps."""
        name, start, end, parent, _ = self.arrays()
        n = name.size
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]

        # per-name tables; the extra last entry ("") stands for "no parent"
        def table(f):
            return np.array([f(s) for s in self.names] + [""])

        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], len(self.names))
        label = table(lambda s: s)[name]
        layer_of, method_of = table(lambda s: s.split(".")[0]), table(lambda s: ".".join(s.split(".")[:2]))
        layer, parent_layer = layer_of[name], layer_of[parent_name]
        method, parent_method = method_of[name], method_of[parent_name]
        in_solve = self._within(SOLVE)
        runs = max(runs, 1)
        iters = max(iterations, 1)

        def count(mask):
            return float(np.count_nonzero(mask & in_solve))

        def self_s(mask):
            return float(np.sum(self_time[mask & in_solve])) / runs

        def incl_s(mask):
            return float(np.sum(dur[mask])) / runs

        out = {}
        pdhg_span = label == "pdhg.tv_prox"
        rows = self.pdhg_rows
        out["pdhg.calls_per_iter"] = count(pdhg_span) / iters
        out["pdhg.self_s"] = self_s(pdhg_span)
        out["pdhg.inner_iters_per_call"] = (float(np.mean([r[1] for r in rows])) if rows else 0.0)
        out["pdhg.converged_ratio"] = (float(np.mean([r[3] for r in rows])) if rows else 0.0)
        out["pdhg.exit_gap_median"] = (float(np.median([r[2] for r in rows])) if rows else 0.0)

        for category in TENSOR_CATEGORIES:
            span_mask = label == f"tensor_ops.{category}"
            outermost = span_mask & (parent_layer != "tensor_ops")
            if category == "svd":
                out["tensor_ops.svd.calls_per_iter"] = count(outermost) / iters
            else:
                out[f"tensor_ops.{category}.calls"] = count(outermost) / runs
                out[f"tensor_ops.{category}.s"] = self_s(span_mask)

        out["problems.value.calls_per_iter"] = count(label == "problems.value") / iters
        out["problems.grad.calls_per_iter"] = count(label == "problems.grad") / iters
        out["problems.self_s"] = self_s(layer == "problems")

        # a regularizer call counts once per block: a call that delegates the
        # same method to its blocks (block sums, wrappers) is not counted itself
        reg = layer == "regularizers"
        delegating = np.zeros(n, dtype=bool)
        delegating[parent[reg & (parent_layer == "regularizers") & (parent_method == method)]] = True
        leaf = reg & ~delegating
        for key, m in (("prox", "regularizers.prox"), ("value", "regularizers.value"),
                       ("conjugate", "regularizers.conjugate")):
            out[f"regularizers.{key}.calls_per_iter"] = count(leaf & (method == m)) / iters
        out["regularizers.self_s"] = self_s(reg)

        out["solver.trials_per_iter"] = count(label == "solver.step") / iters
        out["solver.step.self_s"] = self_s(label == "solver.step")
        out["solver.monitor.self_s"] = self_s(label == "solver.monitor")

        out["experiment.build_s"] = incl_s(label == "experiment.build")
        out["experiment.extras_s"] = incl_s(label == "experiment.extras")
        out["experiment.write_s"] = incl_s((label == "experiment.write_log")
                                           | (label == "experiment.snapshot"))

        solve_total = float(np.sum(dur[label == SOLVE]))
        pdhg_total = float(np.sum(dur[pdhg_span]))
        value_grad = count(label == "problems.value") + count(label == "problems.grad")
        under_extras = self._within("experiment.extras")
        svd_outer = (label == "tensor_ops.svd") & (parent_layer != "tensor_ops")
        out["_sanity"] = {
            "pdhg_share_of_solve": pdhg_total / solve_total if solve_total else 0.0,
            "energy_evals_per_iter": value_grad / iters,
            "svds_per_iter": count(svd_outer) / iters,
            "svds_per_iter_without_extras": count(svd_outer & ~under_extras) / iters,
        }
        return out


def _subclasses(module, base):
    return [obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, base) and obj is not base
            and obj.__module__ == module.__name__]
