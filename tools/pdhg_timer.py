"""Time the PDHG TV prox of several source trees in one process.

Loads ``linbreg`` from each given source directory under its own module name,
then interleaves warm-started 400-iteration ``pdhg_tv_prox`` calls at 16x16,
32x32 and 64x64 (the deconvolution and MRI image sizes) over the trees for
40 rounds, rotating which tree goes first.  Prints, per size and tree, the
minimum and lower-quartile call time and their ratios to the first tree:

    python tools/pdhg_timer.py /path/to/other/checkout/src src

Every call's ``(u, dual, gap, iters)`` is hashed; the script exits 1 if any
call differs from the first tree's call on the same arguments.  Timing in one
process keeps the trees on the same CPU and memory state, which makes a
layer figure possible on hosts where end-to-end runs are too noisy to tell
a few percent apart.  Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (16, 32, 64)
LAM = 0.1
TOL = 1e-8  # the TV tolerance of a deconv run: warm calls here run all 400 iterations
MAXIT = 400
ROUNDS = 40


def load_tree(src: Path, k: int):
    """Import ``src/linbreg`` as the package ``linbreg_tree<k>``; return its pdhg module."""
    name = f"linbreg_tree{k}"
    init = src / "linbreg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no linbreg package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.pdhg")


def call(pdhg, z, dual0):
    """(u, dual, gap, iters) of one prox call, from either exit."""
    try:
        res = pdhg.pdhg_tv_prox(z, LAM, pdhg.PdhgConfig(tol=TOL, maxit=MAXIT), dual0=dual0)
    except pdhg.NotConvergedError as err:
        res = err.result
    return res.u, res.dual, res.gap, res.iters


def digest(u, dual, gap, iters) -> str:
    h = hashlib.sha256()
    for a in (u, dual, np.float64(gap), np.int64(iters)):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def arguments(n: int, pdhg):
    """A deconv-like prox argument and the warm dual of a cold call at a nearby one."""
    rng = np.random.default_rng(n)
    z = 0.3 * rng.standard_normal((n, n))
    dual0 = call(pdhg, z + 0.05 * rng.standard_normal((n, n)), None)[1]
    return z, dual0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", type=Path, help="source directories holding linbreg/")
    args = ap.parse_args(argv)

    trees = [load_tree(src.resolve(), k) for k, src in enumerate(args.src)]
    cases = {n: arguments(n, trees[0]) for n in SIZES}
    times = {(n, k): [] for n in SIZES for k in range(len(trees))}
    differ = set()
    for r in range(ROUNDS + 1):  # round 0 warms up and is not timed
        order = list(range(len(trees)))
        order = order[r % len(order):] + order[: r % len(order)]
        for n, (z, dual0) in cases.items():
            ref = None
            for k in order:
                gc.collect()
                t0 = time.perf_counter()
                out = call(trees[k], z, dual0)
                dt = time.perf_counter() - t0
                d = digest(*out)
                if ref is None:
                    ref = d
                elif d != ref:
                    differ.add(n)
                if r:
                    times[n, k].append(dt)

    print(f"{ROUNDS} rounds of warm {MAXIT}-iteration calls, lam = {LAM}; "
          "ratios are to the first tree")
    print(f"{'size':>6}  {'tree':<40} {'min ms':>8} {'q1 ms':>8} {'min x':>6} {'q1 x':>6}")
    for n in SIZES:
        base = None
        for k, src in enumerate(args.src):
            ts = times[n, k]
            lo, q1 = min(ts), statistics.quantiles(ts, n=4)[0]
            base = base or (lo, q1)
            print(f"{f'{n}x{n}':>6}  {str(src)[-40:]:<40} {1e3 * lo:8.3f} {1e3 * q1:8.3f} "
                  f"{lo / base[0]:6.3f} {q1 / base[1]:6.3f}")
    if differ:
        print(f"digests differ between trees at sizes {sorted(differ)}")
        return 1
    print("digests equal on every call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
