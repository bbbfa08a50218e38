#!/usr/bin/env python3
"""Time-to-target benchmark for linbreg.

One operation is one ``linbreg run`` of a generated config, solved to an
energy target: the package's own ``discrepancy_eta`` stop, with ``max_iter``
as a cap.  The benchmark drives the package's config path
(``parse_config_text`` -> ``build_experiment`` + ``initial_state`` ->
``run_experiment``) in a closed loop with one client in one process: the next
operation starts only when the previous one has returned.  BLAS and OpenMP
run on one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload deconv-tv --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36   # every workload, fresh process each

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it solves each instance untraced and traced, checks that both
write the same ``log.csv`` bytes, and reports per-layer metrics from spans
recorded around the package's layer boundaries (see ``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it is
a JSON report with the environment, the resolved targets, the ``log.csv``
SHA-256 fingerprint and any failures; the same report is written to
``bench/out/``.
"""

from __future__ import annotations

import os

# pin the thread pools before numpy loads: the single-threaded baseline
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# a run always measures at least this many blocks, so the median has a middle
MIN_BLOCKS = 3
# Fenchel-Young residual accepted as "q is a subgradient of R at u", relative to 1 + |R(u)|
FY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One generated-config family and the energy target its solves run to."""

    config: dict
    # energy target: floor + target * (E(u0) - floor), floor a lower bound of E
    target: float
    max_iter: int
    # instances solved per block; a block takes a few seconds, so a 36 s run holds 5-10
    block: int
    # tiny sizes for the self-test, and the target they can reach
    tiny: dict = field(default_factory=dict)
    tiny_target: float | None = None


WORKLOADS = {
    # 94% of the time is the PDHG TV prox on small arrays, so the inner loop
    # is bound by interpreter overhead; the snapshots exercise the PGM writes
    "deconv-tv": Workload(
        config={"problem": "deconv", "solver": "linbreg", "height": "32", "width": "32",
                "kernel_h": "3", "kernel_w": "5", "alpha": "0.05", "tau0": "2.0",
                "snapshots": "1,10,50,500,1500,3000"},
        target=0.03, max_iter=200, block=14,
        tiny={"height": "10", "width": "10", "kernel_h": "3", "kernel_w": "3", "tv_maxit": "40"}),
    # never calls pdhg: energy value/grad and SVDs dominate, backtracking is active
    "classifier-nuclear": Workload(
        config={"problem": "classifier", "solver": "linbreg", "train_n": "500", "hidden": "30",
                "alpha1": "0.2", "alpha2": "0.2"},
        target=0.7, max_iter=300, block=11,
        tiny={"train_n": "40", "hidden": "6"}, tiny_target=0.8),
    # cheap iterations: solver step/backtrack/monitor and log.csv writing show;
    # the only workload whose monitors assert both certificates
    "quadratic-l1": Workload(
        config={"problem": "quadratic", "solver": "linbreg", "n": "200", "reg": "l1",
                "reg_alpha": "0.1", "l_const": "1.0"},
        target=1e-6, max_iter=2000, block=125,
        tiny={"n": "12"}),
    # two TV blocks per prox, larger lam, DCT-l1 prox, complex FFT energies;
    # runnable, but not in BENCHMARK.json: its time to target varies too much
    # between instances for a steady seed-to-seed median (see README.md)
    "mri-tv": Workload(
        config={"problem": "mri", "solver": "linbreg", "n": "64", "coils": "2", "mask": "spiral"},
        target=0.01, max_iter=100, block=5,
        tiny={"n": "12", "tv_maxit": "40"}),
}


def render(config: dict, **extra) -> str:
    """Config text the program parses; the program sees nothing else."""
    return "".join(f"{k} = {v}\n" for k, v in {**config, **extra}.items())


def instance_seed(seed: int, i: int) -> int:
    """Config seed of the i-th instance of a run; a pure function of (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

@dataclass
class Solve:
    seed: int
    eta: float
    setup_s: float
    run_s: float
    solve_s: float
    iterations: int
    log_sha256: str
    log_bytes: int
    failures: list


class Capture:
    """Keeps the last solver result so the gates can see the final (u, q).

    While entered, it sits at ``experiment.run``, the name ``run_experiment``
    calls, and passes arguments and results through unchanged.
    """

    def __init__(self, experiment):
        self.experiment = experiment
        self.original = experiment.run
        self.result = None
        self.R = None

    def _run(self, E, R, *args, **kwargs):
        self.result = self.original(E, R, *args, **kwargs)
        self.R = R
        return self.result

    def __enter__(self):
        self.experiment.run = self._run
        return self

    def __exit__(self, *exc):
        self.experiment.run = self.original


def energy_floor(problem: str, E) -> float:
    """A lower bound of E known without solving: the quadratic's exact minimum,
    zero for the sums of squares and nonnegative losses of the other drivers."""
    if problem == "quadratic":
        return E.c - 0.5 * float(E.b @ np.linalg.solve(E.A, E.b))
    return 0.0


def gate(log, capture, linbreg) -> list:
    """Correctness gates of one solve; returns the reasons it failed."""
    failures = []
    if log.stop_reason != "discrepancy":
        failures.append(f"stopped by {log.stop_reason}, not at the energy target")
    if not all(math.isfinite(r.energy) for r in log.records):
        failures.append("non-finite energy in the log")
    bad = [r.k for r in log.records if not (r.decrease_ok and r.bound_ok)]
    if bad:
        failures.append(f"decrease/bound certificate false at k={bad[:5]}")
    R = capture.R
    if R is not None and R.has_conjugate:
        st = capture.result.state
        fy = linbreg.regularizers.fenchel_residual(R, st.u, st.q)
        scale = 1.0 + abs(float(R.value(st.u)))
        if not abs(fy) <= FY_TOL * scale:
            failures.append(f"Fenchel-Young residual {fy:.3g} above {FY_TOL:g} * {scale:.3g}")
    return failures


def solve(wl: Workload, config: dict, seed: int, out_dir: Path, capture, linbreg,
          tracer=None) -> Solve:
    """Set up one instance, resolve its target, and run it to the target.

    A solve that raises is a failed operation, not a crash of the benchmark;
    its times run up to the exception.
    """
    experiment = linbreg.experiment
    base = render(config, seed=seed, max_iter=wl.max_iter)
    capture.result = capture.R = None
    eta = math.nan
    t0 = time.perf_counter()
    setup_s = run_s = 0.0
    try:
        cfg = experiment.parse_config_text(base)
        t0 = time.perf_counter()
        built = experiment.build_experiment(cfg)
        st0 = experiment.initial_state(built.E, built.R, built.u0, cfg["tau0"])
        setup_s = time.perf_counter() - t0

        floor = energy_floor(cfg["problem"], built.E)
        eta = floor + wl.target * (st0.energy - floor)
        cfg = experiment.parse_config_text(base + f"discrepancy_eta = {eta!r}\n")

        if tracer is not None:
            tracer.install()
        t1 = time.perf_counter()
        try:
            if tracer is None:
                log = experiment.run_experiment(cfg, out_dir)
            else:
                log = tracer.wrap("experiment.run_experiment", experiment.run_experiment)(
                    cfg, out_dir)
        finally:
            run_s = time.perf_counter() - t1
            if tracer is not None:
                tracer.uninstall()
    except Exception as exc:
        elapsed = time.perf_counter() - t0
        return Solve(seed, eta, setup_s or elapsed, run_s or elapsed, run_s or elapsed, 0, "", 0,
                     [f"raised {type(exc).__name__}: {exc}"])
    data = (Path(out_dir) / "log.csv").read_bytes()
    return Solve(seed, eta, setup_s, run_s, log.wall_time, log.iterations,
                 hashlib.sha256(data).hexdigest(), len(data), gate(log, capture, linbreg))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def environment(linbreg) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "linbreg": getattr(linbreg, "__version__", "?"),
    }


def median_of_means(blocks, attr):
    return statistics.median(statistics.fmean(getattr(s, attr) for s in b) for b in blocks)


def timed_run(wl, config, seed, seconds, out_dir, capture, linbreg):
    """Blocks of distinct instances until the time is up; then one repeat of the
    first instance, whose log.csv must match byte for byte."""
    blocks, i = [], 0
    start = time.perf_counter()
    while True:
        t_block = time.perf_counter()
        blocks.append([solve(wl, config, instance_seed(seed, i + j), out_dir, capture, linbreg)
                       for j in range(wl.block)])
        i += wl.block
        now = time.perf_counter()
        if len(blocks) >= MIN_BLOCKS and now - start + (now - t_block) > seconds:
            break
    solves = [s for b in blocks for s in b]
    repeat = solve(wl, config, solves[0].seed, out_dir, capture, linbreg)
    if not repeat.failures and repeat.log_sha256 != solves[0].log_sha256:
        repeat.failures.append("repeated solve wrote different log.csv bytes")
    solves.append(repeat)

    metrics = {
        "run_s": median_of_means(blocks, "run_s"),
        "setup_s": median_of_means(blocks, "setup_s"),
        "solve_s": median_of_means(blocks, "solve_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"blocks": len(blocks), "block_size": wl.block,
             "measured_s": round(time.perf_counter() - start, 3),
             "block_means_s": {k: [round(statistics.fmean(getattr(s, k) for s in b), 6) for b in blocks]
                               for k in ("run_s", "setup_s", "solve_s")}}
    return solves, metrics, notes, blocks[0]


def traced_run(wl, config, seed, seconds, out_dir, capture, linbreg):
    """Each instance untraced, then traced; the two log.csv files must be equal."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t_pair = time.perf_counter()
        s = instance_seed(seed, i)
        plain.append(solve(wl, config, s, out_dir, capture, linbreg))
        tracer.run_id = i
        t = solve(wl, config, s, out_dir, capture, linbreg, tracer=tracer)
        if not t.failures and not plain[-1].failures and t.log_sha256 != plain[-1].log_sha256:
            t.failures.append("traced solve wrote different log.csv bytes than the untraced one")
        traced.append(t)
        i += 1
        now = time.perf_counter()
        if i >= 2 and now - start + (now - t_pair) > seconds:
            break

    iters = sum(t.iterations for t in traced)
    layer = tracer.summary(runs=len(traced), iterations=iters)
    sanity = layer.pop("_sanity")
    good = [p for p in plain if not p.failures and p.iterations]
    layer["solver.outer_iters"] = float(statistics.median(t.iterations for t in traced))
    layer["solver.iter_ms"] = (statistics.median(1000.0 * p.solve_s / p.iterations for p in good)
                               if good else 0.0)
    layer["experiment.log_bytes"] = float(statistics.median(t.log_bytes for t in traced))
    pairs = [(t.solve_s, p.solve_s) for t, p in zip(traced, plain) if p.solve_s > 0]
    layer["trace.overhead_ratio"] = (statistics.median(a / b for a, b in pairs) if pairs else 0.0)

    tracer.save(out_dir.parent / f"{out_dir.name}-spans.npz")
    notes = {"traced_solves": len(traced), "spans": len(tracer.start),
             "missing_sites": tracer.missing, "sanity": sanity_report(sanity)}
    return plain + traced, layer, notes, traced[:2]


# the cProfile figures quoted in ROADMAP.md, for the sanity report
PROFILE = {"pdhg_share_of_solve": 0.94, "energy_evals_per_iter": 3.06, "svds_per_iter": 6.1}


def sanity_report(s: dict) -> dict:
    return {
        "pdhg_share_of_solve": {
            "traced": round(s["pdhg_share_of_solve"], 4), "profile": PROFILE["pdhg_share_of_solve"],
            "definition": "inclusive pdhg_tv_prox span time / solve span time of traced runs; "
                          "the profile took the share of a whole 500-iteration cProfile run, "
                          "and both tools inflate the many small inner-loop calls"},
        "energy_evals_per_iter": {
            "traced": round(s["energy_evals_per_iter"], 4), "profile": PROFILE["energy_evals_per_iter"],
            "definition": "E.value + E.grad calls inside the solve / accepted iterations; "
                          "one value per backtracking trial plus one value and one gradient "
                          "in the monitor, so short runs whose early iterations backtrack "
                          "read higher than a 100-iteration profile"},
        "svds_per_iter": {
            "traced": round(s["svds_per_iter"], 4),
            "traced_without_extras": round(s["svds_per_iter_without_extras"], 4),
            "profile": PROFILE["svds_per_iter"],
            "definition": "numpy.linalg.svd calls inside the solve / accepted iterations; the "
                          "experiment's rank_A extras add two per iteration, which a library "
                          "run.run() profile does not make"},
    }


def load_linbreg():
    if not (SRC / "linbreg" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'linbreg'} not found; run from a linbreg checkout")
    sys.path.insert(0, str(SRC))
    import linbreg
    import linbreg.experiment  # noqa: F401
    import linbreg.regularizers  # noqa: F401

    if Path(linbreg.__file__).resolve().parent != (SRC / "linbreg").resolve():
        raise SystemExit(f"error: imported linbreg from {linbreg.__file__}, not from {SRC}")
    return linbreg


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object; also writes the report."""
    linbreg = load_linbreg()
    wl = WORKLOADS[name]
    config = dict(wl.config, **wl.tiny) if tiny else dict(wl.config)
    if tiny:
        wl = replace(wl, block=2, target=wl.tiny_target or wl.target)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced_run if trace else timed_run
    with Capture(linbreg.experiment) as capture:
        solves, metrics, notes, sample = run(wl, config, seed, seconds, out_dir, capture, linbreg)
    # names and units come from BENCHMARK.json; a metric it does not list is an error
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    failed = [s for s in solves if s.failures]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "environment": environment(linbreg),
        "config": render(config, max_iter=wl.max_iter),
        "target": {"fraction_of_initial_gap": wl.target,
                   "discrepancy_eta": {str(s.seed): s.eta for s in sample}},
        "log_sha256": {str(s.seed): s.log_sha256 for s in sample},
        "fingerprint": hashlib.sha256("".join(s.log_sha256 for s in sample).encode()).hexdigest(),
        "iterations": {str(s.seed): s.iterations for s in sample},
        "fail_rate": len(failed) / len(solves),
        "failures": [{"seed": s.seed, "why": s.failures} for s in failed[:20]],
        **notes,
    }
    result = {
        "correct": not failed,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = {"report": report, "result": result}
    (OUT / f"report-{tag}.json").write_text(json.dumps(out, indent=1) + "\n")
    return out


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table and a JSON summary."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[wl] = result
        print(f"{wl}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_rate={result['failed'] / result['attempted']:.4f}")
        for k, m in result["metrics"].items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
