"""Byte oracle for refactors: hash the outputs of 60 fixed CLI runs.

Runs twenty configs under each of the three solvers (``linbreg``,
``projected-gd``, ``proximal-gd``) with the package found in a given source
directory, and prints ``sha256  path`` for every output file except
``summary.txt``, which records wall time.  Two source trees behave the same
on these runs exactly when their outputs are identical.  Given two source
directories, it runs both and names each file whose bytes differ: under each
changed ``log.csv`` each column that moved, with its count of changed rows and
its largest relative change, and under each changed ``config.resolved`` the
lines only one side has.  A run's snapshots get one line, with its count of
changed snapshot files.  It then prints ``k of N files changed`` and exits 1
when k > 0:

    python tools/log_oracle.py src > hashes.txt
    python tools/log_oracle.py /path/to/other/checkout/src src

``--env-old NAME=VALUE`` and ``--env-new NAME=VALUE`` (repeatable) set a
variable in the runs of the first or the second tree only, so that one tree
can run against itself under two environments:

    python tools/log_oracle.py src src --env-old OPENBLAS_NUM_THREADS=1 \
        --env-new OPENBLAS_NUM_THREADS=2

Uses the standard library only; each run is a ``python -m linbreg run``
subprocess.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "deconv": "problem = deconv\nheight = 16\nwidth = 16\nmax_iter = 40\nsnapshots = 1,10,40\n",
    "deconv-kmem": ("problem = deconv\nheight = 16\nwidth = 16\nmax_iter = 40\n"
                    "snapshots = 1,10,40\nkernel_memory = true\n"),
    "mri": "problem = mri\nn = 16\nmax_iter = 15\n",
    "classifier": "problem = classifier\ntrain_n = 60\nhidden = 8\nmax_iter = 20\n",
    "classifier-smoothmax-kl": ("problem = classifier\ntrain_n = 60\nhidden = 8\nmax_iter = 20\n"
                                "activation = smooth-max\nloss = kl\n"),
    "mri-zero-random": "problem = mri\nn = 16\nmax_iter = 15\nalpha = 0\nmask = random\n",
    "quadratic-l1": "problem = quadratic\nn = 30\nmax_iter = 80\nreg = l1\n",
    "quadratic-none": "problem = quadratic\nn = 30\nmax_iter = 80\nreg = none\n",
    # generator shapes the configs above miss: a non-square image with a tall
    # kernel, an odd sample count, an odd k-space grid
    "deconv-20x24-k5x3": ("problem = deconv\nheight = 20\nwidth = 24\nkernel_h = 5\n"
                          "kernel_w = 3\nseed = 11\nmax_iter = 20\n"),
    "classifier-37": "problem = classifier\ntrain_n = 37\nhidden = 5\nseed = 9\nmax_iter = 20\n",
    # more samples than one synthetic_digits block, and not a multiple of it
    "classifier-130": "problem = classifier\ntrain_n = 130\nhidden = 5\nseed = 3\nmax_iter = 20\n",
    "mri-21": "problem = mri\nn = 21\nmax_iter = 10\n",
    # a loose TV tolerance and an off-schedule TV budget: the prox calls above
    # all run their 400 inner iterations, these take both inner exits
    "deconv-tvtol": ("problem = deconv\nheight = 16\nwidth = 16\ntv_tol = 1e-4\n"
                     "tv_maxit = 73\nmax_iter = 20\n"),
    # the same for MRI's two image blocks, which share one TV
    "mri-tvtol": "problem = mri\nn = 16\ntv_tol = 1e-3\ntv_maxit = 73\nmax_iter = 15\n",
    # alpha1 = 0 puts the outer layer's conjugate at the tightest bound,
    # FEAS_TOL; the soft-max output is what prediction_rate reads from the state
    "classifier-alpha0-softmax": ("problem = classifier\ntrain_n = 40\nhidden = 6\n"
                                  "max_iter = 20\nalpha1 = 0\nactivation = soft-max\n"),
    # noisy data, and the discrepancy stop derived from its level
    "deconv-noisy-auto-eta": ("problem = deconv\nheight = 16\nwidth = 16\nsigma = 0.01\n"
                              "auto_eta = true\nmax_iter = 40\n"),
    # a smooth max with a shifted floor and a sharpness off the default
    "classifier-smoothmax-shifted": ("problem = classifier\ntrain_n = 60\nhidden = 8\n"
                                     "max_iter = 20\nactivation = smooth-max\n"
                                     "smooth_c = 0.25\nbeta = 3\n"),
    # the two choice values no config above sets
    "classifier-klsym": ("problem = classifier\ntrain_n = 60\nhidden = 8\nmax_iter = 20\n"
                         "loss = kl-sym\n"),
    "mri-fullmask": "problem = mri\nn = 16\nmax_iter = 15\nmask = full\n",
    # an even kernel, anchored at k // 2 in both dimensions
    "deconv-12x10-k4x2": ("problem = deconv\nheight = 12\nwidth = 10\nkernel_h = 4\n"
                          "kernel_w = 2\nseed = 5\nmax_iter = 20\n"),
}
SOLVERS = ("linbreg", "projected-gd", "proximal-gd")


def run_all(src: Path, extra_env: dict[str, str]) -> dict[str, bytes]:
    """Run every config under every solver; map each output path to its bytes.

    ``extra_env`` is added to the runs' environment; PYTHONPATH is always ``src``.
    """
    env = {**os.environ, **extra_env, "PYTHONPATH": str(src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in CONFIGS.items():
            for solver in SOLVERS:
                tag = f"{name}-{solver}"
                cfg = work / f"{tag}.cfg"
                cfg.write_text(text + f"solver = {solver}\n")
                subprocess.run([sys.executable, "-m", "linbreg", "run", str(cfg),
                                "--out", str(work / tag)],
                               env=env, check=True, stdout=subprocess.DEVNULL)
        return {path.relative_to(work).as_posix(): path.read_bytes()
                for path in sorted(p for p in work.rglob("*") if p.is_file())
                if path.suffix != ".cfg" and path.name != "summary.txt"}


def _relative_change(a: str, b: str) -> float:
    """|b - a| / max(|a|, |b|) of two differing cells; inf unless both are finite numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    scale = max(abs(x), abs(y))
    # equal numbers written differently, such as 0.0 and -0.0, change by 0
    return abs(y - x) / scale if scale else 0.0


def diff_csv(old: str, new: str) -> list[tuple[str, int, float]]:
    """(column, changed rows, largest relative change) for each column whose cells differ.

    Columns are matched by header name, rows by position; a cell missing on
    one side counts as changed, with an infinite relative change.
    """
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    old_head, new_head = old_rows[0], new_rows[0]
    columns = old_head + [c for c in new_head if c not in old_head]
    report = []
    for col in columns:
        i = old_head.index(col) if col in old_head else None
        j = new_head.index(col) if col in new_head else None
        changed, worst = 0, 0.0
        for r in range(1, max(len(old_rows), len(new_rows))):
            a = old_rows[r][i] if i is not None and r < len(old_rows) else None
            b = new_rows[r][j] if j is not None and r < len(new_rows) else None
            if a != b:
                changed += 1
                worst = max(worst, math.inf if a is None or b is None else _relative_change(a, b))
        if changed:
            report.append((col, changed, worst))
    return report


def diff_lines(old: str, new: str) -> list[str]:
    """The lines only one text has, as ``- line`` (old) and ``+ line`` (new), in order."""
    return [line for line in difflib.ndiff(old.splitlines(), new.splitlines())
            if line.startswith(("- ", "+ "))]


def report(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """The comparison of two ``run_all`` outputs, line by line, ending in ``k of N files changed``."""
    paths = sorted(old.keys() | new.keys())
    changed = [p for p in paths if old.get(p) != new.get(p)]
    lines = []
    snapshot_runs = set()
    for path in changed:
        run, _, name = path.partition("/")
        if name.startswith("snapshots/"):
            if run not in snapshot_runs:
                snapshot_runs.add(run)
                prefix = f"{run}/snapshots/"
                snaps = [p for p in paths if p.startswith(prefix)]
                moved = sum(old.get(p) != new.get(p) for p in snaps)
                lines.append(f"changed: {prefix} ({moved} of {len(snaps)} snapshot files)")
            continue
        lines.append(f"changed: {path}")
        if path not in old or path not in new:
            continue
        a, b = old[path].decode(), new[path].decode()
        if name == "log.csv":
            lines += [f"  column {col}: {rows} rows changed, largest relative change {worst:.3g}"
                      for col, rows, worst in diff_csv(a, b)]
        elif name == "config.resolved":
            lines += [f"  {line}" for line in diff_lines(a, b)]
    lines.append(f"{len(changed)} of {len(paths)} files changed")
    return lines


def env_assignment(text: str) -> tuple[str, str]:
    """``NAME=VALUE`` -> (NAME, VALUE); the value may be empty or hold ``=``."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that contains the linbreg package")
    parser.add_argument("new_src", type=Path, nargs="?",
                        help="a second such directory, compared file by file with src")
    for side, tree in (("old", "src"), ("new", "new_src")):
        parser.add_argument(f"--env-{side}", type=env_assignment, action="append", default=[],
                            metavar="NAME=VALUE",
                            help=f"set a variable in the runs of {tree} only (repeatable)")
    args = parser.parse_args(argv)
    if args.env_new and args.new_src is None:
        parser.error("--env-new needs a second directory")
    trees = [t for t in (args.src, args.new_src) if t is not None]
    for tree in trees:
        if not (tree / "linbreg" / "__init__.py").is_file():
            parser.error(f"{tree} has no linbreg package")
    envs = (dict(args.env_old), dict(args.env_new))
    outputs = [run_all(tree, env) for tree, env in zip(trees, envs)]
    if len(outputs) == 1:
        print("\n".join(f"{hashlib.sha256(data).hexdigest()}  {path}"
                        for path, data in outputs[0].items()))
        return 0
    old, new = outputs
    print("\n".join(report(old, new)))
    return 0 if old == new else 1


if __name__ == "__main__":
    raise SystemExit(main())
