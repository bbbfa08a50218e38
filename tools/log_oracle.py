"""Byte oracle for refactors: hash the outputs of 39 fixed CLI runs.

Runs thirteen configs under each of the three solvers (``linbreg``,
``projected-gd``, ``proximal-gd``) with the package found in a given source
directory, and prints ``sha256  path`` for every output file except
``summary.txt``, which records wall time.  Two source trees behave the same
on these runs exactly when their outputs are identical.  Given two source
directories, it runs both, names each file whose bytes differ, prints
``k of N files changed`` and exits 1 when k > 0:

    python tools/log_oracle.py src > hashes.txt
    python tools/log_oracle.py /path/to/other/checkout/src src

Uses the standard library only; each run is a ``python -m linbreg run``
subprocess.
"""

from __future__ import annotations

import argparse
import hashlib
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
    "mri-21": "problem = mri\nn = 21\nmax_iter = 10\n",
    # a loose TV tolerance and an off-schedule TV budget: the prox calls above
    # all run their 400 inner iterations, these take both inner exits
    "deconv-tvtol": ("problem = deconv\nheight = 16\nwidth = 16\ntv_tol = 1e-4\n"
                     "tv_maxit = 73\nmax_iter = 20\n"),
    # alpha1 = 0 puts the outer layer's conjugate at the tightest bound,
    # FEAS_TOL; the soft-max output is what prediction_rate reads from the state
    "classifier-alpha0-softmax": ("problem = classifier\ntrain_n = 40\nhidden = 6\n"
                                  "max_iter = 20\nalpha1 = 0\nactivation = soft-max\n"),
}
SOLVERS = ("linbreg", "projected-gd", "proximal-gd")


def run_all(src: Path) -> dict[str, str]:
    """Run every config under every solver; map each output path to its SHA-256."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
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
        return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(p for p in work.rglob("*") if p.is_file())
                if path.suffix != ".cfg" and path.name != "summary.txt"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that contains the linbreg package")
    parser.add_argument("new_src", type=Path, nargs="?",
                        help="a second such directory, compared file by file with src")
    args = parser.parse_args(argv)
    trees = [t for t in (args.src, args.new_src) if t is not None]
    for tree in trees:
        if not (tree / "linbreg" / "__init__.py").is_file():
            parser.error(f"{tree} has no linbreg package")
    hashes = [run_all(tree) for tree in trees]
    if len(hashes) == 1:
        print("\n".join(f"{digest}  {path}" for path, digest in hashes[0].items()))
        return 0
    old, new = hashes
    paths = sorted(old.keys() | new.keys())
    changed = [p for p in paths if old.get(p) != new.get(p)]
    for path in changed:
        print(f"changed: {path}")
    print(f"{len(changed)} of {len(paths)} files changed")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
