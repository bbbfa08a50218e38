"""Byte oracle for refactors: hash the outputs of 24 fixed CLI runs.

Runs eight configs under each of the three solvers (``linbreg``,
``projected-gd``, ``proximal-gd``) with the package found in a given source
directory, and prints ``sha256  path`` for every output file except
``summary.txt``, which records wall time.  Two source trees behave the same
on these runs exactly when their outputs are identical:

    python tools/log_oracle.py src > after.txt
    python tools/log_oracle.py /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

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
}
SOLVERS = ("linbreg", "projected-gd", "proximal-gd")


def run_all(src: Path, work: Path) -> list[str]:
    """Run every config under every solver into ``work``; return the hash lines."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, text in CONFIGS.items():
        for solver in SOLVERS:
            tag = f"{name}-{solver}"
            cfg = work / f"{tag}.cfg"
            cfg.write_text(text + f"solver = {solver}\n")
            subprocess.run([sys.executable, "-m", "linbreg", "run", str(cfg),
                            "--out", str(work / tag)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        if path.suffix == ".cfg" or path.name == "summary.txt":
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that contains the linbreg package")
    args = parser.parse_args(argv)
    if not (args.src / "linbreg" / "__init__.py").is_file():
        parser.error(f"{args.src} has no linbreg package")
    with tempfile.TemporaryDirectory() as tmp:
        lines = run_all(args.src, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
