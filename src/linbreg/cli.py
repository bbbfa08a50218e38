"""Command-line entry point.

    linbreg run <config> [--seed S] [--out DIR] [--max-iter N]
    linbreg check <config>
    linbreg grad-check <config> [--seed S]

``check`` parses the config and builds its instance, data files included,
without running it.  Exit codes: 0 on a normal stop, 2 on configuration
errors and on output errors (an output directory that cannot be created or
written), 3 on solver or numerical errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .exceptions import ConfigError, NumericsError
from .experiment import apply_overrides, build_experiment, parse_config, run_experiment
from .verify import finite_difference_gradient_check

GRAD_CHECK_TOL = 1e-4


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linbreg",
                                     description="Linearised Bregman iteration experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--max-iter", type=int, default=None)

    p_check = sub.add_parser("check", help="validate a config without running it")
    p_check.add_argument("config")

    p_grad = sub.add_parser("grad-check", help="finite-difference check of the problem gradient")
    p_grad.add_argument("config")
    p_grad.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = apply_overrides(parse_config(args.config), seed=getattr(args, "seed", None),
                              max_iter=getattr(args, "max_iter", None))
        if args.command == "check":
            build_experiment(cfg)
            print(f"ok: problem={cfg['problem']} solver={cfg['solver']} "
                  f"max_iter={cfg['max_iter']} seed={cfg['seed']}")
            return 0
        if args.command == "grad-check":
            built = build_experiment(cfg)
            rng = np.random.default_rng(cfg["seed"])
            point = built.u0 + 0.01 * rng.standard_normal(np.asarray(built.u0).shape)
            report = finite_difference_gradient_check(built.E, point, seed=cfg["seed"])
            print(f"max_rel_err = {report.max_rel_err:.3e} "
                  f"(worst coordinate {report.worst_coordinate}, step {report.step:.3e})")
            return 0 if report.max_rel_err <= GRAD_CHECK_TOL else 3
        out_dir = args.out or cfg["out"] or f"runs/{cfg['problem']}_seed{cfg['seed']}"
        log = run_experiment(cfg, out_dir)
        print(f"stopped: {log.stop_reason} after {log.iterations} iterations, "
              f"final energy {log.final_energy:.6e} -> {log.out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, np.linalg.LinAlgError) as exc:
        what = "grad-check failed" if args.command == "grad-check" else "solver error"
        print(f"{what}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
