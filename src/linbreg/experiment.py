"""Config-driven experiment runs with CSV monitor logs and iterate snapshots.

A configuration is a plain-text file of ``key = value`` lines; ``#`` starts a
comment that runs to the end of its line, so no value contains ``#``.  Unknown
keys are rejected with their line number.  Every run writes into its output
directory:

* ``log.csv``           one row per accepted iteration (fixed, versioned header)
* ``config.resolved``   every key the run used, defaults included
* ``summary.txt``       stop reason, iteration count, wall time, BLAS thread
                        setting, final metrics
* ``snapshots/``        iterates at the configured iterations (16-bit PGM with
                        a ``.range`` sidecar recording the affine pixel map,
                        or CSV for non-image variables)

Re-running a config with the same seed reproduces ``log.csv`` byte for byte at
a fixed BLAS thread count.  Across thread counts the classifier's energies
(matrix products) and monitors that reduce through BLAS over long vectors (a
classifier's ``r_norm`` over 12,704 entries, most monitors of large MRI runs)
can change in their last bits.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .exceptions import ConfigError
from .pdhg import PdhgConfig
from .problems.classify import (
    ACTIVATION_KINDS,
    LOSS_EPS,
    LOSS_KINDS,
    ClassifierObjective,
    init_weights,
    one_hot,
    synthetic_digits,
)
from .problems.deconv import BlindDeconvObjective, discrepancy_eta, make_synthetic_deconv
from .problems.mnist import load_digit_set
from .problems.mri import MASK_KINDS, ParallelMriObjective, make_synthetic_mri
from .problems.pgm import write_pgm
from .problems.quadratic import random_psd_quadratic
from .regularizers import (
    L1,
    NuclearNorm,
    SeparableSum,
    SimplexIndicator,
    TotalVariation2D,
    WeightedL1Dct,
    Zero,
)
from .solver import BacktrackingPolicy, StoppingRule, initial_state, run
from .tensor_ops import total_variation

LOG_FORMAT_VERSION = 1
BASE_COLUMNS = ["k", "tau", "energy", "surrogate", "iterate_gap", "breg_sym",
                "r_norm", "rho2_bound", "decrease_ok", "bound_ok"]
# recorded in summary.txt: log.csv's bytes can depend on the BLAS thread count
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

RANK_TOL = 1e-8


def rank_of(s: np.ndarray) -> int:
    """Numerical rank from singular values ``s`` in descending order, as
    ``np.linalg.svd(A, compute_uv=False)`` returns them: the number above
    RANK_TOL * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def prediction_rate(output: np.ndarray, Y: np.ndarray) -> float:
    """Fraction of columns whose output argmax matches the label argmax.

    Ties break toward the lowest index in both arguments.
    """
    return float(np.mean(np.argmax(output, axis=0) == np.argmax(Y, axis=0)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_finite(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _parse_int_list(s):
    return [int(tok) for tok in s.split(",") if tok.strip()]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"must be {what}")


def _choice(names):
    return lambda v, c: _require(v in names, f"one of {names}")


def _nonnegative(v, c):
    _require(v >= 0, "nonnegative")


def _at_least_1(v, c):
    _require(v >= 1, "at least 1")


# key -> (parser, default, problems it applies to (None = all), range check).
# A dict default is per problem.  The range check takes the value v and the
# resolved values c of the rows above it and raises ValueError; None means
# every parsed value is valid.
_KEYS = {
    "problem": (str, None, None,
                lambda v, c: _require(v in _BUILDERS, f"one of {tuple(_BUILDERS)}")),
    "solver": (str, "linbreg", None, _choice(("linbreg", "projected-gd", "proximal-gd"))),
    "tau0": (_parse_finite, {"deconv": 2.0, "mri": 0.5, "classifier": 1e-3, "quadratic": 1.0},
             None, lambda v, c: BacktrackingPolicy(tau0=v)),
    # float, not _parse_finite: inf turns backtracking off (a fixed stepsize)
    "eps_decrease": (float, None, None,
                     lambda v, c: BacktrackingPolicy(tau0=1.0, eps_decrease=v)),
    "max_iter": (int, 100, None, lambda v, c: StoppingRule(max_iter=v)),
    # a quadratic's energy can be negative; the other energies cannot
    "discrepancy_eta": (_parse_finite, None, None,
                        lambda v, c: _require(v >= 0 or c["problem"] == "quadratic",
                                              "nonnegative for deconv, mri and classifier")),
    "iterate_gap_tol": (_parse_finite, None, None, _nonnegative),
    "seed": (int, 0, None, _nonnegative),
    "out": (str, "", None, None),
    "snapshots": (_parse_int_list, [], None,
                  lambda v, c: _require(all(k >= 1 for k in v), "iterations of at least 1")),
    # the image's TV weight
    "alpha": (_parse_finite, {"deconv": 0.05, "mri": 1.0}, ("deconv", "mri"), _nonnegative),
    "tv_tol": (_parse_finite, PdhgConfig.tol, ("deconv", "mri"), _nonnegative),
    "tv_maxit": (int, PdhgConfig.maxit, ("deconv", "mri"), lambda v, c: PdhgConfig(maxit=v)),
    # deconv
    "height": (int, 32, ("deconv",), _at_least_1),
    "width": (int, 32, ("deconv",), _at_least_1),
    "kernel_h": (int, 3, ("deconv",),
                 lambda v, c: _require(1 <= v <= c["height"], "between 1 and height")),
    "kernel_w": (int, 5, ("deconv",),
                 lambda v, c: _require(1 <= v <= c["width"], "between 1 and width")),
    "sigma": (_parse_finite, 0.0, ("deconv",), _nonnegative),
    "auto_eta": (_parse_bool, False, ("deconv",), None),
    # when false (the motivating iteration), the kernel takes plain projected
    # steps while the image keeps its Bregman memory
    "kernel_memory": (_parse_bool, False, ("deconv",), None),
    # mri; the phantom and mask need an image side of at least 2
    "n": (int, 32, ("mri", "quadratic"),
          lambda v, c: _require(v >= (2 if c["problem"] == "mri" else 1),
                                "at least 2 for mri and 1 for quadratic")),
    "coils": (int, 2, ("mri",), _at_least_1),
    "mask": (str, "spiral", ("mri",), _choice(MASK_KINDS)),
    "mask_p": (_parse_finite, 0.5, ("mri",),
               lambda v, c: _require(0 <= v <= 1, "between 0 and 1")),
    "epsilon": (_parse_finite, float(np.finfo(float).eps), ("mri", "classifier"), _nonnegative),
    "alpha_b": (_parse_finite, 1.0, ("mri",), _nonnegative),
    "w_low": (_parse_finite, 1e-6, ("mri",), _nonnegative),
    "w_high": (_parse_finite, 5.0, ("mri",), _nonnegative),
    # classifier
    "train_n": (int, 500, ("classifier",), _at_least_1),
    "hidden": (int, 20, ("classifier",), _at_least_1),
    "activation": (str, "rectifier", ("classifier",), _choice(ACTIVATION_KINDS)),
    "beta": (_parse_finite, 5.0, ("classifier",), lambda v, c: _require(v > 0, "positive")),
    "smooth_c": (_parse_finite, 0.0, ("classifier",), None),
    "loss": (str, "frobenius", ("classifier",), _choice(LOSS_KINDS)),
    # the shifted KL losses take logarithms of X + loss_eps and Y + loss_eps
    "loss_eps": (_parse_finite, LOSS_EPS, ("classifier",),
                 lambda v, c: _require(v > 0 or c["loss"] == "frobenius",
                                       "positive for the kl losses")),
    "alpha1": (_parse_finite, 0.2, ("classifier",), _nonnegative),
    "alpha2": (_parse_finite, 0.2, ("classifier",), _nonnegative),
    "data_labels": (str, "", ("classifier",), None),
    # one file without the other would silently train on synthetic digits
    "data_images": (str, "", ("classifier",),
                    lambda v, c: _require(bool(v) == bool(c["data_labels"]),
                                          "given together with 'data_labels'")),
    # quadratic toy
    "l_const": (_parse_finite, 1.0, ("quadratic",), _nonnegative),
    "reg": (str, "l1", ("quadratic",), _choice(("l1", "none"))),
    "reg_alpha": (_parse_finite, 0.1, ("quadratic",), _nonnegative),
}


def _resolve(given: dict, source: str) -> dict:
    """Every key that applies to the problem: its given value or default, range-checked.

    Rows are resolved in table order, so a range check reads the rows above it.
    """
    if "problem" not in given:
        raise ConfigError(f"{source}: missing required key 'problem'")
    values = {}
    for key, (parser, default, scope, check) in _KEYS.items():
        if scope is not None and values["problem"] not in scope:
            if key in given:
                raise ConfigError(f"{source}: key {key!r} does not apply to problem "
                                  f"{values['problem']!r}")
            continue
        v = given.get(key, default)
        if isinstance(v, dict):
            v = v[values["problem"]]
        if v is not None and check is not None:
            try:
                check(v, values)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        values[key] = v
    return values


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; ``values`` holds every applicable key."""

    values: dict
    source: str = "<memory>"

    def __getitem__(self, key):
        return self.values[key]


def parse_config(path) -> ExperimentConfig:
    """Parse and resolve a key-value config file; raises ConfigError with line numbers."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                          f"at offset {exc.start}") from exc
    return parse_config_text(text, source=str(path))


def parse_config_text(text: str, source: str = "<memory>") -> ExperimentConfig:
    given = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        parser = _KEYS[key][0]
        try:
            given[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(values=_resolve(given, source), source=source)


def apply_overrides(cfg: ExperimentConfig, seed=None, max_iter=None) -> ExperimentConfig:
    values = dict(cfg.values)
    if seed is not None:
        values["seed"] = int(seed)
    if max_iter is not None:
        values["max_iter"] = int(max_iter)
    return ExperimentConfig(values=_resolve(values, cfg.source), source=cfg.source)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

@dataclass
class _Built:
    E: object
    R: object
    # Bregman function of the projected-gd baseline: the feasible set's indicator
    constraint: object
    u0: np.ndarray
    extra_columns: list
    extras_fn: object
    snapshot_fn: object


def _image_part(cfg: ExperimentConfig, shape):
    """TV with weight ``alpha`` on an image block, or Zero when alpha is 0."""
    if cfg["alpha"] > 0:
        tv_cfg = PdhgConfig(tol=cfg["tv_tol"], maxit=cfg["tv_maxit"])
        return TotalVariation2D(cfg["alpha"], shape, config=tv_cfg)
    return Zero()


def _image_hooks(image_of):
    """The ``tv_value`` column, its extras hook and PGM snapshots of the image ``image_of(st)``."""

    def extras_fn(st):
        return {"tv_value": total_variation(image_of(st))}

    def snapshot_fn(st, directory: Path):
        _write_image_snapshot(directory / f"iter_{st.k}.pgm", image_of(st))

    return ["tv_value"], extras_fn, snapshot_fn


def _build_deconv(cfg: ExperimentConfig) -> _Built:
    H, W = cfg["height"], cfg["width"]
    prob = make_synthetic_deconv(cfg["seed"], H, W,
                                 kernel_shape=(cfg["kernel_h"], cfg["kernel_w"]),
                                 sigma=cfg["sigma"])
    E = BlindDeconvObjective(prob.f, prob.kernel_shape)
    n_image, n_kernel = E.sizes
    R = SeparableSum([
        (_image_part(cfg, (H, W)), n_image),
        (SimplexIndicator(), n_kernel, cfg["kernel_memory"]),
    ])
    constraint = SeparableSum([(Zero(), n_image), (SimplexIndicator(), n_kernel)])
    u0 = E.pack([np.zeros((H, W)), np.full(prob.kernel_shape, 1.0 / n_kernel)])
    return _Built(E, R, constraint, u0, *_image_hooks(lambda st: E.split(st.u)[0]))


def _build_mri(cfg: ExperimentConfig) -> _Built:
    N = cfg["n"]
    prob = make_synthetic_mri(cfg["seed"], N, coils=cfg["coils"],
                              mask_kind=cfg["mask"], p=cfg["mask_p"],
                              eps=cfg["epsilon"])
    E = ParallelMriObjective(prob.data, prob.mask, prob.eps)
    w = np.full((N, N), cfg["w_high"])
    w[:2, :2] = cfg["w_low"]
    tv = _image_part(cfg, (N, N))
    dct = WeightedL1Dct(cfg["alpha_b"], w, (N, N))
    # real and imaginary parts of u, then of each coil map
    R = SeparableSum(list(zip([tv] * 2 + [dct] * (2 * cfg["coils"]), E.sizes)))
    u0 = E.pack([np.full((N, N), 2.0 + 0.0j)]
                + [np.ones((N, N), dtype=np.complex128) for _ in range(cfg["coils"])])
    return _Built(E, R, Zero(), u0, *_image_hooks(lambda st: np.abs(E.split(st.u)[0])))


def _build_classifier(cfg: ExperimentConfig) -> _Built:
    if cfg["data_images"]:
        try:
            D, labels = load_digit_set(cfg["data_images"], cfg["data_labels"],
                                       limit=cfg["train_n"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{cfg.source}: cannot load 'data_images' and 'data_labels': "
                              f"{exc}") from exc
        if D.shape[1] < cfg["train_n"]:
            raise ConfigError(f"{cfg.source}: 'train_n' = {cfg['train_n']} but 'data_images' "
                              f"holds only {D.shape[1]} samples")
        bad = np.flatnonzero(labels > 9)
        if bad.size:
            raise ConfigError(f"{cfg.source}: 'data_labels' holds label {labels[bad[0]]} at "
                              f"index {bad[0]}; digit labels are 0-9")
    else:
        D, labels = synthetic_digits(cfg["seed"], cfg["train_n"])
    Y = one_hot(labels)
    shapes = [(10, cfg["hidden"]), (cfg["hidden"], D.shape[0])]
    E = ClassifierObjective(D, Y, shapes, activation_kind=cfg["activation"], beta=cfg["beta"],
                            smooth_c=cfg["smooth_c"], loss_kind=cfg["loss"],
                            loss_eps=cfg["loss_eps"], eps=cfg["epsilon"])
    nuclear = [NuclearNorm(a, shape) for shape, a in zip(shapes, [cfg["alpha1"], cfg["alpha2"]])]
    R = SeparableSum(list(zip(nuclear, E.sizes)))
    u0 = E.pack(init_weights(shapes, cfg["seed"]))
    extra_cols = [f"rank_A{j + 1}" for j in range(len(shapes))] + ["prediction_rate"]

    def extras_fn(st):
        # read from the state's facts: R(u) stored each layer's singular
        # values there, E the network output
        As = E.split(st.u)
        out = {f"rank_A{j + 1}": rank_of(Rj.singular_values(A, R.block_facts(st.facts, j)))
               for j, (Rj, A) in enumerate(zip(nuclear, As))}
        out["prediction_rate"] = prediction_rate(st.facts["output"], Y)
        return out

    def snapshot_fn(st, directory: Path):
        for j, A in enumerate(E.split(st.u)):
            np.savetxt(directory / f"iter_{st.k}_A{j + 1}.csv", A, delimiter=",")

    return _Built(E, R, Zero(), u0, extra_cols, extras_fn, snapshot_fn)


def _build_quadratic(cfg: ExperimentConfig) -> _Built:
    E = random_psd_quadratic(cfg["seed"], cfg["n"], L=cfg["l_const"])
    R = L1(cfg["reg_alpha"]) if cfg["reg"] == "l1" else Zero()
    u0 = np.zeros(cfg["n"])

    def snapshot_fn(st, directory: Path):
        np.savetxt(directory / f"iter_{st.k}.csv", st.u, delimiter=",")

    return _Built(E, R, Zero(), u0, [], lambda st: {}, snapshot_fn)


_BUILDERS = {
    "deconv": _build_deconv,
    "mri": _build_mri,
    "classifier": _build_classifier,
    "quadratic": _build_quadratic,
}


def build_experiment(cfg: ExperimentConfig) -> _Built:
    return _BUILDERS[cfg["problem"]](cfg)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_image_snapshot(path: Path, image: np.ndarray) -> None:
    """16-bit PGM with the affine map to [0, 65535] recorded in a sidecar file."""
    lo = float(np.min(image))
    hi = float(np.max(image))
    span = hi - lo if hi > lo else 1.0
    pixels = np.round((image - lo) / span * 65535.0).astype(np.int64)
    write_pgm(path, pixels, maxval=65535)
    Path(str(path) + ".range").write_text(f"min = {lo!r}\nmax = {hi!r}\n")


@dataclass
class RunLog:
    """Everything a finished experiment produced."""

    records: list
    stop_reason: str
    iterations: int
    wall_time: float
    final_energy: float
    out_dir: Path
    final_extras: dict = field(default_factory=dict)


def write_log_csv(path, records, extra_columns) -> None:
    cols = BASE_COLUMNS + list(extra_columns)
    lines = [",".join(cols)]
    for rec in records:
        row = [_fmt(getattr(rec, c)) for c in BASE_COLUMNS]
        row += [_fmt(rec.extras.get(c, float("nan"))) for c in extra_columns]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _outermost_missing(path: Path):
    """The outermost of ``path`` and its parents that does not exist yet, or None."""
    return next((p for p in reversed((path, *path.parents)) if not p.exists()), None)


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunLog:
    """Execute a resolved config and write log, snapshots, summary and resolved config.

    A run that raises removes the directories it created, and nothing else.
    """
    built = build_experiment(cfg)
    st0 = initial_state(built.E, built.R, built.u0, cfg["tau0"])
    out = Path(out_dir)
    snap_dir = out / "snapshots"
    snaps = set(cfg["snapshots"])
    created = _outermost_missing(snap_dir if snaps else out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if snaps:
            snap_dir.mkdir(exist_ok=True)
        return _run_into(cfg, built, st0, out, snap_dir, snaps)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _run_into(cfg, built, st0, out: Path, snap_dir: Path, snaps: set) -> RunLog:
    policy = BacktrackingPolicy(tau0=cfg["tau0"], eps_decrease=cfg["eps_decrease"])
    eta = cfg["discrepancy_eta"]
    if cfg["problem"] == "deconv" and cfg["auto_eta"] and eta is None:
        eta = discrepancy_eta(cfg["sigma"], cfg["height"], cfg["width"])
    stop = StoppingRule(max_iter=cfg["max_iter"], discrepancy_eta=eta,
                        iterate_gap_tol=cfg["iterate_gap_tol"])

    def extras_fn(st):
        if st.k in snaps:
            built.snapshot_fn(st, snap_dir)
        return built.extras_fn(st)

    # the baselines are the same step without the Bregman memory q
    R = built.constraint if cfg["solver"] == "projected-gd" else built.R
    if cfg["solver"] != "linbreg":
        st0 = replace(st0, q=None)
    t0 = time.perf_counter()
    result = run(built.E, R, st0, policy, stop, extras_fn=extras_fn)
    wall = time.perf_counter() - t0

    write_log_csv(out / "log.csv", result.records, built.extra_columns)

    resolved = [f"{k} = {_fmt(v) if not isinstance(v, list) else ','.join(map(str, v))}"
                for k, v in sorted(cfg.values.items())]
    (out / "config.resolved").write_text("\n".join(resolved) + "\n")

    final_extras = result.records[-1].extras if result.records else {}
    summary = [
        f"log_format = {LOG_FORMAT_VERSION}",
        f"stop_reason = {result.stop_reason}",
        f"iterations = {len(result.records)}",
        f"wall_time_s = {wall:.3f}",
        "blas_threads = " + " ".join(f"{v}={os.environ.get(v, 'unset')}"
                                     for v in BLAS_THREAD_VARS),
        f"final_energy = {_fmt(result.state.energy)}",
    ] + [f"final_{k} = {_fmt(v)}" for k, v in final_extras.items()]
    (out / "summary.txt").write_text("\n".join(summary) + "\n")

    return RunLog(records=result.records, stop_reason=result.stop_reason,
                  iterations=len(result.records), wall_time=wall,
                  final_energy=result.state.energy, out_dir=out,
                  final_extras=final_extras)
