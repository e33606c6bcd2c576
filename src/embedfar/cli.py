"""Command-line driver for far-field embedding experiments.

Subcommands reproduce the standard experiment layouts at desk scale:
single-incidence error sweeps, full (theta, alpha) far-field grids,
oversampling/regularization studies on degenerate canonical angle sets,
and input/output error tables over mesh refinements.  All outputs are
plain CSV with a metadata comment block; identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .bem import (
    DEFAULT_CORNER_LAYERS,
    DEFAULT_GRADING_RATIO,
    EmptyMesh,
    MAX_WAVENUMBER,
    SingularSystem,
    build_system as build_bem_system,
)
from .coefficients import (
    DEFAULT_DELTA,
    DEFAULT_STRATEGY,
    MAX_CANONICAL_COUNT,
    NoConvergence,
    SingularSubmatrix,
    ZeroColumnEncountered,
    build_system as build_coefficient_system,
    canonical_angles,
    coefficients_for,  # unused here; perfbench/layers.py traces it by this name
    default_oversampling,
)
from .embedding import (
    DEFAULT_CLUSTER_THRESHOLD,
    DEFAULT_CONTOUR_ORDER,
    DEFAULT_NEAR_THRESHOLD,
    DoublePoleInSimpleBranch,
    EmbeddingBasis,
    PoleOnContour,
    StabilizedEvaluator,
    cluster_threshold_range,
    lambda_weight,
    naive_eval,
    pole_environment,
)
from .geometry import (
    PRESET_NAMES,
    load_geometry_file,
    preset_shape,
)
from .specialfun import MAX_RULE_SIZE

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_FAILURES = (
    SingularSystem,
    EmptyMesh,
    NoConvergence,
    ZeroColumnEncountered,
    SingularSubmatrix,
    PoleOnContour,
    DoublePoleInSimpleBranch,
    ZeroDivisionError,  # also embedding.PoleAtTheta
)

_ERROR_GRID_SIZE = 1000  # equispaced points behind every reported sup norm
_SPOT_CHECK_COLUMNS = 5
_REFERENCE_REFINEMENT = 4.0  # elements-per-wavelength factor, "refine twice"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    shape: str = "square"
    geometry_file: str | None = None
    k: float = 5.0
    alpha: float | None = None
    strategy: str = DEFAULT_STRATEGY
    delta: float = DEFAULT_DELTA
    mtilde: int | None = None
    big_h: float = DEFAULT_NEAR_THRESHOLD
    small_h: float = DEFAULT_CLUSTER_THRESHOLD
    contour_order: int = DEFAULT_CONTOUR_ORDER
    n_theta: int = 1000
    n_alpha: int = 200
    out: str | None = None
    seed: int = 0
    elements_per_wavelength: float = 8.0
    grading: float = DEFAULT_GRADING_RATIO
    grading_layers: int = DEFAULT_CORNER_LAYERS

    def validate(self):
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.geometry_file is None and self.shape not in PRESET_NAMES:
            raise ConfigError(
                f"unknown shape {self.shape!r}; presets: {sorted(PRESET_NAMES)}"
            )
        if not (0.0 < self.k <= MAX_WAVENUMBER):
            raise ConfigError(f"k must lie in (0, {MAX_WAVENUMBER}]")
        if self.strategy not in ("one", "two"):
            raise ConfigError("strategy must be 'one' or 'two' (1 or 2)")
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")
        if self.strategy == "one" and self.delta == 0:
            raise ConfigError("strategy one needs a positive delta")
        if self.mtilde is not None and self.mtilde < 1:
            raise ConfigError("mtilde must be a positive integer")
        if not (0.0 < self.small_h < self.big_h):
            raise ConfigError("thresholds must satisfy 0 < small_h < big_h")
        if not 2 <= self.contour_order <= MAX_RULE_SIZE:
            raise ConfigError(f"contour order must lie in [2, {MAX_RULE_SIZE}]")
        if self.n_theta < 1 or self.n_alpha < 1:
            raise ConfigError("grid sizes must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.elements_per_wavelength < 2.0:
            raise ConfigError("elements_per_wavelength must be at least 2")
        if not (0.0 < self.grading < 1.0):
            raise ConfigError("grading must lie in (0, 1)")
        if self.grading_layers < 1:
            raise ConfigError("grading_layers must be positive")
        if self.out is not None and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"directory of out {self.out!r} does not exist")
        return self


# config-file keys, including dotted aliases for solver parameters
_CONFIG_KEYS = {f.name: f.name for f in fields(ExperimentConfig)}
_CONFIG_KEYS.update(
    {
        "bem.elements_per_wavelength": "elements_per_wavelength",
        "bem.grading": "grading",
        "bem.layers": "grading_layers",
        "embedding.big_h": "big_h",
        "embedding.small_h": "small_h",
        "embedding.contour_order": "contour_order",
    }
)


def _value_type(hint):
    """The value type of a field annotation, with `X | None` unwrapped."""
    return next(
        (t for t in typing.get_args(hint) if t is not type(None)), hint
    )


_FIELD_TYPES = {
    name: _value_type(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}
# real-valued fields, which validate() requires to be finite
_REAL_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind is float)


def parse_config_file(path):
    """Flat `key = value` format; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _CONFIG_KEYS[key]
        try:
            values[name] = _coerce(name, text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _coerce(name, text):
    kind = _FIELD_TYPES[name]
    if name == "strategy":
        return _normalize_strategy(text)
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def _normalize_strategy(text):
    mapping = {"1": "one", "2": "two", "one": "one", "two": "two"}
    try:
        return mapping[str(text).strip().lower()]
    except KeyError:
        raise ValueError(f"strategy must be 1 or 2, got {text!r}") from None


def load_config(args, command_defaults=None):
    """Merge defaults, config file, and command-line overrides.

    Precedence, lowest first: dataclass defaults, per-command defaults,
    config file, explicit flags.
    """
    values = dict(command_defaults or {})
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    config = ExperimentConfig(**values)
    return config.validate()


# pipeline ---------------------------------------------------------------


@dataclass
class Pipeline:
    """Everything needed to evaluate the embedded far-field map."""

    config: ExperimentConfig
    shape: object
    system: object
    matrix: object
    evaluator: StabilizedEvaluator

    @property
    def angles(self):
        return self.matrix.basis.angles

    @property
    def far_fields(self):
        """Stacked bem.FarField, one column per canonical angle."""
        return self.matrix.basis.far_fields


def load_shape(config):
    if config.geometry_file is not None:
        try:
            return load_geometry_file(config.geometry_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot load geometry file {config.geometry_file}: {exc}"
            ) from exc
    return preset_shape(config.shape)


def _bem_system(config, shape, refinement=1.0):
    """Boundary-element system for config's mesh settings, with the
    elements per wavelength scaled by refinement."""
    return build_bem_system(
        shape,
        config.k,
        elements_per_wavelength=config.elements_per_wavelength * refinement,
        grading_ratio=config.grading,
        corner_layers=config.grading_layers,
    )


def _canonical_count(config, shape):
    """config's canonical angle count M~ for shape: --mtilde, or by
    default 3/2 times the coefficient count M, never below M and never
    above coefficients.MAX_CANONICAL_COUNT."""
    mtilde = config.mtilde or default_oversampling(shape.m)
    if mtilde < shape.m:
        raise ConfigError(
            f"mtilde {mtilde} is below the coefficient count M = {shape.m}"
        )
    if mtilde > MAX_CANONICAL_COUNT:
        raise ConfigError(
            f"mtilde {mtilde} exceeds {MAX_CANONICAL_COUNT}, the largest "
            "canonical angle count: the M~ x M~ canonical matrix and its SVD "
            "grow as M~^2 in memory and M~^3 in time"
        )
    return mtilde


def _check_cluster_threshold(config, shape):
    """small_h within embedding.cluster_threshold_range for shape's p:
    outside it a contour meets its guard, or loses accuracy to a zero
    beside it, only after every solve."""
    least, greatest = cluster_threshold_range(shape.p)
    if not least <= config.small_h <= greatest:
        raise ConfigError(
            f"small_h {config.small_h:g} lies outside [{least:.3g}, "
            f"{greatest:.3g}], the admissible cluster thresholds for "
            f"p = {shape.p}"
        )


def build_pipeline(config, canonical=None):
    shape = load_shape(config)
    _check_cluster_threshold(config, shape)
    if canonical is None:
        canonical = canonical_angles(_canonical_count(config, shape))
    system = _bem_system(config, shape)
    basis = EmbeddingBasis(
        p=shape.p, angles=canonical, far_fields=system.solve_far_fields(canonical)
    )
    matrix = build_coefficient_system(basis, shape.m)
    return Pipeline(
        config=config,
        shape=shape,
        system=system,
        matrix=matrix,
        evaluator=make_evaluator(matrix, config),
    )


def make_evaluator(matrix, config):
    """Stabilized evaluator on the canonical system's basis with the
    operator of config's strategy and delta, built on the first
    evaluation, so a rank-deficient system raises there."""
    return matrix.evaluator(
        config.strategy,
        config.delta,
        near_threshold=config.big_h,
        cluster_threshold=config.small_h,
        contour_order=config.contour_order,
    )


def reference_system(pipeline):
    """Same solver with the mesh refined twice."""
    return _bem_system(pipeline.config, pipeline.shape, _REFERENCE_REFINEMENT)


def relative_error(values, reference, axis=None):
    """Relative sup-norm error of values against reference.

    With axis=None one global reference peak scales every entry; with
    axis=0 each column is scaled by its own peak and the worst column
    counts.  NaN anywhere in values gives NaN.
    """
    defect = np.max(np.abs(values - reference), axis=axis)
    return float(np.max(defect / np.max(np.abs(reference), axis=axis)))


def sweep_columns(evaluator, thetas, alphas):
    """Stabilized values on a (theta, alpha) grid, one sweep per column."""
    return np.stack(
        [evaluator.evaluate_sweep(thetas, float(a))[0] for a in alphas], axis=1
    )


def _circle_grid(n):
    """n equispaced angles on [0, 2 pi)."""
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def input_error(pipeline, ref_system, n=_ERROR_GRID_SIZE):
    """Largest relative sup-norm defect of the canonical solves."""
    thetas = _circle_grid(n)
    return relative_error(
        pipeline.far_fields.value(thetas),
        ref_system.solve_far_fields(pipeline.angles).value(thetas),
    )


def output_error(pipeline, ref_system, alphas, n=_ERROR_GRID_SIZE, axis=0):
    """Relative sup-norm error of the embedded far field at the incidences
    alphas over n equispaced observation angles.  With axis=0 each
    incidence is normalized by its own reference peak and the worst
    counts; with axis=None one global reference peak scales the grid."""
    thetas = _circle_grid(n)
    alphas = np.atleast_1d(alphas)
    return relative_error(
        sweep_columns(pipeline.evaluator, thetas, alphas),
        ref_system.solve_far_fields(alphas).value(thetas),
        axis=axis,
    )


def naive_error_curve(basis, b, alpha, thetas, ref_values, scale):
    """Relative error of the naive quotient with coefficients b, +inf
    exactly on the poles."""
    ok = np.abs(lambda_weight(thetas, alpha, basis.p)) > 1e-12
    err = np.full(len(thetas), np.inf)
    err[ok] = np.abs(naive_eval(basis, b, thetas[ok], alpha) - ref_values[ok]) / scale
    return err


def _report_lines(pipeline, ref, e_out, coefficient_norm, start):
    """Run summary of sweep and grid: errors, conditioning, branch counts
    and the wall time since start."""
    e_in = input_error(pipeline, ref)
    ratio = e_out / e_in if e_in > 0 else math.inf
    counts = ", ".join(
        f"{name}={count}"
        for name, count in sorted(pipeline.evaluator.branch_counts.items())
    )
    return [
        f"input error   {e_in:.3e}",
        f"output error  {e_out:.3e}  (ratio {ratio:.3e})",
        f"cond(A)       {pipeline.matrix.condition_number:.3e}",
        f"|b|_2         {coefficient_norm:.3e}",
        f"branches      {counts}",
        f"wall time     {time.perf_counter() - start:.1f} s",
    ]


# CSV output -------------------------------------------------------------


def _fmt(value):
    # floats first: they are nearly every cell, and repr already spells
    # nan, inf and -inf
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return "nan"
    if math.isinf(number):
        return "inf" if number > 0 else "-inf"
    return repr(number)


def write_csv(path, command, config, header, rows, extra_metadata=None):
    lines = [
        f"# generator = embedfar {__version__}",
        f"# command = {command}",
        "# timestamp = omitted for reproducibility",
    ]
    for cfg_field in fields(config):
        lines.append(f"# config.{cfg_field.name} = {getattr(config, cfg_field.name)}")
    for key, value in (extra_metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _print_report(lines, out_paths):
    for line in lines + [f"wrote {path}" for path in out_paths]:
        print(line)


# subcommands ------------------------------------------------------------


def cmd_sweep(config):
    start = time.perf_counter()
    alpha = config.alpha if config.alpha is not None else 5.0 * math.pi / 4.0
    pipeline = build_pipeline(config)
    ref = reference_system(pipeline)

    thetas = _circle_grid(config.n_theta)
    ref_values = ref.solve_far_fields([alpha])[0].value(thetas)
    scale = float(np.max(np.abs(ref_values)))
    values, labels = pipeline.evaluator.evaluate_sweep(thetas, alpha)
    stabilized = np.abs(values - ref_values) / scale
    b = pipeline.evaluator.coefficients(alpha)
    naive = naive_error_curve(
        pipeline.matrix.basis, b, alpha, thetas, ref_values, scale
    )

    rows = [
        (thetas[i], naive[i], stabilized[i], labels[i])
        for i in range(len(thetas))
    ]
    out = config.out or "sweep.csv"
    write_csv(
        out,
        "sweep",
        config,
        ["theta", "naive_rel_error", "stabilized_rel_error", "branch"],
        rows,
        extra_metadata={"alpha": alpha, "boundary_elements": len(pipeline.system.mesh.lengths)},
    )
    _print_report(
        _report_lines(
            pipeline, ref, float(np.max(stabilized)), float(np.linalg.norm(b)), start
        ),
        [out],
    )
    return EXIT_OK


def cmd_grid(config):
    start = time.perf_counter()
    pipeline = build_pipeline(config)
    thetas = _circle_grid(config.n_theta)
    alphas = _circle_grid(config.n_alpha)

    grid = sweep_columns(pipeline.evaluator, thetas, alphas)
    # canonical columns come straight from the stored canonical solves
    for m, alpha_m in enumerate(pipeline.angles):
        hits = np.nonzero(np.abs(alphas - alpha_m) <= 1e-12)[0]
        for j in hits:
            grid[:, j] = pipeline.far_fields[m].value(thetas)

    with np.errstate(divide="ignore"):
        log_grid = np.log10(np.abs(grid))
    header = ["theta"] + [f"alpha={_fmt(a)}" for a in alphas]
    rows = [
        [thetas[i]] + list(log_grid[i, :]) for i in range(config.n_theta)
    ]
    out = config.out or "grid.csv"
    write_csv(out, "grid", config, header, rows)

    # spot-check columns against direct refined solves
    rng = np.random.default_rng(config.seed)
    picks = np.sort(
        rng.choice(config.n_alpha, min(_SPOT_CHECK_COLUMNS, config.n_alpha), replace=False)
    )
    ref = reference_system(pipeline)
    err_header = ["theta"] + [f"relerr_alpha={_fmt(alphas[j])}" for j in picks]
    ref_values = ref.solve_far_fields(alphas[picks]).value(thetas)
    err = np.abs(grid[:, picks] - ref_values) / np.max(np.abs(ref_values), axis=0)
    err_rows = [[thetas[i]] + list(err[i]) for i in range(config.n_theta)]
    err_out = _with_suffix(out, ".errors.csv")
    write_csv(
        err_out,
        "grid",
        config,
        err_header,
        err_rows,
        extra_metadata={"spot_check_columns": " ".join(str(j) for j in picks)},
    )
    bnorm = np.median(
        [np.linalg.norm(pipeline.evaluator.coefficients(a)) for a in alphas[picks]]
    )
    _print_report(
        _report_lines(pipeline, ref, float(np.max(err)), float(bnorm), start),
        [out, err_out],
    )
    return EXIT_OK


def _with_suffix(path, suffix):
    return (path[:-4] if path.endswith(".csv") else path) + suffix


_SCREEN_BASE_ANGLES = [math.pi / 2.0, 3.0 * math.pi / 2.0]
_SCREEN_EXTRA_ANGLES = [
    math.pi,
    0.0,
    math.pi / 4.0,
    3.0 * math.pi / 4.0,
    5.0 * math.pi / 4.0,
    7.0 * math.pi / 4.0,
]
_TRIANGLE_OFFSETS = [math.pi / 24.0, math.pi / 48.0, math.pi / 96.0, 1e-3]


def _screen_angles(mtilde):
    if mtilde < 2:
        raise ConfigError("screen study needs mtilde >= 2")
    if mtilde - 2 > len(_SCREEN_EXTRA_ANGLES):
        raise ConfigError(
            f"screen study supports mtilde <= {2 + len(_SCREEN_EXTRA_ANGLES)}"
        )
    return np.asarray(_SCREEN_BASE_ANGLES + _SCREEN_EXTRA_ANGLES[: mtilde - 2])


def _trial_error(base, config, ref, alphas):
    """Output error and coefficient norm for config's solve strategy on
    base's canonical system."""
    trial = replace(base, evaluator=make_evaluator(base.matrix, config))
    worst = output_error(trial, ref, alphas)
    b = trial.evaluator.coefficients(alphas[0])
    return worst, float(np.linalg.norm(b))


def cmd_oversampling_study(config, mtilde_list, delta_list):
    start = time.perf_counter()
    rows = []
    header = [
        "part",
        "shape",
        "k",
        "mtilde",
        "strategy",
        "delta",
        "a",
        "e_in",
        "e_out",
        "coefficient_norm",
        "cond",
        "status",
    ]
    rng = np.random.default_rng(config.seed)
    test_alphas = rng.uniform(0.0, 2.0 * np.pi, 3)
    trials = [
        replace(config, strategy=strategy, delta=delta).validate()
        for strategy, delta in [("two", config.delta)]
        + [("one", d) for d in delta_list]
    ]
    tri_m = preset_shape("equilateral").m
    # degenerate screen angle sets around {pi/2, 3pi/2}, then
    # near-degenerate equilateral-triangle angle sets a + (m-1) pi/6
    studies = [
        ("screen", "screen", 20.0,
         [(None, _screen_angles(mtilde)) for mtilde in mtilde_list]),
        ("triangle", "equilateral", 10.0,
         [(a, np.mod(a + np.arange(tri_m) * math.pi / 6.0, 2.0 * math.pi))
          for a in _TRIANGLE_OFFSETS]),
    ]
    for _, shape_name, _, _ in studies:
        _check_cluster_threshold(config, preset_shape(shape_name))
    for part, shape_name, k, angle_sets in studies:
        study_config = replace(config, shape=shape_name, geometry_file=None, k=k)
        ref = None
        for offset, angles in angle_sets:
            base = build_pipeline(study_config, canonical=angles)
            if ref is None:
                ref = reference_system(base)
            e_in = input_error(base, ref)
            # below np.linalg.matrix_rank's tolerance the set is rank
            # deficient and any finite cond(A) is rounding noise
            sigma = base.matrix.svd().sigma
            if sigma[-1] <= len(angles) * np.finfo(float).eps * sigma[0]:
                cond = math.inf
            else:
                cond = base.matrix.condition_number
            for trial in trials:
                try:
                    e_out, bnorm = _trial_error(base, trial, ref, test_alphas)
                    status = "ok"
                except (ZeroColumnEncountered, SingularSubmatrix):
                    # rank-deficient canonical set: report total failure
                    e_out, bnorm, status = 1.0, 0.0, "degenerate"
                rows.append(
                    (
                        part,
                        shape_name,
                        k,
                        len(angles),
                        trial.strategy,
                        trial.delta if trial.strategy == "one" else None,
                        offset,
                        e_in,
                        e_out,
                        bnorm,
                        cond,
                        status,
                    )
                )

    out = config.out or "oversampling_study.csv"
    write_csv(out, "study-oversampling", config, header, rows)
    print(f"rows          {len(rows)}")
    print(f"wall time     {time.perf_counter() - start:.1f} s")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_table(config, k_list, shape_list, epw_list):
    start = time.perf_counter()
    if not (k_list and shape_list and epw_list):
        raise ConfigError("table needs at least one k, shape and epw value")
    # every row's config is checked before the first solve
    problems = [
        [
            replace(
                config, shape=shape_name, geometry_file=None, k=float(k),
                elements_per_wavelength=float(epw),
            ).validate()
            for epw in epw_list
        ]
        for shape_name in shape_list
        for k in k_list
    ]
    for trials in problems:
        shape = load_shape(trials[0])
        _canonical_count(trials[0], shape)
        _check_cluster_threshold(trials[0], shape)
    alphas = _circle_grid(config.n_alpha)
    rows = []
    for trials in problems:
        # one reference per problem, refined from its finest mesh
        finest = max(trials, key=lambda trial: trial.elements_per_wavelength)
        ref = _bem_system(finest, load_shape(finest), _REFERENCE_REFINEMENT)
        for trial in trials:
            pipeline = build_pipeline(trial)
            e_in = input_error(pipeline, ref)
            e_out = output_error(pipeline, ref, alphas, config.n_theta, axis=None)
            rows.append(
                (
                    trial.k,
                    trial.shape,
                    len(pipeline.system.mesh.lengths),
                    e_in,
                    e_out,
                    e_out / e_in if e_in > 0 else math.inf,
                    pipeline.matrix.condition_number,
                )
            )
    out = config.out or "table.csv"
    write_csv(
        out,
        "table",
        config,
        ["k", "shape", "n_elements", "e_in", "e_out", "ratio", "cond"],
        rows,
    )
    print(f"rows          {len(rows)}")
    print(f"wall time     {time.perf_counter() - start:.1f} s")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_selftest(config):
    from .specialfun import gauss_legendre, hankel1

    checks = []

    value = hankel1(0, 1.0)
    checks.append(
        (
            "hankel1(0, 1)",
            abs(value - (0.7651976865579666 + 0.08825696421567696j)) < 1e-10,
        )
    )
    nodes, weights = gauss_legendre(12)
    checks.append(
        (
            "gauss-legendre degree 8",
            abs(np.sum(weights * nodes**8) - 2.0 / 9.0) < 1e-12,
        )
    )
    shape = preset_shape("square")
    checks.append(("square (p, M)", shape.p == 2 and shape.m == 8))

    tiny = replace(
        config,
        shape="screen",
        geometry_file=None,
        k=5.0,
        elements_per_wavelength=6.0,
        mtilde=3,
    )
    pipeline = build_pipeline(
        tiny, canonical=np.asarray([math.pi / 2.0, 3.0 * math.pi / 2.0, math.pi])
    )
    # the screen check and the gate point run at the default thresholds,
    # which user thresholds cannot move
    gate = replace(
        pipeline.evaluator,
        near_threshold=DEFAULT_NEAR_THRESHOLD,
        cluster_threshold=DEFAULT_CLUSTER_THRESHOLD,
    )
    ref = reference_system(pipeline)
    e_out = output_error(replace(pipeline, evaluator=gate), ref, [2.0], n=200)
    checks.append(("screen pipeline error < 0.1", e_out < 0.1))

    # the one-point path against the sweep at a naive point, midway between
    # the two zeros round theta = 2 (the evaluator's own cut), at a point
    # between small_h and big_h of a zero, where a residue corrects the
    # quotient, and at a point within small_h of it; then, at the default
    # thresholds, at pi + 0.02: both zeros pi -+ 0.1 lie within big_h of
    # it, and 0.2 >= big_h apart
    th0, th1 = pole_environment(2.0, 2.0, pipeline.shape.p)
    branches = {
        0.5 * (th0 + th1): "naive",
        th0 + 0.5 * (tiny.small_h + tiny.big_h): "residue",
        th0 + 0.5 * tiny.small_h: "contour",
    }
    agree = True
    for evaluator, alpha, wanted in [
        (pipeline.evaluator, 2.0, branches),
        (gate, 0.1, {math.pi + 0.02: "residue:two"}),
    ]:
        thetas = np.append(_circle_grid(200), list(wanted))
        values, labels = evaluator.evaluate_sweep(thetas, alpha)
        peak = float(np.max(np.abs(values)))
        for i, theta in enumerate(wanted, start=200):
            value, label = evaluator.evaluate_with_branch(theta, alpha)
            agree &= label == labels[i] and label.startswith(wanted[theta])
            agree &= abs(value - values[i]) <= 1e-12 * peak
    checks.append(("one-point path matches the sweep", agree))

    failed = 0
    for name, ok in checks:
        print(f"selftest: {name}: {'ok' if ok else 'FAIL'}")
        failed += 0 if ok else 1
    if failed:
        raise SingularSystem(f"{failed} selftest check(s) failed")
    return EXIT_OK


# argument parsing -------------------------------------------------------


def _add_common_flags(parser):
    parser.add_argument("--shape", default=None, help="preset shape name")
    parser.add_argument(
        "--geometry-file", dest="geometry_file", default=None,
        help="vertex-list geometry file (overrides --shape)",
    )
    parser.add_argument("--k", type=float, default=None, help="wavenumber")
    parser.add_argument(
        "--alpha", type=float, default=None, help="incidence angle (radians)"
    )
    parser.add_argument(
        "--strategy", default=None, choices=["1", "2", "one", "two"],
        help="coefficient strategy: 1 = truncated SVD, 2 = column subset",
    )
    parser.add_argument(
        "--delta", type=float, default=None, help="TSVD truncation threshold"
    )
    parser.add_argument(
        "--mtilde", type=int, default=None, help="canonical angle count"
    )
    parser.add_argument(
        "--big-h", dest="big_h", type=float, default=None,
        help="distance below which pole corrections activate",
    )
    parser.add_argument(
        "--small-h", dest="small_h", type=float, default=None,
        help="distance below which contour integration activates",
    )
    parser.add_argument("--n-theta", dest="n_theta", type=int, default=None)
    parser.add_argument("--n-alpha", dest="n_alpha", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None)


def _parse_list(text, flag, kind=float):
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="embedfar",
        description=(
            "Far-field maps of rational polygons from a fixed set of "
            "canonical scattering solves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("sweep", "error sweep over theta at one incidence angle"),
        ("grid", "full log|D(theta, alpha)| grid with spot checks"),
        ("study-oversampling", "degenerate-angle regularization study"),
        ("table", "input/output error table over mesh refinements"),
        ("selftest", "quick end-to-end sanity checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "study-oversampling":
            p.add_argument(
                "--mtilde-list", dest="mtilde_list", default="2,3,4",
                help="comma-separated canonical angle counts",
            )
            p.add_argument(
                "--delta-list", dest="delta_list", default="1e-2,1e-8,1e-12",
                help="comma-separated TSVD thresholds",
            )
        if name == "table":
            p.add_argument(
                "--k-list", dest="k_list", default="5,10",
                help="comma-separated wavenumbers",
            )
            p.add_argument(
                "--shape-list", dest="shape_list", default="square,equilateral",
                help="comma-separated preset names",
            )
            p.add_argument(
                "--epw-list", dest="epw_list", default="4,8,16",
                help="comma-separated elements-per-wavelength values",
            )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.strategy is not None:
            # argparse's choices admit only spellings this maps
            args.strategy = _normalize_strategy(args.strategy)
        # full-torus grids default to 200x200; denser only on request
        if args.command in ("grid", "table"):
            defaults = {"n_theta": 200}
        else:
            defaults = None
        config = load_config(args, command_defaults=defaults)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "grid":
            return cmd_grid(config)
        if args.command == "study-oversampling":
            return cmd_oversampling_study(
                config,
                _parse_list(args.mtilde_list, "--mtilde-list", int),
                _parse_list(args.delta_list, "--delta-list"),
            )
        if args.command == "table":
            return cmd_table(
                config,
                _parse_list(args.k_list, "--k-list"),
                _parse_list(args.shape_list, "--shape-list", str.strip),
                _parse_list(args.epw_list, "--epw-list"),
            )
        if args.command == "selftest":
            return cmd_selftest(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
