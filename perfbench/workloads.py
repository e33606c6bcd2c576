"""The benchmark workloads, driven through embedfar's public functions.

Each workload builds its inputs from the seed, runs rounds of identical
work (a fresh pipeline per round, so no round reuses another's caches),
checks its outputs, and finally computes an accuracy audit on a fixed,
seed-independent set of angles so that accuracy figures compare across
runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback

import numpy as np

from embedfar import cli

K = 10.0
TWO_PI = 2.0 * math.pi
# criterion 07: output error at most this multiple of the input error
MAX_ERROR_RATIO = 1e5
# fixed generator for the accuracy audit; never derived from --seed
AUDIT_SEED = 7
ERROR_GRID = 1000  # theta points behind every sup-norm error, as in the CLI
SCALE_GRID = 200  # theta points behind each reference peak in point checks

now = time.perf_counter


class OperationFailed(RuntimeError):
    """An operation raised; it is already counted as failed."""


class Samples:
    """Timings of the rounds of one kind (untraced or traced)."""

    def __init__(self):
        self.setup = []  # seconds of build_pipeline calls per set-up
        self.walls = []  # seconds per round
        self.ops = []  # seconds per operation, all rounds
        self.tails = []  # tail latency of each round, milliseconds
        self.points = 0  # stabilized values produced
        self.eval_s = 0.0  # seconds spent producing them


class Tally:
    """Operation counts, failures and accuracy figures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.e_in = []
        self.max_ratio = 0.0  # worst e_out / e_in of any checked system
        self.max_rel_error = None  # from the audit

    def run(self, what, fn, *args, **kwargs):
        """Call fn; an exception counts one failed operation and is raised
        again as OperationFailed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any package error is one failed operation
            self.fail(what, exc)
            raise OperationFailed(what) from exc

    def fail(self, what, exc):
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")
        return ok

    def check_errors(self, what, errors, e_in):
        """Finite errors within criterion 07's bound against e_in."""
        errors = np.asarray(errors, dtype=np.float64)
        finite = bool(np.all(np.isfinite(errors))) and math.isfinite(e_in) and e_in > 0
        self.check(f"{what}: finite errors", finite)
        if finite:
            ratio = float(np.max(errors)) / e_in
            self.max_ratio = max(self.max_ratio, ratio)
            self.check(f"{what}: e_out/e_in = {ratio:.3g} <= {MAX_ERROR_RATIO:g}",
                       ratio <= MAX_ERROR_RATIO)


def _timed(fn, *args, **kwargs):
    start = now()
    out = fn(*args, **kwargs)
    return out, now() - start


def _audit_angles(count):
    return np.random.default_rng(AUDIT_SEED).uniform(0.0, TWO_PI, count)


def _sweep_error(tally, what, pipeline, ref_system, alphas, n):
    """Largest relative sup-norm error over alphas of evaluate_sweep on n
    theta points, each alpha scaled by its own reference peak, as
    cli.output_error computes it; non-finite values fail a check."""
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    errors = []
    finite = True
    for alpha in alphas:
        ref_values = tally.run(f"{what} reference", ref_system.solve_far_fields,
                               [float(alpha)])[0].value(thetas)
        values, _ = tally.run(f"{what} evaluate_sweep",
                              pipeline.evaluator.evaluate_sweep, thetas, float(alpha))
        finite = finite and bool(np.all(np.isfinite(values)))
        scale = float(np.max(np.abs(ref_values)))
        errors.append(float(np.max(np.abs(values - ref_values))) / scale)
    tally.check(f"{what}: evaluated values finite", finite)
    return float(np.max(errors))  # NaN stays NaN, unlike with max()


def _point_errors(ref_system, thetas, alphas, values):
    """Relative errors of values at (theta, alpha) pairs, each scaled by the
    peak of the reference far field for its alpha."""
    grid = np.linspace(0.0, TWO_PI, SCALE_GRID, endpoint=False)
    fields = ref_system.solve_far_fields(alphas)
    errors = []
    for theta, field, value in zip(thetas, fields, values):
        scale = float(np.max(np.abs(field.value(grid))))
        errors.append(abs(value - complex(field.value(float(theta)))) / scale)
    return np.asarray(errors)


class Torus:
    """Full log10|D| map for the square on a 200 x 200 (theta, alpha)
    grid, as `embedfar grid` computes it."""

    name = "torus"
    n_grid = 200
    ops_per_round = n_grid  # sweeps
    setups_between = 6  # extra set-ups before and after each round
    spot_checks = 5
    audit_alphas = 4

    def __init__(self, seed, workdir, source_digest):
        self.csv_path = workdir / f"torus-seed{seed}.csv"
        self.hash_store = workdir / "torus-grid-hashes.json"
        self.hash_key = f"{seed}:{source_digest}"
        self.config = cli.ExperimentConfig(
            shape="square", k=K, seed=seed, n_theta=self.n_grid,
            n_alpha=self.n_grid, out=str(self.csv_path),
        ).validate()
        self.grid_hash = None
        self.last = None

    def setup(self, tally):
        pipeline, seconds = tally.run("build_pipeline", _timed, cli.build_pipeline, self.config)
        return seconds, pipeline

    def round(self, tally, record):
        start = now()
        seconds, pipeline = self.setup(tally)
        record.setup.append(seconds)
        n = self.n_grid
        thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
        alphas = np.linspace(0.0, TWO_PI, n, endpoint=False)
        grid = np.full((n, n), np.nan, dtype=np.complex128)
        for j, alpha in enumerate(alphas):
            try:
                (values, _), dt = tally.run(
                    "evaluate_sweep", _timed,
                    pipeline.evaluator.evaluate_sweep, thetas, float(alpha),
                )
            except OperationFailed:
                continue
            grid[:, j] = values
            record.ops.append(dt)
            record.points += n
            record.eval_s += dt
        # canonical columns come straight from the stored canonical solves
        for m, alpha_m in enumerate(pipeline.angles):
            for j in np.nonzero(np.abs(alphas - alpha_m) <= 1e-12)[0]:
                grid[:, j] = pipeline.far_fields[m].value(thetas)
        tally.check("torus grid values finite", bool(np.all(np.isfinite(grid))))

        with np.errstate(divide="ignore"):
            log_grid = np.log10(np.abs(grid))
        header = ["theta"] + [f"alpha={float(a)!r}" for a in alphas]
        rows = [[thetas[i]] + list(log_grid[i, :]) for i in range(n)]
        tally.run("write_csv", cli.write_csv, str(self.csv_path), "grid",
                  self.config, header, rows)
        self._check_hash(tally)

        rng = np.random.default_rng(self.config.seed)
        picks = np.sort(rng.choice(n, self.spot_checks, replace=False))
        ref = tally.run("reference_system", cli.reference_system, pipeline)
        errors = []
        for j in picks:
            ref_values = ref.solve_far_fields([float(alphas[j])])[0].value(thetas)
            scale = float(np.max(np.abs(ref_values)))
            errors.append(float(np.max(np.abs(grid[:, j] - ref_values))) / scale)
        e_in = tally.run("input_error", cli.input_error, pipeline, ref, n=ERROR_GRID)
        tally.e_in.append(e_in)
        tally.check_errors("torus spot checks", errors, e_in)
        record.walls.append(now() - start)
        self.last = (pipeline, ref, e_in)

    def _check_hash(self, tally):
        digest = hashlib.sha256(self.csv_path.read_bytes()).hexdigest()
        if self.grid_hash is None:
            self.grid_hash = digest
        tally.check("torus CSV identical across rounds", digest == self.grid_hash)

    def finish(self, tally, audit):
        # byte-identical output across runs of this code with one seed
        stored = {}
        if self.hash_store.exists():
            stored = json.loads(self.hash_store.read_text(encoding="utf-8"))
        if self.grid_hash is not None:
            stored.setdefault(self.hash_key, self.grid_hash)
            self.hash_store.write_text(json.dumps(stored, indent=1), encoding="utf-8")
        tally.check("torus CSV identical across runs",
                    self.grid_hash is not None and stored[self.hash_key] == self.grid_hash)
        if audit:
            pipeline, ref, e_in = self.last
            error = _sweep_error(tally, "torus audit", pipeline, ref,
                                 _audit_angles(self.audit_alphas), self.n_grid)
            tally.check_errors("torus audit", [error], e_in)
            tally.max_rel_error = error
        return {"grid_sha256": self.grid_hash}


class Queries:
    """Independent single-point queries on the pentagon: every query has a
    new alpha and pays its own coefficient solve."""

    name = "queries"
    n_queries = 2000
    ops_per_round = n_queries
    setups_between = 4
    verified = 40
    audit_points = 64

    def __init__(self, seed, workdir, source_digest):
        self.config = cli.ExperimentConfig(shape="pentagon", k=K, seed=seed).validate()
        rng = np.random.default_rng(seed)
        self.thetas = rng.uniform(0.0, TWO_PI, self.n_queries)
        self.alphas = rng.uniform(0.0, TWO_PI, self.n_queries)
        self.verify_picks = np.sort(
            np.random.default_rng([seed, 1]).choice(self.n_queries, self.verified, replace=False)
        )
        self.values = None
        self.pipeline = None
        self.condition = None

    def setup(self, tally):
        pipeline, seconds = tally.run("build_pipeline", _timed, cli.build_pipeline, self.config)
        return seconds, pipeline

    def round(self, tally, record):
        start = now()
        seconds, pipeline = self.setup(tally)
        record.setup.append(seconds)
        evaluator = pipeline.evaluator
        values = np.full(self.n_queries, np.nan, dtype=np.complex128)
        for i, (theta, alpha) in enumerate(zip(self.thetas, self.alphas)):
            try:
                values[i], dt = tally.run(
                    "evaluate", _timed, evaluator.evaluate, float(theta), float(alpha)
                )
            except OperationFailed:
                continue
            record.ops.append(dt)
            record.points += 1
            record.eval_s += dt
        self.condition = tally.run("condition_number", lambda: pipeline.matrix.condition_number)
        record.walls.append(now() - start)
        tally.check("query values finite", bool(np.all(np.isfinite(values))))
        if self.values is None:
            self.values = values
        tally.check("query values identical across rounds",
                    bool(np.array_equal(values, self.values, equal_nan=True)))
        self.pipeline = pipeline

    def finish(self, tally, audit):
        pipeline = self.pipeline
        ref = tally.run("reference_system", cli.reference_system, pipeline)
        e_in = tally.run("input_error", cli.input_error, pipeline, ref, n=ERROR_GRID)
        tally.e_in.append(e_in)
        picks = self.verify_picks
        verified = _point_errors(ref, self.thetas[picks], self.alphas[picks], self.values[picks])
        tally.check_errors("query verification", verified, e_in)
        if audit:
            rng = np.random.default_rng(AUDIT_SEED)
            thetas = rng.uniform(0.0, TWO_PI, self.audit_points)
            alphas = rng.uniform(0.0, TWO_PI, self.audit_points)
            values = [
                tally.run("audit evaluate", pipeline.evaluator.evaluate, float(t), float(a))
                for t, a in zip(thetas, alphas)
            ]
            errors = _point_errors(ref, thetas, alphas, values)
            tally.check_errors("query audit", errors, e_in)
            tally.max_rel_error = float(np.max(errors))
        return {"condition_number": self.condition,
                "verified_max_rel_error": float(np.max(verified))}


WORKLOADS = {cls.name: cls for cls in (Torus, Queries)}
