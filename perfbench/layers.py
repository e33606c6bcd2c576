"""Per-module tracing of embedfar: which calls are wrapped, what each
wrapper counts, and the per-module metrics derived from the spans.

Every wrapper patches the name where its caller looks it up: a class
attribute for methods, and the importing module's global for functions
imported with `from ... import`.  Nothing under src/ records spans itself.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
from scipy.linalg import lu_factor

from spans import Patches, Recorder

BRANCH_LABELS = (
    "naive",
    "residue:single",
    "residue:two",
    "contour:pair",
    "contour:full",
    "lhopital",
)


def _branch_key(label):
    return "embedding.branch." + label.replace(":", "-")


# Per-module metrics with the end-to-end metric and workload each should
# move.  Entries: (name, unit, better, moves).
PER_LAYER = (
    ("geometry.shape_s", "s", "lower", "setup_s on all workloads (expected negligible)"),
    ("specialfun.hankel1_calls", "count", "lower", "setup_s on torus and queries"),
    ("specialfun.hankel1_points", "count", "lower", "setup_s on torus and queries"),
    ("specialfun.hankel1_s", "s", "lower", "setup_s on torus and queries"),
    ("bem.elements", "count", "lower", "setup_s on torus and queries"),
    ("bem.mesh_s", "s", "lower", "setup_s on torus and queries"),
    ("bem.assemble_s", "s", "lower", "setup_s on torus and queries"),
    ("bem.assemble_self_s", "s", "lower", "setup_s on torus and queries"),
    ("bem.assemble_kernel_evals", "count", "lower", "setup_s on torus and queries"),
    ("bem.lu_s", "s", "lower", "setup_s on torus and queries"),
    ("bem.solve_calls", "count", "lower", "setup_s on torus and queries; wall_s on torus"),
    ("bem.solve_rhs", "count", "lower", "setup_s on torus and queries; wall_s on torus"),
    ("bem.solve_s", "s", "lower", "setup_s on torus and queries; wall_s on torus"),
    ("bem.farfield_calls", "count", "lower", "wall_s on torus; eval_points_per_s on torus and queries"),
    ("bem.farfield_points", "count", "lower", "wall_s on torus; eval_points_per_s on torus and queries"),
    ("bem.farfield_s", "s", "lower", "wall_s on torus; eval_points_per_s on torus and queries"),
    ("coefficients.matrix_s", "s", "lower", "setup_s on all workloads"),
    ("coefficients.svd_calls", "count", "lower", "wall_s on queries"),
    ("coefficients.svd_s", "s", "lower", "wall_s on queries"),
    ("coefficients.subset_s", "s", "lower", "eval_points_per_s on queries"),
    ("coefficients.solve_calls", "count", "lower", "eval_points_per_s on queries"),
    ("coefficients.solve_s", "s", "lower", "eval_points_per_s on queries"),
    ("coefficients.solve_self_s", "s", "lower", "eval_points_per_s on queries"),
    ("coefficients.cond", "ratio", "lower", "context for the timings"),
    ("coefficients.norm_max", "ratio", "lower", "context for the timings"),
    ("coefficients.residual_max", "ratio", "lower", "context for the timings"),
    ("embedding.sweep_calls", "count", "lower", "eval_points_per_s on torus"),
    ("embedding.sweep_s", "s", "lower", "eval_points_per_s on torus"),
    ("embedding.sweep_self_s", "s", "lower", "eval_points_per_s on torus"),
    ("embedding.point_calls", "count", "lower", "eval_points_per_s on queries"),
    ("embedding.point_s", "s", "lower", "eval_points_per_s on queries"),
    ("embedding.point_self_s", "s", "lower", "eval_points_per_s on queries"),
    ("embedding.points", "count", "higher", "eval_points_per_s on torus and queries"),
    ("embedding.near_points", "count", "lower", "eval_points_per_s on torus and queries"),
    ("embedding.near_share", "ratio", "lower", "eval_points_per_s on torus and queries"),
    ("embedding.numerator_calls", "count", "lower", "eval_points_per_s on torus; op_tail_ms on queries"),
    ("embedding.numerator_s", "s", "lower", "eval_points_per_s on torus; op_tail_ms on queries"),
    ("embedding.numerator_self_s", "s", "lower", "eval_points_per_s on torus; op_tail_ms on queries"),
    ("embedding.farfield_per_numerator", "ratio", "lower", "eval_points_per_s on torus; op_tail_ms on queries"),
) + tuple(
    (_branch_key(label), "count", "lower", "eval_points_per_s on torus and queries")
    for label in BRANCH_LABELS
) + tuple(
    (_branch_key(label) + "_s", "s", "lower", "eval_points_per_s and op_tail_ms on queries")
    for label in BRANCH_LABELS
) + (
    ("cli.pipeline_s", "s", "lower", "setup_s and wall_s on all workloads"),
    ("cli.pipeline_self_s", "s", "lower", "setup_s on all workloads"),
    ("cli.reference_s", "s", "lower", "wall_s on torus"),
    ("cli.error_s", "s", "lower", "wall_s on torus"),
    ("cli.error_self_s", "s", "lower", "wall_s on torus"),
    ("cli.csv_s", "s", "lower", "wall_s on torus"),
    ("cli.csv_bytes", "count", "lower", "wall_s on torus"),
    ("trace.spans", "count", "lower", "tracing overhead"),
    ("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s"),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


class Tracer:
    """Installs the wrappers for one traced round and turns the recorded
    spans into per-module metrics."""

    def __init__(self, run_id):
        self.recorder = Recorder(run_id)
        self.installed = set()
        self._matrices = []  # assembled BEM matrices, LU re-timed afterwards
        self._systems = []  # canonical SystemMatrix objects, cond afterwards
        self._patches = Patches()

    # wrapper factories --------------------------------------------------

    def _timed(self, span, after=None):
        recorder = self.recorder

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = recorder.begin(span)
                try:
                    out = original(*args, **kwargs)
                finally:
                    recorder.finish(index)
                if after is not None:
                    after(args, kwargs, out, recorder.end[index] - recorder.start[index])
                return out

            return wrapper

        return make

    def _wrap(self, target, span, after=None):
        if self._patches.wrap(target, self._timed(span, after)):
            self.installed.add(span)

    def __enter__(self):
        count = self.recorder.count
        try:
            self._wrap("embedfar.cli:preset_shape", "geometry.shape")
            self._wrap("embedfar.cli:load_geometry_file", "geometry.shape")
            self._wrap(
                "embedfar.bem:hankel1",
                "specialfun.hankel1",
                lambda a, kw, out, dt: count("specialfun.hankel1_points", np.size(a[1])),
            )
            self._wrap(
                "embedfar.bem:build_mesh",
                "bem.mesh",
                lambda a, kw, out, dt: count("bem.elements", len(out)),
            )

            def assembled(a, kw, out, dt):
                n, q = out.ff_weights.shape
                count("bem.assemble_kernel_evals", n * n * q)
                self._matrices.append(out.matrix)

            self._wrap("embedfar.bem:assemble", "bem.assemble", assembled)
            self._wrap(
                "embedfar.bem:BemSystem.solve_density",
                "bem.solve",
                lambda a, kw, out, dt: count("bem.solve_rhs", np.size(a[1])),
            )
            self._wrap(
                "embedfar.bem:FarField.value",
                "bem.farfield",
                lambda a, kw, out, dt: count(
                    "bem.farfield_points", np.size(a[1]) * len(a[0].nodes)
                ),
            )
            self._wrap(
                "embedfar.cli:build_coefficient_system",
                "coefficients.matrix",
                lambda a, kw, out, dt: self._systems.append(out),
            )
            self._wrap("embedfar.coefficients:svd", "coefficients.svd")
            self._wrap("embedfar.coefficients:column_subset", "coefficients.subset")

            def solved(a, kw, out, dt):
                recorder = self.recorder
                recorder.counters["coefficients.norm_max"] = max(
                    recorder.counters["coefficients.norm_max"], out.coefficient_norm
                )
                recorder.counters["coefficients.residual_max"] = max(
                    recorder.counters["coefficients.residual_max"], out.residual_norm
                )

            self._wrap("embedfar.cli:coefficients_for", "coefficients.solve", solved)

            def swept(a, kw, out, dt):
                labels = out[1].tolist()
                count("embedding.points", len(labels))
                for label in labels:
                    count(_branch_key(label))

            self._wrap(
                "embedfar.embedding:StabilizedEvaluator.evaluate_sweep",
                "embedding.sweep",
                swept,
            )

            def pointed(a, kw, out, dt):
                label = out[1]
                count("embedding.points")
                count(_branch_key(label))
                count(_branch_key(label) + "_s", dt)

            self._wrap(
                "embedfar.embedding:StabilizedEvaluator.evaluate_with_branch",
                "embedding.point",
                pointed,
            )
            self._wrap("embedfar.embedding:EmbeddingBasis.numerator", "embedding.numerator")
            self._wrap("embedfar.cli:build_pipeline", "cli.pipeline")
            self._wrap("embedfar.cli:reference_system", "cli.reference")
            self._wrap("embedfar.cli:input_error", "cli.error")
            self._wrap("embedfar.cli:output_error", "cli.error")
            self._wrap(
                "embedfar.cli:write_csv",
                "cli.csv",
                lambda a, kw, out, dt: count("cli.csv_bytes", os.path.getsize(a[0])),
            )
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    # metrics ------------------------------------------------------------

    def metrics(self):
        """Per-module metrics of the traced round.  Called after the
        wrappers are removed, so the extra work below is not traced."""
        totals = self.recorder.totals()
        counters = self.recorder.counters
        out = {}

        def span_metrics(span, prefix, calls=False, own=False):
            if span not in self.installed:
                return
            n, inclusive, self_s = totals.get(span, (0, 0.0, 0.0))
            out[prefix + "_s"] = inclusive
            if calls:
                out[prefix + "_calls"] = n
            if own:
                out[prefix + "_self_s"] = self_s

        span_metrics("geometry.shape", "geometry.shape")
        span_metrics("specialfun.hankel1", "specialfun.hankel1", calls=True)
        span_metrics("bem.mesh", "bem.mesh")
        span_metrics("bem.assemble", "bem.assemble", own=True)
        span_metrics("bem.solve", "bem.solve", calls=True)
        span_metrics("bem.farfield", "bem.farfield", calls=True)
        span_metrics("coefficients.matrix", "coefficients.matrix")
        span_metrics("coefficients.svd", "coefficients.svd", calls=True)
        span_metrics("coefficients.subset", "coefficients.subset")
        span_metrics("coefficients.solve", "coefficients.solve", calls=True, own=True)
        span_metrics("embedding.sweep", "embedding.sweep", calls=True, own=True)
        span_metrics("embedding.point", "embedding.point", calls=True, own=True)
        span_metrics("embedding.numerator", "embedding.numerator", calls=True, own=True)
        span_metrics("cli.pipeline", "cli.pipeline", own=True)
        span_metrics("cli.reference", "cli.reference")
        span_metrics("cli.error", "cli.error", own=True)
        span_metrics("cli.csv", "cli.csv")

        if "specialfun.hankel1" in self.installed:
            out["specialfun.hankel1_points"] = counters["specialfun.hankel1_points"]
        if "bem.mesh" in self.installed:
            out["bem.elements"] = counters["bem.elements"]
        if "bem.assemble" in self.installed:
            out["bem.assemble_kernel_evals"] = counters["bem.assemble_kernel_evals"]
            lu_total = 0.0
            for matrix in self._matrices:
                start = time.perf_counter()
                lu_factor(matrix)
                lu_total += time.perf_counter() - start
            out["bem.lu_s"] = lu_total
        if "bem.solve" in self.installed:
            out["bem.solve_rhs"] = counters["bem.solve_rhs"]
        if "bem.farfield" in self.installed:
            out["bem.farfield_points"] = counters["bem.farfield_points"]
        if "coefficients.matrix" in self.installed:
            conds = [system.condition_number for system in self._systems]
            out["coefficients.cond"] = max(conds) if conds else 0.0
        if "coefficients.solve" in self.installed:
            out["coefficients.norm_max"] = counters["coefficients.norm_max"]
            out["coefficients.residual_max"] = counters["coefficients.residual_max"]
        if self.installed & {"embedding.sweep", "embedding.point"}:
            points = counters["embedding.points"]
            near = points - counters[_branch_key("naive")]
            out["embedding.points"] = points
            out["embedding.near_points"] = near
            out["embedding.near_share"] = near / points if points else 0.0
            for label in BRANCH_LABELS:
                out[_branch_key(label)] = counters[_branch_key(label)]
        if "embedding.point" in self.installed:
            for label in BRANCH_LABELS:
                out[_branch_key(label) + "_s"] = counters[_branch_key(label) + "_s"]
        if {"embedding.numerator", "bem.farfield"} <= self.installed:
            calls = totals.get("embedding.numerator", (0, 0.0, 0.0))[0]
            inside = self.recorder.calls_inside("bem.farfield", "embedding.numerator")
            out["embedding.farfield_per_numerator"] = inside / calls if calls else 0.0
        if "cli.csv" in self.installed:
            out["cli.csv_bytes"] = counters["cli.csv_bytes"]
        out["trace.spans"] = len(self.recorder)
        return out
