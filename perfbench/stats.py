"""Summary statistics, metric names and the result line of the benchmark."""

from __future__ import annotations

import json
import math
import re

import numpy as np

# a metric name starts with a letter or digit and has at most 64 characters
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# candidate tail percentiles in per-mille, highest first
_TAIL_PER_MILLE = (999, 990, 950, 900)
MIN_BEYOND_TAIL = 10


def valid_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def tail_per_mille(count):
    """Highest candidate percentile (in per-mille) with at least
    MIN_BEYOND_TAIL of count samples above it, or None if there is none."""
    for per_mille in _TAIL_PER_MILLE:
        if count * (1000 - per_mille) >= MIN_BEYOND_TAIL * 1000:
            return per_mille
    return None


def round_tail_ms(samples, per_mille):
    """Tail of one round's durations (seconds) in milliseconds: the
    percentile per_mille / 10, or the maximum when per_mille is None.

    The caller fixes per_mille from the number of operations a round is
    meant to have (see tail_per_mille), so the statistic stays the same
    however many rounds fit in a run.
    """
    values = np.asarray(samples, dtype=np.float64) * 1e3
    if values.size == 0:
        raise ValueError("no latency samples")
    if per_mille is None:
        return float(values.max())
    return float(np.percentile(values, per_mille / 10.0))


def tail_label(per_mille):
    return "max" if per_mille is None else f"p{per_mille / 10.0:g}"


def result_line(correct, attempted, failed, metrics, units):
    """The final JSON line: metrics maps name to value, units name to unit."""
    payload = {}
    for name, value in metrics.items():
        if not valid_name(name) or not valid_unit(units[name]):
            raise ValueError(f"invalid metric name or unit: {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        payload[name] = {"value": value, "unit": units[name]}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": payload,
        }
    )
