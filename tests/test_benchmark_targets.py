"""The benchmark's per-layer trace wraps package functions by name; every
name it wraps must still exist."""

import importlib
import re
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_trace_targets_resolve():
    # read as text, so the check needs nothing from perfbench itself
    targets = re.findall(r"[\"'](embedfar\.\w+):([\w.]+)[\"']", LAYERS.read_text())
    assert targets
    missing = []
    for module_name, path in targets:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module_name}:{path}")
    assert not missing, missing
