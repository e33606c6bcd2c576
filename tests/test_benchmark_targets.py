"""The benchmark wraps package functions by name in its per-layer trace and
calls cli functions in its workloads; every such name must still exist."""

import importlib
import re
from pathlib import Path

import embedfar.cli as cli
from embedfar.bem import build_system
from embedfar.geometry import preset_shape
from helpers import BRANCH_LABELS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_targets_resolve():
    # read as text, so the check needs nothing from perfbench itself
    text = (PERFBENCH / "layers.py").read_text()
    targets = re.findall(r"[\"'](embedfar\.\w+):([\w.]+)[\"']", text)
    assert targets
    missing = []
    for module_name, path in targets:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module_name}:{path}")
    assert not missing, missing


def test_assembly_trace_reads_resolve():
    # the tracer's callback on bem.assemble reads attributes of its result;
    # a renamed or reshaped one would fail only inside a traced run
    text = (PERFBENCH / "layers.py").read_text()
    body = text.split("def assembled(")[1].split("self._wrap(")[0]
    attrs = set(re.findall(r"\bout\.(\w+)", body))
    assert {"ff_weights", "matrix"} <= attrs
    system = build_system(preset_shape("square"), 5.0)
    missing = sorted(attr for attr in attrs if not hasattr(system, attr))
    assert not missing, missing
    n, q = system.ff_weights.shape
    assert n == len(system.mesh) and system.ff_nodes.shape == (n, q, 2)


def test_tracer_counts_every_branch_label():
    # the tracer keys its per-branch counts on its own label tuple; a label
    # the evaluator returns outside it would go uncounted
    text = (PERFBENCH / "layers.py").read_text()
    block = re.search(r"^BRANCH_LABELS = \((.*?)^\)", text, re.M | re.S)
    assert block
    traced = set(re.findall(r"[\"']([\w:]+)[\"']", block.group(1)))
    assert BRANCH_LABELS <= traced


def test_workload_cli_names_resolve():
    names = set(re.findall(r"\bcli\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert {"ExperimentConfig", "build_pipeline", "write_csv"} <= names
    missing = sorted(name for name in names if not hasattr(cli, name))
    assert not missing, missing
