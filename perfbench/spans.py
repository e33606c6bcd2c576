"""In-memory span recording and reversible patching of call targets.

A span is one call across a layer boundary: its name, start and end on the
perf_counter clock, and the index of the span that was open when it began
(-1 at top level).  Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = []
        self.counters = defaultdict(float)

    def __len__(self):
        return len(self.start)

    def begin(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(float("nan"))
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index):
        self.end[index] = time.perf_counter()
        self._open.pop()

    def count(self, key, amount=1):
        self.counters[key] += amount

    def arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name_id, start, end, parent = self.arrays()
        duration = end - start
        own = self_times(start, end, parent)
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = (
                int(np.count_nonzero(mask)),
                float(duration[mask].sum()),
                float(own[mask].sum()),
            )
        return out

    def calls_inside(self, name, ancestor):
        """Number of spans called `name` that have a span called `ancestor`
        somewhere above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        target, outer = self._name_ids[name], self._name_ids[ancestor]
        name_id = self.name_id.tolist()
        inside = [False] * len(name_id)
        # a parent always begins before its children, so one pass suffices
        for i, up in enumerate(self.parent.tolist()):
            if up >= 0:
                inside[i] = inside[up] or name_id[up] == outer
        return sum(1 for i, hit in enumerate(inside) if hit and name_id[i] == target)

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez(
            path,
            run_id=np.asarray(self.run_id),
            names=np.asarray(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
        )


def self_times(start, end, parent):
    """Each span's duration minus the durations of its children.  Spans
    nest within one thread, so the children of a span never overlap."""
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    child = parent >= 0
    return duration - np.bincount(parent[child], weights=duration[child],
                                  minlength=duration.size)


def resolve(target):
    """Owner object and attribute name of "module:attr" or
    "module:Class.attr", or None when any part is missing.

    Only attributes defined on the owner itself count, so that restoring
    never leaves an override on a subclass.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Patches:
    """Replaces attributes and puts the originals back on exit, also when
    the body raises."""

    def __init__(self):
        self._saved = []

    def wrap(self, target, make_wrapper):
        """Patch target with make_wrapper(original); False when the target
        does not exist."""
        found = resolve(target)
        if found is None:
            return False
        owner, attr = found
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
