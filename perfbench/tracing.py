"""Span recording around pdom's public functions, from outside the package.

Each traced function is replaced by a wrapper at every pdom module attribute
that holds it (``differential`` imports ``check_dominance`` by name, the
package re-exports most functions), and methods are replaced on their class.
A span is (name, start, end, parent span, job id); spans live in flat arrays
and are written out once, when the run ends. Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name)
TARGETS = (
    ("pdom.matrixcore", "sym_eigen", "matrixcore.sym_eigen"),
    ("pdom.matrixcore", "inertia_of", "matrixcore.inertia_of"),
    ("pdom.matrixcore", "schur_split", "matrixcore.schur_split"),
    ("pdom.matrixcore", "lyapunov_solve", "matrixcore.lyapunov_solve"),
    ("pdom.matrixcore", "expm", "matrixcore.expm"),
    ("pdom.lti", "construct_certificate", "lti.construct_certificate"),
    ("pdom.lti", "check_dominance", "lti.check_dominance"),
    ("pdom.lti", "eigen_split_test", "lti.eigen_split_test"),
    ("pdom.dissipativity", "verify_dissipativity", "dissipativity.verify_dissipativity"),
    ("pdom.dissipativity", "find_passivity_storage", "dissipativity.find_passivity_storage"),
    ("pdom.lmi", "solve", "lmi.solve"),
    ("pdom.differential", "check_diff_dominance", "differential.check_diff_dominance"),
    ("pdom.differential", "check_diff_dissipativity", "differential.check_diff_dissipativity"),
    ("pdom.differential", "vertex_family", "differential.vertex_family"),
    ("pdom.differential", "LureSystem.__post_init__", "differential.LureSystem.build"),
    ("pdom.differential", "LureSystem.rhs", "differential.rhs"),
    ("pdom.interconnect", "closed_loop_certificate", "interconnect.closed_loop_certificate"),
    ("pdom.interconnect", "coupling_condition", "interconnect.coupling_condition"),
    ("pdom.cones", "positivity_probe", "cones.positivity_probe"),
    ("pdom.sim", "integrate_batch", "sim.integrate_batch"),
    ("pdom.sim", "classify_asymptotics", "sim.classify_asymptotics"),
)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.labels: list[str] = [t[2] for t in TARGETS]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.current_job = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, label_id: int, fn):
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(label_id)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.job.append(rec.current_job)
            rec.end.append(0)
            rec.stack.append(idx)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside loaded pdom modules."""
        modules = [m for name, m in list(sys.modules.items()) if name == "pdom" or name.startswith("pdom.")]
        for label_id, (module_name, path, _) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(label_id, original)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original, wrapper))

    def remove(self) -> None:
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())


class SpanTable:
    """Derived views over the recorded spans."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.labels = rec.labels
        self.name = a["name"]
        self.parent = a["parent"]
        self.duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def _mask(self, label: str) -> np.ndarray:
        return self.name == self.labels.index(label)

    def calls(self, label: str) -> int:
        return int(np.count_nonzero(self._mask(label)))

    def self_ms(self, label: str) -> float:
        return float(self.self_time[self._mask(label)].sum() / 1e6)

    def total_ms(self, label: str) -> float:
        return float(self.duration[self._mask(label)].sum() / 1e6)

    def nested_under(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with an ``outer`` span among their ancestors."""
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        inside = has_parent & (self.name[parent] == self.labels.index(outer))
        # widen one nesting level per pass until no span changes
        while True:
            wider = inside | (has_parent & inside[parent])
            if np.array_equal(wider, inside):
                break
            inside = wider
        return int(np.count_nonzero(inside & self._mask(inner)))
