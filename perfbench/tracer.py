"""Per-layer tracing installed from outside the package.

Each traced public function is replaced, on every module attribute that
refers to it, by a wrapper that counts calls and accumulates busy time
(inclusive) and self time (busy time minus the time of traced callees).
Boundary calls additionally keep a full span: name, start, end, its own
id and the id of the enclosing span. Per-point leaves keep aggregates
only, because a dense run makes about a million of them.

Wrappers go onto the attribute the caller actually looks up: a module
global that another module imported by name (``cli`` holds its own
``increasing_intervals``), a module attribute reached through the module
(``witness`` calls ``linalg.partial_trace``) and the package re-export
are all the same function object, so every attribute bound to that object
is replaced.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

MODULES = ("", ".linalg", ".states", ".witness", ".dephasing", ".spinchain", ".blp", ".cli")

# (metric name, module, attribute path, keep a full span)
TARGETS = (
    ("spinchain.build_hamiltonian", ".spinchain", "build_hamiltonian", False),
    ("spinchain.scenario", ".spinchain", "scenario", True),
    ("linalg.hermitian_eigensystem", ".linalg", "hermitian_eigensystem", False),
    ("linalg.unitary_at", ".linalg", "unitary_at", False),
    ("linalg.partial_trace", ".linalg", "partial_trace", False),
    ("linalg.tensor_product", ".linalg", "tensor_product", False),
    ("linalg.hermitian_part", ".linalg", "hermitian_part", False),
    ("linalg.trace_norm", ".linalg", "trace_norm", False),
    ("states.validate_density_matrix", ".states", "validate_density_matrix", False),
    ("witness.EigenPropagator.unitary", ".witness", "EigenPropagator.unitary", False),
    ("witness.EigenPropagator.evolve", ".witness", "EigenPropagator.evolve", False),
    ("witness.evaluate_surface", ".witness", "evaluate_surface", True),
    ("witness.evaluate_point", ".witness", "evaluate_point", True),
    ("witness.classify_values", ".witness", "classify_values", False),
    ("witness.reduced_distance", ".witness", "reduced_distance", False),
    ("dephasing.DiagonalPropagator.evolve", ".dephasing", "DiagonalPropagator.evolve", False),
    ("dephasing.full_model", ".dephasing", "full_model", True),
    ("blp.nm_measure_maximized", ".blp", "nm_measure_maximized", True),
    ("blp.distance_profile", ".blp", "distance_profile", False),
    ("blp.increasing_intervals", ".blp", "increasing_intervals", False),
    ("cli.run", ".cli", "run", True),
)

NAMES = tuple(name for name, _, _, _ in TARGETS)


class Tracer:
    """Call statistics and spans of one process; single-threaded use only."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in NAMES}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # frames: [time spent in traced callees, span id]
        self._last_id = 0

    def add_span(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span the caller timed itself."""
        self._last_id += 1
        self.spans.append((self._last_id, parent, name, start, end))

    def wrap(self, name: str, fn, keep_span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep_span:
                self._last_id += 1
                span_id = self._last_id
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    self.spans.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module("backflow" + m) for m in MODULES]
        for name, module, path, keep_span in TARGETS:
            owner = importlib.import_module("backflow" + module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, keep_span)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)
