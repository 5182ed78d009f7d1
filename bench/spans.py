"""Per-layer spans, recorded by rebinding relaysec's public functions.

Nothing under ``src/`` is changed: each traced function is replaced, for
the length of the traced pass, at the module attribute its caller looks it
up by, and the original is put back afterwards. A target whose attribute no
longer exists is skipped, and a layer whose function was never called is
reported as absent rather than as 0 ms, so work a refactor moves into
``run_sweep`` shows up as that span's self time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

SWEEP = "montecarlo.run_sweep"
GENERATE = "model.generate_realization"
PREPARE = "criteria.prepare_candidates"
SELECT = "criteria.select"
SECRECY = "secrecy.secrecy_rate"
EMIT = "cli.emit_csv"
COMPARE = "montecarlo.compare_criteria"

# (module key, attribute, span name); the module keys name the relaysec
# modules passed to ``Tracer.installed``.
TARGETS = (
    ("montecarlo", "generate_realization", GENERATE),
    ("montecarlo", "secrecy_rate", SECRECY),
    ("criteria", "prepare_candidates", PREPARE),
    ("criteria", "select", SELECT),
    ("cli", "run_sweep", SWEEP),
    ("cli", "emit_csv", EMIT),
    ("cli", "compare_criteria", COMPARE),
)


def _select_name(args, kwargs) -> str:
    kind = args[0] if args else kwargs.get("kind")
    return f"{SELECT}.{getattr(kind, 'value', kind)}"


def _array_bytes(obj) -> int:
    """Computed bytes of the numpy arrays an object holds as attributes."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


class Tracer:
    """Spans as ``[name, start, end, parent]`` rows; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self.candidate_bytes = 0
        self._open = []

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self._open
        namer = _select_name if span_name == SELECT else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([namer(args, kwargs) if namer else span_name, 0.0, 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if span_name == PREPARE:
                self.candidate_bytes = max(self.candidate_bytes, _array_bytes(return_value))
            return return_value

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Rebind every target that exists; restore the originals on exit."""
        saved = []
        try:
            for key, attr, span_name in TARGETS:
                module = modules[key]
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def layer_totals(spans: list) -> dict:
    """``{name: (calls, total_s, self_s)}``; self time excludes child spans."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals = {}
    for (name, start, end, _), children in zip(spans, child_s):
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + (end - start), own + (end - start - children))
    return totals
