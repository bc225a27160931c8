"""Spans around ruleloc's public functions, recorded from outside the package.

Each traced name is patched where its caller looks it up (for example
``ruleloc.cli.transform``, the name ``cmd_train`` calls), so nothing
under src/ changes.  A span records id, parent, the root call it belongs
to, name, start and end; spans stay in memory until the run ends.
Parents are tracked per thread, and a span opened on a pool thread with
no open span is parented to the current root call.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter


def _size(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


# (module, attribute path, span name, counters(args, result) -> [(name, value)])
TARGETS = (
    ("ruleloc.cli", "read_csv_columns", "cli.read_csv", None),
    ("ruleloc.cli", "build_template_base", "logfeatures.build",
     lambda a, r: [("logfeatures.lines", _size(a[0])), ("logfeatures.templates", len(r))]),
    ("ruleloc.cli", "match_and_aggregate", "logfeatures.match",
     lambda a, r: [("logfeatures.lines", _size(a[1]))]),
    ("ruleloc.cli", "fit", "binarize.fit",
     lambda a, r: [("binarize.catalog_features", len(r.catalog))]),
    ("ruleloc.cli", "transform", "binarize.transform", None),
    ("ruleloc.cli", "row_feature_masks", "binarize.window_binarize", None),
    ("ruleloc.cli", "select_rule_set", "select.select",
     lambda a, r: [("select.rules_accepted", len(r))]),
    ("ruleloc.select", "generate_rule", "generate.generate_rule", None),
    ("ruleloc.generate", "greedy_ratio_seed", "generate.seed", None),
    ("ruleloc.generate", "SurrogateState.build", "generate.surrogate_build", None),
    ("ruleloc.generate", "rule_objective", "core.rule_objective", None),
    ("ruleloc.localize", "FaultModel.from_json", "localize.model_load", None),
    ("ruleloc.localize", "FaultModel.to_json", "localize.model_write", None),
    ("ruleloc.cli", "localization_report", "localize.report", None),
    ("ruleloc.cli", "evaluate_cases", "evaluate.evaluate_cases",
     lambda a, r: [("evaluate.cases", len(a[1]))]),
) + tuple(
    (module, "rank_fault_types", "localize.rank",
     lambda a, r: [("localize.rows_scored", len(a[1].samples)),
                   ("localize.no_signal_windows", int(r.no_signal))])
    for module in ("ruleloc.localize", "ruleloc.evaluate")
) + tuple(
    (module, "rank_services", "localize.rank", None)
    for module in ("ruleloc.localize", "ruleloc.evaluate")
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, call, name, start, end)
        self.counts: list[tuple] = []  # (call, name, value)
        self.call = 0  # id of the open root span; 0 outside any call
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str):
        """Root span of one program call; spans opened inside belong to it."""
        sid = next(self._ids)
        self.call = sid
        start = perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, 0, sid, name, start, perf_counter()))
            self.call = 0

    def wrap(self, name: str, fn, counters=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.call
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self.call, name, start, end))
            if counters is not None:
                try:
                    self.counts.extend((self.call, k, v) for k, v in counters(args, result))
                except (IndexError, AttributeError, TypeError):
                    self.missing.add(f"counters of {name}")
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install every span wrapper for the duration of the block."""
        undo = []
        try:
            for module_name, path, name, counters in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    self.missing.add(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, counters))
                else:
                    wrapped = self.wrap(name, raw, counters)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tcall\tname\tstart\tend\n")
            for sid, parent, call, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{call}\t{name}\t{start!r}\t{end!r}\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for sid, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, ()))
        for sid, _, _, _, start, end in spans
    }


def call_metrics(spans, counts) -> dict[int, dict[str, float]]:
    """Per root call: seconds per layer, span counts, counters and derived ratios."""
    own = self_times(spans)
    per_call: dict[int, dict[str, float]] = {}
    windows: dict[int, list] = {}
    for sid, parent, call, name, start, end in spans:
        m = per_call.setdefault(call, {})
        m[name + "_s"] = m.get(name + "_s", 0.0) + (end - start)
        m[name + "_calls"] = m.get(name + "_calls", 0) + 1
        if parent == 0:
            m["cli.self_s"] = own[sid]
        elif name == "generate.generate_rule":
            m["generate.self_s"] = m.get("generate.self_s", 0.0) + own[sid]
        if name in ("binarize.transform", "select.select"):
            windows.setdefault(call, []).append((start, end))
    for call, name, value in counts:
        m = per_call.setdefault(call, {})
        m[name] = m.get(name, 0) + value
    for call, m in per_call.items():
        spans_of = windows.get(call)
        if spans_of:
            wall = max(e for _, e in spans_of) - min(s for s, _ in spans_of)
            m["select.pool_speedup"] = sum(e - s for s, e in spans_of) / wall if wall > 0 else 1.0
        generated = m.get("generate.generate_rule_calls", 0)
        if generated:
            m["select.accept_ratio"] = m.get("select.rules_accepted", 0) / generated
        m["generate.mm_iterations"] = m.get("generate.surrogate_build_calls", 0)
    return per_call

