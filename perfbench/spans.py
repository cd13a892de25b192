"""Spans around lpconformal's layer boundaries, recorded from outside the package.

A :class:`Tracer` replaces each traced callable with a wrapper in every
``lpconformal`` module namespace (and class) that binds it, so calls made
through any import path are seen. Spans stay in memory while jobs run and
are summarised, or written out, afterwards. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    job: int
    info: object = None


def _path(a):
    return str(a["path"])


def _atoms(a):
    return a["p"].n + a["q"].n


def _splits_and_cells(a):
    return a["n_splits"], a["n_splits"] * a["k_test"] * a["matrix"].n_labels


# (span name, module that defines it, attribute path, info taken from the
# call's bound arguments). The info is read inside the span.
TARGETS = (
    ("cli.main", "lpconformal.cli", "main", None),
    ("harness.read_matrix", "lpconformal.harness", "read_matrix", _path),
    ("harness.read_scores", "lpconformal.harness", "read_scores", _path),
    ("lp_metric.lp_distance", "lpconformal.lp_metric", "lp_distance", _atoms),
    ("estimation.estimate_lp_params", "lpconformal.estimation", "estimate_lp_params", None),
    ("harness.evaluate", "lpconformal.harness", "evaluate", _splits_and_cells),
    ("harness.MethodSpec.threshold", "lpconformal.harness", "MethodSpec.threshold", None),
    ("shiftlab.perturb_sample", "lpconformal.shiftlab", "perturb_sample", None),
    ("harness.EvalReport.to_dict", "lpconformal.harness", "EvalReport.to_dict", None),
    ("harness.write_report_csv", "lpconformal.harness", "write_report_csv", None),
)


class Tracer:
    """Records :class:`Span` objects while installed; a no-op when not."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                if info is not None:
                    try:
                        span.info = info(signature.bind(*args, **kwargs).arguments)
                    except Exception:  # tracing must never change how the call behaves
                        span.info = None
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "lpconformal" or key.startswith("lpconformal.")
        ]
        for name, module, attr, info in TARGETS:
            owner = sys.modules[module]
            *class_path, leaf = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, info)
            owners = [owner] if class_path else [
                mod for mod in modules if getattr(mod, leaf, None) is original
            ]
            for target in owners:
                self._patched.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._patched):
            setattr(target, leaf, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[idx]
        ]
        out.append((span.end - span.start) - _covered(clipped))
    return out


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Wall time inside each span name, counting a span nested in a same-named one once."""
    busy: dict[str, float] = defaultdict(float)
    for span in spans:
        parent, nested = span.parent, False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            busy[span.name] += span.end - span.start
    return dict(busy)


def self_by_name(spans: list[Span]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        total[span.name] += own
    return dict(total)
