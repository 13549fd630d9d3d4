"""Per-layer tracing from outside the program.

The traced run replaces functions of biharm with timing wrappers at the
modules where their callers look them up (``biharm.builder.solve_linear``
is the name ``build_raw`` calls, ``biharm.numeric.build`` the one
``solve_dirichlet`` calls).  Spans nest: each wrapper records its inclusive
time, its self time (inclusive minus the spans it caused) and counts taken
from its arguments or result, into the bucket that is current.

A hook whose function no longer exists, or a count that can no longer be
read from a function's arguments or result, is reported as absent and its
metrics read 0, so the traced run outlives the deletions a later change
makes.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

Counter = Callable[[tuple, dict, object], float]


@dataclass
class _Frame:
    name: str
    keys: Tuple[str, str, str]  # the bucket keys of name: _s, _self_s, _calls
    start: float
    child: float = 0.0


@dataclass
class Hook:
    """Wrap ``module.attr`` (module given by dotted name) as span ``span``."""

    target: str
    span: str
    counts: Dict[str, Counter] = field(default_factory=dict)
    # metric -> ancestor span: count values_at points per ancestor, say
    nested: Dict[str, str] = field(default_factory=dict)


class NullTracer:
    """Tracer stand-in for untraced rounds: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, metric: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self, hooks: List[Hook]):
        self.hooks = hooks
        self.stack: List[_Frame] = []
        self.bucket: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._keys: Dict[str, Tuple[str, str, str]] = {}

    # -- buckets ---------------------------------------------------------

    def new_bucket(self) -> Dict[str, float]:
        self.bucket = defaultdict(float)
        return self.bucket

    def add(self, metric: str, value: float) -> None:
        self.bucket[metric] += value

    def peak(self, metric: str, value: float) -> None:
        self.bucket[metric] = max(self.bucket[metric], value)

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        keys = self._keys.get(name)
        if keys is None:
            keys = self._keys[name] = (name + "_s", name + "_self_s", name + "_calls")
        frame = _Frame(name, keys, time.perf_counter())
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        stack, bucket = self.stack, self.bucket
        stack.pop()
        if stack:
            stack[-1].child += elapsed
        total, own, calls = frame.keys
        # Inclusive time counts once per outermost span of a name, so that
        # build -> build (F rebuilding H) is not timed twice.
        if all(f.name != frame.name for f in stack):
            bucket[total] += elapsed
        bucket[own] += elapsed - frame.child
        bucket[calls] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- hooks -----------------------------------------------------------

    def _wrap(self, fn, hook: Hook):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            for metric, count in hook.counts.items():
                try:
                    value = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function's arguments or result changed shape
                    if metric not in tracer.absent:
                        tracer.absent.append(metric)
                    continue
                if metric.endswith("_max"):
                    tracer.peak(metric, value)
                else:
                    tracer.add(metric, value)
                for nested_metric, ancestor in hook.nested.items():
                    if any(f.name == ancestor for f in tracer.stack):
                        tracer.add(nested_metric, value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for hook in self.hooks:
            module_name, _, attr = hook.target.rpartition(".")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not hasattr(module, attr):
                if hook.target not in self.absent:
                    self.absent.append(hook.target)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def per_round(setup: Dict[str, float], rounds: List[Dict[str, float]], metric: str) -> float:
    """A layer metric for one round: what set-up did plus the median round.

    ``*_max`` metrics take the maximum over set-up and every round.
    """
    if metric.endswith("_max"):
        return max([setup.get(metric, 0.0)] + [r.get(metric, 0.0) for r in rounds])
    return setup.get(metric, 0.0) + median([r.get(metric, 0.0) for r in rounds])
