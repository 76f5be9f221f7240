"""In-memory span recorder for a traced CLI run.

Each layer's public functions are wrapped at the module attribute their
callers look up (``uscspec.cli.build_gme``, ``uscspec.spectra.floquet_harmonics``,
...), so nothing under ``src/`` changes. A span records its name, thread,
start, end and parent; every thread keeps its own parent stack because the
CLI maps sweep points over a thread pool. Spans that open on a pool thread
take the open ``cli._parallel_map`` span of the submitting thread as parent.

``layer_times`` turns the spans into per-layer self times. A span's self
intervals are its interval minus the union of its children's intervals.
Where self intervals of k spans on different threads overlap, each instant
counts 1/k to each, so the layer times of a run add up to its wall time.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, list] = {}
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent: int | None = None

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def key(self, name: str, value) -> None:
        with self._lock:
            self.keys.setdefault(name, []).append(value)

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, module, attr: str, name: str, before=None, after=None,
             pool: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records a span named
        ``name``. ``before(bound_args)`` runs before the call and ``after(
        bound_args, result)`` after it; both see the arguments bound to the
        signature, defaults applied."""
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if before or after:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            if before:
                before(bound.arguments)
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            with self._lock:
                index = len(self.spans)
                self.spans.append({"name": name, "thread": threading.get_ident(),
                                   "parent": parent, "start": time.perf_counter(),
                                   "end": None})
            stack.append(index)
            outer_pool = self._pool_parent
            if pool:
                self._pool_parent = index
            try:
                result = fn(*args, **kwargs)
            finally:
                if pool:
                    self._pool_parent = outer_pool
                stack.pop()
                self.spans[index]["end"] = time.perf_counter()
            if after:
                after(bound.arguments, result)
            return result

        setattr(module, attr, wrapper)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _subtract(lo: float, hi: float, holes: list[tuple[float, float]]):
    cur = lo
    for h_lo, h_hi in holes:
        if h_hi <= cur or h_lo >= hi:
            continue
        if h_lo > cur:
            yield cur, h_lo
        cur = max(cur, h_hi)
    if cur < hi:
        yield cur, hi


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Wall-clock self time per span name (see the module docstring)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    events = []  # (time, +1/-1, name)
    for i, s in enumerate(spans):
        holes = _union(children.get(i, []))
        for lo, hi in _subtract(s["start"], s["end"], holes):
            events.append((lo, 1, s["name"]))
            events.append((hi, -1, s["name"]))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict[str, float] = {}
    active: dict[str, int] = {}
    last = None
    for t, step, name in events:
        n_active = sum(active.values())
        if last is not None and n_active:
            share = (t - last) / n_active
            for key, k in active.items():
                if k:
                    totals[key] = totals.get(key, 0.0) + share * k
        last = t
        active[name] = active.get(name, 0) + step
    return totals
