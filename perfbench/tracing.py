"""In-memory spans around the calls into each fva_pricer module.

The tracer wraps module-level functions (and the pricing oracles'
`value_and_slope`) from outside the package; nothing in the package
knows it is traced.  A span records its name, layer, start, end, parent,
thread and request id.  Spans opened on a worker thread with no open span
of their own take the current request as parent, so solves run by the
CLI's thread fan-out still hang off the request that caused them.

Calls made tens of thousands of times per solve (the tridiagonal solve and
the funding-pattern update inside `pde`) are not spans: their counts and
summed durations are added to the enclosing span's `inline` counters.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> public functions whose calls from outside the layer get a span
SPANNED = {
    "pde": ("solve", "solve_american", "solve_surface"),
    "portfolio": ("netting_report", "build_strategy"),
    "replication": ("simulate_hedge",),
    "analytic": ("bs_price", "long_position_price", "zero_haircut_quotes",
                 "zero_haircut_spread", "implied_vol", "bs_vega", "norm_cdf", "norm_pdf"),
}
# pricing-oracle classes in `replication`; every value_and_slope call is a span
ORACLES = ("AnalyticOracle", "PdeOracle")
# names bound in `pde` whose calls are counted inline on the enclosing solve:
# global name -> counter kind
INLINE = {"solve_banded": "tridiag", "financing_arrays": "funding"}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "thread", "request",
                 "inline")

    def __init__(self, sid, name, layer, start, parent, thread, request):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.request = request
        # kind -> [calls, summed seconds, summed rows]
        self.inline = defaultdict(lambda: [0, 0.0, 0])

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the union of its children and its inline calls.

    Children on different threads can overlap; the union counts that
    overlap once.
    """
    covered = union_length((max(c.start, span.start), min(c.end, span.end))
                           for c in children if c.end > span.start and c.start < span.end)
    inline = sum(v[1] for v in span.inline.values())
    return span.duration - covered - inline


class Tracer:
    """Collects spans while installed into a loaded fva_pricer package."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._request: Span | None = None
        self._ids = iter(range(1, 1 << 62))
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._request
        span = Span(next(self._ids), name, layer, perf_counter(),
                    parent.id if parent else None, threading.get_ident(),
                    self._request.request if self._request else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def begin_request(self, request_id: int) -> Span:
        span = self.open("cli.request", "cli")
        span.request = request_id
        self._request = span
        return span

    def end_request(self, span: Span) -> None:
        self.close(span)
        self._request = None

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name: str, layer: str, module: str, always: bool):
        def wrapper(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            span = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def _inline(self, fn, kind: str):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter = stack[-1].inline[kind]
                counter[0] += 1
                counter[1] += perf_counter() - t0
                if kind == "tridiag":
                    counter[2] += int(np.shape(args[1])[-1])
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _require(module, name: str):
        value = getattr(module, name, None)
        if not callable(value):
            raise RuntimeError(f"tracer: {module.__name__} has no callable {name}; "
                               "update perfbench/tracing.py")
        return value

    def install(self, package: str = "fva_pricer") -> None:
        """Wrap the traced functions wherever the package's modules bind them.

        A traced name that the package no longer defines raises, so a rename
        has to be followed here instead of reporting its counts as zero.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, names in SPANNED.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in names:
                original = self._require(home, fname)
                wrapper = self._spanned(original, f"{layer}.{fname}", layer,
                                        home.__name__, always=False)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        replication = sys.modules[f"{package}.replication"]
        for cname in ORACLES:
            cls = self._require(replication, cname)
            if "value_and_slope" not in vars(cls):
                raise RuntimeError(f"tracer: {replication.__name__}.{cname} defines no "
                                   "value_and_slope; update perfbench/tracing.py")
            self._patch(cls, "value_and_slope",
                        self._spanned(vars(cls)["value_and_slope"], "replication.oracle",
                                      "replication", replication.__name__, always=True))
        pde = sys.modules[f"{package}.pde"]
        for attr, kind in INLINE.items():
            self._patch(pde, attr, self._inline(self._require(pde, attr), kind))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy times and self times of one traced run: name -> (value, unit)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_ms(name):
        return 1000.0 * ratio(busy(name), calls(name))

    pde = [s for s in spans if s.layer == "pde"]
    n_solves = len(pde)

    def inline(kind, slot):
        return sum(s.inline[kind][slot] for s in pde if kind in s.inline)

    requests = by_name["cli.request"]
    child_sum = sum(c.duration for r in requests for c in children[r.id])
    child_union = sum(union_length((c.start, c.end) for c in children[r.id])
                      for r in requests)
    tridiag_calls = inline("tridiag", 0)
    funding_calls = inline("funding", 0)
    return {
        "pde.self_s": (sum(self_time(s, children[s.id]) for s in pde), "s"),
        "pde.solve.calls": (calls("pde.solve"), "count"),
        "pde.solve.mean_ms": (mean_ms("pde.solve"), "ms"),
        "pde.solve_american.calls": (calls("pde.solve_american"), "count"),
        "pde.solve_american.mean_ms": (mean_ms("pde.solve_american"), "ms"),
        "pde.solve_surface.calls": (calls("pde.solve_surface"), "count"),
        "pde.solve_surface.mean_ms": (mean_ms("pde.solve_surface"), "ms"),
        "pde.tridiag.calls": (tridiag_calls, "count"),
        "pde.tridiag.busy_s": (inline("tridiag", 1), "s"),
        "pde.tridiag.rows_mean": (ratio(inline("tridiag", 2), tridiag_calls), "rows"),
        "pde.tridiag.per_solve": (ratio(tridiag_calls, n_solves), "count"),
        "funding.pattern_updates": (funding_calls, "count"),
        "funding.pattern_updates_per_solve": (ratio(funding_calls, n_solves), "count"),
        "funding.busy_s": (inline("funding", 1), "s"),
        "cli.self_ms": (1000.0 * ratio(sum(self_time(r, children[r.id]) for r in requests),
                                       len(requests)), "ms"),
        "cli.fanout_overlap": (child_sum / child_union if child_union > 0 else 1.0, "ratio"),
        "portfolio.netting_report.calls": (calls("portfolio.netting_report"), "count"),
        "portfolio.netting_report.busy_s": (busy("portfolio.netting_report"), "s"),
        "replication.simulate_hedge.calls": (calls("replication.simulate_hedge"), "count"),
        "replication.simulate_hedge.busy_s": (busy("replication.simulate_hedge"), "s"),
        "replication.oracle.calls": (calls("replication.oracle"), "count"),
        "replication.oracle.busy_s": (busy("replication.oracle"), "s"),
        "replication.self_s": (sum(self_time(s, children[s.id])
                                   for s in by_name["replication.simulate_hedge"]), "s"),
        "analytic.calls": (sum(1 for s in spans if s.layer == "analytic"), "count"),
        "analytic.busy_s": (sum(s.duration for s in spans if s.layer == "analytic"), "s"),
    }
