"""Observation-only tracing of f2quad from outside the package.

A span is opened around a call into one of the package's layers by
replacing the binding the caller actually looks up: a module-level
name in the caller's module (``f2quad.bsg.goldreich_levin`` is the
choice-function GL, ``f2quad.recovery.goldreich_levin`` the
integration GL, which is left alone) or a method on the class that
defines it.  Wrappers exist only inside ``Tracer.installed()``, which
puts every original binding back on exit, also after an error.

Each span records its name, start, end, parent span, solve id, the
change in the root oracle's ``query_count`` over the span, and an
integer outcome (what the call returned, or the number of points it
evaluated).  Spans stay in memory as flat columns and are written out
as JSON lines when the benchmark ends.  Self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
import functools
import gzip
import time

import numpy as np


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` in a span.  ``name`` is a span name or a
    function of the call's arguments; ``pre`` sees the arguments before
    the call and ``outcome`` maps (arguments, result, pre) to an int."""

    owner: object
    attr: str
    name: object
    outcome: object = None
    pre: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve_ids = array("i")
        self.queries = array("q")
        self.outcome = array("q")
        self._stack: list[int] = []
        self._solve_id = -1
        self._root = None
        self._active = False

    # -- recording ------------------------------------------------------------

    @contextmanager
    def solve(self, solve_id: int, root_oracle):
        """Record spans, under one "solve" span, only inside this block;
        query counts are read from `root_oracle`."""
        self._solve_id, self._root, self._active = solve_id, root_oracle, True
        span = self.enter("solve")
        try:
            yield
        finally:
            self.exit(span)
            self._active = False

    def enter(self, name: str) -> int:
        i = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_ids.append(self._solve_id)
        self.queries.append(self._root.query_count if self._root is not None else 0)
        self.outcome.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def exit(self, i: int, outcome: int = -1) -> None:
        self.end[i] = self.clock()
        if self._root is not None:
            self.queries[i] = self._root.query_count - self.queries[i]
        self.outcome[i] = outcome
        self._stack.pop()

    def wrap(self, probe: Probe, fn):
        name, pre, outcome = probe.name, probe.pre, probe.outcome

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            seen = pre(args) if pre is not None else None
            i = self.enter(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(i, -2)
                raise
            self.exit(i, -1 if outcome is None else int(outcome(args, result, seen)))
            return result

        return traced

    @contextmanager
    def installed(self, probes):
        """Install a wrapper for every probe; restore the originals on exit."""
        saved = []
        try:
            for p in probes:
                original = vars(p.owner)[p.attr]
                saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self.wrap(p, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        cols = dict(name=np.frombuffer(self.name, dtype=np.int32),
                    start=np.frombuffer(self.start, dtype=np.float64),
                    end=np.frombuffer(self.end, dtype=np.float64),
                    parent=np.frombuffer(self.parent, dtype=np.int32),
                    solve=np.frombuffer(self.solve_ids, dtype=np.int32),
                    queries=np.frombuffer(self.queries, dtype=np.int64),
                    outcome=np.frombuffer(self.outcome, dtype=np.int64))
        return {k: v.copy() for k, v in cols.items()}

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line to a gzip file; times are
        seconds on the tracer's clock."""
        c = {k: v.tolist() for k, v in self.columns().items()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (nid, t0, t1, parent, solve, queries, outcome) in enumerate(
                    zip(c["name"], c["start"], c["end"], c["parent"],
                        c["solve"], c["queries"], c["outcome"])):
                fh.write(f'{{"id": {i}, "name": "{self.names[nid]}", '
                         f'"start": {t0!r}, "end": {t1!r}, "parent": {parent}, '
                         f'"solve": {solve}, "queries": {queries}, '
                         f'"outcome": {outcome}}}\n')
        return len(c["start"])


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


class SpanStats:
    """Per-name sums over a span table, normalised per traced solve."""

    def __init__(self, names: list[str], cols: dict[str, np.ndarray],
                 solves: int):
        self.ids = {n: i for i, n in enumerate(names)}
        self.c = cols
        self.dur = cols["end"] - cols["start"]
        self.self_ = self_times(cols["start"], cols["end"], cols["parent"])
        self.solves = max(1, solves)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.c["name"], ids)

    def count(self, *names, outcomes=None) -> int:
        m = self.mask(*names)
        if outcomes is not None:
            m &= np.isin(self.c["outcome"], list(outcomes))
        return int(np.count_nonzero(m))

    def per_solve_count(self, *names, outcomes=None) -> float:
        return self.count(*names, outcomes=outcomes) / self.solves

    def total_s(self, *names) -> float:
        return float(self.dur[self.mask(*names)].sum()) / self.solves

    def self_s(self, *names) -> float:
        return float(self.self_[self.mask(*names)].sum()) / self.solves

    def mean_s(self, *names) -> float:
        """Mean duration of one span of `names` (0 when none ran)."""
        k = self.count(*names)
        return float(self.dur[self.mask(*names)].sum()) / k if k else 0.0

    def queries(self, *names) -> float:
        return float(self.c["queries"][self.mask(*names)].sum()) / self.solves

    def outcome_sum(self, *names) -> float:
        return float(self.c["outcome"][self.mask(*names)].sum()) / self.solves

    def rate(self, names, hit, among=None) -> float:
        """Share of the spans of `names` (only those whose outcome is in
        `among`, if given) whose outcome is in `hit`; 0 when none ran."""
        out = self.c["outcome"][self.mask(*names)]
        if among is not None:
            out = out[np.isin(out, list(among))]
        return float(np.isin(out, list(hit)).mean()) if out.size else 0.0
