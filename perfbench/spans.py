"""Spans around the calls into each solver layer, and the per-layer table.

The benchmark wraps the public functions a solve goes through -- from its own
files, without changing the program -- so that each call records a span: a
name, a start, an end and the span it was called from. Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the durations of its children, so the self times of all spans
of a cell add up to the cell's own duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> layer it is charged to
LAYER_OF = {
    "cell": "harness",  # backend construction, configuration and start point
    "engine": "engine",  # engine.run: the outer loop itself
    "cp": "cp",  # engine.solve_cp_model: the lower-bound MILP
    "offset": "offset",  # engine.select_offset
    "offset.check": "offset",  # milp.check_nonempty, called by select_offset
    "project": "project",  # milp.project, called by engine and local
    "local": "local",  # local.pgm_solve
    "highs": "highs",  # scipy.optimize.milp, the one route into HiGHS
}
LAYERS = ("harness", "engine", "cp", "offset", "project", "local", "highs")


@dataclass
class Span:
    name: str
    parent: int  # index of the calling span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn, recording a span per call; note(args, kwargs, result) adds attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.attrs.update(note(args, kwargs, result))
            return result

        return traced


def _cp_note(args, kwargs, result):
    return {"cuts": len(args[0])}


def _local_note(args, kwargs, result):
    return {"steps": result.iters, "critical": bool(result.critical)}


def _highs_note(args, kwargs, result):
    return {"retry": kwargs.get("options", {}).get("presolve") is False}


@contextmanager
def instrument(tracer: Tracer):
    """Route the layer entry points through the tracer; restore them on exit.

    HighsBackend binds scipy.optimize.milp when it is constructed, so only
    backends constructed inside this block are traced.
    """
    import scipy.optimize

    from gradcut import engine, local

    targets = [
        (engine, "run", "engine", None),
        (engine, "solve_cp_model", "cp", _cp_note),
        (engine, "select_offset", "offset", None),
        (engine, "check_nonempty", "offset.check", None),
        (engine, "project", "project", None),
        (local, "project", "project", None),
        (engine, "pgm_solve", "local", _local_note),
        (scipy.optimize, "milp", "highs", _highs_note),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, note in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def to_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.parent, s.start, s.end, s.attrs] for s in spans]


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(name, parent, start, end, attrs) for name, parent, start, end, attrs in rows]


def check_nesting(spans: list[Span]) -> None:
    """Each span lies inside its parent, and siblings do not overlap."""
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise ValueError(f"span {i} ({s.name}) ends before it starts")
        if s.parent < 0:
            continue
        if not 0 <= s.parent < i:
            raise ValueError(f"span {i} ({s.name}) has parent {s.parent} recorded after it")
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            raise ValueError(f"span {i} ({s.name}) leaves its parent {p.name}")
        if s.start < last_child_end.get(s.parent, -float("inf")):
            raise ValueError(f"span {i} ({s.name}) overlaps an earlier sibling")
        last_child_end[s.parent] = s.end


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times over the given spans, and the sum of their self times."""
    check_nesting(spans)
    own = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        self_s[LAYER_OF[s.name]] += t

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def inclusive(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    highs_callers = {s.parent for s in spans if s.name == "highs"}

    def reaching_highs(idx):
        return sum(1 for i in idx if i in highs_callers)

    cp, project, offset, checks, local, highs = (
        of(n) for n in ("cp", "project", "offset", "offset.check", "local", "highs")
    )
    return {
        "cp.calls": len(cp),
        "cp.s": inclusive(cp),
        "cp.self_s": self_s["cp"],
        "cp.cuts": sum(spans[i].attrs["cuts"] for i in cp),
        "project.calls": len(project),
        "project.s": inclusive(project),
        "project.self_s": self_s["project"],
        "project.solves": reaching_highs(project),
        "offset.calls": len(offset),
        "offset.s": inclusive(offset),
        "offset.self_s": self_s["offset"],
        "offset.solves": reaching_highs(checks),
        "local.calls": len(local),
        "local.s": inclusive(local),
        "local.self_s": self_s["local"],
        "local.steps": sum(spans[i].attrs["steps"] for i in local),
        "local.critical": sum(1 for i in local if spans[i].attrs["critical"]),
        "highs.calls": len(highs),
        "highs.s": inclusive(highs),
        "highs.retries": sum(1 for i in highs if spans[i].attrs["retry"]),
        "engine.self_s": self_s["engine"],
        "harness.self_s": self_s["harness"],
        "self_sum_s": sum(own),
    }
