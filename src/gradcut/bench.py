"""Instance ingestion, run traces, and residue statistics.

Instances come from MDPLIB-style triplet files, dense matrix files, canonical
JSON, or the synthetic generators. Diversity data is negated on ingestion:
minimizing 0.5 * x'(-D)x equals maximizing the pairwise-distance sum, so
reported optima are the negatives of diversity values.

Residues normalize the best-so-far value of a run onto [0, 1]:
R(t) = (f(t) - f*) / (f0 - f*), evaluated as a right-continuous step function
of either iteration count or wall-clock budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import FeasibleDomain, QuadraticObjective, symmetrize

SOURCES = ("mdplib_triplet", "dense_matrix", "canonical_json", "synthetic")


class ParseError(ValueError):
    """Malformed instance file; carries path and line number."""

    def __init__(self, path, lineno: Optional[int], message: str):
        self.path = str(path)
        self.lineno = lineno
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        super().__init__(f"{where}: {message}")


class DataError(ValueError):
    """Structurally valid file with inconsistent numeric content."""


@dataclass(frozen=True)
class Instance:
    name: str
    obj: QuadraticObjective
    dom: FeasibleDomain
    best_known: Optional[float] = None
    source: str = "synthetic"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown instance source {self.source!r}")
        if self.obj.n != self.dom.n:
            raise ValueError("objective and domain dimensions differ")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    t: float
    ub: float
    lb: float
    n_cuts: int
    tau: float


@dataclass
class RunTrace:
    records: list[TraceRecord]
    config_name: str
    instance_name: str
    f0: float


@dataclass(frozen=True)
class ResidueSeries:
    """Right-continuous step function of residue against a budget axis."""

    points: tuple  # ((budget, residue), ...) sorted by budget
    budget_kind: str  # iterations | runtime

    def value_at(self, budget: float) -> float:
        value = 1.0
        for b, r in self.points:
            if b > budget:
                break
            value = r
        return value


def validate_trace(trace: RunTrace) -> None:
    records = trace.records
    for prev, cur in zip(records, records[1:]):
        if cur.k <= prev.k:
            raise ValueError("trace iteration numbers must strictly increase")
        if cur.t < prev.t:
            raise ValueError("trace times must be nondecreasing")
        if cur.ub > prev.ub + 1e-12:
            raise ValueError("trace upper bounds must be nonincreasing")


def residue(trace: RunTrace, f_star: float, budget_kind: str = "iterations") -> ResidueSeries:
    """Normalized optimality-gap curve of the best-so-far value."""
    if budget_kind not in ("iterations", "runtime"):
        raise ValueError(f"unknown budget kind {budget_kind!r}")
    if not trace.records:
        raise ValueError("cannot compute residues of an empty trace")
    denom = trace.f0 - f_star
    if denom <= 0:
        # run started at (or below) the reference optimum
        return ResidueSeries(points=((0.0, 0.0),), budget_kind=budget_kind)
    points: list[tuple[float, float]] = [(0.0, 1.0)]
    best = math.inf
    for rec in trace.records:
        best = min(best, rec.ub)
        r = (best - f_star) / denom
        r = min(1.0, max(0.0, r))
        b = float(rec.k) if budget_kind == "iterations" else rec.t
        if points and points[-1][0] == b:
            points[-1] = (b, min(points[-1][1], r))
        else:
            points.append((b, min(points[-1][1], r)))
    return ResidueSeries(points=tuple(points), budget_kind=budget_kind)


@dataclass(frozen=True)
class ProfileBand:
    grid: np.ndarray
    median: np.ndarray
    q1: np.ndarray
    q3: np.ndarray


def median_profile(series: Sequence[ResidueSeries], grid: Sequence[float]) -> ProfileBand:
    """Median and interquartile band of residues across problems, on a budget grid."""
    series = list(series)
    if not series:
        raise ValueError("need at least one residue series")
    kinds = {s.budget_kind for s in series}
    if len(kinds) > 1:
        raise ValueError("mixed budget kinds in one profile")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("need a nonempty budget grid")
    values = np.array([[s.value_at(b) for b in grid] for s in series])
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0], axis=0)
    return ProfileBand(grid=grid, median=med, q1=q1, q3=q3)


def residue_distribution(
    series: Sequence[ResidueSeries], budget: float
) -> list[tuple[float, float]]:
    """Empirical CDF of residues at one budget: (residue, fraction <= residue) pairs."""
    series = list(series)
    if not series:
        raise ValueError("need at least one residue series")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    values = sorted(s.value_at(budget) for s in series)
    n = len(values)
    out: list[tuple[float, float]] = []
    for i, v in enumerate(values, start=1):
        if out and out[-1][0] == v:
            out[-1] = (v, i / n)
        else:
            out.append((v, i / n))
    return out


# ---------------------------------------------------------------------------
# parsing


def parse_instance(path, fmt: str, m_override: Optional[int] = None) -> Instance:
    """The instance in path, read in fmt: mdplib_triplet, dense_matrix,
    canonical_json or auto. Auto reads a .json file as canonical JSON, and any
    other file as a dense matrix when its header's n is followed by n rows of
    n entries, else as triplets. At n = 3 such a file may also be a complete
    triplet file: auto then reads it in the one format it parses in, and
    raises ParseError, naming --input-format, when it parses in both."""
    path = Path(path)
    if fmt == "auto" and path.suffix.lower() == ".json":
        fmt = "canonical_json"
    if fmt == "canonical_json":
        return _parse_json(path, m_override)
    parsers = {"dense_matrix": _parse_dense, "mdplib_triplet": _parse_triplet}
    if fmt not in ("auto", *parsers):
        raise ValueError(f"unknown instance format {fmt!r}")
    data, n, m = _read_text(path)
    m = m_override if m_override is not None else m
    if fmt == "auto":
        body = data[1:]
        dense = bool(body) and len(body) == n and all(len(ln.split()) == n for _, ln in body)
        fmt = "dense_matrix" if dense else "mdplib_triplet"
        if dense and n == 3:
            fits = [name for name, parse in parsers.items() if _parses(parse, path, data, n, m)]
            if len(fits) == 2:
                raise ParseError(
                    path, None,
                    "reads both as a dense matrix and as triplets; "
                    "choose one with --input-format",
                )
            fmt = fits[0] if fits else fmt
    return parsers[fmt](path, data, n, m)


def _parses(parse, path: Path, data: list, n: int, m: Optional[int]) -> bool:
    try:
        parse(path, data, n, m)
    except ValueError:
        return False
    return True


def _read_text(path: Path) -> tuple[list[tuple[int, str]], int, Optional[int]]:
    """The nonblank lines of a text instance, header first, with their line
    numbers, and the n and m (None when absent) of its 'n' or 'n m' header."""
    lines = path.read_text().splitlines()
    data = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not data:
        raise ParseError(path, None, "empty file")
    lineno, header = data[0]
    try:
        head = [int(float(tok)) for tok in header.split()]
    except ValueError as exc:
        raise ParseError(path, lineno, f"bad header: {exc}") from None
    if len(head) not in (1, 2):
        raise ParseError(path, lineno, f"expected 'n' or 'n m' header, got {len(head)} fields")
    return data, head[0], head[1] if len(head) == 2 else None


def _domain(path: Path, n: int, m: Optional[int]) -> FeasibleDomain:
    if m is None:
        raise ValueError(f"{path}: no cardinality in file and no override given")
    return FeasibleDomain(n=n, m=m)


def _parse_triplet(path: Path, data: list, n: int, m: Optional[int]) -> Instance:
    entries = []
    for lineno, line in data[1:]:
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(path, lineno, f"expected 'i j d', got {len(toks)} fields")
        try:
            i, j, d = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        entries.append((lineno, i, j, d))
    if not entries:
        raise ParseError(path, None, "no distance entries")
    min_idx = min(min(i, j) for _, i, j, _ in entries)
    base = 0 if min_idx == 0 else 1
    dist = np.zeros((n, n))
    for lineno, i, j, d in entries:
        i, j = i - base, j - base
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(path, lineno, f"index out of range for n={n}")
        dist[i, j] = d
        dist[j, i] = d
    np.fill_diagonal(dist, 0.0)
    return Instance(
        name=path.stem,
        obj=QuadraticObjective(q=-dist),
        dom=_domain(path, n, m),
        source="mdplib_triplet",
    )


def _parse_dense(path: Path, data: list, n: int, m: Optional[int]) -> Instance:
    if len(data) - 1 != n:
        raise ParseError(path, data[-1][0], f"expected {n} matrix rows, found {len(data) - 1}")
    q = np.zeros((n, n))
    for r, (lineno, line) in enumerate(data[1:]):
        toks = line.split()
        if len(toks) != n:
            raise ParseError(path, lineno, f"expected {n} entries, got {len(toks)}")
        try:
            q[r] = [float(tok) for tok in toks]
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    try:
        q = symmetrize(q)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return Instance(
        name=path.stem,
        obj=QuadraticObjective(q=q),
        dom=_domain(path, n, m),
        source="dense_matrix",
    )


def _parse_json(path: Path, m_override: Optional[int]) -> Instance:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from None
    for key in ("n", "q"):
        if key not in payload:
            raise DataError(f"{path}: missing field {key!r}")
    n = int(payload["n"])
    q = np.asarray(payload["q"], dtype=float)
    if q.ndim == 1:
        if q.size != n * n:
            raise DataError(f"{path}: q has {q.size} entries, expected {n * n}")
        q = q.reshape(n, n)
    elif q.shape != (n, n):
        raise DataError(f"{path}: q has shape {q.shape}, expected ({n}, {n})")
    try:
        q = symmetrize(q)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    m = m_override if m_override is not None else payload.get("m")
    if m is None:
        raise ValueError(f"{path}: no cardinality in file and no override given")
    best = payload.get("best_known")
    return Instance(
        name=str(payload.get("name", Path(path).stem)),
        obj=QuadraticObjective(q=q),
        dom=FeasibleDomain(n=n, m=int(m)),
        best_known=float(best) if best is not None else None,
        source="canonical_json",
    )


def instance_to_json(inst: Instance) -> dict:
    payload = {
        "name": inst.name,
        "n": inst.dom.n,
        "m": inst.dom.m,
        "q": [float(v) for v in inst.obj.q.ravel()],
    }
    if inst.best_known is not None:
        payload["best_known"] = inst.best_known
    return payload


def write_instance_json(inst: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(inst)))


# ---------------------------------------------------------------------------
# synthetic instances


def synth_instance(n: int, m: int, kind: str, seed: int) -> Instance:
    """Deterministic synthetic instance of a given flavor.

    psd_random: Gram matrix scaled to unit spectral norm.
    mdp_like: negated Euclidean distances of n random points in [0, 10]^2.
    nonconvex_random: symmetric entries in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    if kind == "psd_random":
        a = rng.standard_normal((n, n))
        q = a.T @ a
        q = symmetrize(q / np.linalg.norm(q, 2), tol=np.inf)
    elif kind == "mdp_like":
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(dist, 0.0)
        q = symmetrize(-dist, tol=np.inf)
    elif kind == "nonconvex_random":
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        q = symmetrize((a + a.T) / 2.0, tol=np.inf)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return Instance(
        name=f"{kind}-n{n}-m{m}-s{seed}",
        obj=QuadraticObjective(q=q),
        dom=FeasibleDomain(n=n, m=m),
        source="synthetic",
    )


def default_x0(dom: FeasibleDomain, backend=None) -> np.ndarray:
    """The first m coordinates set to one. backend is not read; the
    parameter stays because perfbench/solver.py passes one."""
    x0 = np.zeros(dom.n)
    x0[: dom.m] = 1.0
    return x0


# ---------------------------------------------------------------------------
# export

TRACE_COLUMNS = ("k", "t", "ub", "lb", "n_cuts", "tau")


def write_trace_csv(trace: RunTrace, path) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for rec in trace.records:
        lines.append(
            f"{int(rec.k)},{float(rec.t)!r},{float(rec.ub)!r},{float(rec.lb)!r},"
            f"{int(rec.n_cuts)},{float(rec.tau)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path, config_name: str, instance_name: str, f0: float) -> RunTrace:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != list(TRACE_COLUMNS):
        raise ParseError(path, 1, "bad trace header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split(",")
        if len(toks) != len(TRACE_COLUMNS):
            raise ParseError(path, lineno, f"expected {len(TRACE_COLUMNS)} columns")
        records.append(
            TraceRecord(
                k=int(toks[0]),
                t=float(toks[1]),
                ub=float(toks[2]),
                lb=float(toks[3]),
                n_cuts=int(toks[4]),
                tau=float(toks[5]),
            )
        )
    return RunTrace(records=records, config_name=config_name, instance_name=instance_name, f0=f0)


def write_trace_json(trace: RunTrace, path) -> None:
    payload = {
        "config_name": trace.config_name,
        "instance_name": trace.instance_name,
        "f0": trace.f0,
        "records": [
            {"k": r.k, "t": r.t, "ub": r.ub, "lb": r.lb, "n_cuts": r.n_cuts, "tau": r.tau}
            for r in trace.records
        ],
    }
    Path(path).write_text(json.dumps(payload))


def read_trace_json(path) -> RunTrace:
    payload = json.loads(Path(path).read_text())
    return RunTrace(
        records=[TraceRecord(**rec) for rec in payload["records"]],
        config_name=payload["config_name"],
        instance_name=payload["instance_name"],
        f0=payload["f0"],
    )


def write_profile_csv(bands: dict, path) -> None:
    lines = ["config,budget,median,q1,q3"]
    for name in sorted(bands):
        band = bands[name]
        for b, med, q1, q3 in zip(band.grid, band.median, band.q1, band.q3):
            lines.append(f"{name},{float(b)!r},{float(med)!r},{float(q1)!r},{float(q3)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_distribution_csv(curves: dict, path) -> None:
    lines = ["config,residue,fraction"]
    for name in sorted(curves):
        for r, frac in curves[name]:
            lines.append(f"{name},{float(r)!r},{float(frac)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# hand-rolled SVG so output is byte-deterministic for fixed input

_SVG_W, _SVG_H = 640, 480
_MARGIN = 56
_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _svg_doc(body: list[str], x_label: str, y_label: str, title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 12}" text-anchor="middle" font-size="12">'
        f"{x_label}</text>",
        f'<text x="16" y="{_SVG_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_H / 2})">{y_label}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def write_profile_svg(bands: dict, path, x_label: str = "budget") -> None:
    """Median line plus shaded interquartile band, one pair per config."""
    lo_x = min(float(b.grid[0]) for b in bands.values())
    hi_x = max(float(b.grid[-1]) for b in bands.values())
    body = []
    for i, name in enumerate(sorted(bands)):
        band = bands[name]
        color = _PALETTE[i % len(_PALETTE)]
        xs = _scale(band.grid, lo_x, hi_x, _MARGIN, _SVG_W - _MARGIN)
        y_med = _scale(band.median, 0.0, 1.0, _SVG_H - _MARGIN, _MARGIN)
        y_q1 = _scale(band.q1, 0.0, 1.0, _SVG_H - _MARGIN, _MARGIN)
        y_q3 = _scale(band.q3, 0.0, 1.0, _SVG_H - _MARGIN, _MARGIN)
        ring = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, y_q1)]
        ring += [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(reversed(xs), reversed(y_q3))]
        body.append(
            f'<polygon class="band" points="{" ".join(ring)}" fill="{color}" '
            f'fill-opacity="0.2" stroke="none"/>'
        )
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, y_med))
        body.append(
            f'<polyline class="median" points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_SVG_W - _MARGIN + 4}" y="{_MARGIN + 16 * i}" font-size="11" '
            f'fill="{color}" text-anchor="end">{name}</text>'
        )
    Path(path).write_text(_svg_doc(body, x_label, "residue", "median residue profile"))


def write_distribution_svg(curves: dict, path, budget_label: str = "") -> None:
    """Step-plot CDFs of residue across problems at a fixed budget."""
    body = []
    for i, name in enumerate(sorted(curves)):
        pairs = list(curves[name])
        color = _PALETTE[i % len(_PALETTE)]
        xs = _scale([r for r, _ in pairs], 0.0, 1.0, _MARGIN, _SVG_W - _MARGIN)
        ys = _scale([f for _, f in pairs], 0.0, 1.0, _SVG_H - _MARGIN, _MARGIN)
        steps = [f"M {_fmt(xs[0])} {_fmt(_SVG_H - _MARGIN)}"]
        prev_y = _SVG_H - _MARGIN
        for x, y in zip(xs, ys):
            steps.append(f"L {_fmt(x)} {_fmt(prev_y)}")
            steps.append(f"L {_fmt(x)} {_fmt(y)}")
            prev_y = y
        steps.append(f"L {_fmt(_SVG_W - _MARGIN)} {_fmt(prev_y)}")
        body.append(
            f'<path class="cdf" d="{" ".join(steps)}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_SVG_W - _MARGIN + 4}" y="{_MARGIN + 16 * i}" font-size="11" '
            f'fill="{color}" text-anchor="end">{name}</text>'
        )
    title = "residue distribution" + (f" at {budget_label}" if budget_label else "")
    Path(path).write_text(_svg_doc(body, "residue", "fraction of problems", title))
