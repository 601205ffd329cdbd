"""Closed-form capacity-bound curves for the adversarial and depolarizing
channels, plus deterministic CSV emission of the curve data.

Raw values may be negative (the bound is then vacuous); both the raw value
and the value clamped to [0, 1] are reported so plots match the published
figures while the data stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log2, sqrt
from typing import Callable, Iterator

LOG2_3 = log2(3.0)
MAX_GRID_POINTS = 10**6


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def _check_domain(delta: float, hi: float) -> float:
    delta = float(delta)
    if not 0.0 <= delta <= hi:
        raise ValueError(f"delta must be in [0, {hi}], got {delta}")
    return delta


def bound_mrrw_adversarial(delta: float) -> float:
    """Upper bound H(1/2 + sqrt(2 delta (1 - 2 delta))) for the channel with a
    delta-bounded fraction of errors; domain [0, 1/4]."""
    delta = _check_domain(delta, 0.25)
    return binary_entropy(0.5 + sqrt(2.0 * delta * (1.0 - 2.0 * delta)))


def bound_linear_adversarial(delta: float) -> float:
    """The 1 - 4 delta upper bound, for both channels (applies to
    nonstabilizer codes too)."""
    return 1.0 - 4.0 * float(delta)


def bound_sphere_packing_nondeg(delta: float) -> float:
    """1 - H(delta) - delta log2 3, the nondegenerate sphere-packing bound."""
    delta = _check_domain(delta, 1.0)
    return 1.0 - binary_entropy(delta) - delta * LOG2_3


def bound_gv_lower_adversarial(delta: float) -> float:
    """1 - H(2 delta) - 2 delta log2 3, the best known lower bound; domain
    [0, 1/4]."""
    delta = _check_domain(delta, 0.25)
    return 1.0 - binary_entropy(2.0 * delta) - 2.0 * delta * LOG2_3


def bound_shannon_depolarizing(delta: float) -> float:
    """1 - H(delta), the classical binary-symmetric-channel bound."""
    delta = _check_domain(delta, 1.0)
    return 1.0 - binary_entropy(delta)


@dataclass(frozen=True)
class BoundCurve:
    name: str
    channel: str  # "adversarial" | "depolarizing"
    kind: str  # "upper" | "upper-nondegenerate" | "lower"
    evaluator: Callable[[float], float]
    domain: tuple[float, float]

    def applies(self, delta: float) -> bool:
        lo, hi = self.domain
        return lo <= delta <= hi

    def raw(self, delta: float) -> float:
        return self.evaluator(delta)

    def clamped(self, delta: float) -> float:
        return min(1.0, max(0.0, self.raw(delta)))


CURVES: tuple[BoundCurve, ...] = (
    BoundCurve("mrrw_adversarial", "adversarial", "upper", bound_mrrw_adversarial, (0.0, 0.25)),
    BoundCurve("linear_adversarial", "adversarial", "upper", bound_linear_adversarial, (0.0, 0.5)),
    BoundCurve(
        "sphere_packing_nondeg",
        "adversarial",
        "upper-nondegenerate",
        bound_sphere_packing_nondeg,
        (0.0, 0.5),
    ),
    BoundCurve(
        "gv_lower_adversarial", "adversarial", "lower", bound_gv_lower_adversarial, (0.0, 0.25)
    ),
    BoundCurve(
        "shannon_depolarizing", "depolarizing", "upper", bound_shannon_depolarizing, (0.0, 0.5)
    ),
    BoundCurve(
        "linear_depolarizing", "depolarizing", "upper", bound_linear_adversarial, (0.0, 0.5)
    ),
    BoundCurve(
        "lower_depolarizing", "depolarizing", "lower", bound_sphere_packing_nondeg, (0.0, 0.5)
    ),
)


def curves_for(channel: str) -> list[BoundCurve]:
    if channel not in ("adversarial", "depolarizing"):
        raise ValueError(f"unknown channel {channel!r}")
    return [c for c in CURVES if c.channel == channel]


def grid(delta_from: float, delta_to: float, step: float) -> list[float]:
    """Inclusive arithmetic grid; endpoints snapped against float dust."""
    for name, value in (("from", delta_from), ("to", delta_to), ("step", step)):
        if not isfinite(value):
            raise ValueError(f"grid '{name}' must be finite, got {value}")
    if not step > 0:
        raise ValueError("step must be positive")
    if delta_to < delta_from:
        raise ValueError("empty grid: to < from")
    if not (delta_to - delta_from) / step < MAX_GRID_POINTS:  # also inf, from a tiny step
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points; raise the step")
    points = []
    i = 0
    while True:
        d = delta_from + i * step
        if d > delta_to + 1e-12:
            break
        points.append(round(d, 12))
        i += 1
    return points


def points(
    channel: str, delta_from: float, delta_to: float, step: float
) -> Iterator[tuple[float, BoundCurve]]:
    """Every grid point paired with each curve of the channel that applies
    there, in grid order, then curve order.  A grid reaching outside the
    curves' domains, [0, 1/2], raises ValueError."""
    curves = curves_for(channel)
    deltas = grid(delta_from, delta_to, step)
    lo, hi = min(c.domain[0] for c in curves), max(c.domain[1] for c in curves)
    if not lo <= delta_from <= delta_to <= hi:
        raise ValueError(f"the grid must lie in [{lo:g}, {hi:g}], got [{delta_from:g}, {delta_to:g}]")
    for d in deltas:
        for curve in curves:
            if curve.applies(d):
                yield d, curve


def emit_curves(channel: str, delta_from: float, delta_to: float, step: float) -> str:
    """CSV rows (delta, curve, raw, clamped) for every applicable curve at
    every grid point; 12 significant digits, LF line endings, deterministic."""
    lines = ["delta,curve,raw,clamped"]
    for d, curve in points(channel, delta_from, delta_to, step):
        lines.append(f"{d:.12g},{curve.name},{curve.raw(d):.12g},{curve.clamped(d):.12g}")
    return "\n".join(lines) + "\n"
