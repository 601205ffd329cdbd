from decimal import Decimal, getcontext

import numpy as np
import pytest

from stab2lin import bounds as B


def entropy_oracle(p: str) -> float:
    """High-precision binary entropy via Decimal logarithms."""
    getcontext().prec = 40
    pd = Decimal(p)
    if pd in (Decimal(0), Decimal(1)):
        return 0.0
    ln2 = Decimal(2).ln()
    val = -(pd * pd.ln() + (1 - pd) * (1 - pd).ln()) / ln2
    return float(val)


def test_entropy_half_zero_one():
    assert B.binary_entropy(0.5) == 1.0
    assert B.binary_entropy(0.0) == 0.0
    assert B.binary_entropy(1.0) == 0.0


def test_entropy_high_precision_point():
    assert abs(B.binary_entropy(0.11) - entropy_oracle("0.11")) < 1e-12
    assert abs(B.binary_entropy(0.11) - 0.4999159581645281) < 1e-12


def test_entropy_domain():
    with pytest.raises(ValueError):
        B.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        B.binary_entropy(1.01)


def test_entropy_symmetry_and_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    for p in grid:
        assert abs(B.binary_entropy(p) - B.binary_entropy(1 - p)) < 1e-12
    half = np.linspace(0.0, 0.5, 51)
    vals = [B.binary_entropy(p) for p in half]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert max(vals) == 1.0


def test_mrrw_endpoints_exact():
    assert B.bound_mrrw_adversarial(0.0) == 1.0
    assert B.bound_mrrw_adversarial(0.25) == 0.0


def test_mrrw_intermediate_value():
    # sqrt(2 * 0.05 * 0.9) = 0.3 exactly, so the value is H(0.8)
    assert abs(B.bound_mrrw_adversarial(0.05) - entropy_oracle("0.8")) < 1e-12
    assert abs(B.bound_mrrw_adversarial(0.05) - 0.7219280948873623) < 1e-12


def test_mrrw_domain():
    with pytest.raises(ValueError):
        B.bound_mrrw_adversarial(0.3)


def test_linear_bounds():
    assert B.bound_linear_adversarial(0.0) == 1.0
    assert B.bound_linear_adversarial(0.25) == 0.0
    assert B.bound_linear_adversarial(0.05) == pytest.approx(0.8, abs=1e-15)


def test_sphere_packing_values():
    assert B.bound_sphere_packing_nondeg(0.0) == 1.0
    expected = 1.0 - entropy_oracle("0.1") - 0.1 * float(Decimal(3).ln() / Decimal(2).ln())
    assert abs(B.bound_sphere_packing_nondeg(0.1) - expected) < 1e-10
    assert B.bound_sphere_packing_nondeg(0.1) == pytest.approx(0.37250, abs=1e-4)


def test_sphere_packing_root_near_0_1893():
    # bisection oracle for the zero crossing
    lo, hi = 0.15, 0.25
    for _ in range(60):
        mid = (lo + hi) / 2
        if B.bound_sphere_packing_nondeg(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 0.1893) < 5e-4


def test_gv_lower_values():
    assert B.bound_gv_lower_adversarial(0.0) == 1.0
    raw = B.bound_gv_lower_adversarial(0.25)
    assert abs(raw - (-np.log2(3) / 2)) < 1e-12
    assert abs(B.bound_gv_lower_adversarial(0.05) - 0.37250) < 1e-4
    with pytest.raises(ValueError):
        B.bound_gv_lower_adversarial(0.3)


def test_shannon_depolarizing():
    assert B.bound_shannon_depolarizing(0.0) == 1.0
    assert B.bound_shannon_depolarizing(0.5) == 0.0
    assert abs(B.bound_shannon_depolarizing(0.2) - 0.27807) < 1e-5


def test_lower_depolarizing_shares_formula():
    curves = {c.name: c for c in B.curves_for("depolarizing")}
    for d in np.linspace(0, 0.5, 11):
        assert curves["lower_depolarizing"].raw(d) == B.bound_sphere_packing_nondeg(d)
        assert curves["linear_depolarizing"].raw(d) == B.bound_linear_adversarial(d)


def test_mrrw_dominates_linear_on_grid():
    for d in [0.01 * i for i in range(1, 25)]:
        assert B.bound_mrrw_adversarial(d) <= B.bound_linear_adversarial(d) + 1e-9


def test_both_orderings_exist():
    assert B.bound_shannon_depolarizing(0.05) < B.bound_linear_adversarial(0.05)
    assert B.bound_shannon_depolarizing(0.2) > B.bound_linear_adversarial(0.2)


def test_upper_curves_nonincreasing():
    for curve in B.CURVES:
        if not curve.kind.startswith("upper"):
            continue
        lo, hi = curve.domain
        grid = np.linspace(lo, hi, 26)
        vals = [curve.raw(d) for d in grid]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])), curve.name


def test_emit_curves_grid_and_shape():
    csv = B.emit_curves("adversarial", 0.0, 0.25, 0.05)
    lines = csv.strip().split("\n")
    assert lines[0] == "delta,curve,raw,clamped"
    assert len(lines) == 1 + 6 * 4
    assert "0.25,mrrw_adversarial,0,0" in lines
    assert csv.endswith("\n")
    assert "\r" not in csv


def test_emit_curves_depolarizing_row():
    csv = B.emit_curves("depolarizing", 0.0, 0.25, 0.05)
    row = next(l for l in csv.splitlines() if l.startswith("0.05,shannon_depolarizing"))
    assert row.split(",")[2].startswith("0.71360")


def test_emit_curves_deterministic():
    a = B.emit_curves("depolarizing", 0.0, 0.5, 0.01)
    b = B.emit_curves("depolarizing", 0.0, 0.5, 0.01)
    assert a == b


def test_emit_curves_clamps_raw():
    csv = B.emit_curves("adversarial", 0.2, 0.2, 0.1)
    row = next(l for l in csv.splitlines() if l.startswith("0.2,sphere_packing_nondeg"))
    _, _, raw, clamped = row.split(",")
    assert float(raw) < 0
    assert clamped == "0"


def test_grid_size_guard():
    assert len(B.grid(0.0, 1.0, 1.0000001e-6)) == B.MAX_GRID_POINTS
    for args in ((0.0, 1.0, 1e-6), (0.0, float("inf"), 0.1), (float("nan"), 1.0, 0.1),
                 (0.0, float("nan"), 0.1), (0.0, 1.0, float("nan")), (0.0, 1.0, float("inf"))):
        with pytest.raises(ValueError):
            B.grid(*args)

def test_emit_curves_invalid_grid():
    with pytest.raises(ValueError):
        B.emit_curves("adversarial", 0.0, 0.25, 0.0)
    with pytest.raises(ValueError):
        B.emit_curves("adversarial", 0.3, 0.2, 0.05)
    with pytest.raises(ValueError):
        B.curves_for("sideways")


@pytest.mark.parametrize("channel", ["adversarial", "depolarizing"])
def test_points_refuse_a_grid_outside_the_domains(channel):
    # every curve lives in [0, 1/2]; a grid reaching past it would print no
    # row or drop rows silently
    for lo, hi in ((0.6, 0.9), (-0.5, -0.1), (-0.1, 0.2), (0.3, 0.51)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 0.5\]"):
            list(B.points(channel, lo, hi, 0.05))
    assert B.emit_curves(channel, 0.0, 0.5, 0.25).count("\n0.5,") >= 1
