import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin.pauli import (
    PauliParseError,
    PauliVector,
    StabilizerTableau,
    anticommute,
    from_bits,
    parse_pauli,
    pauli_product,
    signed_row,
    symplectic_product,
    symplectic_product_rows,
)

from phi_oracle import StateVector, apply_pauli, zero_state


def test_parse_worked_example():
    p = parse_pauli("XIXIZYZY")
    assert list(p.a) == [1, 0, 1, 0, 0, 1, 0, 1]
    assert list(p.b) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_parse_identity_and_y():
    p = parse_pauli("IIII")
    assert not p.a.any() and not p.b.any()
    y = parse_pauli("Y")
    assert list(y.a) == [1] and list(y.b) == [1]


def test_parse_plus_prefix():
    assert parse_pauli("+XZ").to_string() == "XZ"


def test_parse_invalid_symbol_position():
    with pytest.raises(PauliParseError) as exc:
        parse_pauli("XIQZ")
    assert exc.value.position == 3


def test_parse_empty():
    with pytest.raises(PauliParseError):
        parse_pauli("")
    with pytest.raises(PauliParseError):
        parse_pauli("+")


def test_string_roundtrip():
    for s in ("XIXIZYZY", "IIII", "Y", "XYZI"):
        assert parse_pauli(s).to_string() == s


def test_symplectic_first_two_rows_of_worked_example():
    p = PauliVector(np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8))
    q = PauliVector(np.zeros(8, dtype=np.uint8), np.ones(8, dtype=np.uint8))
    assert symplectic_product(p, q) == 0


def test_symplectic_self_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        p = PauliVector(rng.integers(0, 2, n).astype(np.uint8), rng.integers(0, 2, n).astype(np.uint8))
        assert symplectic_product(p, p) == 0


def test_symplectic_anticommuting_pair():
    assert symplectic_product(parse_pauli("XII"), parse_pauli("ZII")) == 1


def test_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        symplectic_product(parse_pauli("X"), parse_pauli("XX"))


def test_symplectic_symmetry_and_bilinearity():
    rng = np.random.default_rng(4)
    n = 6
    for _ in range(100):
        bits = rng.integers(0, 2, size=(3, 2 * n)).astype(np.uint8)
        p, q, w = (from_bits(row) for row in bits)
        assert symplectic_product(p, q) == symplectic_product(q, p)
        pw = from_bits(bits[0] ^ bits[2])
        assert symplectic_product(pw, q) == symplectic_product(p, q) ^ symplectic_product(w, q)


def test_symplectic_rows_matches_scalar():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 2, size=(4, 10)).astype(np.uint8)
    mat = symplectic_product_rows(rows)
    for i in range(4):
        for j in range(4):
            assert mat[i, j] == symplectic_product(from_bits(rows[i]), from_bits(rows[j]))


def test_weight():
    assert parse_pauli("XIYZI").weight == 3
    assert parse_pauli("IIII").weight == 0


def dense(p, state):
    """Apply the triple (x, z, p), the operator i^p X^x Z^z, to a state."""
    x, z, phase = p
    bits = [[(v >> j) & 1 for j in range(state.n)] for v in (x, z)]
    moved = apply_pauli(state, PauliVector(*bits)).amplitudes
    return moved * 1j ** ((phase - (x & z).bit_count()) % 4)


def triples(n, hermitian=False):
    phase = st.sampled_from((0, 2)) if hermitian else st.integers(0, 3)
    pauli = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), phase)
    if hermitian:  # shift the sign onto the i^(x.z) convention
        return pauli.map(lambda p: (p[0], p[1], (p[2] + (p[0] & p[1]).bit_count()) & 3))
    return pauli


def test_signed_row_convention():
    assert signed_row(parse_pauli("XYZI").to_bits()) == (0b0011, 0b0110, 1)
    y = (1, 1, 1)  # i X Z = Y
    assert np.allclose(dense(y, zero_state(1)), [0.0, 1j])


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), triples(n), triples(n))))
@settings(max_examples=200, deadline=None)
def test_pauli_product_matches_dense(case):
    n, p, q = case
    rng = np.random.default_rng(p[0] + 8 * q[1])
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps)
    expected = dense(p, StateVector(n, dense(q, state)))
    assert np.allclose(dense(pauli_product(p, q), state), expected)
    assert anticommute(p, q) == (symplectic_product(
        PauliVector(*[[(v >> j) & 1 for j in range(n)] for v in p[:2]]),
        PauliVector(*[[(v >> j) & 1 for j in range(n)] for v in q[:2]])) == 1)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(triples(n, hermitian=True), max_size=6),
                        st.lists(triples(n, hermitian=True), min_size=1, max_size=4))))
@settings(max_examples=200, deadline=None)
def test_tableau_matches_dense_projection(case):
    # the tableau tracks (I + P_t) ... (I + P_1)|0^n> with its signs
    n, ops, probes = case
    tableau = StabilizerTableau(n)
    amps = zero_state(n).amplitudes
    for op in ops:
        expectation = tableau.project(op)
        projected = amps + dense(op, StateVector(n, amps))
        norm2 = np.vdot(projected, projected).real / np.vdot(amps, amps).real
        assert np.isclose(norm2, 2 * (1 + expectation))
        if expectation < 0:
            return
        amps = projected / np.linalg.norm(projected)
    state = StateVector(n, amps)
    for row in tableau.stabilizers:
        assert np.allclose(dense(row, state), amps)
    for probe in probes:
        assert np.isclose(np.vdot(amps, dense(probe, state)), tableau.expectation(probe))
