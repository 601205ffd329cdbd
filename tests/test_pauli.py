import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin.pauli import (
    PauliParseError,
    StabilizerTableau,
    anticommute,
    parse_pauli,
    pauli_product,
    pauli_string,
    signed_row,
    symplectic_product_rows,
)

from phi_oracle import StateVector, apply_pauli, zero_state
from util import pauli_weight_rows


def test_parse_worked_example():
    row = parse_pauli("XIXIZYZY")
    assert list(row) == [1, 0, 1, 0, 0, 1, 0, 1] + [0, 0, 0, 0, 1, 1, 1, 1]
    assert row.dtype == np.uint8


def test_parse_identity_and_y():
    assert not parse_pauli("IIII").any() and len(parse_pauli("IIII")) == 8
    assert list(parse_pauli("Y")) == [1, 1]
    assert np.array_equal(parse_pauli("xyzi"), parse_pauli("XYZI"))


def test_parse_plus_prefix():
    assert pauli_string(parse_pauli("+XZ")) == "XZ"


def test_parse_invalid_symbol_position():
    with pytest.raises(PauliParseError) as exc:
        parse_pauli("XIQZ")
    assert exc.value.position == 3


def test_parse_empty():
    for text in ("", "+"):
        with pytest.raises(PauliParseError) as exc:
            parse_pauli(text)
        assert exc.value.position == 1
        assert str(exc.value) == "empty Pauli string at position 1"


@pytest.mark.parametrize(
    "text, position, symbol",
    [
        ("xqz", 2, "'q'"),  # 'x' and 'z' are accepted in lower case
        ("+XQ", 2, "'Q'"),  # counted after the leading '+'
        ("++X", 1, "'+'"),
        ("Xß", 2, "'ß'"),  # its upper case is 'SS', two characters
        ("ßQ", 1, "'ß'"),
        ("XYßZQ", 3, "'ß'"),  # the first bad symbol is reported
        ("Xı", 2, "'ı'"),  # its upper case is 'I', but it is no Pauli letter
    ],
)
def test_parse_error_positions(text, position, symbol):
    with pytest.raises(PauliParseError) as exc:
        parse_pauli(text)
    assert exc.value.position == position
    assert str(exc.value) == f"invalid symbol {symbol} at position {position}"


def test_string_roundtrip():
    for s in ("XIXIZYZY", "IIII", "Y", "XYZI"):
        assert pauli_string(parse_pauli(s)) == s


def symplectic(p, q):
    """The symplectic product of two rows, through the one production path."""
    return int(symplectic_product_rows(np.stack([p, q]))[0, 1])


def test_symplectic_first_two_rows_of_worked_example():
    p = np.concatenate([np.ones(8, np.uint8), np.zeros(8, np.uint8)])
    q = np.concatenate([np.zeros(8, np.uint8), np.ones(8, np.uint8)])
    assert symplectic(p, q) == 0


def test_symplectic_self_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        rows = rng.integers(0, 2, size=(5, 2 * n)).astype(np.uint8)
        assert not np.diag(symplectic_product_rows(rows)).any()


def test_symplectic_anticommuting_pair():
    assert symplectic(parse_pauli("XII"), parse_pauli("ZII")) == 1


def test_symplectic_dimension_mismatch():
    # an odd row width has no (a|b) split
    with pytest.raises(ValueError):
        symplectic_product_rows(np.ones((2, 3), np.uint8))


def test_symplectic_symmetry_and_bilinearity():
    rng = np.random.default_rng(4)
    n = 6
    for _ in range(100):
        p, q, w = rng.integers(0, 2, size=(3, 2 * n)).astype(np.uint8)
        assert symplectic(p, q) == symplectic(q, p)
        assert symplectic(p ^ w, q) == symplectic(p, q) ^ symplectic(w, q)


def test_symplectic_rows_matches_scalar():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 2, size=(4, 10)).astype(np.uint8)
    mat = symplectic_product_rows(rows)
    for i in range(4):
        for j in range(4):
            (ai, bi), (aj, bj) = rows[i].reshape(2, 5), rows[j].reshape(2, 5)
            assert mat[i, j] == (int(ai @ bj) + int(aj @ bi)) % 2


def test_weight():
    rows = np.stack([parse_pauli("XIYZI"), parse_pauli("IIIII")])
    assert list(pauli_weight_rows(rows)) == [3, 0]


def dense(p, state):
    """Apply the triple (x, z, p), the operator i^p X^x Z^z, to a state."""
    x, z, phase = p
    row = np.array([(v >> j) & 1 for v in (x, z) for j in range(state.n)], np.uint8)
    moved = apply_pauli(state, row).amplitudes
    return moved * 1j ** ((phase - (x & z).bit_count()) % 4)


def triples(n, hermitian=False):
    phase = st.sampled_from((0, 2)) if hermitian else st.integers(0, 3)
    pauli = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), phase)
    if hermitian:  # shift the sign onto the i^(x.z) convention
        return pauli.map(lambda p: (p[0], p[1], (p[2] + (p[0] & p[1]).bit_count()) & 3))
    return pauli


def test_signed_row_convention():
    assert signed_row(parse_pauli("XYZI")) == (0b0011, 0b0110, 1)
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
    rows = np.array([[(v >> j) & 1 for v in t[:2] for j in range(n)] for t in (p, q)], np.uint8)
    assert anticommute(p, q) == bool(symplectic_product_rows(rows)[0, 1])


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
