import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stab2lin.formats import parse_stabilizer_text, write_stabilizer_text
from stab2lin.pauli import PauliParseError, parse_pauli, pauli_string, symplectic_product_rows

from util import (
    pauli_weight_rows,
    reference_parse_pauli,
    reference_pauli_string,
    rotated_surface_code,
)


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


def _parsed(parse, text):
    try:
        return parse(text).tolist()
    except PauliParseError as exc:
        return str(exc), exc.position


# letters in both cases, '+', and characters that trip a per-code-point
# table: upper-casing to a letter ('ı'), Latin-1 ('ß', NEL), past Latin-1
# (U+2028, an astral emoji) and lone surrogates
SYMBOLS = [*"IXYZixyz+Q ?\x00\x01", "ı", "ß", "\x85", "\u2028", "\U0001f600", "\ud800", "\udfff"]
TEXTS = st.lists(st.sampled_from("IXYZ") | st.sampled_from(SYMBOLS), max_size=12).map("".join)
ROWS = st.integers(0, 12).flatmap(lambda n: st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))


@given(TEXTS)
def test_parse_matches_per_character_reference(text):
    assert _parsed(parse_pauli, text) == _parsed(reference_parse_pauli, text)


@given(ROWS)
def test_string_matches_per_character_reference(bits):
    row = np.array(bits, np.uint8)
    assert pauli_string(row) == reference_pauli_string(row)


def test_surface_d64_text_round_trip_under_two_seconds():
    # 4095 lines of 4096 letters each way: on 2 vCPUs, one character at a
    # time took 5.4 s to write and 3.9 s to parse, the tables 0.09 s and 0.11 s
    code = rotated_surface_code(64)
    t0 = time.perf_counter()
    again = parse_stabilizer_text(write_stabilizer_text(code))
    assert time.perf_counter() - t0 < 2.0
    assert again == code


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

