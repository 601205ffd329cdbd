import numpy as np
import pytest

from stab2lin.pauli import PauliParseError, parse_pauli, pauli_string, symplectic_product_rows

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

