"""Pauli operators as bit rows.

An n-qubit tensor product of I, X, Y, Z is a 2n-bit uint8 row (a|b):
``a[i] = 1`` when position i carries X or Y, ``b[i] = 1`` when it carries Z
or Y.  Phases are dropped: a row stands for i^(a.b) X^a Z^b, which is
Hermitian and squares to +I.
"""

from __future__ import annotations

import numpy as np

from . import gf2

_BITS_TO_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# both cases, read from the table: str.upper would also map 'ı' to 'I'
_CHAR_TO_BITS = {c: bits for bits, ch in _BITS_TO_CHAR.items() for c in (ch, ch.lower())}


class PauliParseError(ValueError):
    """Invalid Pauli string; carries the 1-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_pauli(text: str) -> np.ndarray:
    """The (a|b) row of a symbol string over {I, X, Y, Z} (optional leading
    '+')."""
    if text.startswith("+"):
        text = text[1:]
    if not text:
        raise PauliParseError("empty Pauli string", 1)
    bits = [_CHAR_TO_BITS.get(ch) for ch in text]
    if None in bits:
        i = bits.index(None)
        raise PauliParseError(f"invalid symbol {text[i]!r}", i + 1)
    return np.array(bits, dtype=np.uint8).T.reshape(-1)


def pauli_string(row: np.ndarray) -> str:
    """The symbol string of an (a|b) row."""
    a, b = np.reshape(row, (2, -1))
    return "".join(_BITS_TO_CHAR[int(x), int(z)] for x, z in zip(a, b))


def symplectic_product_rows(rows: np.ndarray) -> np.ndarray:
    """All pairwise symplectic products (a.b') xor (a'.b) of the rows of an
    m x 2n matrix: entry (i, j) is 1 when rows i and j anticommute."""
    rows = gf2.as_bits(rows, copy=False)
    n = rows.shape[1] // 2
    ab = gf2.mat_mul(rows[:, :n], rows[:, n:].T)  # the b.a' half is its transpose
    return ab ^ ab.T

