"""Pauli operators as bit rows.

An n-qubit tensor product of I, X, Y, Z is a 2n-bit uint8 row (a|b):
``a[i] = 1`` when position i carries X or Y, ``b[i] = 1`` when it carries Z
or Y.  Phases are dropped: a row stands for i^(a.b) X^a Z^b, which is
Hermitian and squares to +I.
"""

from __future__ import annotations

import numpy as np

from . import gf2

# The letter of the bits (a, b) is _LETTERS[a + 2b].
_LETTERS = b"IXZY"


def _inverse(bit: int, other: int) -> bytes:
    """A translation table over Latin-1 code points: both cases of a letter
    give bit ``bit`` of its a + 2b, any other code point ``other``."""
    table = bytearray([other]) * 256
    for code, letter in enumerate(_LETTERS):
        table[letter] = table[letter + 32] = code >> bit & 1
    return bytes(table)


# a = 2 marks no letter
_A_OF, _B_OF = _inverse(0, 2), _inverse(1, 0)
_TO_LETTER = _LETTERS.ljust(256, b"?")


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
    raw = text.encode("latin-1", "replace")  # any other character as '?': byte i is text[i]
    a = raw.translate(_A_OF)
    i = a.find(2)
    if i >= 0:
        raise PauliParseError(f"invalid symbol {text[i]!r}", i + 1)
    return np.frombuffer(bytearray(a + raw.translate(_B_OF)), np.uint8)


def pauli_string(row: np.ndarray) -> str:
    """The symbol string of an (a|b) row."""
    a, b = np.reshape(row, (2, -1))
    return (a + 2 * b).astype(np.uint8).tobytes().translate(_TO_LETTER).decode()


def symplectic_product_rows(rows: np.ndarray) -> np.ndarray:
    """All pairwise symplectic products (a.b') xor (a'.b) of the rows of an
    m x 2n matrix: entry (i, j) is 1 when rows i and j anticommute."""
    rows = gf2.as_bits(rows, copy=False)
    n = rows.shape[1] // 2
    ab = gf2.mat_mul(rows[:, :n], rows[:, n:].T)  # the b.a' half is its transpose
    return ab ^ ab.T

