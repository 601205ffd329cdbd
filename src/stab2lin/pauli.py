"""Pauli operators as bit rows and as phase-tracked triples.

An unsigned n-qubit tensor product of I, X, Y, Z is a 2n-bit uint8 row
(a|b): ``a[i] = 1`` when position i carries X or Y, ``b[i] = 1`` when it
carries Z or Y.  Phases are dropped there: a row stands for i^(a.b) X^a Z^b,
which is Hermitian and squares to +I.  Where signs matter, a Pauli is a
signed triple ``(x, z, p)`` of int bitmasks (``gf2.to_ints``: bit j is
qubit j) and a power of i, the operator i^p X^x Z^z; ``StabilizerTableau``
tracks a stabilizer state in that form (Aaronson & Gottesman,
quant-ph/0406196).
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
    a, b = rows[:, :n], rows[:, n:]
    return gf2.mat_mul(a, b.T) ^ gf2.mat_mul(b, a.T)


SignedPauli = tuple[int, int, int]


def signed_row(row: np.ndarray) -> SignedPauli:
    """The triple of the operator i^(a.b) X^a Z^b of a 2n-bit (a|b) row."""
    x, z = gf2.to_ints(np.reshape(row, (2, -1)))
    return x, z, (x & z).bit_count() & 3


def pauli_product(p: SignedPauli, q: SignedPauli) -> SignedPauli:
    """The operator product p q.  Moving Z^z1 past X^x2 costs (-1)^wt(z1 & x2)."""
    x1, z1, p1 = p
    x2, z2, p2 = q
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) & 3


def anticommute(p: SignedPauli, q: SignedPauli) -> bool:
    return bool(((p[0] & q[1]) ^ (p[1] & q[0])).bit_count() & 1)


class StabilizerTableau:
    """An n-qubit stabilizer state, initially |0...0>, as n phase-tracked
    stabilizer rows and n destabilizer rows: destabilizer i anticommutes with
    stabilizer i and commutes with every other stabilizer."""

    def __init__(self, n: int):
        self.stabilizers = [(0, 1 << j, 0) for j in range(n)]
        self.destabilizers = [(1 << j, 0, 0) for j in range(n)]

    def expectation(self, p: SignedPauli) -> int:
        """<state| p |state> of a Hermitian p: 0 when p anticommutes with a
        stabilizer, else +1 or -1 as +p or -p lies in the stabilizer group."""
        if any(anticommute(p, s) for s in self.stabilizers):
            return 0
        # p commutes with the group, so it is +-(product of the stabilizers
        # whose destabilizers it anticommutes with)
        acc = (0, 0, 0)
        for s, d in zip(self.stabilizers, self.destabilizers):
            if anticommute(p, d):
                acc = pauli_product(acc, s)
        return 1 if acc[2] == p[2] else -1

    def project(self, p: SignedPauli) -> int:
        """Move to the state (I + p)|state>, normalised, and return the old
        expectation of p.  At -1 the projection is zero and nothing changes;
        at +1 the state already is the projection."""
        hits = [i for i, s in enumerate(self.stabilizers) if anticommute(p, s)]
        if not hits:
            return self.expectation(p)
        j = hits[0]
        pivot = self.stabilizers[j]
        for i in hits[1:]:
            self.stabilizers[i] = pauli_product(self.stabilizers[i], pivot)
        for i, d in enumerate(self.destabilizers):
            if anticommute(p, d):
                self.destabilizers[i] = pauli_product(d, pivot)
        self.destabilizers[j] = pivot
        self.stabilizers[j] = p
        return 0
