"""Pauli operators as binary (a|b) vectors.

An n-qubit tensor product of I, X, Y, Z is encoded by two length-n bit
vectors: ``a[i] = 1`` when position i carries X or Y, ``b[i] = 1`` when it
carries Z or Y.  Phases are dropped there: a row stands for i^(a.b) X^a Z^b,
which is Hermitian and squares to +I.  Where signs matter, a Pauli is a
phase-tracked triple ``(x, z, p)`` of int bitmasks (``gf2.to_ints``: bit j is
qubit j) and a power of i, the operator i^p X^x Z^z; ``StabilizerTableau``
tracks a stabilizer state in that form (Aaronson & Gottesman,
quant-ph/0406196).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class PauliParseError(ValueError):
    """Invalid Pauli string; carries the 1-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class PauliVector:
    """One generator as an (a|b) bit-vector pair."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", gf2.as_bits(self.a))
        object.__setattr__(self, "b", gf2.as_bits(self.b))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("a and b must be bit vectors of equal length")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def weight(self) -> int:
        """Number of non-identity positions."""
        return int(np.count_nonzero(self.a | self.b))

    def to_bits(self) -> np.ndarray:
        """The 2n-bit concatenation (a|b)."""
        return np.concatenate([self.a, self.b])

    def to_string(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(int(x), int(z))] for x, z in zip(self.a, self.b)
        )

    def __str__(self) -> str:
        return self.to_string()


def parse_pauli(text: str) -> PauliVector:
    """Parse a symbol string over {I, X, Y, Z} (optional leading '+')."""
    if text.startswith("+"):
        text = text[1:]
    if not text:
        raise PauliParseError("empty Pauli string", 1)
    a = np.zeros(len(text), dtype=np.uint8)
    b = np.zeros(len(text), dtype=np.uint8)
    for i, ch in enumerate(text):
        bits = _CHAR_TO_BITS.get(ch.upper())
        if bits is None:
            raise PauliParseError(f"invalid symbol {ch!r}", i + 1)
        a[i], b[i] = bits
    return PauliVector(a, b)


def from_bits(row: np.ndarray) -> PauliVector:
    """Build a PauliVector from a 2n-bit (a|b) row."""
    row = gf2.as_bits(row)
    if row.ndim != 1 or len(row) % 2:
        raise ValueError("expected a flat 2n-bit row")
    n = len(row) // 2
    return PauliVector(row[:n], row[n:])


def symplectic_product(p: PauliVector, q: PauliVector) -> int:
    """(a.b') xor (a'.b); 0 means the operators commute, 1 anticommute."""
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    return gf2.dot(p.a, q.b) ^ gf2.dot(q.a, p.b)


def symplectic_product_rows(rows: np.ndarray) -> np.ndarray:
    """All pairwise symplectic products of the rows of an m x 2n matrix."""
    rows = gf2.as_bits(rows, copy=False)
    m, two_n = rows.shape
    n = two_n // 2
    a, b = rows[:, :n], rows[:, n:]
    return (gf2.mat_mul(a, b.T) ^ gf2.mat_mul(b, a.T)).astype(np.uint8)


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
