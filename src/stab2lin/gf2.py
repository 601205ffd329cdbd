"""Linear algebra over GF(2).

Bit vectors and matrices are numpy uint8 arrays of 0/1 entries; functions
return fresh arrays and leave their arguments unchanged.  Where row
operations dominate, a row is packed into a Python int whose bit c is column
c (``to_ints``, and back with ``from_ints``).  This is the package's one
packing convention: every int bitmask elsewhere (the syndrome columns of
``lincode.GeneratorMatrix``) comes from these two functions.
Enumeration-heavy kernels pack rows into uint64 words in the same order
(``pack_rows``): column c at word c // 64, bit c % 64.

Row-operation traces are lists of ``(target, source)`` pairs meaning
"row[target] ^= row[source]".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

RowOp = tuple[int, int]


def as_bits(values, *, copy: bool = True) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 entries, validating the alphabet.

    With ``copy=False`` a uint8 array is used as is; other input is converted.
    """
    arr = np.array(values, dtype=np.uint8, copy=copy or None)
    if arr.size and arr.max() > 1:
        raise ValueError("entries must be 0 or 1")
    return arr


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form plus the pivots and the row-op trace."""

    matrix: np.ndarray
    pivots: list[int]
    trace: list[RowOp]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: np.ndarray, columns: Sequence[int] | None = None) -> RrefResult:
    """Reduced row-echelon form over GF(2), with pivots sought only in
    ``columns``, any sequence of column indices scanned in the order given
    (default: all columns, left to right).  Each row addition acts on the
    whole row, so columns outside the sequence change but are not reduced.

    Pivot rule: first column scanned, then lowest eligible row.  A row swap is
    recorded as three row additions, so the trace holds row additions only.
    """
    mat = as_bits(m, copy=False)
    rows = to_ints(mat)
    pivots: list[int] = []
    trace: list[RowOp] = []
    rr = 0
    for c in range(mat.shape[1]) if columns is None else map(int, columns):
        if rr == len(rows):
            break
        p = next((i for i in range(rr, len(rows)) if rows[i] >> c & 1), None)
        if p is None:
            continue
        if p != rr:
            rows[rr], rows[p] = rows[p], rows[rr]
            trace += [(rr, p), (p, rr), (rr, p)]
        pivot = rows[rr]
        for i, row in enumerate(rows):
            if i != rr and row >> c & 1:
                rows[i] = row ^ pivot
                trace.append((i, rr))
        pivots.append(c)
        rr += 1
    return RrefResult(from_ints(rows, mat.shape[1]), pivots, trace)


def rank(m: np.ndarray) -> int:
    """Dimension of the row span over GF(2), from an XOR basis of the packed
    rows (no row-op trace), one basis row per leading bit."""
    basis: dict[int, int] = {}
    for v in to_ints(m):
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2), as a floating-point BLAS product taken mod 2.
    Each entry is a sum of at most ``inner`` products of 0 and 1, an integer
    that float32 holds exactly below 2^24 and float64 below 2^53."""
    a = as_bits(a, copy=False)
    b = as_bits(b, copy=False)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    exact, whole = (np.float32, np.int32) if a.shape[1] < 1 << 24 else (np.float64, np.int64)
    return ((a.astype(exact) @ b.astype(exact)).astype(whole) & 1).astype(np.uint8)


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of the right null space, one vector per row.

    Returns a ``(cols - rank) x cols`` matrix N with ``m @ N.T = 0`` and
    independent rows, derived from the RREF free columns (deterministic).
    """
    r = rref(m)
    free = np.ones(r.matrix.shape[1], dtype=bool)
    free[r.pivots] = False
    basis = np.eye(len(free), dtype=np.uint8)[free]
    basis[:, r.pivots] = r.matrix[: r.rank, free].T
    return basis


def to_ints(m: np.ndarray) -> list[int]:
    """The rows of a bit matrix as ints, bit c of each being column c."""
    mat = as_bits(m, copy=False)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def from_ints(values: list[int], cols: int) -> np.ndarray:
    """Inverse of ``to_ints``: a len(values) x cols bit matrix."""
    width = -(-cols // 8)
    buf = b"".join(v.to_bytes(width, "little") for v in values)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def pack_rows(m: np.ndarray) -> np.ndarray:
    """Pack bit rows into uint64 words, LSB-first within each word."""
    m = np.atleast_2d(as_bits(m, copy=False))
    rows, cols = m.shape
    out = np.zeros((rows, 8 * max(1, -(-cols // 64))), dtype=np.uint8)
    out[:, : -(-cols // 8)] = np.packbits(m, axis=1, bitorder="little")
    return out.view("<u8")


def unpack_rows(packed: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of ``pack_rows`` for a known column count."""
    packed = np.atleast_2d(np.ascontiguousarray(packed, dtype="<u8"))
    return np.unpackbits(packed.view(np.uint8), axis=1, count=cols, bitorder="little")
