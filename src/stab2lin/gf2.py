"""Linear algebra over GF(2) on numpy uint8 arrays.

All functions treat their array arguments as immutable values: inputs are
never mutated, transformations return fresh arrays.  Row-operation traces
are lists of ``(target, source)`` pairs meaning "row[target] ^= row[source]";
replaying a trace on the original matrix reproduces the transformed matrix
bit-exactly.

For enumeration-heavy workloads rows can be packed into uint64 words
(``pack_rows``), with column ``c`` stored at word ``c // 64``, bit ``c % 64``.
"""

from __future__ import annotations

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


def dot(u: np.ndarray, v: np.ndarray) -> int:
    """Inner product of two bit vectors in modulo-two arithmetic."""
    u = np.asarray(u, dtype=np.uint8)
    v = np.asarray(v, dtype=np.uint8)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return int(np.bitwise_and(u, v).sum() & 1)


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form plus the pivots and the row-op trace."""

    matrix: np.ndarray
    pivots: list[int]
    trace: list[RowOp]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: np.ndarray) -> RrefResult:
    """Reduced row-echelon form over GF(2).

    Pivot selection is deterministic: leftmost unused column, then lowest
    eligible row.  Row swaps are recorded as XOR-swap triples so the trace
    contains row additions only.
    """
    mat = as_bits(m)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = mat.shape
    pivots: list[int] = []
    trace: list[RowOp] = []
    rr = 0
    for c in range(cols):
        if rr == rows:
            break
        hit = np.flatnonzero(mat[rr:, c])
        if hit.size == 0:
            continue
        p = rr + int(hit[0])
        if p != rr:
            for t, s in ((rr, p), (p, rr), (rr, p)):
                mat[t] ^= mat[s]
                trace.append((t, s))
        for i in np.flatnonzero(mat[:, c]):
            i = int(i)
            if i != rr:
                mat[i] ^= mat[rr]
                trace.append((i, rr))
        pivots.append(c)
        rr += 1
    return RrefResult(mat, pivots, trace)


def replay_row_ops(m: np.ndarray, trace: list[RowOp]) -> np.ndarray:
    """Apply a row-op trace to a copy of ``m``."""
    mat = as_bits(m)
    for t, s in trace:
        mat[t] ^= mat[s]
    return mat


def rank(m: np.ndarray) -> int:
    """Dimension of the row span over GF(2), from an XOR basis of the rows
    as Python integers (no row-op trace), one basis row per leading bit."""
    mat = as_bits(m, copy=False)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    basis: dict[int, int] = {}
    for row in np.packbits(mat, axis=1, bitorder="little"):
        v = int.from_bytes(row.tobytes(), "little")
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    a = as_bits(a, copy=False)
    b = as_bits(b, copy=False)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return (a.astype(np.uint32) @ b.astype(np.uint32) & 1).astype(np.uint8)


def transpose(m: np.ndarray) -> np.ndarray:
    return as_bits(m, copy=False).T.copy()


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of the right null space, one vector per row.

    Returns a ``(cols - rank) x cols`` matrix N with ``m @ N.T = 0`` and
    independent rows, derived from the RREF free columns (deterministic).
    """
    m = as_bits(m, copy=False)
    r = rref(m)
    rows, cols = m.shape
    free = [c for c in range(cols) if c not in set(r.pivots)]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, p in enumerate(r.pivots):
            basis[row, p] = r.matrix[i, f]
    return basis


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
