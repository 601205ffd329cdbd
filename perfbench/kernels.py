"""The four kernel inputs of ``benchmarks/bench_kernels.py``, rebuilt here so
the traced run times them whether or not that script still exists.

Parity checks and reduced forms are computed with this file's own GF(2)
code; the coset histogram does not depend on which parity-check basis is
used, so its answer matches the script's input exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "src" / "stab2lin" / "data"


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form of int rows (bit c = column c), leftmost
    pivots first; returns (nonzero rows, pivot columns)."""
    rows = list(rows)
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        hit = next((i for i in range(top, len(rows)) if (rows[i] >> col) & 1), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        for i in range(len(rows)):
            if i != top and (rows[i] >> col) & 1:
                rows[i] ^= rows[top]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def _to_int(row) -> int:
    return sum(int(b) << c for c, b in enumerate(row))


def _to_bits(v: int, ncols: int) -> list[int]:
    return [(v >> c) & 1 for c in range(ncols)]


def _nullspace(matrix: np.ndarray) -> np.ndarray:
    ncols = matrix.shape[1]
    reduced, pivots = _rref([_to_int(r) for r in matrix], ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = 1 << free
        for row, piv in zip(reduced, pivots):
            if (row >> free) & 1:
                v |= 1 << piv
        basis.append(_to_bits(v, ncols))
    return np.array(basis, np.uint8)


def _load_binary_stab(path: Path) -> np.ndarray:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            a, b = line.split("|")
            rows.append([int(c) for c in a + b])
    return np.array(rows, np.uint8)


def _bench_rows() -> np.ndarray:
    """The 20 x 28 matrix (random | I_20) that bench_kernels.py draws."""
    rng = np.random.default_rng(0)
    return np.hstack(
        [rng.integers(0, 2, size=(20, 8)).astype(np.uint8), np.eye(20, dtype=np.uint8)]
    )


def _coset_args():
    h = _nullspace(_bench_rows()[:8, :22])
    cols = np.array([sum(int(h[i, j]) << i for i in range(h.shape[0])) for j in range(22)], np.int64)
    return cols, 22, h.shape[0]


def _normalizer_args():
    gens = _load_binary_stab(DATA / "eight_three.stab")
    span, pivots = _rref([_to_int(r) for r in gens], 16)
    span_rows = np.array([_to_bits(r, 16) for r in span], np.uint8)
    return gens, span_rows, pivots, 8, 4


def _trials_args():
    from stab2lin import lincode

    g73 = lincode.GeneratorMatrix(
        np.array(
            [[1, 1, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1, 0], [1, 0, 1, 1, 0, 0, 1]],
            np.uint8,
        )
    )
    return lincode.codeword_table(g73), 7, 0.05, 500_000, 1


# kernel name -> function returning its positional arguments, as in bench_kernels.py
KERNEL_INPUTS = {
    "codeword_weight_hist": lambda: (_bench_rows(), 28),
    "coset_min_weight_hist": _coset_args,
    "normalizer_min_weight": _normalizer_args,
    "bsc_trial_successes": _trials_args,
}
