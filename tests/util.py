"""Shared test helpers: data paths, random-instance generators and brute-force
references."""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

from stab2lin import _kernels, gf2, stabilizer
from stab2lin.lincode import GeneratorMatrix, codeword_table
from stab2lin.pauli import symplectic_product_rows
from stab2lin.stabilizer import (
    COLUMN_ADDITION,
    COLUMN_SWITCH,
    COLUMN_TRANSPOSITION,
    ROW_ADDITION,
    ElementaryOp,
    StabilizerCode,
    StandardForm,
    apply_ops,
    to_standard_form,
    validate,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "stab2lin" / "data"
BLOCKS = ("a1", "a2", "b1", "b2", "b3", "c1", "c2")


def data_path(name: str) -> str:
    return str(DATA / name)


def random_bit_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)


def random_code(n, k, seed, zero_col, repeat_col):
    """A random (n, k) code from a systematic (I_k | A), with rows mixed and
    columns shuffled.  H = (A^T | I): ``zero_col`` zeroes row 0 of A, giving
    a zero H column (a weight-1 codeword); ``repeat_col`` copies row 0 of A
    into the last row, giving two equal H columns (a weight-2 codeword)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(k, n - k)).astype(np.uint8)
    if zero_col:
        a[0] = 0
    if repeat_col and k > 1:
        a[-1] = a[0]
    rows = np.hstack([np.eye(k, dtype=np.uint8), a])
    for _ in range(k):
        i, j = rng.integers(0, k, size=2)
        if i != j:
            rows[i] ^= rows[j]
    return GeneratorMatrix(rows[:, rng.permutation(n)])


def hamming_direct_sum(copies: int) -> GeneratorMatrix:
    """The direct sum of ``copies`` [7,4,3] Hamming codes: a (7c, 4c, 3) code
    with 7c codewords of weight 3, seven in each block."""
    hamming = np.array(
        [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]],
        dtype=np.uint8,
    )
    return GeneratorMatrix(np.kron(np.eye(copies, dtype=np.uint8), hamming))


def encode(g: GeneratorMatrix, x: np.ndarray) -> np.ndarray:
    """The linear combination of generator rows selected by the message bits."""
    x = gf2.as_bits(x)
    if x.shape != (g.k,):
        raise ValueError(f"message length {x.shape} != k = {g.k}")
    return gf2.mat_mul(x[None, :], g.rows)[0]


def _message_of_index(idx: int, k: int) -> np.ndarray:
    return np.array([(idx >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.uint8)


@dataclass(frozen=True)
class DecodeResult:
    message: np.ndarray
    codeword: np.ndarray
    distance: int


def decode_nearest(g: GeneratorMatrix, word: np.ndarray) -> DecodeResult:
    """Nearest codeword to ``word``; ties go to the smallest message."""
    word = gf2.as_bits(word)
    if word.shape != (g.n,):
        raise ValueError(f"word length {word.shape} != n = {g.n}")
    table = codeword_table(g)
    packed = gf2.pack_rows(word)[0]
    dist = np.bitwise_count(table ^ packed[None, :]).sum(axis=1, dtype=np.int64)
    best = int(dist.argmin())
    return DecodeResult(
        message=_message_of_index(best, g.k),
        codeword=gf2.unpack_rows(table[best], g.n)[0],
        distance=int(dist[best]),
    )


def writable_blocks(sf: StandardForm) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A writable copy of ``sf.matrix`` and each block in ``BLOCKS`` as a view
    of that copy, so writing a block edits the copy in place; pass the copy
    back with ``dataclasses.replace(sf, matrix=...)``."""
    mat = sf.matrix.copy()
    shadow = copy.copy(sf)
    object.__setattr__(shadow, "matrix", mat)
    return mat, {name: getattr(shadow, name) for name in BLOCKS}


def flip_block_bit(sf: StandardForm, name: str, i: int, j: int) -> StandardForm:
    """``sf`` with bit (i, j) of block ``name`` flipped."""
    mat, blocks = writable_blocks(sf)
    blocks[name][i, j] ^= 1
    return dataclasses.replace(sf, matrix=mat)


def random_stabilizer_code(rng: np.random.Generator, n: int, m: int) -> StabilizerCode:
    """Uniform-ish valid code: grow rows inside the symplectic complement of
    the ones chosen so far, rejecting span members."""
    assert 1 <= m <= n
    rows: list[np.ndarray] = []
    while len(rows) < m:
        if rows:
            constr = np.array([np.concatenate([r[n:], r[:n]]) for r in rows], np.uint8)
            basis = gf2.nullspace(constr)
        else:
            basis = np.eye(2 * n, dtype=np.uint8)
        for _ in range(100):
            coeffs = rng.integers(0, 2, size=basis.shape[0]).astype(np.uint8)
            v = gf2.mat_mul(coeffs[None, :], basis)[0]
            if not v.any():
                continue
            stacked = np.array(rows + [v], np.uint8)
            if gf2.rank(stacked) == len(rows) + 1:
                rows.append(v)
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("rejection sampling stalled")
    return StabilizerCode(np.array(rows, np.uint8), n)


def random_css_code(rng: np.random.Generator, n: int, rx: int, rz: int) -> StabilizerCode:
    """A random CSS code: a full-rank rx x n H_X, and rz independent rows H_Z
    drawn from the dual of H_X, so every X row commutes with every Z row; the
    m = rx + rz generators are then scrambled by random row additions, so the
    file no longer lists them as pure X and pure Z."""
    assert rx + rz <= n and rx + rz >= 1
    while True:
        hx = random_bit_matrix(rng, rx, n)
        if gf2.rank(hx) == rx:
            break
    dual = gf2.nullspace(hx)
    while True:
        hz = gf2.mat_mul(random_bit_matrix(rng, rz, dual.shape[0]), dual)
        if gf2.rank(hz) == rz:
            break
    mat = np.zeros((rx + rz, 2 * n), np.uint8)
    mat[:rx, :n] = hx
    mat[rx:, n:] = hz
    for _ in range(2 * (rx + rz)):
        t, s = rng.integers(0, rx + rz, size=2)
        if t != s:
            mat[t] ^= mat[s]
    return StabilizerCode(mat, n)


def random_r_zero_code(rng: np.random.Generator, n: int, m: int) -> StabilizerCode:
    """A random valid code whose standard form has r = 0: X is a random
    full-rank m x n matrix and Z = X S for a random symmetric S, so the rows
    commute (X S X^T is symmetric) and only the empty sum is Z-type."""
    while True:
        x = random_bit_matrix(rng, m, n)
        if gf2.rank(x) == m:
            break
    upper = np.triu(random_bit_matrix(rng, n, n))
    z = gf2.mat_mul(x, upper ^ np.triu(upper, 1).T)
    return StabilizerCode(np.hstack([x, z]), n)


def rotated_surface_code(d: int) -> StabilizerCode:
    """The [[d^2, 1, d]] rotated surface code: checkerboard weight-4 faces,
    weight-2 X faces on the top and bottom edges, Z faces on the sides."""
    n = d * d
    rows = []
    for i in range(-1, d):
        for j in range(-1, d):
            qubits = [a * d + b for a in (i, i + 1) for b in (j, j + 1)
                      if 0 <= a < d and 0 <= b < d]
            x_type = (i + j) % 2 == 0
            edge = i in (-1, d - 1) if x_type else j in (-1, d - 1)
            if len(qubits) == 4 or (len(qubits) == 2 and edge):
                row = np.zeros(2 * n, np.uint8)
                row[np.array(qubits) + (0 if x_type else n)] = 1
                rows.append(row)
    return StabilizerCode(np.array(rows), n)


def surface_code_x_row_added(d: int) -> StabilizerCode:
    """The rotated surface code with its last X row added to its first: the
    same CSS group, but the first row's qubits reach X-column weight 3, so
    the generators as given do not form a graph."""
    code = rotated_surface_code(d)
    x_rows = np.flatnonzero(code.matrix[:, : code.n].any(axis=1))
    return apply_ops(code, [ElementaryOp(ROW_ADDITION, (int(x_rows[0]), int(x_rows[-1])))])


def toric_code(L: int, drop: bool = True) -> StabilizerCode:
    """The [[2L^2, 2, L]] toric code on an L x L periodic grid: an X check on
    the four edges at each vertex and a Z check on the four edges of each
    face.  With ``drop`` the last check of each kind, the sum of the others,
    is left out, so the generators are independent."""
    n = 2 * L * L

    def edge(i, j, vertical):
        return vertical * L * L + i % L * L + j % L

    rows = []
    for i, j in product(range(L), repeat=2):
        star = [edge(i, j, 0), edge(i, j - 1, 0), edge(i, j, 1), edge(i - 1, j, 1)]
        face = [n + edge(i, j, 0), n + edge(i + 1, j, 0), n + edge(i, j, 1), n + edge(i, j + 1, 1)]
        for qubits in (star, face):
            row = np.zeros(2 * n, np.uint8)
            row[qubits] = 1
            rows.append(row)
    return StabilizerCode(np.array(rows[: -2] if drop else rows), n)


def thinned_surface_code(rng: np.random.Generator, d: int) -> StabilizerCode:
    """The rotated surface code with 0, 1 or 2 random rows left out and the
    qubits shuffled."""
    code = rotated_surface_code(d)
    perm = rng.permutation(code.n)
    mat = np.delete(code.matrix, rng.choice(code.m, size=int(rng.integers(3)), replace=False), axis=0)
    return StabilizerCode(mat[:, np.concatenate([perm, code.n + perm])], code.n)


def random_graphlike_css_code(rng: np.random.Generator, n: int, mx: int, tries: int) -> StabilizerCode:
    """A random CSS code whose X rows and Z rows each give every qubit column
    weight <= 2, its rows in random order.  Each qubit lies in 0, 1 or 2 of
    ``mx`` X rows, and empty rows are dropped, so the X rows may be
    dependent.  Each of ``tries`` Z row candidates, one vector of a basis of
    ker(H_X) or the sum of two, is kept if the Z rows stay independent and of
    column weight <= 2."""
    hx = np.zeros((mx, n), np.uint8)
    for q in range(n):
        hx[rng.choice(mx, size=min(mx, int(rng.integers(3))), replace=False), q] = 1
    hx = hx[hx.any(axis=1)]
    dual = gf2.nullspace(hx)
    hz = np.zeros((0, n), np.uint8)
    for _ in range(tries if len(dual) else 0):
        pick = rng.choice(len(dual), size=min(len(dual), int(rng.integers(1, 3))), replace=False)
        rows = np.vstack([hz, np.bitwise_xor.reduce(dual[pick], axis=0)])
        if (rows.sum(axis=0) <= 2).all() and gf2.rank(rows) == len(rows):
            hz = rows
    mat = np.zeros((len(hx) + len(hz), 2 * n), np.uint8)
    mat[: len(hx), :n] = hx
    mat[len(hx) :, n:] = hz
    return StabilizerCode(mat[rng.permutation(len(mat))], n)


def random_elementary_op(rng: np.random.Generator, n: int, m: int) -> ElementaryOp:
    kind = str(rng.choice([ROW_ADDITION, COLUMN_TRANSPOSITION, COLUMN_SWITCH, COLUMN_ADDITION]))
    if kind == ROW_ADDITION:
        t = int(rng.integers(m))
        s = int(rng.integers(m - 1))
        if s >= t:
            s += 1
        return ElementaryOp(kind, (t, s))
    if kind == COLUMN_TRANSPOSITION:
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        return ElementaryOp(kind, (i, j))
    return ElementaryOp(kind, (int(rng.integers(n)),))


def reference_rref(m: np.ndarray, columns=None) -> gf2.RrefResult:
    """Reference for ``gf2.rref``: the pivot loop on numpy bit rows.  Pivot
    rule: first column of ``columns`` (any sequence of column indices, in its
    own order), then lowest eligible row; a swap is three row additions, and
    every addition acts on the whole row."""
    mat = gf2.as_bits(m)
    rows, cols = mat.shape
    pivots: list[int] = []
    trace: list[gf2.RowOp] = []
    rr = 0
    for c in range(cols) if columns is None else columns:
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
        pivots.append(int(c))
        rr += 1
    return gf2.RrefResult(mat, pivots, trace)


def _transpose_columns(work, trace, perm, i, j, n):
    work[:, [i, j]] = work[:, [j, i]]
    work[:, [n + i, n + j]] = work[:, [n + j, n + i]]
    perm[[i, j]] = perm[[j, i]]
    trace.append(ElementaryOp(COLUMN_TRANSPOSITION, (i, j)))


def reference_standard_form(code: StabilizerCode) -> tuple[StandardForm, int]:
    """Reference for ``to_standard_form``: the reduction that moves the columns
    of both halves of the whole matrix at every transposition, and eliminates
    stage 2 on the moved matrix.  Also returns how many stage-2 moves
    displaced a later pivot from its target position."""
    report = validate(code)
    if not report.ok:
        raise ValueError(f"input is not a valid stabilizer code: {report}")
    n, m = code.n, code.m
    perm = np.arange(n)
    displaced = 0

    # Stage 1: eliminate the X submatrix, then move pivot columns to the front.
    stage1 = gf2.rref(code.matrix, range(n))
    work = stage1.matrix
    trace = [ElementaryOp(ROW_ADDITION, op) for op in stage1.trace]
    s = stage1.rank
    for i, p in enumerate(stage1.pivots):
        if p != i:
            _transpose_columns(work, trace, perm, i, p, n)

    # Stage 2: eliminate E4 = Z[s:, s:] among the last r generators only.
    r = m - s
    stage2 = gf2.rref(work[s:], range(n + s, 2 * n))
    work[s:] = stage2.matrix
    trace += [ElementaryOp(ROW_ADDITION, (t + s, u + s)) for t, u in stage2.trace]
    z_pivots = stage2.pivots
    r1 = len(z_pivots)
    assert r1 == r, (
        f"E4 rank {r1} < r = {r}: zero/non-commuting residual generators "
        "(impossible for a valid code; input or reduction is broken)"
    )

    # Move the E4 pivot columns to the last r qubit positions, pivot-row order.
    cur = [p - n for p in z_pivots]  # qubit positions of the pivots
    for i in range(r):
        tgt = n - r + i
        if cur[i] == tgt:
            continue
        _transpose_columns(work, trace, perm, cur[i], tgt, n)
        for j in range(i + 1, r):
            if cur[j] == tgt:
                cur[j] = cur[i]
                displaced += 1
                break
        cur[i] = tgt

    assert (
        np.array_equal(work[:s, :s], np.eye(s))
        and not work[s:, :n].any()
        and np.array_equal(work[s:, 2 * n - r :], np.eye(r))
    ), "the reduction left I_s, the zero X part or I_r out of place"
    return StandardForm(work, n, s, perm, trace), displaced


def replay_row_ops(m: np.ndarray, trace: list[gf2.RowOp]) -> np.ndarray:
    """Apply a row-op trace to a copy of ``m``."""
    mat = gf2.as_bits(m)
    for t, s in trace:
        mat[t] ^= mat[s]
    return mat


def in_rowspan(m_rref: gf2.RrefResult, v: np.ndarray) -> bool:
    """Membership of ``v`` in the row span, given a precomputed RREF."""
    v = gf2.as_bits(v)
    for i, p in enumerate(m_rref.pivots):
        if v[p]:
            v ^= m_rref.matrix[i]
    return not v.any()


def pauli_weight_rows(rows: np.ndarray) -> np.ndarray:
    """Pauli weight of each 2n-bit row."""
    rows = gf2.as_bits(rows, copy=False)
    n = rows.shape[1] // 2
    return np.count_nonzero(rows[:, :n] | rows[:, n:], axis=1)


def reference_logical_algebra_ok(sf: StandardForm) -> bool:
    """Reference for ``verify_logical_algebra``: G+L and G+N each commute
    pairwise and have rank n, and N_i, L_j anticommute exactly when i = j,
    checked set by set with ``gf2.rank``.  Reads the logical operators
    through the ``stabilizer`` module, so a test may patch them."""
    gens = sf.matrix
    lops = stabilizer.logical_phase_ops(sf)
    nops = stabilizer.logical_bit_ops(sf)
    n = sf.n
    gl = np.vstack([gens, lops])
    gn = np.vstack([gens, nops])
    commuting = not symplectic_product_rows(gl).any() and not symplectic_product_rows(gn).any()
    independent = gf2.rank(gl) == n and gf2.rank(gn) == n
    na, nb = nops[:, :n], nops[:, n:]
    la, lb = lops[:, :n], lops[:, n:]
    prods = gf2.mat_mul(na, lb.T) ^ gf2.mat_mul(nb, la.T)
    return commuting and independent and np.array_equal(prods, np.eye(sf.k, dtype=np.uint8))


def bfs_ensure_r(code: StabilizerCode, max_depth: int):
    """Reference for ``ensure_positive_r``: the first sequence of at most
    ``max_depth`` column ops, in ``itertools.product`` order over switches
    then additions, after which the standard form has r >= 1, re-running the
    reduction per candidate.  None when there is no such sequence."""
    if to_standard_form(code).r >= 1:
        return []
    n = code.n
    single_ops = [ElementaryOp(COLUMN_SWITCH, (i,)) for i in range(n)] + [
        ElementaryOp(COLUMN_ADDITION, (i,)) for i in range(n)
    ]
    for depth in range(1, max_depth + 1):
        for seq in product(single_ops, repeat=depth):
            if to_standard_form(apply_ops(code, seq)).r >= 1:
                return list(seq)
    return None


def subset_ensure_r(code: StabilizerCode) -> list[ElementaryOp]:
    """Reference for ``ensure_positive_r``'s ops: the lightest X part over
    sums of j standard-form generators, j = 1, 2, ... until j exceeds the
    best weight found (with r = 0 a sum of j generators has X-weight >= j),
    ties going to the smallest sorted list of op indices (switch i has index
    i, addition i index n + i, in original qubit positions)."""
    sf = to_standard_form(code)
    if sf.r >= 1:
        return []
    n, m = code.n, code.m
    # the standardized generators as X and Z bitmasks over original qubits
    at = np.argsort(sf.qubit_permutation)  # standardized position of each qubit
    xs = gf2.to_ints(sf.matrix[:, :n][:, at])
    zs = gf2.to_ints(sf.matrix[:, n:][:, at])
    best = None
    for j in range(1, m + 1):
        if best is not None and j > len(best):
            break
        for subset in combinations(range(m), j):
            x = z = 0
            for i in subset:
                x ^= xs[i]
                z ^= zs[i]
            if best is not None and x.bit_count() > len(best):
                continue
            key = sorted(q + n * (z >> q & 1) for q in range(n) if x >> q & 1)
            if best is None or (len(key), key) < (len(best), best):
                best = key
    return [
        ElementaryOp(COLUMN_SWITCH, (i,)) if i < n else ElementaryOp(COLUMN_ADDITION, (i - n,))
        for i in best
    ]


def level_keys(n: int, alphabets: tuple[str, ...]) -> list:
    """``keys[w]``: the join keys a search over ``alphabets`` lists at weight
    w = 1 .. n (``keys[0]`` is None)."""
    return [None] + [
        sum(_kernels.join_entries(n, w, len(a)) for a in alphabets) for w in range(1, n + 1)
    ]


def css_join_distance(code: StabilizerCode, cap: int) -> stabilizer.DistanceResult:
    """The distance of a CSS code by the join over {X} and {Z}
    (:func:`_kernels.normalizer_min_weight`), as :func:`quantum_distance`
    reports it off the cycle route."""
    n = code.n
    red = gf2.rref(code.matrix)
    if red.rank == n:
        return stabilizer.DistanceResult(None, cap, 0)
    span = red.matrix[: red.rank]
    d = _kernels.normalizer_min_weight(code.matrix, span, red.pivots, n, cap, ("X", "Z"))
    return stabilizer.DistanceResult(d, cap, d) if d else stabilizer.DistanceResult(None, cap, cap, "cap")


def walked_guard(keys: list, cap: int) -> tuple[int, int | None]:
    """Oracle: the work guard by the exact key count of every weight up to
    ``cap``; returns (reach, predicted_keys)."""
    for w in range(1, cap + 1):
        if keys[w] > _kernels.MAX_JOIN_ENTRIES:
            return w - 1, keys[w]
    return cap, None
