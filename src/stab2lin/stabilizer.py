"""Stabilizer codes: validation, standard-form reduction, logical operators,
and the exact quantum distance.

A code is an m x 2n binary matrix whose rows are pairwise-commuting,
independent (a|b) generator vectors.  The standard-form reduction brings it
to the block shape

    X part: [ I_s  A1  A2 ]      Z part: [ B1  B2  B3 ]
            [ 0    0   0  ]              [ C1  C2  I_r ]

by row additions and simultaneous column transpositions of both halves,
recording every elementary operation so the reduction can be replayed and
the column permutation mapped back to original qubit positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, gf2, lincode
from .pauli import parse_pauli, pauli_string, symplectic_product_rows

ROW_ADDITION = "row-addition"
COLUMN_TRANSPOSITION = "column-transposition"
COLUMN_SWITCH = "column-switch"
COLUMN_ADDITION = "column-addition"


@dataclass(frozen=True)
class ElementaryOp:
    """One elementary operation on a generator matrix.

    kinds and indices:
      row-addition (target, source): row[target] ^= row[source]
      column-transposition (i, j):   swap qubit positions i and j
      column-switch (i,):            swap X and Z columns of qubit i
      column-addition (i,):          X column of qubit i ^= Z column
    """

    kind: str
    indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """m independent, pairwise-commuting generators on n qubits, as an
    m x 2n matrix (m may be 0); a matrix of another shape raises ValueError.

    Two codes of the same class are equal when they have the same n and the
    same matrix; the matrix is read-only, so its bytes hash stably.
    """

    matrix: np.ndarray
    n: int

    def __post_init__(self):
        mat = gf2.as_bits(self.matrix)
        if mat.ndim != 2 or mat.shape[1] != 2 * self.n:
            raise ValueError(f"expected an m x {2 * self.n} matrix, got shape {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.n, self.matrix.tobytes()))

    @classmethod
    def from_paulis(cls, paulis: list[str]) -> "StabilizerCode":
        rows = [parse_pauli(p) for p in paulis]
        if not rows:
            raise ValueError("need at least one generator")
        if len({len(row) for row in rows}) > 1:
            raise ValueError("generators must act on the same number of qubits")
        return cls(np.array(rows), len(rows[0]) // 2)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.n - self.m

    def pauli_strings(self) -> list[str]:
        return [pauli_string(row) for row in self.matrix]


@dataclass(frozen=True)
class ValidationReport:
    """Commutativity and independence diagnosis of a generator set."""

    n: int
    m: int
    anticommuting_pairs: list[tuple[int, int]]
    rank: int

    @property
    def independent(self) -> bool:
        return self.rank == self.m

    @property
    def ok(self) -> bool:
        return not self.anticommuting_pairs and self.independent


def validate(code: StabilizerCode) -> ValidationReport:
    """Report every non-commuting row pair and whether rows are independent."""
    # the Gram matrix is symmetric: keep each pair once, as (i, j) with i < j
    i, j = np.nonzero(symplectic_product_rows(code.matrix))
    upper = i < j
    pairs = list(zip(i[upper].tolist(), j[upper].tolist()))
    return ValidationReport(code.n, code.m, pairs, gf2.rank(code.matrix))


def apply_op(matrix: np.ndarray, op: ElementaryOp, n: int) -> np.ndarray:
    """Apply one elementary operation to a copy of an m x 2n matrix."""
    mat = gf2.as_bits(matrix)
    if op.kind == ROW_ADDITION:
        t, s = op.indices
        mat[t] ^= mat[s]
    elif op.kind == COLUMN_TRANSPOSITION:
        i, j = op.indices
        mat[:, [i, j]] = mat[:, [j, i]]
        mat[:, [n + i, n + j]] = mat[:, [n + j, n + i]]
    elif op.kind == COLUMN_SWITCH:
        (i,) = op.indices
        mat[:, [i, n + i]] = mat[:, [n + i, i]]
    elif op.kind == COLUMN_ADDITION:
        (i,) = op.indices
        mat[:, i] ^= mat[:, n + i]
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    return mat


def apply_ops(code: StabilizerCode, ops) -> StabilizerCode:
    mat = code.matrix
    for op in ops:
        mat = apply_op(mat, op, code.n)
    return StabilizerCode(mat, code.n)


def _block(rows: int, half: int, group: int) -> property:
    """A read-only view of one block of a standard form's matrix: the first s
    rows (``rows`` 0) or the last r (1), the X half (``half`` 0) or the Z half
    (1), and the qubits [0, s), [s, n - r) or [n - r, n) (``group`` 0, 1, 2)."""

    def view(sf: StandardForm) -> np.ndarray:
        edges = (0, sf.s, sf.n - sf.r, sf.n)
        cols = slice(half * sf.n + edges[group], half * sf.n + edges[group + 1])
        return sf.matrix[: sf.s, cols] if rows == 0 else sf.matrix[sf.s :, cols]

    return property(view)


@dataclass(frozen=True, eq=False)
class StandardForm(StabilizerCode):
    """A stabilizer code whose matrix has the standard block shape; the
    blocks ``a1`` ... ``c2`` are views of ``matrix``.  A matrix without I_s,
    the zero X part below row s and I_r in place, or with s outside
    [0, m] or m > n, raises ValueError.

    ``qubit_permutation[p]`` is the original qubit position now at
    standardized position ``p``; like ``matrix`` it is read-only, and
    ``op_trace`` is stored as a tuple.  Replaying ``op_trace`` against the
    original matrix reproduces ``matrix`` bit-exactly.  Equality and hashing
    are those of the code: the permutation and the trace, which record how
    it was reached, are not compared.
    """

    s: int
    qubit_permutation: np.ndarray
    op_trace: tuple[ElementaryOp, ...] = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        perm = np.array(self.qubit_permutation)
        perm.flags.writeable = False
        object.__setattr__(self, "qubit_permutation", perm)
        object.__setattr__(self, "op_trace", tuple(self.op_trace))
        mat, n, s, r = self.matrix, self.n, self.s, self.m - self.s
        if not (
            0 <= s <= self.m <= n
            and np.array_equal(mat[:s, :s], np.eye(s))
            and not mat[s:, :n].any()
            and np.array_equal(mat[s:, 2 * n - r :], np.eye(r))
        ):
            raise ValueError(f"not a standard form with s = {s}, m = {self.m}, n = {n}")

    @property
    def r(self) -> int:
        return self.m - self.s

    a1 = _block(0, 0, 1)
    a2 = _block(0, 0, 2)
    b1 = _block(0, 1, 0)
    b2 = _block(0, 1, 1)
    b3 = _block(0, 1, 2)
    c1 = _block(1, 1, 0)
    c2 = _block(1, 1, 1)


def to_standard_form(code: StabilizerCode) -> StandardForm:
    """Reduce a valid code to standard form, tracing every operation.

    Row additions commute with column transpositions, so a transposition only
    swaps two entries of the permutation, and the matrix is gathered into its
    standardized column order once, at the end.  Stage 2 scans the Z columns
    in their moved order, so its pivots and row operations are those of an
    elimination on the moved matrix.  An invalid code raises ValueError.
    """
    if symplectic_product_rows(code.matrix).any():
        raise ValueError("some generators anticommute")
    n, m = code.n, code.m
    perm = list(range(n))  # perm[p]: the original qubit at position p
    at = list(range(n))  # at[q]: the position of original qubit q

    # Stage 1: eliminate the X submatrix, then move pivot columns to the front.
    stage1 = gf2.rref(code.matrix, range(n))
    work = stage1.matrix
    trace = [ElementaryOp(ROW_ADDITION, op) for op in stage1.trace]
    s = stage1.rank

    def transpose(i, j):
        perm[i], perm[j] = perm[j], perm[i]
        at[perm[i]], at[perm[j]] = i, j
        trace.append(ElementaryOp(COLUMN_TRANSPOSITION, (i, j)))

    for i, p in enumerate(stage1.pivots):
        if p != i:
            transpose(i, p)

    # Stage 2: eliminate E4 = Z[s:, s:] among the last r generators only.
    r = m - s
    stage2 = gf2.rref(work[s:], [n + p for p in perm[s:]])
    work[s:] = stage2.matrix
    trace += [ElementaryOp(ROW_ADDITION, (t + s, u + s)) for t, u in stage2.trace]
    # A nonzero Z-only row sum on the stage-1 pivot qubits anticommutes with a
    # pivot row, so with commuting rows E4 is short only when a row is dependent.
    if stage2.rank < r:
        raise ValueError("the generators are dependent")

    # Move the E4 pivot columns to the last r qubit positions, pivot-row order.
    for i, p in enumerate(stage2.pivots):
        if at[p - n] != n - r + i:
            transpose(at[p - n], n - r + i)

    return StandardForm(work[:, perm + [n + p for p in perm]], n, s, perm, trace)


@dataclass(frozen=True)
class EnsureRResult:
    """An equivalent code with r >= 1, its standard form, and the column
    operations that give it."""

    code: StabilizerCode
    ops: list[ElementaryOp]
    standard_form: StandardForm


def ensure_positive_r(code: StabilizerCode) -> EnsureRResult:
    """An equivalent code whose standard form has r >= 1, reached by the
    fewest column-switch / column-addition operations.

    r >= 1 iff some nonzero stabilizer element is Z-type.  A switch turns an
    X letter into Z and an addition turns a Y letter into Z, so the fewest
    operations is the least X-part weight over the nonzero stabilizer
    elements: one switch per X letter and one addition per Y letter of a
    lightest element.  Ties go to the lexicographically smallest sorted list
    of op indices, switch i having index i and addition i index n + i, in
    original qubit positions.

    With r = 0 the standard form's X part is (I_m | A1), so an element is
    fixed by its X part x (its coefficients are x on the pivot qubits), and
    the lightest are those of the code spanned by the X rows:
    :func:`lincode.lightest_codewords` on its parity checks, the null space
    of the X rows.  Returns the input unchanged when it already has r >= 1.
    """
    sf = to_standard_form(code)
    if sf.r >= 1:
        return EnsureRResult(code, [], sf)
    if code.m == 0:
        raise ValueError("r >= 1 cannot be reached without generators")
    n, perm = code.n, sf.qubit_permutation
    w, xs = lincode.lightest_codewords(gf2.nullspace(code.matrix[:, :n]))
    zs = gf2.mat_mul(xs[:, perm[: code.m]], sf.matrix[:, n:])[:, np.argsort(perm)]
    index = np.arange(n) + n * zs.astype(np.intp)  # of a switch or an addition on each qubit
    keys = np.sort(np.where(xs == 1, index, 2 * n), axis=1)[:, :w]
    best = keys[np.lexsort(keys.T[::-1])[0]].tolist()
    ops = [
        ElementaryOp(COLUMN_SWITCH, (i,)) if i < n else ElementaryOp(COLUMN_ADDITION, (i - n,))
        for i in best
    ]
    moved = apply_ops(code, ops)
    return EnsureRResult(moved, ops, to_standard_form(moved))


def logical_phase_ops(sf: StandardForm) -> np.ndarray:
    """The k eigenvalue-labelling operators: rows (0 | I | C2^T || D | 0 | 0)
    with D = B2^T + C2^T B3^T."""
    s, k, n = sf.s, sf.k, sf.n
    d = sf.b2.T ^ gf2.mat_mul(sf.c2.T, sf.b3.T)
    rows = np.zeros((k, 2 * n), dtype=np.uint8)
    rows[:, s : s + k] = np.eye(k, dtype=np.uint8)
    rows[:, s + k : n] = sf.c2.T
    rows[:, n : n + s] = d
    return rows


def logical_bit_ops(sf: StandardForm) -> np.ndarray:
    """The k encoded-bit-flip operators: rows (0 | 0 | 0 || A1^T | I | 0)."""
    s, k, n = sf.s, sf.k, sf.n
    rows = np.zeros((k, 2 * n), dtype=np.uint8)
    rows[:, n : n + s] = sf.a1.T
    rows[:, n + s : n + s + k] = np.eye(k, dtype=np.uint8)
    return rows


@dataclass(frozen=True)
class LogicalAlgebraReport:
    """Each pair of G, L, N operators whose symplectic product is wrong."""

    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_logical_algebra(sf: StandardForm) -> LogicalAlgebraReport:
    """Check that G+L and G+N are n independent commuting operators and that
    N_i, L_j anticommute exactly when i = j.

    One Gram matrix of symplectic products over the stack [G; L; N] decides
    all of it: every entry must be 0 except the L-N and N-L blocks, which
    must be I_k.  Independence follows from that pattern.  G is independent
    by its I_s and I_r blocks.  If sum a_i G_i + sum b_j L_j = 0, pairing the
    sum with N_l leaves b_l = 0, so every b_j and then every a_i is 0; pairing
    with L_l does the same for G+N.

    L and N are built from the blocks of G, so on a standard form every block
    of the pattern other than G-G holds for any block values: only a pair of
    generators, or a wrong ``logical_phase_ops`` or ``logical_bit_ops``, can
    fail.
    """
    m, k = sf.m, sf.k
    gram = symplectic_product_rows(
        np.vstack([sf.matrix, logical_phase_ops(sf), logical_bit_ops(sf)])
    )
    expected = np.zeros_like(gram)
    expected[m : m + k, m + k :] = expected[m + k :, m : m + k] = np.eye(k, dtype=np.uint8)
    names = [f"G_{i + 1}" for i in range(m)]
    names += [f"{op}_{j + 1}" for op in "LN" for j in range(k)]
    failures = [
        f"{names[i]}, {names[j]} {'commute' if expected[i, j] else 'anticommute'}"
        for i, j in np.argwhere(np.triu(gram ^ expected, 1))
    ]
    return LogicalAlgebraReport(failures)


CAP = "cap"
WORK_LIMIT = "work-limit"


@dataclass(frozen=True)
class DistanceResult:
    """Minimum-weight search outcome.

    ``value`` is the distance, or None with ``stopped_by`` saying why:
    ``"cap"`` when no weight up to ``cap`` qualifies, ``"work-limit"`` when
    the search refused the next level (:class:`_kernels.WorkLimit`), and None
    for a k = 0 code.  Every weight up to ``searched`` was searched.  On a
    work limit, ``predicted_keys`` is the number of join keys the refused
    level would have listed, the number the guard compared with the limit.
    """

    value: int | None
    cap: int
    searched: int
    stopped_by: str | None = None
    predicted_keys: int | None = None

    @property
    def exceeded(self) -> bool:
        return self.stopped_by == CAP

    @property
    def undefined(self) -> bool:
        return self.value is None and self.stopped_by is None

    @property
    def t(self) -> int | None:
        return None if self.value is None else (self.value - 1) // 2


def is_css(code: StabilizerCode) -> bool:
    """Whether the stabilizer group is generated by pure-X and pure-Z
    elements, however the generators are written.

    Let r be the rank of the group.  The pure-X elements are the row sums
    whose Z half vanishes: a space of m - rank(Z half) coefficient vectors,
    of which the m - r that give the identity drop out, so a subgroup of
    dimension r - rank(Z half).  The pure-Z ones have dimension
    r - rank(X half).  They intersect only in the identity, so they generate
    the group iff those dimensions sum to r, i.e. rank(X) + rank(Z) = r.
    """
    n, mat = code.n, code.matrix
    return gf2.rank(mat[:, :n]) + gf2.rank(mat[:, n:]) == gf2.rank(mat)


# The cycle route of quantum_distance runs while each side's covering graph has
# at most this many vertices, 2^k (m_side + 1); past it the join runs.
MAX_COVER_STATES = 1 << 12


def _graphs(code: StabilizerCode) -> list[tuple[list, int]] | None:
    """The graphs of the X rows and of the Z rows, when the generators as
    given form graphs: every row is pure X or pure Z (an identity row counts
    as Z), each half gives every qubit column weight <= 2, and the X rows
    commute with the Z rows; else None.

    A side with m rows is a graph on m + 1 vertices, its rows and a boundary
    vertex m, returned as the endpoints of each qubit's edge, its rows padded
    with the boundary (a qubit in no row is a loop at the boundary), and
    that vertex count."""
    n, mat = code.n, code.matrix
    has_x = mat[:, :n].any(axis=1)
    if (has_x & mat[:, n:].any(axis=1)).any():
        return None
    graphs = []
    for checks in (mat[has_x, :n], mat[~has_x, n:]):
        if (checks.sum(axis=0) > 2).any():
            return None
        ends = np.full((n, 2), len(checks), dtype=np.intp)
        qubit, row = np.nonzero(checks.T)
        ends[qubit, np.arange(len(qubit)) - np.searchsorted(qubit, qubit)] = row
        graphs.append((ends, len(checks) + 1))
    # X row i and Z row j commute iff they share an even number of qubits, so
    # the (i, j) pairs over all qubits, sorted, must pair off
    (x, vx), (z, vz) = graphs
    x, z = x[:, [0, 0, 1, 1]], z[:, [0, 1, 0, 1]]
    shared = np.sort((x * vz + z)[(x < vx - 1) & (z < vz - 1)])
    if shared.size % 2 or (shared[::2] != shared[1::2]).any():
        return None
    return [(ends.tolist(), vertices) for ends, vertices in graphs]


def _forest(ends: list, vertices: int, edges) -> tuple[list[int], list[int], list[int]]:
    """A breadth-first spanning forest of the graph on ``vertices`` vertices
    with the given edges (``ends[e]`` the endpoints of edge e): the vertices
    in visiting order, each vertex's edge to its parent (-1 for a root), and
    the edges off the forest, in the given order."""
    adjacent = [[] for _ in range(vertices)]
    for e in edges:
        a, b = ends[e]
        adjacent[a].append((b, e))
        adjacent[b].append((a, e))
    parent = [None] * vertices
    order = []
    for root in range(vertices):
        if parent[root] is not None:
            continue
        parent[root] = -1
        head = len(order)
        order.append(root)
        while head < len(order):
            for v, e in adjacent[order[head]]:
                if parent[v] is None:
                    parent[v] = e
                    order.append(v)
            head += 1
    on_forest = set(parent)
    return order, parent, [e for e in edges if e not in on_forest]


def _cycle_labels(ends_b: list, vertices_b: int, off_a: list[int], n: int) -> np.ndarray:
    """Each qubit's label, an int of k bits, such that a cycle of graph A is
    a row sum of the other side exactly when its labels XOR to 0.
    ``off_a`` lists the edges off a spanning forest of A, and graph B
    (``ends_b``) is that of the other side's rows.  Bit j of the labels is
    the j-th fundamental cycle of a spanning forest of B on the ``off_a``
    edges: its edge off that forest gets bit j alone, and each forest edge
    the bits whose edges have one end below it."""
    order, parent, off_b = _forest(ends_b, vertices_b, off_a)
    labels = [0] * n
    charge = [0] * vertices_b
    for j, e in enumerate(off_b):
        labels[e] = 1 << j
        for v in ends_b[e]:
            charge[v] ^= 1 << j
    for v in reversed(order):
        e = parent[v]
        if e >= 0:
            labels[e] = charge[v]
            charge[sum(ends_b[e]) - v] ^= charge[v]
    return np.array(labels, dtype=np.intp)


def _shortest_nontrivial_cycle(ends: list, vertices: int, labels: np.ndarray, k: int, cap: int) -> int:
    """The least length <= ``cap`` of a closed walk whose edge labels XOR to
    a nonzero value, 0 if none: breadth-first search on the 2^k-fold cover,
    state v * 2^k + sigma, from (v, 0) for every source v at once, each
    source one bit of the frontier's uint64 words.  The sources are one end
    of each labelled edge, since every nontrivial cycle holds such an edge."""
    size = 1 << k
    sigma = np.arange(size)
    ends = np.array(ends, dtype=np.intp) * size
    flip = sigma ^ labels[:, None]
    src = np.concatenate([ends[:, :1] + sigma, ends[:, 1:] + sigma]).ravel()
    dst = np.concatenate([ends[:, 1:] + flip, ends[:, :1] + flip]).ravel()
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    into = dst[starts]
    is_source = np.zeros(vertices * size, dtype=bool)
    is_source[ends[labels != 0, 0]] = True
    sources = np.flatnonzero(is_source)
    word = np.arange(len(sources)) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(len(sources)) % 64).astype(np.uint64))
    front = np.zeros((vertices * size, word[-1] + 1), dtype=np.uint64)
    front[sources, word] = bit
    seen = front.copy()
    goal = sources[:, None] + sigma[1:]
    for t in range(1, cap + 1):
        step = np.zeros_like(front)
        step[into] = np.bitwise_or.reduceat(front[src], starts)
        step &= ~seen
        if (step[goal, word[:, None]] & bit[:, None]).any():
            return t
        seen |= step
        front = step
    return 0


def _cycle_distance(graphs: list[tuple[list, int]], cap: int) -> DistanceResult | None:
    """:func:`quantum_distance` of a code whose sides form ``graphs``
    (:func:`_graphs`), by the shortest nontrivial cycle on each side; None
    when a side's cover has more than ``MAX_COVER_STATES`` states."""
    n = len(graphs[0][0])
    sides = [(ends, vertices, _forest(ends, vertices, range(n))[2]) for ends, vertices in graphs]
    k = sum(len(off) for *_, off in sides) - n  # n - rank(H_X) - rank(H_Z)
    if k == 0:
        return DistanceResult(None, cap, 0)
    if max(vertices for _, vertices in graphs) << k > MAX_COVER_STATES:
        return None
    d = 0
    for (ends_a, vertices_a, off_a), (ends_b, vertices_b, _) in (sides, sides[::-1]):
        labels = _cycle_labels(ends_b, vertices_b, off_a, n)
        d = _shortest_nontrivial_cycle(ends_a, vertices_a, labels, k, d - 1 if d else cap) or d
    return DistanceResult(d, cap, d) if d else DistanceResult(None, cap, cap, CAP)


def quantum_distance(code: StabilizerCode, weight_cap: int | None = None) -> DistanceResult:
    """Minimum Pauli weight over vectors commuting with all generators but
    outside the generator row span.

    A CSS group (:func:`is_css`) is searched with the one-letter alphabets
    {X} and {Z}, any other with {X, Y, Z}.  That is exact: d = min(d_X, d_Z).
    The group has a basis of pure-X and pure-Z elements.  A logical X^a Z^b
    commutes with the pure-Z ones through a alone and with the pure-X ones
    through b alone, so X^a and Z^b each commute with the whole group.  If
    both were in the group, so would be their product; so one of them is a
    logical operator, and it weighs no more than X^a Z^b.

    **Graphlike codes: the shortest nontrivial cycle** (the homology picture
    of Dennis, Kitaev, Landahl & Preskill, "Topological quantum memory",
    quant-ph/0110143).  When the generators as given are pure X or pure Z
    rows, each half of column weight <= 2, and the two halves commute
    (:func:`_graphs`), d_Z is found as follows, and d_X the same way with X
    and Z swapped.

    - ker(H_X) is the cycle space of a graph G.  Its vertices are the X rows
      plus one boundary vertex, and each qubit is an edge: between its two X
      rows, from its one X row to the boundary, or a loop at the boundary if
      it is in none.  A vector c is in ker(H_X) iff every X row meets it an
      even number of times, i.e. iff its edges give every row vertex even
      degree, and then the boundary too, as degrees sum to twice |c|.  A
      toric code's dropped dependent check is simply the boundary vertex.
    - Z^c, for c in ker(H_X), is in the group iff c is in rowspan(H_Z) =
      ker(H_Z)^perp, i.e. iff c is orthogonal to every X logical: ker(H_Z) is
      rowspan(H_X) plus k X logicals, and c is orthogonal to rowspan(H_X)
      already.  Any k vectors x_j of ker(H_Z) independent modulo
      rowspan(H_X) serve.  Take a spanning forest T of G; a cycle of G is
      fixed by its edges off T, and rowspan(H_Z) lies in ker(H_X), so the
      Z rows restricted to those n - rank(H_X) edges keep rank(H_Z).
      ker(H_Z) is the cycle space of the graph of the Z rows, and its
      cycles on the edges off T, a space of dimension n - rank(H_X) -
      rank(H_Z) = k, give the x_j: the fundamental cycles of a spanning
      forest of that subgraph (:func:`_cycle_labels`).  None of their sums
      is in rowspan(H_X), the cut space of G, as every nonzero cut meets T.
    - Label each edge e with k bits, bit j set when e lies on x_j; then
      Z^c is in the group iff the labels of c's edges XOR to 0.  A closed
      walk from v ends at (v, sigma) in the 2^k-fold cover, sigma the XOR of
      its labels, and the edges it uses an odd number of times form a cycle
      of that label and no greater length.  A cycle of nonzero label splits into
      simple cycles, one of them of nonzero label, which is a closed walk
      from any vertex on it.  So d_Z is the least BFS distance from (v, 0)
      to (v, sigma != 0), minimized over v
      (:func:`_shortest_nontrivial_cycle`).
    - d = min(d_X, d_Z), by the split above.

    Every other code, and a graphlike one whose cover exceeds
    ``MAX_COVER_STATES`` states on a side, is searched by increasing weight
    with the meet-in-the-middle join of :func:`_kernels.normalizer_min_weight`.

    ``weight_cap`` defaults to n (exhaustive).  A k = 0 code returns at once
    with an undefined distance.  Each weight level of the join is priced when
    the search reaches it; at one whose joins would list more than
    ``_kernels.MAX_JOIN_ENTRIES`` keys, summed over the alphabets, the search
    stops and reports the lower bound it reached.
    """
    n = code.n
    cap = n if weight_cap is None else min(weight_cap, n)
    graphs = _graphs(code)
    if graphs is not None:
        result = _cycle_distance(graphs, cap)
        if result is not None:
            return result
    red = gf2.rref(code.matrix)
    if red.rank == n:
        return DistanceResult(None, cap, 0)
    alphabets = ("X", "Z") if is_css(code) else ("XYZ",)
    span_rows = red.matrix[: red.rank]
    try:
        d = _kernels.normalizer_min_weight(code.matrix, span_rows, red.pivots, n, cap, alphabets)
    except _kernels.WorkLimit as limit:
        return DistanceResult(None, cap, limit.searched, WORK_LIMIT, limit.keys)
    return DistanceResult(d, cap, d) if d else DistanceResult(None, cap, cap, CAP)
