import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin import gf2

from util import in_rowspan, reference_rref, replay_row_ops

# X submatrix of the bundled [[8,3]] code's generator matrix
X8 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 1, 0, 1],
        [1, 0, 1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1, 1, 0],
    ],
    dtype=np.uint8,
)


def spanned_rank(m: np.ndarray) -> int:
    """Independent rank oracle: log2 of the number of distinct row combinations."""
    rows = m.shape[0]
    seen = set()
    for mask in range(1 << rows):
        v = np.zeros(m.shape[1], dtype=np.uint8)
        for i in range(rows):
            if (mask >> i) & 1:
                v ^= m[i]
        seen.add(v.tobytes())
    return len(seen).bit_length() - 1


def test_rank_x_submatrix_is_4():
    assert gf2.rank(X8) == 4
    assert spanned_rank(X8) == 4


def test_rank_zero_and_identity():
    assert gf2.rank(np.zeros((3, 5), dtype=np.uint8)) == 0
    for k in (1, 2, 5):
        assert gf2.rank(np.eye(k, dtype=np.uint8)) == k


def test_rref_identity():
    res = gf2.rref(np.eye(4, dtype=np.uint8))
    assert np.array_equal(res.matrix, np.eye(4, dtype=np.uint8))
    assert res.pivots == [0, 1, 2, 3]
    assert res.trace == []


def test_rref_duplicate_rows():
    res = gf2.rref(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    assert np.array_equal(res.matrix, np.array([[1, 1], [0, 0]], dtype=np.uint8))
    assert res.pivots == [0]


def test_rref_x_submatrix():
    res = gf2.rref(X8)
    assert res.matrix.shape == (5, 8)
    nonzero = int((res.matrix.any(axis=1)).sum())
    assert nonzero == 4
    assert res.rank == 4


def test_rref_idempotent_and_replayable():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.integers(0, 2, size=(rng.integers(1, 7), rng.integers(1, 9))).astype(np.uint8)
        res = gf2.rref(m)
        again = gf2.rref(res.matrix)
        assert np.array_equal(again.matrix, res.matrix)
        assert np.array_equal(replay_row_ops(m, res.trace), res.matrix)


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.integers(0, 2, size=(rng.integers(1, 8), rng.integers(1, 8))).astype(np.uint8)
        assert gf2.rank(m) == gf2.rank(m.T)


def test_mat_mul_identity_both_sides():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
    assert np.array_equal(gf2.mat_mul(np.eye(4, dtype=np.uint8), m), m)
    assert np.array_equal(gf2.mat_mul(m, np.eye(6, dtype=np.uint8)), m)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def popcount_parity_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: entry (i, j) is the parity of the popcount of row i of a AND
    column j of b, each read as a binary numeral."""

    def numeral(bits):
        return int("".join(map(str, bits.tolist())) or "0", 2)

    rows, cols = [numeral(r) for r in a], [numeral(c) for c in b.T]
    entries = [bin(r & c).count("1") & 1 for r in rows for c in cols]
    return np.array(entries, dtype=np.uint8).reshape(len(rows), len(cols))


@given(st.integers(0, 5), st.integers(0, 70), st.integers(0, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(["C", "F", "transposed", "sliced"]))
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_popcount_parity(rows, inner, cols, seed, layout):
    # inner dimension 0 included, and operands in every memory layout
    rng = np.random.default_rng(seed)

    def operand(r, c):
        if layout == "F":
            return np.asfortranarray(rng.integers(0, 2, (r, c), dtype=np.uint8))
        if layout == "transposed":
            return rng.integers(0, 2, (c, r), dtype=np.uint8).T
        if layout == "sliced":
            return rng.integers(0, 2, (2 * r, 3 * c + 1), dtype=np.uint8)[::2, 1::3]
        return rng.integers(0, 2, (r, c), dtype=np.uint8)

    a, b = operand(rows, inner), operand(inner, cols)
    assert a.shape == (rows, inner) and b.shape == (inner, cols)
    got = gf2.mat_mul(a, b)
    assert got.dtype == np.uint8 and np.array_equal(got, popcount_parity_product(a, b))


def test_generator_times_parity_check_is_zero():
    # the (7,3) code: G = (A1^T | I), H = (I | A1)
    a1t = np.array([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]], dtype=np.uint8)
    g = np.hstack([a1t, np.eye(3, dtype=np.uint8)])
    h = np.hstack([np.eye(4, dtype=np.uint8), a1t.T])
    prod = gf2.mat_mul(g, h.T)
    assert not prod.any()
    # independent oracle: plain integer arithmetic mod 2
    manual = (g.astype(int) @ h.T.astype(int)) % 2
    assert not manual.any()


def test_nullspace_orthogonal_and_full():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.integers(0, 2, size=(rng.integers(1, 6), rng.integers(2, 9))).astype(np.uint8)
        ns = gf2.nullspace(m)
        assert ns.shape[0] == m.shape[1] - gf2.rank(m)
        if ns.shape[0]:
            assert not gf2.mat_mul(m, ns.T).any()
            assert gf2.rank(ns) == ns.shape[0]


def nullspace_by_entries(m):
    """Oracle: the nullspace basis written one entry at a time, free column f
    of rref(m) giving the row with 1 at f and rref(m)[i, f] at pivot i."""
    r = gf2.rref(m)
    cols = r.matrix.shape[1]
    free = [c for c in range(cols) if c not in r.pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, p in enumerate(r.pivots):
            basis[row, p] = r.matrix[i, f]
    return basis


@given(st.integers(0, 7), st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_entrywise_construction(rows, cols, seed, density):
    m = (np.random.default_rng(seed).random((rows, cols)) < density).astype(np.uint8)
    got, want = gf2.nullspace(m), nullspace_by_entries(m)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_list_and_int64_inputs():
    # copy=False must still convert input that is not a uint8 array
    assert gf2.rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert gf2.pack_rows([[1, 0, 1]]).tolist() == [[5]]
    assert gf2.mat_mul(np.array([[1, 1]]), [[1], [1]]).tolist() == [[0]]


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(9)
    for cols in (0, 1, 7, 63, 64, 65, 130):
        m = rng.integers(0, 2, size=(3, cols)).astype(np.uint8)
        if cols:
            assert np.array_equal(gf2.unpack_rows(gf2.pack_rows(m), cols), m)
        ints = gf2.to_ints(m)
        assert ints == [sum(1 << c for c in range(cols) if row[c]) for row in m]
        assert np.array_equal(gf2.from_ints(ints, cols), m)
    assert gf2.from_ints([], 5).shape == (0, 5)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rref_matches_reference(data):
    # random column windows: the whole matrix, empty, ending at the right edge
    rows = data.draw(st.integers(0, 10))
    cols = data.draw(st.integers(0, 70))
    lo = data.draw(st.integers(0, cols))
    hi = data.draw(st.one_of(st.just(lo), st.just(cols), st.integers(lo, cols)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a window, or any subset of the columns in any order
    shuffled = rng.permutation(cols)[: data.draw(st.integers(0, cols))].tolist()
    columns = data.draw(st.sampled_from([None, range(lo, hi), shuffled, np.arange(lo, hi)]))
    m = (rng.random((rows, cols)) < data.draw(st.floats(0.0, 1.0))).astype(np.uint8)
    if rows > 2:
        m[rng.integers(rows)] = 0
        m[rng.integers(rows)] = m[rng.integers(rows)]
    before = m.copy()
    got = gf2.rref(m, columns)
    want = reference_rref(m, columns)
    assert np.array_equal(m, before)
    assert got.matrix.dtype == np.uint8 and np.array_equal(got.matrix, want.matrix)
    assert got.pivots == want.pivots
    assert got.trace == want.trace


def test_rref_any_column_order_on_70_columns():
    # a shuffled list, and numpy indices, which must not meet the shift of a
    # packed row past 63 bits as np.int64
    m = (np.random.default_rng(5).random((5, 70)) < 0.5).astype(np.uint8)
    m[:, 65:] = m[:, :5] ^ 1
    for columns in (np.random.default_rng(6).permutation(70).tolist(), np.arange(70)):
        got, want = gf2.rref(m, columns), reference_rref(m, columns)
        assert np.array_equal(got.matrix, want.matrix)
        assert got.pivots == want.pivots and got.trace == want.trace
        assert all(type(p) is int for p in got.pivots)


def test_in_rowspan():
    m = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    red = gf2.rref(m)
    assert in_rowspan(red, np.array([1, 1, 0], dtype=np.uint8))
    assert not in_rowspan(red, np.array([1, 0, 0], dtype=np.uint8))


@given(st.integers(0, 10).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(0, 150), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))))
@settings(max_examples=200, deadline=None)
def test_rank_matches_rref(case):
    # zero rows, repeated rows, sparse and dense rows, more than 64 columns
    rows, cols, seed, density = case
    rng = np.random.default_rng(seed)
    m = (rng.random((rows, cols)) < density).astype(np.uint8)
    if rows > 2:
        m[rng.integers(rows)] = 0
        m[rng.integers(rows)] = m[rng.integers(rows)] ^ m[rng.integers(rows)]
    assert gf2.rank(m) == gf2.rref(m).rank
