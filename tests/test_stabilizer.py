import dataclasses
import time
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stab2lin import _kernels, gf2, stabilizer
from stab2lin.formats import load_stabilizer
from stab2lin.pauli import symplectic_product_rows
from stab2lin.stabilizer import (
    COLUMN_ADDITION,
    COLUMN_SWITCH,
    COLUMN_TRANSPOSITION,
    ROW_ADDITION,
    ElementaryOp,
    StabilizerCode,
    StandardForm,
    apply_op,
    apply_ops,
    ensure_positive_r,
    is_css,
    logical_bit_ops,
    logical_phase_ops,
    quantum_distance,
    to_standard_form,
    validate,
    verify_logical_algebra,
)

from util import (
    BLOCKS,
    DATA,
    bfs_ensure_r,
    css_join_distance,
    data_path,
    flip_block_bit,
    in_rowspan,
    level_keys,
    pauli_weight_rows,
    random_elementary_op,
    random_css_code,
    random_r_zero_code,
    random_stabilizer_code,
    reference_logical_algebra_ok,
    reference_standard_form,
    rotated_surface_code,
    subset_ensure_r,
    surface_code_x_row_added,
    toric_code,
    walked_guard,
    writable_blocks,
)


@pytest.fixture(scope="module")
def eight_three():
    return load_stabilizer(data_path("eight_three.stab"))


def test_validate_worked_example(eight_three):
    rep = validate(eight_three)
    assert rep.ok
    assert (rep.n, rep.m) == (8, 5)
    assert eight_three.k == 3


def test_validate_anticommuting_pair():
    code = StabilizerCode.from_paulis(["XII", "ZII"])
    rep = validate(code)
    assert not rep.ok
    assert rep.anticommuting_pairs == [(0, 1)]
    assert rep.independent


@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(3, 0, 0)  # no generators: no pairs
def test_validate_pairs_match_pairwise_products(n, m, seed):
    mat = np.random.default_rng(seed).integers(0, 2, size=(m, 2 * n)).astype(np.uint8)
    rep = validate(StabilizerCode(mat, n))
    a, b = mat[:, :n].astype(int), mat[:, n:].astype(int)
    pairs = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if (a[i] @ b[j] + b[i] @ a[j]) % 2
    ]
    assert rep.anticommuting_pairs == pairs
    # plain int tuples, as the CLI's JSON needs
    assert all(type(i) is type(j) is int for i, j in rep.anticommuting_pairs)
    assert all(type(pair) is tuple for pair in rep.anticommuting_pairs)
    assert (rep.n, rep.m, rep.rank) == (n, m, gf2.rank(mat))


def test_validate_dependent_rows():
    code = StabilizerCode.from_paulis(["XX", "XX"])
    rep = validate(code)
    assert not rep.ok
    assert rep.anticommuting_pairs == []
    assert not rep.independent


def test_standard_form_worked_example(eight_three):
    sf = to_standard_form(eight_three)
    assert (sf.s, sf.k, sf.r) == (4, 3, 1)
    assert sf.s + sf.r == eight_three.m
    assert sf.s + sf.k + sf.r == eight_three.n


def test_standard_form_trace_replay(eight_three):
    sf = to_standard_form(eight_three)
    replayed = eight_three.matrix
    for op in sf.op_trace:
        replayed = apply_op(replayed, op, eight_three.n)
    assert np.array_equal(replayed, sf.matrix)


def test_standard_form_trace_is_immutable(eight_three):
    sf = to_standard_form(eight_three)
    assert isinstance(sf.op_trace, tuple)
    with pytest.raises(AttributeError):
        sf.op_trace.append(ElementaryOp(COLUMN_SWITCH, (0,)))
    replayed = apply_ops(eight_three, sf.op_trace)
    assert np.array_equal(replayed.matrix, sf.matrix)


def test_standard_form_preserves_validity_and_span(eight_three):
    sf = to_standard_form(eight_three)
    assert validate(sf).ok
    # row span is preserved up to the column permutation
    permuted = eight_three.matrix.copy()
    perm = sf.qubit_permutation
    n = eight_three.n
    permuted = permuted[:, list(perm) + [n + p for p in perm]]
    combined = np.vstack([permuted, sf.matrix])
    assert gf2.rank(combined) == gf2.rank(permuted) == eight_three.m


def test_standard_form_all_z_generators():
    code = StabilizerCode.from_paulis(["ZII", "IZI", "IIZ"])
    sf = to_standard_form(code)
    assert (sf.s, sf.k, sf.r) == (0, 0, 3)
    assert not sf.matrix[:, :3].any()


def test_standard_form_xx_zz():
    sf = to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"]))
    assert (sf.s, sf.k, sf.r) == (1, 0, 1)


def test_standard_form_rejects_invalid():
    with pytest.raises(ValueError):
        to_standard_form(StabilizerCode.from_paulis(["XII", "ZII"]))


@given(st.sampled_from(["valid", "anticommuting", "dependent", "zero row", "m > n", "m = 0"]),
       st.integers(1, 9), st.integers(0, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
@example("dependent", 4, 3, 0)  # m = n + 1
@example("zero row", 1, 0, 0)
@example("m > n", 3, 2, 0)
@example("m = 0", 3, 0, 0)
def test_standard_form_raises_exactly_on_invalid_codes(kind, n, m, seed):
    # the reduction decides validity from its own elimination: it must raise
    # exactly when validate does not pass the code, and agree otherwise
    rng = np.random.default_rng(seed)
    m = 1 + m % n
    if kind == "m = 0":
        rows = np.zeros((0, 2 * n), np.uint8)
    elif kind == "anticommuting":  # random rows, now and then a valid code
        rows = rng.integers(0, 2, (m, 2 * n), dtype=np.uint8)
    else:
        rows = random_stabilizer_code(rng, n, n if kind == "m > n" else m).matrix
        coeffs = rng.integers(0, 2, (1, len(rows)), dtype=np.uint8)
        coeffs[0, rng.integers(len(rows))] = 1
        extra = {
            "valid": rows[:0],
            "dependent": gf2.mat_mul(coeffs, rows),  # a nonzero sum of rows
            "zero row": np.zeros((1, 2 * n), np.uint8),
            "m > n": rng.integers(0, 2, (1 + m % 2, 2 * n), dtype=np.uint8),
        }[kind]
        rows = np.vstack([rows, extra])[rng.permutation(len(rows) + len(extra))]
    code = StabilizerCode(rows, n)
    report = validate(code)
    if kind != "anticommuting":
        assert report.ok == (kind in ("valid", "m = 0"))
    if report.ok:
        _matches_reference_standard_form(code)
    else:
        reason = "anticommute" if report.anticommuting_pairs else "dependent"
        with pytest.raises(ValueError, match=reason):
            to_standard_form(code)


def _matches_reference_standard_form(code: StabilizerCode) -> int:
    """Assert that ``to_standard_form`` gives the reference's matrix,
    permutation and trace bit for bit; return the reference's count of
    displaced stage-2 pivots."""
    got = to_standard_form(code)
    want, displaced = reference_standard_form(code)
    assert got.s == want.s and np.array_equal(got.matrix, want.matrix)
    assert got.qubit_permutation.dtype == want.qubit_permutation.dtype
    assert np.array_equal(got.qubit_permutation, want.qubit_permutation)
    assert got.op_trace == want.op_trace
    assert all(type(i) is int for op in got.op_trace for i in op.indices)
    return displaced


@given(st.sampled_from(["random", "r=0", "css"]), st.integers(1, 12), st.integers(0, 11),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
@example("random", 6, 5, 0)  # m = n, so k = 0
@example("r=0", 6, 3, 0)
@example("css", 8, 4, 0)
def test_standard_form_matches_reference(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    m = 1 + m % n
    if kind == "random":
        code = random_stabilizer_code(rng, n, m)
    elif kind == "r=0":
        code = random_r_zero_code(rng, n, m)
        assert to_standard_form(code).r == 0
    else:
        m = max(m, 2)  # at least two Z generators
        assume(m <= n)
        rz = int(rng.integers(2, m + 1))
        code = random_css_code(rng, n, m - rz, rz)
    _matches_reference_standard_form(code)


@pytest.mark.parametrize("d, displaced", [(2, 1), (3, 3), (4, 7), (5, 11), (6, 17), (7, 23)])
def test_standard_form_matches_reference_on_surface_codes(d, displaced):
    # random codes rarely move a stage-2 pivot onto the target of another
    # pivot's move; every rotated surface code does
    assert _matches_reference_standard_form(rotated_surface_code(d)) == displaced


def test_standard_form_parameters_on_random_codes():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        code = random_stabilizer_code(rng, n, m)
        sf = to_standard_form(code)
        assert sf.s + sf.r == m
        assert sf.s + sf.k + sf.r == n
        assert sf.s == gf2.rank(code.matrix[:, :n])
        assert validate(sf).ok
        replayed = code.matrix
        for op in sf.op_trace:
            replayed = apply_op(replayed, op, n)
        assert np.array_equal(replayed, sf.matrix)


def test_ensure_positive_r_already_satisfied(eight_three):
    res = ensure_positive_r(eight_three)
    assert not res.ops
    assert res.code is eight_three


def test_ensure_positive_r_without_generators_refuses():
    code = StabilizerCode(np.zeros((0, 4), np.uint8), 2)
    with pytest.raises(ValueError, match="r >= 1 cannot be reached without generators"):
        ensure_positive_r(code)


def test_ensure_positive_r_single_x():
    res = ensure_positive_r(StabilizerCode.from_paulis(["X"]))
    assert res.ops
    assert res.code.pauli_strings() == ["Z"]
    sf = to_standard_form(res.code)
    assert (sf.s, sf.r) == (0, 1)


def test_ensure_positive_r_xx_two_switches():
    res = ensure_positive_r(StabilizerCode.from_paulis(["XX"]))
    assert res.ops == [ElementaryOp(COLUMN_SWITCH, (0,)), ElementaryOp(COLUMN_SWITCH, (1,))]
    assert to_standard_form(res.code).r >= 1


def test_ensure_positive_r_long_sequence_is_fast():
    code = StabilizerCode.from_paulis(["X" * 8])
    t0 = time.perf_counter()
    res = ensure_positive_r(code)
    assert time.perf_counter() - t0 < 1.0
    assert res.ops == [ElementaryOp(COLUMN_SWITCH, (q,)) for q in range(8)]
    assert res.code.pauli_strings() == ["Z" * 8]


@st.composite
def r_zero_codes(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        code = random_stabilizer_code(rng, n, m)
        if to_standard_form(code).r == 0:
            return code


@given(r_zero_codes(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_ensure_positive_r_matches_bfs(code, depth):
    res = ensure_positive_r(code)
    reference = bfs_ensure_r(code, depth)
    if reference is None:
        assert len(res.ops) > depth
    else:
        assert res.ops == reference
    moved = apply_ops(code, res.ops)
    assert np.array_equal(moved.matrix, res.code.matrix)
    assert to_standard_form(moved).r >= 1
    assert quantum_distance(moved).value == quantum_distance(code).value


@st.composite
def larger_r_zero_codes(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    return random_r_zero_code(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m)


@given(larger_r_zero_codes())
@settings(max_examples=60, deadline=None)
# level 1 offers four switches; the pair sum XXIII needs two
@example(StabilizerCode.from_paulis(["XIXXX", "IXXXX"]))
def test_ensure_positive_r_matches_subset_search(code):
    assert ensure_positive_r(code).ops == subset_ensure_r(code)


def test_ensure_positive_r_exact_past_the_old_subset_cap():
    # m = 30 and 6 ops: the subset search used to stop before its C(30, 6)
    # = 593775 subsets of size 6 (it allowed 2e5 per size) and return a
    # list not proven shortest; the join lists every weight-6 element
    code = random_r_zero_code(np.random.default_rng(0), 53, 30)
    ops = ensure_positive_r(code).ops
    assert len(ops) == 6
    assert ops == subset_ensure_r(code)


def test_ensure_positive_r_y_uses_column_addition():
    res = ensure_positive_r(StabilizerCode.from_paulis(["Y"]))
    assert res.ops == [ElementaryOp(COLUMN_ADDITION, (0,))]
    assert res.code.pauli_strings() == ["Z"]
    # past 255 qubits the op index n + q does not fit the uint8 bit rows
    res = ensure_positive_r(StabilizerCode.from_paulis(["I" * 299 + "Y"]))
    assert res.ops == [ElementaryOp(COLUMN_ADDITION, (299,))]


def test_elementary_ops_preserve_validity():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, n + 1))
        code = random_stabilizer_code(rng, n, m)
        op = random_elementary_op(rng, n, m)
        assert validate(apply_ops(code, [op])).ok


def test_column_ops_preserve_pauli_weights():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        code = random_stabilizer_code(rng, n, int(rng.integers(1, n + 1)))
        for kind in (COLUMN_SWITCH, COLUMN_ADDITION):
            op = ElementaryOp(kind, (int(rng.integers(n)),))
            before = pauli_weight_rows(code.matrix)
            after = pauli_weight_rows(apply_ops(code, [op]).matrix)
            assert np.array_equal(before, after)


def test_logical_ops_worked_example(eight_three):
    sf = to_standard_form(eight_three)
    lops = logical_phase_ops(sf)
    nops = logical_bit_ops(sf)
    assert lops.shape == (3, 16)
    assert nops.shape == (3, 16)
    # N rows are pure-Z with (A1^T | I | 0) in the Z half
    assert not nops[:, :8].any()
    assert np.array_equal(nops[:, 8:12], sf.a1.T)
    assert np.array_equal(nops[:, 12:15], np.eye(3, dtype=np.uint8))
    assert not nops[:, 15:].any()


def test_logical_ops_k_zero():
    sf = to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"]))
    assert logical_phase_ops(sf).shape == (0, 4)
    assert logical_bit_ops(sf).shape == (0, 4)


def test_logical_ops_zero_blocks_give_zero_d():
    # B2 = 0 and C2 = 0 force D = 0: the L rows carry no Z support on the
    # first s columns (pure formula check on prescribed blocks)
    s, k, r = 2, 3, 1
    rng = np.random.default_rng(0)
    a1, a2, b1 = (rng.integers(0, 2, shape) for shape in ((s, k), (s, r), (s, s)))
    b3, c1 = (rng.integers(0, 2, shape) for shape in ((s, r), (r, s)))
    matrix = np.block([
        [np.eye(s), a1, a2, b1, np.zeros((s, k)), b3],
        [np.zeros((r, s + k + r)), c1, np.zeros((r, k)), np.eye(r)],
    ])
    sf = StandardForm(matrix, s + k + r, s, np.arange(s + k + r), [])
    lops = logical_phase_ops(sf)
    assert not lops[:, sf.n : sf.n + s].any()


def test_verify_logical_algebra_worked_example(eight_three):
    rep = verify_logical_algebra(to_standard_form(eight_three))
    assert rep.ok, rep.failures


def test_verify_logical_algebra_k_zero_vacuous():
    rep = verify_logical_algebra(to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"])))
    assert rep.ok


def test_verify_logical_algebra_random_codes():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        sf = to_standard_form(random_stabilizer_code(rng, n, m))
        rep = verify_logical_algebra(sf)
        assert rep.ok, rep.failures


def test_verify_logical_algebra_detects_corruption(eight_three):
    corrupted = flip_block_bit(to_standard_form(eight_three), "a1", 0, 0)
    rep = verify_logical_algebra(corrupted)
    assert not rep.ok


LOGICALS = ("logical_phase_ops", "logical_bit_ops")


@given(
    st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from(BLOCKS + LOGICALS), st.integers(0, 200)), max_size=2),
)
@example((4, 4), True, 0, [])  # k = 0 and r = 0
@example((5, 5), False, 1, [("b1", 3)])  # k = 0
@example((6, 3), True, 2, [("a1", 4), ("b2", 5)])  # r = 0
@example((7, 4), False, 3, [("logical_phase_ops", 9)])
@settings(max_examples=200, deadline=None)
def test_verify_logical_algebra_matches_rank_reference(nm, r_zero, seed, flips):
    # flips land in the standard-form blocks, or in the L and N rows, which
    # the blocks alone always give a correct algebra
    n, m = nm
    rng = np.random.default_rng(seed)
    code = (random_r_zero_code if r_zero else random_stabilizer_code)(rng, n, m)
    sf = to_standard_form(code)
    if r_zero:
        assert sf.r == 0

    def flip(arrays):
        for name, pos in flips:
            if name in arrays and arrays[name].size:
                arrays[name].flat[pos % arrays[name].size] ^= 1
        return arrays

    matrix, blocks = writable_blocks(sf)
    flip(blocks)
    sf = dataclasses.replace(sf, matrix=matrix)
    ops = flip({name: getattr(stabilizer, name)(sf) for name in LOGICALS})
    with mock.patch.object(stabilizer, "logical_phase_ops", lambda _: ops["logical_phase_ops"]), \
            mock.patch.object(stabilizer, "logical_bit_ops", lambda _: ops["logical_bit_ops"]):
        assert verify_logical_algebra(sf).ok == reference_logical_algebra_ok(sf)


@given(
    st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32 - 1),
)
@example((4, 4), 0)  # k = 0
@example((5, 2), 1)
@settings(max_examples=200, deadline=None)
def test_logical_algebra_holds_outside_gg_for_any_blocks(nm, seed):
    # a standard form with arbitrary blocks, valid or not: L and N are built
    # from its blocks, so only the G-G block of the Gram matrix can be wrong
    n, m = nm
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, m + 1))
    r, k = m - s, n - m
    matrix = rng.integers(0, 2, (m, 2 * n)).astype(np.uint8)
    matrix[:s, :s] = np.eye(s, dtype=np.uint8)
    matrix[s:, :n] = 0
    matrix[s:, 2 * n - r :] = np.eye(r, dtype=np.uint8)
    sf = StandardForm(matrix, n, s, np.arange(n), [])
    stack = np.vstack([sf.matrix, logical_phase_ops(sf), logical_bit_ops(sf)])
    gram = symplectic_product_rows(stack)
    expected = np.zeros_like(gram)
    expected[m : m + k, m + k :] = expected[m + k :, m : m + k] = np.eye(k, dtype=np.uint8)
    wrong = gram ^ expected
    assert not wrong[m:].any() and not wrong[:, m:].any()


def test_standard_form_is_a_read_only_stabilizer_code():
    assert to_standard_form(load_stabilizer(DATA / "eight_three.stab")).a1.size
    for path in sorted(DATA.glob("*.stab")):
        code = load_stabilizer(path)
        if not validate(code).ok:
            continue
        sf = to_standard_form(code)
        assert isinstance(sf, StabilizerCode), path.name
        assert validate(sf).ok, path.name
        assert quantum_distance(sf).value == quantum_distance(code).value, path.name
        for name in BLOCKS:
            block = getattr(sf, name)
            assert not block.size or np.shares_memory(block, sf.matrix), (path.name, name)
        for matrix in (sf.matrix, code.matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] ^= 1
        with pytest.raises(ValueError):
            sf.qubit_permutation[0] = sf.qubit_permutation[-1]


def test_code_refuses_a_matrix_that_is_not_m_by_2n():
    # m = 4 and k = -3 came of reshaping the first silently
    for mat, n in [
        (np.array([[1, 0, 0, 1], [0, 1, 1, 0]]), 1),
        (np.array([[1, 0, 0, 1], [0, 1, 1, 0]]), 3),
        (np.array([1, 0, 0, 1]), 2),
        (np.zeros((1, 2, 4), np.uint8), 2),
        (np.zeros((0, 2), np.uint8), 2),
    ]:
        with pytest.raises(ValueError, match=rf"expected an m x {2 * n} matrix, got shape"):
            StabilizerCode(mat, n)
    assert StabilizerCode(np.zeros((0, 4), np.uint8), 2).k == 2


def test_codes_compare_and_hash_by_n_and_matrix(eight_three):
    xx_zz = StabilizerCode.from_paulis(["XX", "ZZ"])
    same = StabilizerCode.from_paulis(["XX", "ZZ"])
    assert xx_zz == same and hash(xx_zz) == hash(same) and len({xx_zz, same}) == 1
    assert xx_zz != StabilizerCode.from_paulis(["ZZ", "XX"])
    assert xx_zz != StabilizerCode(xx_zz.matrix.reshape(1, -1), 4)  # same bytes, one 4-qubit row
    sf = to_standard_form(eight_three)
    again = to_standard_form(load_stabilizer(data_path("eight_three.stab")))
    assert sf == again and hash(sf) == hash(again) and len({sf, again}) == 1
    # the permutation and trace record how a form was reached, not the code
    relabelled = StandardForm(sf.matrix, sf.n, sf.s, sf.qubit_permutation[::-1], [])
    assert sf == relabelled and hash(sf) == hash(relabelled)
    assert sf != StabilizerCode(sf.matrix, sf.n)
    assert sf != to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"]))


def test_verify_logical_algebra_names_a_logical_equal_to_a_generator(eight_three, monkeypatch):
    sf = to_standard_form(eight_three)
    fake = stabilizer.logical_phase_ops(sf)
    fake[0] = sf.matrix[0]  # L_1 = G_1
    monkeypatch.setattr(stabilizer, "logical_phase_ops", lambda _: fake)
    assert verify_logical_algebra(sf).failures == ["L_1, N_1 commute"]
    assert not reference_logical_algebra_ok(sf)


def test_verify_logical_algebra_names_two_equal_logicals(eight_three, monkeypatch):
    sf = to_standard_form(eight_three)
    fake = stabilizer.logical_phase_ops(sf)
    fake[0] = fake[1]  # L_1 = L_2
    monkeypatch.setattr(stabilizer, "logical_phase_ops", lambda _: fake)
    assert verify_logical_algebra(sf).failures == ["L_1, N_1 commute", "L_1, N_2 anticommute"]
    assert not reference_logical_algebra_ok(sf)


def test_verify_logical_algebra_names_anticommuting_logicals(eight_three, monkeypatch):
    sf = to_standard_form(eight_three)
    fake = stabilizer.logical_phase_ops(sf)
    fake[0] ^= stabilizer.logical_bit_ops(sf)[1]  # L_1 + N_2 breaks only L_1, L_2
    monkeypatch.setattr(stabilizer, "logical_phase_ops", lambda _: fake)
    assert verify_logical_algebra(sf).failures == ["L_1, L_2 anticommute"]
    assert not reference_logical_algebra_ok(sf)


def test_quantum_distance_worked_example(eight_three):
    res = quantum_distance(eight_three)
    assert res.value == 3
    assert res.t == 1


def test_quantum_distance_zz():
    res = quantum_distance(StabilizerCode.from_paulis(["ZZ"]))
    assert res.value == 1


def test_quantum_distance_empty_stabilizer():
    code = StabilizerCode(np.zeros((0, 2), dtype=np.uint8), 1)
    assert quantum_distance(code).value == 1


def test_quantum_distance_cap_semantics(eight_three):
    res = quantum_distance(eight_three, weight_cap=2)
    assert res.exceeded
    assert res.value is None
    assert res.cap == 2


def test_quantum_distance_k_zero_is_undefined(monkeypatch):
    def no_search(*args):
        raise AssertionError("k = 0 must not run the search")

    monkeypatch.setattr(_kernels, "normalizer_min_weight", no_search)
    res = quantum_distance(load_stabilizer(data_path("single_z.stab")))
    assert res.value is None and res.undefined
    assert not res.exceeded and res.stopped_by is None


def test_quantum_distance_work_limit(monkeypatch):
    # surface d5 with an X row added to another is still CSS, so the join
    # runs two one-letter joins per weight, but a qubit's X column has
    # weight 3, so the cycle route does not take it
    code = surface_code_x_row_added(5)
    assert is_css(code) and stabilizer._graphs(code) is None
    assert (code.matrix[:, : code.n].sum(axis=0) == 3).any()
    monkeypatch.setattr(_kernels, "MAX_JOIN_ENTRIES", 2 * _kernels.join_entries(25, 4, 1))
    res = quantum_distance(code)
    assert (res.value, res.searched, res.stopped_by) == (None, 4, "work-limit")
    assert res.predicted_keys == 2 * _kernels.join_entries(25, 5, 1)
    assert not res.exceeded and not res.undefined
    # a cap below the limit is still a cap hit
    res = quantum_distance(code, weight_cap=3)
    assert (res.searched, res.stopped_by) == (3, "cap") and res.exceeded


def test_quantum_distance_guard_prices_each_level(monkeypatch):
    # joins that find nothing make the search price every level up to the cap
    monkeypatch.setattr(_kernels, "_joined", lambda *args: iter(()))
    for letter, alphabets in (("Z", ("X", "Z")), ("Y", ("XYZ",))):
        a = len(alphabets[0])
        for n in range(2, 101):
            keys = level_keys(n, alphabets)
            # listed three times, so qubit 0's column has weight 3 and the
            # cycle route does not take the Z code
            code = StabilizerCode.from_paulis([letter + "I" * (n - 1)] * 3)
            assert stabilizer._graphs(code) is None
            assert is_css(code) == (a == 1)
            # caps 1, n/2 and n, and both sides of the refusal
            reach = walked_guard(keys, n)[0]
            for cap in sorted({1, n // 2, n, reach, reach + 1} & set(range(1, n + 1))):
                res = quantum_distance(code, weight_cap=cap)
                assert (res.searched, res.predicted_keys) == walked_guard(keys, cap), (n, cap, a)
                assert res.stopped_by == ("cap" if res.predicted_keys is None else "work-limit")


def column_added(code, qubit):
    return apply_ops(code, [ElementaryOp(COLUMN_ADDITION, (qubit,))])


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_quantum_distance_surface_exact(d):
    # the CSS code through the {X}, {Z} joins, and the same code after one
    # column-addition (same distance, no longer CSS) through the {X, Y, Z} join
    code = rotated_surface_code(d)
    other = column_added(code, code.n // 2)
    assert is_css(code) and not is_css(other)
    for c in (code, other):
        res = quantum_distance(c)
        assert (res.value, res.stopped_by) == (d, None)


def join_refused():
    """Fail any call of the join, so a distance must come from the cycle route."""
    return mock.patch.object(_kernels, "normalizer_min_weight", side_effect=AssertionError)


@pytest.mark.parametrize("d", range(3, 10))
def test_cycle_route_surface_codes(d):
    code = rotated_surface_code(d)
    with join_refused():
        res = quantum_distance(code)
        below = quantum_distance(code, weight_cap=d - 1)
    assert res == stabilizer.DistanceResult(d, code.n, d)
    assert below == stabilizer.DistanceResult(None, d - 1, d - 1, "cap")
    # the join agrees where it runs in time
    if d <= 7:
        assert css_join_distance(code, code.n) == res


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("drop", [True, False])
def test_cycle_route_toric_codes(L, drop):
    # k = 2; with every check listed the boundary vertex has no edges, and
    # with one of each kind dropped, their qubits meet at the boundary
    code = toric_code(L, drop)
    assert code.n - gf2.rank(code.matrix) == 2
    with join_refused():
        res = quantum_distance(code)
        assert quantum_distance(code, weight_cap=L - 1).exceeded
    assert res == stabilizer.DistanceResult(L, code.n, L) == css_join_distance(code, code.n)


@pytest.mark.parametrize("d", [11, 15])
def test_cycle_route_surface_codes_past_the_join(d):
    # the join refuses surface d = 11 at weight 10 (4.26e9 keys)
    code = rotated_surface_code(d)
    t0 = time.perf_counter()
    with join_refused():
        res = quantum_distance(code)
    assert time.perf_counter() - t0 < 1.0
    assert (res.value, res.searched, res.stopped_by) == (d, d, None)


def test_cycle_route_past_the_cover_guard_runs_the_join(monkeypatch):
    # surface d5 has 12 X and 12 Z rows and k = 1: 26 cover states a side
    code = rotated_surface_code(5)
    monkeypatch.setattr(stabilizer, "MAX_COVER_STATES", 26)
    with join_refused():
        assert quantum_distance(code).value == 5
    monkeypatch.setattr(stabilizer, "MAX_COVER_STATES", 25)
    with mock.patch.object(_kernels, "normalizer_min_weight", return_value=5) as join:
        assert quantum_distance(code).value == 5
    join.assert_called_once()


def test_cycle_route_requires_a_graph_as_given():
    surface = rotated_surface_code(3)
    assert stabilizer._graphs(surface) is not None
    # a mixed row, a column of weight 3, anticommuting rows
    assert stabilizer._graphs(column_added(surface, 4)) is None
    assert stabilizer._graphs(surface_code_x_row_added(3)) is None
    assert stabilizer._graphs(StabilizerCode.from_paulis(["XI", "ZI"])) is None
    # an identity row is a Z row without edges
    assert stabilizer._graphs(StabilizerCode.from_paulis(["XX", "II"])) is not None


def brute_is_css(code):
    """Oracle: count the pure-X and pure-Z elements among all 2^m products."""
    n, m = code.n, code.m
    combos = np.array(list(product((0, 1), repeat=m)), np.uint8)
    elements = gf2.mat_mul(combos, code.matrix)
    pure_x = int((~elements[:, n:].any(axis=1)).sum())
    pure_z = int((~elements[:, :n].any(axis=1)).sum())
    return pure_x * pure_z == 2**m


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, 2**32 - 1), st.booleans())))
@settings(max_examples=40, deadline=None)
def test_is_css_matches_group_oracle_and_ignores_presentation(case):
    n, m, seed, css = case
    rng = np.random.default_rng(seed)
    if css:
        rx = int(rng.integers(0, m + 1))
        code = random_css_code(rng, n, rx, m - rx)
    else:
        code = random_stabilizer_code(rng, n, m)
    assert is_css(code) == brute_is_css(code)
    assert not css or is_css(code)
    ops = []
    for _ in range(6):
        if m > 1 and rng.integers(2):
            t, s_ = rng.choice(m, size=2, replace=False)
            ops.append(ElementaryOp(ROW_ADDITION, (int(t), int(s_))))
        elif n > 1:
            i, j = rng.choice(n, size=2, replace=False)
            ops.append(ElementaryOp(COLUMN_TRANSPOSITION, (int(i), int(j))))
    assert is_css(apply_ops(code, ops)) == is_css(code)


def test_is_css_named_codes():
    assert is_css(rotated_surface_code(3))
    assert not is_css(column_added(rotated_surface_code(3), 4))
    assert not is_css(load_stabilizer(data_path("five_one.stab")))


def test_is_css_counts_the_group_not_the_generator_list():
    # five_one's generators listed twice: m = 8, but the group still has
    # rank 4 and rank(X) = rank(Z) = 4, so it is not CSS and d stays 3
    code = load_stabilizer(data_path("five_one.stab"))
    doubled = StabilizerCode(np.vstack([code.matrix, code.matrix]), code.n)
    assert not is_css(doubled)
    assert quantum_distance(doubled).value == 3


def test_quantum_distance_surface_d7_exact():
    t0 = time.perf_counter()
    res = quantum_distance(rotated_surface_code(7))
    assert res.value == 7 and res.stopped_by is None
    assert time.perf_counter() - t0 < 10.0


def test_quantum_distance_wide_syndrome_direct_sum():
    # nine surface d=3 blocks: n = 81, m = 72 > 63 generators, k = 9, d = 3;
    # the join keys fold generators 63.. in, and the pairs are checked exactly
    block = rotated_surface_code(3).matrix
    mat = np.zeros((72, 162), np.uint8)
    for i in range(9):
        mat[8 * i : 8 * i + 8, 9 * i : 9 * i + 9] = block[:, :9]
        mat[8 * i : 8 * i + 8, 81 + 9 * i : 81 + 9 * i + 9] = block[:, 9:]
    code = StabilizerCode(mat, 81)
    assert (code.m, code.k) == (72, 9)
    assert quantum_distance(code).value == 3
    assert quantum_distance(code, weight_cap=2).exceeded


def test_quantum_distance_brute_oracle():
    # independent oracle: scan every 2n-bit vector in numpy, no bit packing
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        code = random_stabilizer_code(rng, n, m)
        red = gf2.rref(code.matrix)
        best = None
        for v in range(1, 1 << (2 * n)):
            bits = np.array([(v >> i) & 1 for i in range(2 * n)], dtype=np.uint8)
            a, b = bits[:n], bits[n:]
            if ((code.matrix[:, n:] @ a + code.matrix[:, :n] @ b) & 1).any():
                continue
            if in_rowspan(red, bits):
                continue
            w = int(np.count_nonzero(a | b))
            best = w if best is None else min(best, w)
        res = quantum_distance(code)
        assert res.value == best


def test_quantum_distance_invariant_under_elementary_ops(eight_three):
    rng = np.random.default_rng(51)
    base = quantum_distance(eight_three, weight_cap=3).value
    for _ in range(10):
        ops = [random_elementary_op(rng, 8, 5) for _ in range(3)]
        moved = apply_ops(eight_three, ops)
        assert quantum_distance(moved, weight_cap=3).value == base


def test_standard_form_refuses_a_matrix_out_of_shape(eight_three):
    sf = to_standard_form(eight_three)  # s = 4, r = 1, n = 8

    def flipped(i, j):
        matrix = sf.matrix.copy()
        matrix[i, j] ^= 1
        return matrix

    for matrix, s in (
        (flipped(0, 1), sf.s),  # I_s broken
        (flipped(sf.s, 0), sf.s),  # a nonzero X part below row s
        (flipped(sf.s, 2 * sf.n - 1), sf.s),  # I_r broken
        (sf.matrix, -1),
        (sf.matrix, sf.m + 1),
    ):
        with pytest.raises(ValueError, match="not a standard form"):
            StandardForm(matrix, sf.n, s, sf.qubit_permutation, [])
    with pytest.raises(ValueError, match="not a standard form"):
        dataclasses.replace(sf, matrix=flipped(sf.s, 0))
    with pytest.raises(ValueError, match="not a standard form"):  # k = -1
        StandardForm(np.eye(2, dtype=np.uint8), 1, 1, [0], [])
