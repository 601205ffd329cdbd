"""Property suites over randomized instances (hypothesis where natural,
seeded numpy elsewhere)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin import bounds, gf2
from stab2lin.lincode import GeneratorMatrix
from stab2lin.pauli import symplectic_product_rows
from stab2lin.stabilizer import apply_ops, quantum_distance, to_standard_form, validate

from phi_oracle import StateVector, apply_pauli
from util import encode, random_elementary_op, random_stabilizer_code, replay_row_ops

@given(st.integers(1, 6), st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows, cols, seed):
    m = np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).astype(np.uint8)
    res = gf2.rref(m)
    assert np.array_equal(gf2.rref(res.matrix).matrix, res.matrix)
    assert np.array_equal(replay_row_ops(m, res.trace), res.matrix)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_entropy_symmetry(p):
    assert abs(bounds.binary_entropy(p) - bounds.binary_entropy(1.0 - p)) < 1e-12


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_symplectic_bilinear(n, seed):
    p, q, w = np.random.default_rng(seed).integers(0, 2, size=(3, 2 * n)).astype(np.uint8)
    prods = symplectic_product_rows(np.stack([p, q, w, p ^ w]))
    assert np.array_equal(prods, prods.T)
    assert prods[3, 1] == prods[0, 1] ^ prods[2, 1]


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_encode_linearity(k, extra, seed):
    rng = np.random.default_rng(seed)
    n = k + extra
    rows = np.hstack(
        [rng.integers(0, 2, size=(k, extra)).astype(np.uint8), np.eye(k, dtype=np.uint8)]
    )
    g = GeneratorMatrix(rows)
    x = rng.integers(0, 2, k).astype(np.uint8)
    y = rng.integers(0, 2, k).astype(np.uint8)
    assert np.array_equal(encode(g, x ^ y), encode(g, x) ^ encode(g, y))
    assert len(encode(g, x)) == n


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_pauli_unitary(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, amps)
    p = rng.integers(0, 2, 2 * n).astype(np.uint8)
    moved = apply_pauli(state, p)
    assert abs(moved.norm - 1.0) < 1e-12
    back = apply_pauli(moved, p)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_elementary_ops_preserve_validity_bulk():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        code = random_stabilizer_code(rng, n, m)
        ops = [random_elementary_op(rng, n, m) for _ in range(int(rng.integers(1, 4)))]
        assert validate(apply_ops(code, ops)).ok


def test_standard_form_parameter_identities_bulk():
    rng = np.random.default_rng(88)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        code = random_stabilizer_code(rng, n, m)
        sf = to_standard_form(code)
        assert sf.s + sf.r == m and sf.s + sf.k + sf.r == n


def test_quantum_distance_op_invariance_bulk():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        code = random_stabilizer_code(rng, n, m)
        base = quantum_distance(code, weight_cap=3)
        ops = [random_elementary_op(rng, n, m) for _ in range(2)] if m >= 2 else []
        moved = apply_ops(code, ops)
        assert quantum_distance(moved, weight_cap=3).value == base.value
