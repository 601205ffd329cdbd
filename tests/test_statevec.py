import dataclasses
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin import statevec
from stab2lin.extraction import extract_classical
from stab2lin.formats import load_stabilizer
from stab2lin.pauli import parse_pauli
from stab2lin.stabilizer import (
    StabilizerCode,
    logical_phase_ops,
    to_standard_form,
)
from stab2lin.statevec import verify_phi

import phi_oracle
from phi_oracle import (
    StateVector,
    apply_pauli,
    build_C0,
    build_Cx,
    dense_verify_phi,
    eigenvalue_sign,
    phi,
    zero_state,
)
from util import BLOCKS, data_path, flip_block_bit, random_stabilizer_code, rotated_surface_code


@pytest.fixture(scope="module")
def sf8():
    return to_standard_form(load_stabilizer(data_path("eight_three.stab")))


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_apply_identity():
    rng = np.random.default_rng(1)
    s = random_state(rng, 3)
    out = apply_pauli(s, parse_pauli("III"))
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_apply_y_convention():
    out = apply_pauli(zero_state(1), np.array([1, 1], np.uint8))
    assert np.allclose(out.amplitudes, [0.0, 1j])


def test_apply_x_and_z():
    x = apply_pauli(zero_state(1), parse_pauli("X"))
    assert np.allclose(x.amplitudes, [0.0, 1.0])
    one = StateVector(1, np.array([0.0, 1.0], dtype=complex))
    z = apply_pauli(one, parse_pauli("Z"))
    assert np.allclose(z.amplitudes, [0.0, -1.0])


def test_apply_twice_returns_original_up_to_phase():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        s = random_state(rng, n)
        for abits in product((0, 1), repeat=n):
            for bbits in product((0, 1), repeat=n):
                p = np.array(abits + bbits, np.uint8)
                twice = apply_pauli(apply_pauli(s, p), p).amplitudes
                ratios = twice[np.abs(s.amplitudes) > 1e-12] / s.amplitudes[
                    np.abs(s.amplitudes) > 1e-12
                ]
                assert np.allclose(ratios, ratios[0])
                assert abs(abs(ratios[0]) - 1) < 1e-12
                # the fixed i^(a.b) convention squares to exactly +I
                assert np.allclose(twice, s.amplitudes)


def test_apply_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s = random_state(rng, n)
        p = rng.integers(0, 2, 2 * n).astype(np.uint8)
        assert abs(apply_pauli(s, p).norm - 1.0) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(zero_state(2), parse_pauli("X"))


def test_build_c0_worked_example(sf8):
    state = build_C0(sf8)
    assert state.amplitudes.shape == (256,)
    assert abs(state.norm - 1.0) < 1e-12
    for row in sf8.matrix:
        assert eigenvalue_sign(state, row) == 1


def test_build_c0_trivial_z():
    sf = to_standard_form(StabilizerCode.from_paulis(["Z"]))
    state = build_C0(sf)
    assert np.allclose(state.amplitudes, [1.0, 0.0])


def test_build_c0_single_x():
    sf = to_standard_form(StabilizerCode.from_paulis(["X"]))
    state = build_C0(sf)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_build_c0_cap():
    sf = to_standard_form(load_stabilizer(data_path("eight_three.stab")))
    with pytest.raises(ValueError):
        build_C0(sf, cap=4)


def test_build_cx_zero_message(sf8):
    a = build_Cx(sf8, np.zeros(3, dtype=np.uint8))
    b = build_C0(sf8)
    assert np.allclose(a.amplitudes, b.amplitudes)


def test_build_cx_orthogonal_basis(sf8):
    states = []
    for mi in range(8):
        x = np.array([(mi >> 2) & 1, (mi >> 1) & 1, mi & 1], np.uint8)
        states.append(build_Cx(sf8, x).amplitudes)
    gram = np.array(states).conj() @ np.array(states).T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-9


def test_build_cx_states_are_stabilized(sf8):
    # every codeword basis state is a +1 eigenvector of every stabilizer row
    gens = sf8.matrix
    for mi in range(8):
        x = np.array([(mi >> 2) & 1, (mi >> 1) & 1, mi & 1], np.uint8)
        state = build_Cx(sf8, x)
        for row in gens:
            assert eigenvalue_sign(state, row) == 1


def test_build_cx_eigenvalue_signature(sf8):
    state = build_Cx(sf8, np.array([1, 0, 0], np.uint8))
    signs = [eigenvalue_sign(state, row) for row in logical_phase_ops(sf8)]
    assert signs == [-1, 1, 1]


def test_phi_zero_is_c0(sf8):
    y = np.zeros(7, dtype=np.uint8)
    assert np.allclose(phi(sf8, y).amplitudes, build_C0(sf8).amplitudes)


def test_phi_eigenspace_structure(sf8):
    # phi(y) sits in a definite eigenspace of each operator in the sequence
    # G_1..G_s, L_1..L_k.  The sign of the i-th operator is (-1)^{(T y)_i}
    # with T = [[I_s, A1], [0, I_k]]: the A1 coupling term is forced by the
    # commutation algebra (a k-block sigma_z also anticommutes with every
    # G_l whose A1 row has a one there), and T is invertible, which is what
    # makes distinct y give orthogonal images.
    rng = np.random.default_rng(8)
    s, k = sf8.s, sf8.k
    ops = np.vstack([sf8.matrix[:s], logical_phase_ops(sf8)])
    t = np.block(
        [
            [np.eye(s, dtype=np.uint8), sf8.a1],
            [np.zeros((k, s), np.uint8), np.eye(k, dtype=np.uint8)],
        ]
    )
    for _ in range(10):
        y = rng.integers(0, 2, 7).astype(np.uint8)
        state = phi(sf8, y)
        signature = (t @ y) & 1
        for i, op in enumerate(ops):
            assert eigenvalue_sign(state, op) == (-1) ** int(signature[i])


def test_phi_eigenspace_plain_signature_on_s_block(sf8):
    # restricted to y supported on the first s coordinates (where the A1
    # coupling vanishes), the plain (-1)^{y_i} signature holds as stated
    rng = np.random.default_rng(18)
    ops = np.vstack([sf8.matrix[: sf8.s], logical_phase_ops(sf8)])
    for _ in range(8):
        y = np.zeros(7, np.uint8)
        y[: sf8.s] = rng.integers(0, 2, sf8.s)
        state = phi(sf8, y)
        for i, op in enumerate(ops):
            assert eigenvalue_sign(state, op) == (-1) ** int(y[i])


def test_phi_codeword_correspondence(sf8):
    gen = extract_classical(sf8).generator
    for mi in range(8):
        x = np.array([(mi >> 2) & 1, (mi >> 1) & 1, mi & 1], np.uint8)
        y = (x[None, :] @ gen & 1).astype(np.uint8)[0]
        assert np.allclose(
            phi(sf8, y).amplitudes, build_Cx(sf8, x).amplitudes, atol=1e-12
        )


def test_verify_phi_worked_example(sf8):
    rep = verify_phi(sf8)
    assert rep.all_ok and not rep.counterexamples
    dense = dense_verify_phi(sf8)
    assert dense.exhaustive
    assert dense.images_checked == 128
    assert dense.max_deviation < 1e-9
    assert dense.error_property_exact_ok


def test_verify_phi_trivial_all_z():
    sf = to_standard_form(StabilizerCode.from_paulis(["ZI", "IZ"]))
    rep = verify_phi(sf)
    assert rep.all_ok


def test_verify_phi_whole_corpus():
    for name in ("five_one", "four_two", "single_x", "single_z", "xx_two"):
        sf = to_standard_form(load_stabilizer(data_path(f"{name}.stab")))
        rep = verify_phi(sf)
        assert rep.all_ok, (name, rep.counterexamples)
        assert dense_verify_phi(sf).max_deviation < 1e-9, name


def test_verify_phi_detects_corruption(sf8):
    rep = verify_phi(flip_block_bit(sf8, "a1", 0, 0))
    assert not rep.all_ok
    assert rep.counterexamples


def test_verify_phi_past_old_cap_surface_d5():
    # n = 25 was past the 2^n statevector cap of 12
    sf = to_standard_form(rotated_surface_code(5))
    rep = verify_phi(sf)
    assert rep.all_ok and not rep.counterexamples


def test_verify_phi_surface_d7_under_a_second():
    sf = to_standard_form(rotated_surface_code(7))
    t0 = time.perf_counter()
    rep = verify_phi(sf)
    assert time.perf_counter() - t0 < 1.0
    assert rep.all_ok, rep.counterexamples


def _outcome(check, sf):
    """The three verdicts, or the collapse message.  The tableau check proves
    the error correspondence without a phase, so the dense oracle, which
    measures it, must find it too."""
    try:
        rep = check(sf)
    except RuntimeError as exc:
        return str(exc)
    if check is dense_verify_phi:
        assert rep.error_property_exact_ok
    return (rep.bijectivity_ok, rep.codeword_property_ok, rep.error_property_ok)


@given(st.integers(1, 7), st.data())
@settings(max_examples=80, deadline=None)
def test_verify_phi_matches_dense_oracle(n, data):
    # a valid code, then one bit flipped in each non-empty block
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sf = to_standard_form(random_stabilizer_code(rng, n, m))
    variants = [sf]
    for name in BLOCKS:
        block = getattr(sf, name)
        if block.size:
            i, j = rng.integers(block.shape[0]), rng.integers(block.shape[1])
            variants.append(flip_block_bit(sf, name, i, j))
    for variant in variants:
        assert _outcome(verify_phi, variant) == _outcome(dense_verify_phi, variant)
    rep = verify_phi(sf)
    assert rep.all_ok and not rep.counterexamples
    dense = dense_verify_phi(sf)
    assert dense.max_deviation < 1e-9
    assert (dense.images_checked, dense.pairs_checked) == (2 ** (n - sf.r), 4 ** (n - sf.r))


def test_verify_phi_checks_the_zero_message_when_k_is_zero():
    # with k = 0 the codeword claim is that C_0 is a +1 eigenstate of every
    # generator: flipping A2 or C1 of (XX, ZZ) gives (XI, ZZ) or (XX, IZ),
    # whose second generator moves the C_0 that the first one fixes
    sf = to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"]))
    assert sf.k == 0
    for name in ("a2", "c1"):
        variant = flip_block_bit(sf, name, 0, 0)
        assert _outcome(verify_phi, variant) == _outcome(dense_verify_phi, variant)
        assert _outcome(verify_phi, variant) == (True, False, True)


def test_verify_phi_checks_the_extracted_generator(monkeypatch):
    # the codeword check decides the claim for whatever generator extraction
    # returns: a flipped bit of M, or a row of M added to another (the same
    # code, another message map), must be caught as the oracle catches it
    sf = to_standard_form(load_stabilizer(data_path("four_two.stab")))
    real = extract_classical(sf)
    wrong = []
    for i, j in product(range(sf.k), range(sf.n - sf.r)):
        wrong.append(real.generator.copy())
        wrong[-1][i, j] ^= 1
    for i, j in product(range(sf.k), repeat=2):
        if i != j:
            wrong.append(real.generator.copy())
            wrong[-1][i] ^= wrong[-1][j]
    for gen in wrong:
        fake = dataclasses.replace(real, generator=gen)
        for module in (statevec, phi_oracle):
            monkeypatch.setattr(module, "extract_classical", lambda _, fake=fake: fake)
        verdict = _outcome(verify_phi, sf)
        assert verdict == _outcome(dense_verify_phi, sf)
        assert verdict[1] is False
