"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Stated time budgets exclude one-time JIT warmup (amortized via the autouse
fixture below); every numeric tolerance is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from stab2lin import bounds, gf2, lincode, statevec
from stab2lin.extraction import extract_classical
from stab2lin.formats import load_generator, load_stabilizer
from stab2lin.lincode import GeneratorMatrix, bsc_monte_carlo, bsc_success_exact
from stab2lin.pauli import symplectic_product_rows
from stab2lin.stabilizer import (
    apply_ops,
    quantum_distance,
    to_standard_form,
    validate,
)
from phi_oracle import StateVector, apply_pauli, dense_verify_phi
from util import (
    data_path,
    decode_nearest,
    encode,
    random_elementary_op,
    random_stabilizer_code,
    replay_row_ops,
)

PUBLISHED_SEVEN_THREE = np.array(
    [
        [1, 1, 1, 0, 1, 0, 0],
        [1, 1, 0, 1, 0, 1, 0],
        [1, 0, 1, 1, 0, 0, 1],
    ],
    dtype=np.uint8,
)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile/caching pass so criterion timings measure the algorithms
    g = GeneratorMatrix(np.eye(2, 3, dtype=np.uint8))
    lincode.min_distance(g)
    lincode.bsc_success_exact(g, 0.1)
    lincode.bsc_monte_carlo(g, 0.1, trials=10, seed=0)
    quantum_distance(load_stabilizer(data_path("eight_three.stab")))


@contextmanager
def criterion(num: int, description: str, budget_s: float | None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: PASS ({elapsed:.2f}s) - {description}")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_1_worked_example_pipeline():
    with criterion(1, "standardize+extract the [[8,3]] code to the (7,3) code", 1.0):
        code = load_stabilizer(data_path("eight_three.stab"))
        sf = to_standard_form(code)
        assert (sf.s, sf.k, sf.r) == (4, 3, 1)
        res = extract_classical(sf)
        assert res.parameters == (7, 3)
        md = lincode.min_distance(GeneratorMatrix(res.generator))
        assert md.weight_enumerator == {0: 1, 4: 7}
        assert md.distance == 4
        assert (md.distance - 1) // 2 == 1
        # column-permutation equivalence with the published generator matrix
        ours = sorted(map(tuple, res.generator.T))
        published = sorted(map(tuple, PUBLISHED_SEVEN_THREE.T))
        assert ours == published


def test_criterion_2_quantum_distance():
    with criterion(2, "quantum distance of the [[8,3]] code is exactly 3", 10.0):
        code = load_stabilizer(data_path("eight_three.stab"))
        res = quantum_distance(code)
        assert res.value == 3
        assert res.t == 1


def test_criterion_3_distance_inequality():
    with criterion(3, "t_classical >= t_quantum on every corpus code", None):
        checked = 0
        for name in ("eight_three", "five_one", "four_two"):
            code = load_stabilizer(data_path(f"{name}.stab"))
            dq = quantum_distance(code)
            sf = to_standard_form(code)
            res = extract_classical(sf)
            dc = lincode.min_distance(GeneratorMatrix(res.generator)).distance
            assert (dc - 1) // 2 >= (dq.value - 1) // 2, name
            checked += 1
        assert checked == 3


def test_criterion_4_phi_isomorphism():
    with criterion(4, "phi bijective + codeword map on 8 messages + error map on 128 patterns", 30.0):
        sf = to_standard_form(load_stabilizer(data_path("eight_three.stab")))
        rep = statevec.verify_phi(sf)
        assert rep.bijectivity_ok
        assert rep.codeword_property_ok
        assert rep.error_property_ok  # up to one global phase per error pattern
        assert not rep.counterexamples
        # the 2^n statevector reference agrees, amplitude by amplitude, on
        # all 128 images and 128 x 128 (word, error) pairs
        dense = dense_verify_phi(sf, tol=1e-9)
        assert (dense.bijectivity_ok, dense.codeword_property_ok, dense.error_property_ok) == (
            rep.bijectivity_ok, rep.codeword_property_ok, rep.error_property_ok)
        assert dense.exhaustive
        assert dense.images_checked == 128
        assert dense.pairs_checked == 128 * 128
        assert dense.error_property_exact_ok
        assert dense.max_deviation < 1e-9


def test_criterion_5_classical_example_code():
    with criterion(5, "(5,2) code: d=3, t=1, all single errors decoded", None):
        g = load_generator(data_path("five_two.gmat"))
        md = lincode.min_distance(g)
        assert md.distance == 3
        assert (md.distance - 1) // 2 == 1
        for mi in range(4):
            x = np.array([(mi >> 1) & 1, mi & 1], np.uint8)
            cw = encode(g, x)
            for pos in range(5):
                word = cw.copy()
                word[pos] ^= 1
                assert np.array_equal(decode_nearest(g, word).message, x)


def test_criterion_6_channel_simulation():
    with criterion(6, "Monte Carlo within 3 SE of exact for (5,2) and (7,3)", 10.0):
        for fname in ("five_two.gmat", "seven_three.gmat"):
            g = load_generator(data_path(fname))
            for delta in (0.01, 0.05, 0.1):
                exact = bsc_success_exact(g, delta).success_probability
                mc = bsc_monte_carlo(g, delta, trials=100_000, seed=2024)
                if mc.standard_error == 0.0:
                    assert mc.success_probability == exact
                else:
                    dev = abs(mc.success_probability - exact)
                    assert dev <= 3.0 * mc.standard_error, (fname, delta, dev)


def test_criterion_7_bound_formulas():
    with criterion(7, "closed-form bound identities and orderings", None):
        assert bounds.bound_mrrw_adversarial(0.0) == 1.0
        assert bounds.bound_mrrw_adversarial(0.25) == 0.0
        assert bounds.binary_entropy(0.5) == 1.0
        for i in range(1, 25):
            d = 0.01 * i
            assert (
                bounds.bound_mrrw_adversarial(d)
                <= bounds.bound_linear_adversarial(d) + 1e-9
            )
        assert bounds.bound_shannon_depolarizing(0.05) < bounds.bound_linear_adversarial(0.05) - 1e-9
        assert bounds.bound_shannon_depolarizing(0.2) > bounds.bound_linear_adversarial(0.2) + 1e-9


def test_criterion_8_property_suites():
    with criterion(8, "module invariants on >= 1000 randomized instances", 60.0):
        instances = 0
        rng = np.random.default_rng(20240801)

        # symplectic bilinearity (200)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            p, q, w = rng.integers(0, 2, size=(3, 2 * n)).astype(np.uint8)
            prods = symplectic_product_rows(np.stack([p, q, w, p ^ w]))
            assert np.array_equal(prods, prods.T)
            assert prods[3, 1] == prods[0, 1] ^ prods[2, 1]
            instances += 1

        # elementary ops preserve commutativity and independence (200)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, n + 1))
            code = random_stabilizer_code(rng, n, m)
            op = random_elementary_op(rng, n, m)
            assert validate(apply_ops(code, [op])).ok
            instances += 1

        # rref idempotence and trace replay (200)
        for _ in range(200):
            mat = rng.integers(0, 2, size=(int(rng.integers(1, 7)), int(rng.integers(1, 9)))).astype(np.uint8)
            res = gf2.rref(mat)
            assert np.array_equal(gf2.rref(res.matrix).matrix, res.matrix)
            assert np.array_equal(replay_row_ops(mat, res.trace), res.matrix)
            instances += 1

        # encode linearity (200)
        g52 = load_generator(data_path("five_two.gmat"))
        for _ in range(200):
            x = rng.integers(0, 2, 2).astype(np.uint8)
            y = rng.integers(0, 2, 2).astype(np.uint8)
            assert np.array_equal(
                encode(g52, x ^ y), encode(g52, x) ^ encode(g52, y)
            )
            instances += 1

        # decode-within-t exhaustiveness on the corpus codes (96)
        for fname in ("five_two.gmat", "seven_three.gmat", "rep3.gmat"):
            g = load_generator(data_path(fname))
            t = (lincode.min_distance(g).distance - 1) // 2
            for mi in range(1 << g.k):
                x = np.array([(mi >> (g.k - 1 - i)) & 1 for i in range(g.k)], np.uint8)
                cw = encode(g, x)
                patterns = [np.zeros(g.n, np.uint8)]
                if t >= 1:
                    for pos in range(g.n):
                        e = np.zeros(g.n, np.uint8)
                        e[pos] = 1
                        patterns.append(e)
                for e in patterns:
                    assert np.array_equal(decode_nearest(g, cw ^ e).message, x)
                    instances += 1

        # apply_pauli unitarity (150)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            p = rng.integers(0, 2, 2 * n).astype(np.uint8)
            assert abs(apply_pauli(StateVector(n, amps), p).norm - 1.0) < 1e-12
            instances += 1

        # entropy symmetry (200)
        for _ in range(200):
            p = float(rng.uniform(0, 1))
            assert abs(bounds.binary_entropy(p) - bounds.binary_entropy(1 - p)) < 1e-12
            instances += 1

        assert instances >= 1000
        print(f"  property instances checked: {instances}")
