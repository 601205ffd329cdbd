"""Oracle tests: each vectorized kernel against a direct brute-force
computation of the same quantity."""

from contextlib import nullcontext
from itertools import combinations, product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stab2lin import _kernels, gf2, pauli, stabilizer
from stab2lin.formats import load_generator
from stab2lin.lincode import (
    GeneratorMatrix,
    codeword_table,
    coset_leaders,
    lightest_codewords,
)
from stab2lin.stabilizer import StabilizerCode, is_css, quantum_distance

from util import (
    css_join_distance,
    data_path,
    decode_nearest,
    encode,
    in_rowspan,
    pauli_weight_rows,
    random_code,
    random_css_code,
    random_graphlike_css_code,
    random_stabilizer_code,
    thinned_surface_code,
)

MASK64 = (1 << 64) - 1


def explicit_weight_hist(rows, n):
    """Oracle: encode every message and count codeword weights."""
    g = GeneratorMatrix(rows)
    hist = np.zeros(n + 1, dtype=np.int64)
    for x in product((0, 1), repeat=g.k):
        hist[int(encode(g, np.array(x, np.uint8)).sum())] += 1
    return hist


def independent_rows(rng, k, n):
    while True:
        rows = rng.integers(0, 2, size=(k, n)).astype(np.uint8)
        if gf2.rank(rows) == k:
            return rows


def test_codeword_weight_hist_matches_encode_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 20))
        rows = independent_rows(rng, k, n)
        hist = _kernels.codeword_weight_hist(rows, n)
        assert np.array_equal(hist, explicit_weight_hist(rows, n))


def test_codeword_weight_hist_multiword():
    rng = np.random.default_rng(1)
    rows = independent_rows(rng, 6, 130)
    assert np.array_equal(
        _kernels.codeword_weight_hist(rows, 130), explicit_weight_hist(rows, 130)
    )


def test_codeword_weight_hist_gray_steps():
    # k = 22 > 20 runs the Gray-code loop over the high rows; the code
    # (I | I) has exactly C(22, w) codewords of weight 2w
    rows = np.hstack([np.eye(22, dtype=np.uint8)] * 2)
    expected = np.zeros(45, dtype=np.int64)
    expected[::2] = [comb(22, w) for w in range(23)]
    assert np.array_equal(_kernels.codeword_weight_hist(rows, 44), expected)


def pauli_enumeration_min_weight(code, cap):
    """Oracle: scan all 4^n Paulis for the lightest one commuting with every
    generator but outside their span; 0 when none has weight <= cap."""
    n = code.n
    red = gf2.rref(code.matrix)
    best = 0
    for bits in product((0, 1), repeat=2 * n):
        v = np.array(bits, np.uint8)
        w = int(pauli_weight_rows(v[None, :])[0])
        if w == 0 or w > cap or (best and w >= best):
            continue
        if pauli.symplectic_product_rows(np.vstack([v, code.matrix]))[0].any():
            continue
        if not in_rowspan(red, v):
            best = w
    return best


def test_normalizer_min_weight_matches_pauli_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        code = random_stabilizer_code(rng, n, m)
        red = gf2.rref(code.matrix)
        span = red.matrix[: red.rank]
        got = _kernels.normalizer_min_weight(code.matrix, span, red.pivots, n, n)
        assert got == pauli_enumeration_min_weight(code, n)


def test_normalizer_min_weight_cap_returns_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        code = random_stabilizer_code(rng, n, n - 1)
        red = gf2.rref(code.matrix)
        span = red.matrix[: red.rank]
        d = pauli_enumeration_min_weight(code, n)
        assert d > 0
        assert _kernels.normalizer_min_weight(code.matrix, span, red.pivots, n, d - 1) == 0
        assert _kernels.normalizer_min_weight(code.matrix, span, red.pivots, n, d) == d


# the search as it runs (on these small codes, mostly unmasked joins), with
# every join a single split point behind a hash mask, and with no subset
# table kept, every row built and probed one at a time and a 2-bit join key,
# so that most generators are folded into the key, keys collide and the
# joined pairs must be checked against them exactly
PATCHES = (
    {},
    {"_GROUP_KEYS": 0, "_MASK_PROBE": 0},
    {"_TABLE_ENTRIES": 0, "_BLOCK_KEYS": 0, "_KEY_BITS": 2},
)


def kernel_answers(code, alphabets=("XYZ",)):
    """The kernel's answer for every cap 1..n, under each of ``PATCHES``."""
    n = code.n
    red = gf2.rref(code.matrix)
    span = red.matrix[: red.rank]
    answers = []
    for patch in PATCHES:
        with mock.patch.multiple(_kernels, **patch) if patch else nullcontext():
            answers.append([
                _kernels.normalizer_min_weight(code.matrix, span, red.pivots, n, cap, alphabets)
                for cap in range(1, n + 1)
            ])
    return answers


def expected_answers(d, n):
    return [[d if d <= cap else 0 for cap in range(1, n + 1)]] * len(PATCHES)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, 2**32 - 1))))
@settings(max_examples=30, deadline=None)
# k = 1 codes where, with the 2-bit key below, the answer needs a probe joined
# with a later one of several equal keys, not only the first
@example((6, 5, 1020659597))
@example((7, 6, 407062733))
def test_normalizer_min_weight_join_matches_pauli_enumeration(case):
    # every cap from 1 to n: odd and even w, the w = 1 join against an empty
    # B list, and k = 0 (m = n) where nothing qualifies at any weight
    n, m, seed = case
    code = random_stabilizer_code(np.random.default_rng(seed), n, m)
    d = pauli_enumeration_min_weight(code, n)
    assert (d == 0) == (m == n)
    assert kernel_answers(code) == expected_answers(d, n)


@given(st.integers(1, 18).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(n, 16)), st.integers(0, 2**32 - 1), st.booleans(),
    st.booleans())))
@settings(max_examples=40, deadline=None)
def test_lightest_codewords_match_weight_hist(case):
    # the classical join over {X}: w is the first nonzero weight of the
    # 2^k sweep, and every codeword of that weight is listed once, also
    # under each of PATCHES (many blocks, and keys that fold parity checks)
    g = random_code(*case)
    hist = _kernels.codeword_weight_hist(g.rows, g.n)
    d = int(np.flatnonzero(hist[1:])[0]) + 1
    for patch in PATCHES:
        with mock.patch.multiple(_kernels, **patch) if patch else nullcontext():
            w, words = lightest_codewords(g.h)
        assert (w, len(words)) == (d, hist[d])
        assert (words.sum(axis=1) == d).all() and len(np.unique(words, axis=0)) == hist[d]
        assert not gf2.mat_mul(words, gf2.nullspace(g.rows).T).any()


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n), st.integers(0, 2**32 - 1))).filter(
    lambda c: 1 <= c[1] + c[2] <= c[0]))
@settings(max_examples=30, deadline=None)
def test_css_alphabets_match_pauli_enumeration(case):
    # a CSS group searched with the one-letter alphabets {X} and {Z} finds
    # the distance that all 4^n Paulis give
    n, rx, rz, seed = case
    code = random_css_code(np.random.default_rng(seed), n, rx, rz)
    assert is_css(code)
    # k = 0 has no logical operator (the enumeration test above checks that
    # the oracle agrees), so the slow scan is skipped there
    d = 0 if rx + rz == n else pauli_enumeration_min_weight(code, n)
    assert kernel_answers(code, ("X", "Z")) == expected_answers(d, n)
    assert quantum_distance(code).value == (d or None)


def assert_cycle_route_matches(code):
    """The cycle route against the join over {X} and {Z} at every cap from
    1 to n, field by field, and for n <= 7 against the scan of all 4^n Paulis.
    The cover guard is raised so that codes of k up to 16 take the route."""
    n = code.n
    assert is_css(code) and stabilizer._graphs(code) is not None
    with mock.patch.object(_kernels, "normalizer_min_weight", side_effect=AssertionError), \
            mock.patch.object(stabilizer, "MAX_COVER_STATES", 1 << 17):
        routed = [quantum_distance(code, cap) for cap in range(1, n + 1)]
    assert routed == [css_join_distance(code, cap) for cap in range(1, n + 1)]
    if n <= 7:
        assert (routed[-1].value or 0) == pauli_enumeration_min_weight(code, n)


@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, 2 * n), st.integers(0, 2**32 - 1),
    st.sampled_from([0, 0, 2, 3, 4]))))
@settings(max_examples=40, deadline=None)
def test_cycle_route_matches_the_join(case):
    # random graphlike CSS codes (surface_d 0): any k from 0 up, dependent X
    # rows, empty sides and qubits in no row of a side are all common; and
    # rotated surface codes with rows left out, where d reaches 4
    n, mx, tries, seed, surface_d = case
    rng = np.random.default_rng(seed)
    if surface_d:
        code = thinned_surface_code(rng, surface_d)
    else:
        code = random_graphlike_css_code(rng, n, mx, tries)
    assert_cycle_route_matches(code)


@pytest.mark.parametrize("paulis", [
    ["XX", "ZZ"],  # k = 0
    ["Z"],  # k = 0, no X rows
    ["XX"],  # no Z rows
    ["ZZI", "IZZ"],  # no X rows, k = 1, d = 1
    ["XXI", "ZZZ"],  # qubit 2 is in no X row
    ["ZI"],  # qubit 1 is in no row of either side
    ["XXII", "IIXX", "ZZZZ"],  # k = 1, d = 2
    ["XXXX", "ZZZZ"],
])
def test_cycle_route_matches_the_join_on_small_cases(paulis):
    assert_cycle_route_matches(StabilizerCode.from_paulis(paulis))


def test_join_entries_counts_both_lists():
    # direct count of the lists each join makes: the A side, the h-subsets
    # whose last position lies in [b0, b1), and the B side, the l-subsets
    # lying wholly after b0, with a^h and a^l letterings; the ranges must
    # tile the split points h-1 .. n-l-1, one per point with a budget of 0
    for budget in (0, 50, _kernels._GROUP_KEYS):
        with mock.patch.object(_kernels, "_GROUP_KEYS", budget):
            for a, n in product((1, 3), range(1, 9)):
                for w in range(1, n + 1):
                    h, l = (w + 1) // 2, w // 2
                    groups = list(_kernels._split_groups(n, h, l, a))
                    ranges = [b for b0, b1, *_ in groups for b in range(b0, b1)]
                    assert ranges == list(range(h - 1, n - l))
                    assert budget or all(b1 == b0 + 1 for b0, b1, *_ in groups)
                    count = 0
                    for b0, b1, *_ in groups:
                        count += sum(b0 <= s[-1] < b1 for s in combinations(range(n), h)) * a**h
                        count += len(list(combinations(range(b0 + 1, n), l))) * a**l
                    assert _kernels.join_entries(n, w, a) == count, (budget, a, n, w)


def scalar_errors(n, delta, trials, seed, start=0):
    """Oracle: the documented counter-based stream, one bit at a time in
    Python integers (splitmix64 of (i * n + j + 1) * golden + seed)."""
    for i in range(start, trials):
        e = np.zeros(n, np.uint8)
        for j in range(n):
            z = ((i * n + j + 1) * 0x9E3779B97F4A7C15 + seed) & MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            z ^= z >> 31
            e[j] = (z >> 11) * 2.0**-53 < delta
        yield e


def scalar_successes(g, delta, trials, seed):
    return sum(
        not decode_nearest(g, e).message.any() for e in scalar_errors(g.n, delta, trials, seed)
    )


def scalar_leader_successes(cols, leader_weight, n, delta, trials, seed):
    """Oracle for the syndrome lookup: each trial's syndrome as a Python XOR
    of the columns of its flipped bits."""
    succ = 0
    for e in scalar_errors(n, delta, trials, seed):
        syn = 0
        for j in np.flatnonzero(e):
            syn ^= int(cols[j])
        succ += int(e.sum()) == leader_weight[syn]
    return succ


def test_bsc_trial_successes_matches_scalar_decoder():
    g = load_generator(data_path("five_two.gmat"))
    table = codeword_table(g)
    for seed in (0, 1, 99):
        got = _kernels.bsc_trial_successes(table, g.n, 0.12, 400, seed)
        assert got == scalar_successes(g, 0.12, 400, seed)


def test_leader_trial_successes_matches_scalar_decoder():
    for name, delta in (("seven_three.gmat", 0.2), ("five_two.gmat", 0.3)):
        g = load_generator(data_path(name))
        t = coset_leaders(g)
        for seed in (2, 5):
            got = _kernels.leader_trial_successes(
                g.syndrome_cols, t.min_weight, g.n, delta, 400, seed
            )
            assert got == scalar_successes(g, delta, 400, seed)


def test_trial_errors_chunk_invariant():
    # any split of the trials into ranges draws the same flips, across the
    # default block of 32768 // 7 = 4681 trials too
    whole = _kernels._trial_errors(7, 0.2, 0, 10000, 5)
    cuts = (0, 1, 1234, 4681, 4682, 9999, 10000)
    parts = [_kernels._trial_errors(7, 0.2, a, b, 5) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(whole, np.vstack(parts))
    assert np.array_equal(whole, gf2.pack_rows(np.array(list(scalar_errors(7, 0.2, 10000, 5)))))


@given(
    st.integers(1, 140),
    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    st.integers(-(2**63), 2**64 - 1),
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_trial_errors_match_scalar_stream(n, delta, seed, cuts, block):
    # small blocks so that trials straddle block boundaries, any split into
    # start/stop ranges, and n > 64 for multiword rows
    cuts = np.cumsum([0] + cuts).tolist()
    bits = np.array(list(scalar_errors(n, delta, cuts[-1], seed)), np.uint8).reshape(-1, n)
    expected = gf2.pack_rows(bits)
    with mock.patch.object(_kernels, "_STREAM_BLOCK", block):
        got = [_kernels._trial_errors(n, delta, a, b, seed) for a, b in zip(cuts, cuts[1:])]
    assert all(p.dtype == np.uint64 for p in got)
    assert np.array_equal(np.vstack(got), expected)
    if delta == 0.0:
        assert not expected.any()


@st.composite
def small_codes(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = np.array(draw(st.lists(bits, min_size=k, max_size=k)), np.uint8)
    if gf2.rank(rows) < k:
        rows[:, :k] = np.eye(k, dtype=np.uint8)
    return GeneratorMatrix(rows)


# even d: the (4,1) repetition code (d = 4) and (I | I) (d = 2), where errors
# with 2 wt(e) = d tie with another codeword and must count as successes
@example(GeneratorMatrix(np.ones((1, 4), np.uint8)), 0.5, 7, 1, 1)
@example(GeneratorMatrix(np.hstack([np.eye(3, dtype=np.uint8)] * 2)), 0.4, 3, 2, 1)
@given(
    small_codes(),
    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    st.integers(0, 2**64 - 1),
    st.integers(1, 40),
    st.integers(1, 80),
)
@settings(max_examples=60, deadline=None)
def test_both_kernels_match_scalar_decoder(g, delta, seed, chunk, block):
    # small trial chunks and distance blocks, so that the hard trials are
    # compared in several blocks of trials and of codewords
    trials = 150
    expected = scalar_successes(g, delta, trials, seed)
    t = coset_leaders(g)
    with mock.patch.object(_kernels, "_TRIAL_CHUNK", chunk), \
            mock.patch.object(_kernels, "_DIST_BLOCK", block):
        assert _kernels.bsc_trial_successes(codeword_table(g), g.n, delta, trials, seed) == expected
        got = _kernels.leader_trial_successes(g.syndrome_cols, t.min_weight, g.n, delta, trials, seed)
    assert got == expected


def test_kernels_multiword():
    # n = 70 > 64: a (70, 3) code on the codeword path and a (70, 52) code on
    # the syndrome path, whose bytes past the first word carry syndromes
    rng = np.random.default_rng(7)
    low = GeneratorMatrix(independent_rows(rng, 3, 70))
    assert _kernels.bsc_trial_successes(codeword_table(low), 70, 0.3, 120, 4) == \
        scalar_successes(low, 0.3, 120, 4)
    high = GeneratorMatrix(np.hstack([np.eye(52, dtype=np.uint8),
                                      rng.integers(0, 2, (52, 18)).astype(np.uint8)]))
    t = coset_leaders(high)
    for delta in (0.02, 0.1):
        got = _kernels.leader_trial_successes(high.syndrome_cols, t.min_weight, 70, delta, 300, 9)
        assert got == scalar_leader_successes(high.syndrome_cols, t.min_weight, 70, delta, 300, 9)
