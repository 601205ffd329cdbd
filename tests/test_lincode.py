import math
import re
import time
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stab2lin import _kernels, gf2, lincode
from stab2lin.formats import load_generator
from stab2lin.lincode import (
    GeneratorMatrix,
    bsc_monte_carlo,
    bsc_success_exact,
    codeword_table,
    correctable_weight_histogram,
    coset_leaders,
    min_distance,
)

from util import (
    data_path,
    decode_nearest,
    encode,
    hamming_direct_sum,
    level_keys,
    random_code,
    walked_guard,
)


@pytest.fixture(scope="module")
def g52():
    return load_generator(data_path("five_two.gmat"))


@pytest.fixture(scope="module")
def g73():
    return load_generator(data_path("seven_three.gmat"))


REP3 = GeneratorMatrix(np.array([[1, 1, 1]], np.uint8))


def all_codewords(g):
    """Independent enumeration oracle: explicit encode of every message."""
    out = []
    for mi in range(1 << g.k):
        x = np.array([(mi >> (g.k - 1 - i)) & 1 for i in range(g.k)], np.uint8)
        out.append((x, encode(g, x)))
    return out


def test_generator_rejects_dependent_rows():
    with pytest.raises(ValueError):
        GeneratorMatrix(np.array([[1, 1, 0], [1, 1, 0]], np.uint8))


def test_generator_rows_are_read_only_and_hash_by_value(g52):
    same = GeneratorMatrix(g52.rows.copy())
    assert same == g52 and hash(same) == hash(g52)
    assert len({g52, same, REP3}) == 2
    # the same bytes in another shape are another matrix
    wide = np.eye(2, 4, dtype=np.uint8)
    assert GeneratorMatrix(wide) != GeneratorMatrix(wide.reshape(1, 8))
    with pytest.raises(ValueError, match="read-only"):
        g52.rows[1] = g52.rows[0]
    # nor can the parity checks and syndrome columns derived from them
    with pytest.raises(ValueError, match="read-only"):
        g52.h[0] = g52.h[1]
    with pytest.raises(ValueError, match="read-only"):
        g52.syndrome_cols[0] = 0
    assert "syndrome_cols" not in repr(g52) and "h=" not in repr(g52)
    # past the exact-channel limit no syndrome columns are derived
    long = GeneratorMatrix(np.eye(1, lincode.NK_EXACT_LIMIT + 2, dtype=np.uint8))
    assert long.syndrome_cols is None


def test_encode_examples(g52):
    assert list(encode(g52, np.array([1, 0], np.uint8))) == [1, 0, 1, 1, 0]
    assert not encode(g52, np.zeros(2, np.uint8)).any()
    assert list(encode(g52, np.array([1, 1], np.uint8))) == [1, 1, 1, 0, 1]


def test_encode_length_mismatch(g52):
    with pytest.raises(ValueError):
        encode(g52, np.array([1, 0, 1], np.uint8))


def test_encode_linear_and_injective(g52):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.integers(0, 2, 2).astype(np.uint8)
        y = rng.integers(0, 2, 2).astype(np.uint8)
        assert np.array_equal(encode(g52, x ^ y), encode(g52, x) ^ encode(g52, y))
    words = {cw.tobytes() for _, cw in all_codewords(g52)}
    assert len(words) == 4


def test_min_distance_seven_three(g73):
    res = min_distance(g73)
    assert res.distance == 4
    assert res.weight_enumerator == {0: 1, 4: 7}
    # oracle: explicit enumeration of codeword weights
    weights = sorted(int(cw.sum()) for x, cw in all_codewords(g73) if x.any())
    assert min(weights) == 4
    assert weights.count(4) == 7


def test_min_distance_five_two(g52):
    res = min_distance(g52)
    assert res.distance == 3
    weights = sorted(int(cw.sum()) for x, cw in all_codewords(g52) if x.any())
    assert weights == [3, 3, 4]


def test_min_distance_identity():
    assert min_distance(GeneratorMatrix(np.eye(4, dtype=np.uint8))).distance == 1


def test_min_distance_matches_pairwise_oracle(g52, g73):
    # min distance of a linear code equals the minimum pairwise codeword distance
    for g in (g52, g73, REP3):
        cws = [cw for _, cw in all_codewords(g)]
        pairwise = min(
            int((a ^ b).sum()) for i, a in enumerate(cws) for b in cws[i + 1 :]
        )
        assert min_distance(g).distance == pairwise


def test_min_distance_past_the_enumeration_limit_by_join(monkeypatch):
    # a (56, 32, 3) code: k > K_ENUM_LIMIT, so d comes from the join alone
    g = hamming_direct_sum(8)
    assert g.k > lincode.K_ENUM_LIMIT
    assert min_distance(g) == lincode.MinDistanceResult(3, None)
    w, words = lincode.lightest_codewords(g.h)
    assert (w, len(words)) == (3, 56)
    assert (words.sum(axis=1) == 3).all() and len(np.unique(words, axis=0)) == 56
    assert not gf2.mat_mul(words, gf2.nullspace(g.rows).T).any()
    # past the work guard it refuses, naming the keys of the refused weight
    monkeypatch.setattr(_kernels, "MAX_JOIN_ENTRIES", _kernels.join_entries(56, 2, 1))
    keys = f"list {_kernels.join_entries(56, 3, 1):.2g} join keys"
    with pytest.raises(ValueError, match=re.escape(keys)):
        min_distance(g)


def _weight_three_code(n: int, k: int) -> GeneratorMatrix:
    """(I_k | A) with disjoint weight-2 rows of A: a sum of j rows weighs 3j."""
    rows = np.zeros((k, n), dtype=np.uint8)
    rows[:, :k] = np.eye(k, dtype=np.uint8)
    rows[np.arange(k), k + 2 * np.arange(k)] = rows[np.arange(k), k + 2 * np.arange(k) + 1] = 1
    return GeneratorMatrix(rows)


@pytest.mark.parametrize("n, k, sweeps", [
    (64, 28, True), (65, 28, False), (65, 27, True), (128, 27, True), (129, 27, False),
    (256, 26, True), (257, 26, False),
])
def test_sweep_limit_prices_words(monkeypatch, n, k, sweeps):
    # a sweep passes 2^k ceil(n/64) words and runs up to 2^K_ENUM_LIMIT of them
    hist = np.zeros(n + 1, dtype=np.int64)
    hist[[0, 1]] = 1
    monkeypatch.setattr(_kernels, "codeword_weight_hist", lambda rows, n: hist)
    monkeypatch.setattr(lincode, "lightest_codewords", lambda h: (1, h[:0]))
    g = GeneratorMatrix(np.eye(k, n, dtype=np.uint8))
    assert min_distance(g).weight_enumerator == ({0: 1, 1: 1} if sweeps else None)


@pytest.mark.parametrize("n, k, builds", [
    (64, 24, True), (65, 24, False), (65, 23, True), (128, 23, True), (129, 23, False),
])
def test_codeword_table_limit_prices_words(monkeypatch, n, k, builds):
    monkeypatch.setattr(_kernels, "doubling_table", lambda rows, upto: "built")
    g = GeneratorMatrix(np.eye(k, n, dtype=np.uint8))
    if builds:
        assert codeword_table(g) == "built"
    else:
        with pytest.raises(ValueError, match=r"2\^k \* ceil\(n/64\) words must not exceed 2\^24"):
            codeword_table(g)


def test_long_codes_past_the_word_limits(monkeypatch):
    # (200, 23): 2^23 codewords of 4 words each, 2^25 words.  The sweep runs
    # with a table of at most 2^20 words; a codeword table is refused, so
    # Monte Carlo allocates none.
    g = _weight_three_code(200, 23)
    shapes = []
    doubling = _kernels.doubling_table

    def recorded(rows, upto):
        shapes.append((upto, rows.shape[1]))
        return doubling(rows, upto)

    monkeypatch.setattr(_kernels, "doubling_table", recorded)
    assert min_distance(g) == lincode.MinDistanceResult(3, {3 * j: comb(23, j) for j in range(24)})
    assert shapes == [(18, 4)]
    with pytest.raises(ValueError, match="too large for an in-memory codeword table at n = 200"):
        bsc_monte_carlo(g, 0.1, 10, 0)
    assert len(shapes) == 1
    # (129, 27): 3 * 2^27 words is past the sweep limit, so d comes from the join
    g = _weight_three_code(129, 27)
    monkeypatch.setattr(_kernels, "codeword_weight_hist", None)
    assert min_distance(g) == lincode.MinDistanceResult(3, None)
    w, words = lincode.lightest_codewords(g.h)
    assert (w, len(words)) == (3, 27) and (words.sum(axis=1) == 3).all()


def test_lightest_codewords_guard_prices_each_weight(monkeypatch):
    # joins that find nothing make the search price every weight up to n
    monkeypatch.setattr(_kernels, "_joined", lambda *args: iter(()))
    for n in range(2, 101):
        reach, predicted = walked_guard(level_keys(n, ("X",)), n)
        h = np.eye(n - 1, n, 1, dtype=np.uint8)  # parity checks of {0, e_0}
        if predicted is None:
            assert lincode.lightest_codewords(h)[0] == 0, n
            continue
        keys = f"searching weight {reach + 1} would list {predicted:.2g} join keys"
        with pytest.raises(_kernels.WorkLimit, match=re.escape(keys)) as refused:
            lincode.lightest_codewords(h)
        assert (refused.value.searched, refused.value.keys) == (reach, predicted), n


def test_max_correctable(g52, g73):
    def t(g):
        return (min_distance(g).distance - 1) // 2

    assert t(g73) == 1
    assert t(g52) == 1
    assert t(GeneratorMatrix(np.eye(3, dtype=np.uint8))) == 0


def test_decode_exact_codeword(g52):
    res = decode_nearest(g52, np.array([1, 0, 1, 1, 0], np.uint8))
    assert list(res.message) == [1, 0]
    assert res.distance == 0


def test_decode_single_flip(g52):
    res = decode_nearest(g52, np.array([1, 0, 1, 1, 1], np.uint8))
    assert list(res.message) == [1, 0]
    assert res.distance == 1


def test_decode_all_single_errors_seven_three(g73):
    for x, cw in all_codewords(g73):
        for pos in range(7):
            word = cw.copy()
            word[pos] ^= 1
            res = decode_nearest(g73, word)
            assert np.array_equal(res.message, x)


def test_decode_tie_break_prefers_smallest_message(g52):
    # e = 11000 sits at distance 2 from both codeword 00000 (message 00) and
    # codeword 11101 (message 11); the lexicographic tie-break returns 00.
    res = decode_nearest(g52, np.array([1, 1, 0, 0, 0], np.uint8))
    assert list(res.message) == [0, 0]
    assert res.distance == 2
    # shifting the same tie pattern onto message 10 makes messages 10 and 01
    # tie; 01 wins, demonstrating why ties are codeword-dependent failures
    word = encode(g52, np.array([1, 0], np.uint8)) ^ np.array([1, 1, 0, 0, 0], np.uint8)
    res = decode_nearest(g52, word)
    assert list(res.message) == [0, 1]


def test_decode_length_mismatch(g52):
    with pytest.raises(ValueError):
        decode_nearest(g52, np.zeros(4, np.uint8))


def brute_success_probability(g, delta):
    """Oracle: classify every error pattern with decode_nearest directly."""
    p = 0.0
    for ei in range(1 << g.n):
        e = np.array([(ei >> (g.n - 1 - i)) & 1 for i in range(g.n)], np.uint8)
        if not decode_nearest(g, e).message.any():
            w = int(e.sum())
            p += delta**w * (1 - delta) ** (g.n - w)
    return p


def test_bsc_exact_delta_zero(g52):
    assert bsc_success_exact(g52, 0.0).success_probability == 1.0


def test_bsc_exact_repetition_code():
    rep = bsc_success_exact(REP3, 0.1)
    assert abs(rep.success_probability - 0.972) < 1e-12


def test_bsc_exact_five_two(g52):
    rep = bsc_success_exact(g52, 0.1)
    assert rep.success_probability >= 0.91854
    assert abs(rep.success_probability - 0.9477) < 1e-12
    assert abs(rep.success_probability - brute_success_probability(g52, 0.1)) < 1e-12


def test_bsc_exact_matches_decode_oracle(g73):
    for delta in (0.05, 0.2):
        exact = bsc_success_exact(g73, delta).success_probability
        assert abs(exact - brute_success_probability(g73, delta)) < 1e-12


def test_bsc_exact_monotone_in_delta(g52):
    values = [bsc_success_exact(g52, d).success_probability for d in np.linspace(0, 0.5, 11)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_bsc_exact_refuses_large_n():
    # a (25,1) code: its 2^24 syndromes are past the exact-channel limit
    g = GeneratorMatrix(np.eye(1, 25, dtype=np.uint8))
    assert g.n - g.k > lincode.NK_EXACT_LIMIT
    with pytest.raises(ValueError, match="n - k.*[Mm]onte"):
        bsc_success_exact(g, 0.1)


def test_bsc_exact_long_high_rate_code():
    # 2^30 error patterns are past any sweep; n - k = 3 gives 8 syndromes
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(27, 3)).astype(np.uint8)
    g = GeneratorMatrix(np.hstack([np.eye(27, dtype=np.uint8), a]))
    exact = bsc_success_exact(g, 0.02).success_probability
    mc = bsc_monte_carlo(g, 0.02, trials=100_000, seed=3)
    assert abs(mc.success_probability - exact) <= 4 * mc.standard_error


def test_coset_leaders_refuse_count_overflow():
    # leader counts up to w * C(n, w) with w <= n - k = 23 overflow int64 here
    g = GeneratorMatrix(np.hstack([np.eye(77, dtype=np.uint8), np.ones((77, 23), np.uint8)]))
    with pytest.raises(ValueError, match="64-bit"):
        correctable_weight_histogram(g)


def test_bsc_exact_rejects_bad_delta(g52):
    with pytest.raises(ValueError):
        bsc_success_exact(g52, 0.6)


def test_correctable_histogram_values(g52):
    hist = correctable_weight_histogram(g52)
    assert list(hist[:3]) == [1, 5, 4]
    assert not hist[3:].any()


def test_monte_carlo_delta_zero(g52):
    rep = bsc_monte_carlo(g52, 0.0, trials=500, seed=1)
    assert rep.success_probability == 1.0


def test_monte_carlo_agrees_with_exact(g52, g73):
    for g, delta in ((g52, 0.1), (g73, 0.05)):
        exact = bsc_success_exact(g, delta).success_probability
        mc = bsc_monte_carlo(g, delta, trials=100_000, seed=7)
        assert abs(mc.success_probability - exact) <= 3 * mc.standard_error


def test_monte_carlo_deterministic(g52):
    a = bsc_monte_carlo(g52, 0.1, trials=5000, seed=123)
    b = bsc_monte_carlo(g52, 0.1, trials=5000, seed=123)
    assert a == b
    c = bsc_monte_carlo(g52, 0.1, trials=5000, seed=124)
    assert c.success_probability != a.success_probability or c.seed != a.seed


def test_monte_carlo_rejects_bad_trials(g52):
    with pytest.raises(ValueError):
        bsc_monte_carlo(g52, 0.1, trials=0, seed=0)


def test_monte_carlo_work_guard_refuses_before_decoding():
    # a (50,22) code takes the codeword path (k < n - k); 20000 trials at
    # delta = 0.1 would compare about 6e10 trial-codeword pairs
    g = random_code(50, 22, 0, False, False)
    with mock.patch.object(_kernels, "bsc_trial_successes", side_effect=AssertionError):
        with pytest.raises(ValueError, match="fewer trials.*syndrome lookup"):
            bsc_monte_carlo(g, 0.1, trials=20_000, seed=0)


def test_monte_carlo_work_guard_refuses_only_above_its_limit(g73):
    # (7,3) takes the codeword path: 7 trial bits per trial, plus 2^3
    # codewords per compared trial
    d = _kernels.min_row_weight(codeword_table(g73), 7)
    work = 5000 * 7 + 5000 * lincode._hard_fraction(7, d, 0.2) * 8
    with mock.patch.object(lincode, "MAX_MC_WORK", work):
        assert bsc_monte_carlo(g73, 0.2, 5000, 1).trials == 5000
    with mock.patch.object(lincode, "MAX_MC_WORK", math.nextafter(work, 0)):
        with pytest.raises(ValueError, match="fewer trials"):
            bsc_monte_carlo(g73, 0.2, 5000, 1)


def test_monte_carlo_work_guard_counts_trial_bits_on_the_syndrome_path():
    # (6,3) takes the syndrome path: its work is the 6 trial bits per trial
    g = GeneratorMatrix(np.array([[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]))
    with mock.patch.object(lincode, "MAX_MC_WORK", 6 * 5000):
        assert bsc_monte_carlo(g, 0.2, 5000, 1).trials == 5000
        with mock.patch.object(_kernels, "leader_trial_successes", side_effect=AssertionError):
            with pytest.raises(ValueError, match="draw 3e\\+04 trial bits.*fewer trials$"):
                bsc_monte_carlo(g, 0.2, 5001, 1)


def test_monte_carlo_refuses_on_trial_bits_before_the_codeword_table():
    # (50,24) takes the codeword path, but 5e13 trial bits are over the limit
    # before any comparison is counted, so its 2^24-row table is never built
    g = random_code(50, 24, 0, False, False)
    with mock.patch.object(lincode, "codeword_table", side_effect=AssertionError):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"draw 5e\+13 trial bits, above the limit 2e\+09; use fewer trials$"):
            bsc_monte_carlo(g, 0.1, 10**12, 0)
        assert time.perf_counter() - start < 0.05


def test_monte_carlo_syndrome_path_runs_long_high_rate_codes():
    # leader counts of a (90,72) code overflow int64, and the exact channel
    # refuses it; Monte Carlo reads only the 2^18 leader weights
    g = random_code(90, 72, 0, False, False)
    with pytest.raises(ValueError, match="64-bit"):
        coset_leaders(g)
    rep = bsc_monte_carlo(g, 0.01, 1000, 0)
    assert rep.trials == 1000 and 0.9 < rep.success_probability <= 1.0


def test_hard_fraction_is_the_binomial_tail():
    for n, d, delta in ((7, 3, 0.2), (7, 4, 0.2), (24, 6, 0.05), (50, 9, 0.5), (30, 1, 0.0)):
        tail = sum(comb(n, w) * delta**w * (1 - delta) ** (n - w) for w in range(n + 1) if 2 * w > d)
        assert lincode._hard_fraction(n, d, delta) == pytest.approx(tail, rel=1e-9, abs=1e-300)
    # n past float range for comb(n, w)
    assert lincode._hard_fraction(3000, 2, 0.5) == pytest.approx(1.0)


def test_correctability_coset_property(g52):
    # for tie-free patterns, correctability does not depend on the codeword;
    # tie patterns resolve toward the smaller message and may fail elsewhere
    rng = np.random.default_rng(9)
    cws = [cw for _, cw in all_codewords(g52)]
    for _ in range(200):
        e = rng.integers(0, 2, 5).astype(np.uint8)
        dists = sorted(int((e ^ cw).sum()) for cw in cws)
        tie_free = dists[0] < dists[1]
        outcomes = []
        for x, cw in all_codewords(g52):
            res = decode_nearest(g52, cw ^ e)
            outcomes.append(bool(np.array_equal(res.message, x)))
        if tie_free:
            assert len(set(outcomes)) == 1
        elif int(e.sum()) == dists[0]:
            # the zero codeword is among the minimizers, so message 00 wins
            # its tie; other codewords may legitimately fail here
            assert outcomes[0]


def test_codeword_table_message_order(g73):
    from stab2lin import gf2

    table = codeword_table(g73)
    for mi, (x, cw) in enumerate(all_codewords(g73)):
        assert np.array_equal(gf2.unpack_rows(table[mi], 7)[0], cw)


# ---------------------------------------------------------------------------
# differential tests of the coset-leader table against brute force
# ---------------------------------------------------------------------------


@st.composite
def codes(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    return random_code(
        n, k, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())
    )


EDGE_CODES = [
    random_code(9, 1, 0, False, False),  # k = 1
    random_code(6, 6, 0, False, False),  # k = n: no parity checks
    random_code(10, 4, 1, True, False),  # zero H column
    random_code(10, 6, 2, False, True),  # repeated H columns
    random_code(12, 5, 3, True, True),  # both
]


def with_edge_codes(*args):
    """Run each edge code as an explicit example, with ``args`` after it."""

    def decorate(test):
        for g in EDGE_CODES:
            test = example(g, *args)(test)
        return test

    return decorate


@with_edge_codes()
@given(codes())
@settings(max_examples=40, deadline=None)
def test_parity_checks_and_lightest_codewords_match_enumeration(g):
    # h: n - k independent rows orthogonal to every generator row
    assert g.h.shape == (g.n - g.k, g.n) and gf2.rank(g.h) == g.n - g.k
    assert not gf2.mat_mul(g.rows, g.h.T).any()
    # the join on h finds the least nonzero weight of the 2^k enumeration,
    # and exactly its codewords of that weight
    words = np.array([cw for _, cw in all_codewords(g)[1:]])
    d = int(words.sum(axis=1).min())
    w, lightest = lincode.lightest_codewords(g.h)
    assert w == d
    assert sorted(map(bytes, lightest)) == sorted(map(bytes, words[words.sum(axis=1) == d]))


def decode_histogram(g):
    """Oracle: weights of the patterns that decode_nearest maps to message 0."""
    hist = np.zeros(g.n + 1, dtype=np.int64)
    for ei in range(1 << g.n):
        e = ((ei >> np.arange(g.n)) & 1).astype(np.uint8)
        if not decode_nearest(g, e).message.any():
            hist[int(e.sum())] += 1
    return hist


def pattern_sweep_table(g, cols):
    """Oracle: leader weight and leader count per syndrome over all 2^n patterns."""
    bits = (np.arange(1 << g.n)[:, None] >> np.arange(g.n)) & 1
    syn = np.bitwise_xor.reduce(np.where(bits == 1, cols, 0), axis=1)
    wt = bits.sum(axis=1)
    minw = np.full(1 << (g.n - g.k), g.n + 1)
    np.minimum.at(minw, syn, wt)
    count = np.bincount(syn[wt == minw[syn]], minlength=minw.size)
    return minw, count


@with_edge_codes()
@given(codes())
@settings(max_examples=12, deadline=None)
def test_histogram_matches_decode_classification(g):
    hist = correctable_weight_histogram(g)
    assert hist.dtype == np.int64 and hist.shape == (g.n + 1,)
    assert np.array_equal(hist, decode_histogram(g))
    assert bsc_success_exact(g, 0.0).success_probability == 1.0
    half = bsc_success_exact(g, 0.5).success_probability
    assert abs(half - hist.sum() / 2**g.n) < 1e-12


@with_edge_codes()
@example(random_code(7, 6, 4, False, False))  # n - k = 1: the grid's low half is empty
@example(random_code(14, 5, 5, True, False))  # odd n - k = 9
# k = 8, where counts up to 2^8 no longer fit in 8 bits (coset_leaders puts
# k = 8 on the grid from n - k = 14 up): eight disjoint pairs, where e with
# one bit in every pair is at distance 8 from all 256 codewords, and a random
# code
@example(GeneratorMatrix(np.kron(np.eye(8, dtype=np.uint8), np.ones((1, 2), np.uint8))))
@example(random_code(16, 8, 6, False, True))
@given(codes())
@settings(max_examples=60, deadline=None)
def test_coset_leader_fills_match_pattern_sweep(g):
    cols = g.syndrome_cols
    minw, count = pattern_sweep_table(g, cols)
    hist = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(hist, minw, count)
    nk = g.n - g.k
    narrow = np.min_scalar_type(1 << g.k)
    # a _CHUNK of 16 splits the search frontier and the histogram into many pieces
    for chunk in (lincode._CHUNK, 16):
        with mock.patch.object(lincode, "_CHUNK", chunk):
            table = coset_leaders(g)
            weights = lincode._leader_weights(cols, nk)
            by_search = weights, lincode._leader_counts(cols, weights)
            by_codewords = lincode._leaders_by_codewords(codeword_table(g), cols, g.n, nk)
            got_hist = correctable_weight_histogram(g)
        # each fill keeps the width it computes: int8 weights, and counts in
        # the grid's narrow unsigned dtype or the search's int64
        assert by_search[1].dtype == np.int64 and by_codewords[1].dtype == narrow
        assert table.count.dtype in (np.int64, narrow)
        for got_w, got_c in ((table.min_weight, table.count), by_search, by_codewords):
            assert got_w.dtype == np.int8
            assert np.array_equal(got_w, minw)
            assert np.array_equal(got_c, count)
        assert got_hist.dtype == np.int64 and np.array_equal(got_hist, hist)


def test_exact_channel_peaks_below_four_bytes_per_syndrome():
    # (26,6) fills its 2^20 syndromes on the grid: the weights, the counts
    # and the grid take one byte per syndrome each, and no table-length
    # int64 copy is made
    g = random_code(26, 6, 0, False, False)
    with mock.patch.object(lincode, "_leader_counts", side_effect=AssertionError):
        tracemalloc.start()
        try:
            correctable_weight_histogram(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20, peak / 2**20


@with_edge_codes(7, 2000, 0.5)
@with_edge_codes(11, 500, 0.0)
@given(
    codes(max_n=16),
    st.integers(0, 2**63 - 1),
    st.integers(1, 3000),
    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
)
@settings(max_examples=60, deadline=None)
def test_monte_carlo_paths_agree(g, seed, trials, delta):
    table = coset_leaders(g)
    by_syndrome = _kernels.leader_trial_successes(
        g.syndrome_cols, table.min_weight, g.n, delta, trials, seed
    )
    by_codeword = _kernels.bsc_trial_successes(codeword_table(g), g.n, delta, trials, seed)
    assert by_syndrome == by_codeword
    # Monte Carlo fills the leader weights alone, on either fill's shapes
    with mock.patch.object(lincode, "_leader_counts", side_effect=AssertionError):
        with mock.patch.object(lincode, "_leaders_by_codewords", side_effect=AssertionError):
            rep = bsc_monte_carlo(g, delta, trials, seed)
    assert rep.success_probability == by_syndrome / trials
    if delta == 0.0:
        assert by_syndrome == trials


# (n, k, fill): the grid's fixed cost per codeword sends small tables with
# many codewords to the search; the channel-lowrate shapes and the (13,1)
# code extracted from rotated surface d = 5 stay on the grid
FILL_SHAPES = [(17, 7, "search"), (18, 8, "search"), (20, 8, "search"), (13, 1, "grid")] + [
    (n, k, "grid") for n in range(20, 25) for k in (5, 6)
]


@pytest.mark.parametrize("n, k, fill", FILL_SHAPES)
def test_coset_leaders_fill_choice(n, k, fill):
    g = random_code(n, k, 0, False, False)
    size = 1 << (n - k)
    weights = np.zeros(size, np.int8)
    counts = np.zeros(size, np.int64)
    with (
        mock.patch.object(lincode, "_leaders_by_codewords", return_value=(weights, counts)) as grid,
        mock.patch.object(lincode, "_leader_weights", return_value=weights) as by_weight,
        mock.patch.object(lincode, "_leader_counts", return_value=counts) as by_count,
    ):
        coset_leaders(g)
    assert grid.called == (fill == "grid")
    assert by_weight.called == by_count.called == (fill == "search")
