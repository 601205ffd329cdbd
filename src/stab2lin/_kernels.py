"""Hot enumeration kernels, vectorized with numpy.

- ``codeword_weight_hist``: weight histogram of all 2^k codewords.
- ``normalizer_min_weight``: weight-ordered search for the quantum distance.
- ``bsc_trial_successes`` and ``leader_trial_successes``: the two Monte Carlo
  decoders for the binary symmetric channel.  The first compares each trial
  with all 2^k codewords; the second looks the trial's syndrome up in a
  coset-leader table over the 2^(n-k) syndromes.  Both draw their bit flips
  from the same counter-based stream, so on one code they return the same
  count; :func:`stab2lin.lincode.bsc_monte_carlo` runs whichever is cheaper.

Packing convention (shared with :mod:`stab2lin.gf2`): column ``c`` of a bit
row lives in uint64 word ``c // 64`` at bit ``c % 64``.
"""

from __future__ import annotations

from itertools import combinations, product
from math import ceil

import numpy as np

from . import gf2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _popcount_words(packed: np.ndarray) -> np.ndarray:
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def _doubling_table(rows_packed: np.ndarray, upto: int) -> np.ndarray:
    """All XOR combinations of the first ``upto`` packed rows, 2^upto x words.

    Index bit ``j`` (LSB) selects row ``j``.
    """
    words = rows_packed.shape[1]
    table = np.zeros((1 << upto, words), dtype=np.uint64)
    for j in range(upto):
        table[1 << j : 2 << j] = table[: 1 << j] ^ rows_packed[j]
    return table


def codeword_weight_hist(rows: np.ndarray, n: int) -> np.ndarray:
    """Hamming-weight histogram over all 2^k codewords of a generator matrix."""
    packed = gf2.pack_rows(rows)
    k = packed.shape[0]
    hist = np.zeros(n + 1, dtype=np.int64)
    base = min(k, 20)
    table = _doubling_table(packed, base)
    cur = np.zeros(packed.shape[1], dtype=np.uint64)
    rest = packed[base:]
    for t in range(1 << (k - base)):
        if t:
            cur ^= rest[(t & -t).bit_length() - 1]  # Gray step over the high rows
        hist += np.bincount(_popcount_words(table ^ cur), minlength=n + 1)
    return hist


def normalizer_min_weight(
    gens: np.ndarray, span_rows: np.ndarray, span_pivots: np.ndarray, n: int, cap: int
) -> int:
    """Minimum Pauli weight of a vector commuting with all generators but
    outside their row span; 0 when nothing is found up to ``cap``."""
    m = gens.shape[0]
    gen_pairs = []
    for g in range(m):
        ga = sum(int(gens[g, i]) << i for i in range(n))
        gb = sum(int(gens[g, n + i]) << i for i in range(n))
        gen_pairs.append((ga, gb))
    rows_int = [
        sum(int(r[c]) << c for c in range(2 * n)) for r in np.asarray(span_rows, dtype=np.uint8)
    ]
    pivots = [int(p) for p in span_pivots]
    for w in range(1, cap + 1):
        for pos in combinations(range(n), w):
            for letters in product((0, 1, 2), repeat=w):  # X, Y, Z
                a = b = 0
                for p, let in zip(pos, letters):
                    if let != 2:
                        a |= 1 << p
                    if let != 0:
                        b |= 1 << p
                if any(
                    ((a & gb).bit_count() + (b & ga).bit_count()) & 1
                    for ga, gb in gen_pairs
                ):
                    continue
                v = a | (b << n)
                for piv, row in zip(pivots, rows_int):
                    if (v >> piv) & 1:
                        v ^= row
                if v:
                    return w
    return 0


def _trial_flips(n: int, delta: float, start: int, stop: int, seed: int) -> np.ndarray:
    """Bit flips of trials ``start .. stop-1`` as a (stop - start) x n bool array.

    Bit ``j`` of trial ``i`` flips when u < delta, where u = (z >> 11) * 2^-53
    and z is splitmix64 of (i * n + j + 1) * golden + seed.  It is a pure
    function of (seed, i * n + j), so any split of the trials into chunks
    draws the same flips.
    """
    z = np.arange(start * n + 1, stop * n + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    # z >> 11 < 2^53, and delta * 2^53 <= 2^52 is exact, so u < delta holds
    # iff z >> 11 < ceil(delta * 2^53), i.e. iff z < ceil(delta * 2^53) << 11
    return (z < np.uint64(ceil(delta * 2**53) << 11)).reshape(stop - start, n)


def bsc_trial_successes(
    codewords: np.ndarray, n: int, delta: float, trials: int, seed: int
) -> int:
    """Number of trials where the zero codeword's message is recovered.

    Each trial is decoded against every row of ``codewords`` (indexed by
    message, message 0 first); it succeeds when the first nearest row is row 0.
    """
    ncw, words = codewords.shape
    chunk = max(1, (1 << 22) // max(ncw, 1))
    succ = 0
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        flips = _trial_flips(n, delta, start, stop, seed)
        err = np.zeros((stop - start, words), dtype=np.uint64)
        for j in range(n):
            err[:, j // 64] |= flips[:, j].astype(np.uint64) << np.uint64(j % 64)
        dist = np.bitwise_count(err[:, None, :] ^ codewords[None, :, :]).sum(
            axis=2, dtype=np.int64
        )
        succ += int((dist.argmin(axis=1) == 0).sum())
    return succ


def leader_trial_successes(
    syndrome_cols: np.ndarray,
    leader_weight: np.ndarray,
    n: int,
    delta: float,
    trials: int,
    seed: int,
) -> int:
    """The count of :func:`bsc_trial_successes`, by syndrome lookup.

    ``syndrome_cols[j]`` is the syndrome of the single-bit error e_j and
    ``leader_weight[s]`` the minimum weight of the coset with syndrome s.  An
    error e decodes to message 0 iff no codeword is strictly closer to it than
    the zero codeword, i.e. iff wt(e) equals its coset's minimum weight.
    """
    cols = np.asarray(syndrome_cols, dtype=np.int64)
    chunk = max(1, (1 << 20) // n)
    succ = 0
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        flips = _trial_flips(n, delta, start, stop, seed)
        syn = np.bitwise_xor.reduce(np.where(flips, cols, 0), axis=1)
        succ += int((flips.sum(axis=1) == leader_weight[syn]).sum())
    return succ
