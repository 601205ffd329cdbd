"""Hot enumeration kernels, vectorized with numpy.

- ``codeword_weight_hist``: weight histogram of all 2^k codewords.
- ``normalizer_min_weight``: the exact quantum distance, by a meet-in-the-
  middle join of single-qubit syndromes, weight by weight; ``join_entries``
  is the number of keys it lists for one weight.
- ``bsc_trial_successes`` and ``leader_trial_successes``: the two Monte Carlo
  decoders for the binary symmetric channel.  Both read one counter-based
  flip stream, ``_trial_errors``, drawn in cache-sized blocks and packed into
  uint64 error words, so on one code they return the same count.  The first
  accepts every trial with 2 wt(e) <= d outright and compares only the rest
  with all 2^k codewords; the second looks each trial's syndrome up, byte by
  byte, in a coset-leader table over the 2^(n-k) syndromes.
  :func:`stab2lin.lincode.bsc_monte_carlo` runs whichever is cheaper.

Packing convention (shared with :mod:`stab2lin.gf2`): column ``c`` of a bit
row lives in uint64 word ``c // 64`` at bit ``c % 64``.
"""

from __future__ import annotations

from math import ceil, comb

import numpy as np

from . import gf2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 output mix of a uint64 array, in place; ``tmp`` is
    scratch space of z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _popcount_words(packed: np.ndarray) -> np.ndarray:
    """Weights of packed rows (last axis): uint8 for one word, else uint16."""
    if packed.shape[-1] == 1:
        return np.bitwise_count(packed[..., 0])
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.uint16)


def doubling_table(rows_packed: np.ndarray, upto: int) -> np.ndarray:
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
    table = doubling_table(packed, base)
    cur = np.zeros(packed.shape[1], dtype=np.uint64)
    rest = packed[base:]
    for t in range(1 << (k - base)):
        if t:
            cur ^= rest[(t & -t).bit_length() - 1]  # Gray step over the high rows
        hist += np.bincount(_popcount_words(table ^ cur), minlength=n + 1)
    return hist


# Join keys are 63-bit syndromes: bit g for generator g < 63; each later
# generator is folded in as a fixed pseudo-random 63-bit mask, and checked
# exactly on the joined pairs only.
_KEY_BITS = 63
# A colex subset table is kept whole up to this many keys; larger ones are
# streamed in blocks built from the table one size down.
_TABLE_ENTRIES = 1 << 18


def _single_syndromes(gens: np.ndarray, n: int) -> np.ndarray:
    """(n, 3) int64 join keys of X_p, Y_p, Z_p: the XOR of the masks of the
    generators the Pauli anticommutes with (X_p those with a Z at p, Z_p
    those with an X at p)."""
    m = gens.shape[0]
    folded = _mix64(np.arange(1, max(m - _KEY_BITS, 0) + 1, dtype=np.uint64) * _GOLDEN)
    masks = np.concatenate([
        np.left_shift(1, np.arange(min(m, _KEY_BITS), dtype=np.int64)),
        (folded >> np.uint64(64 - _KEY_BITS)).astype(np.int64),
    ])[:, None]
    sx = np.bitwise_xor.reduce(np.where(gens[:, n:] == 1, masks, 0), axis=0)
    sz = np.bitwise_xor.reduce(np.where(gens[:, :n] == 1, masks, 0), axis=0)
    return np.stack([sx, sx ^ sz, sz], axis=1)


class _SubsetTables:
    """Every t-subset of range(n) in colex order with the keys of its 3^t
    letterings: ``pos`` is (C(n, t), t), ascending per row, and ``keys`` is
    (C(n, t), 3^t), letter j (X, Y, Z = 0, 1, 2) of position j being base-3
    digit j, most significant first.  In colex order the t-subsets of
    range(b) are the first C(b, t) rows."""

    def __init__(self, syn: np.ndarray):
        self.syn = syn
        self.pos = [np.zeros((1, 0), dtype=np.intp)]
        self.keys = [np.zeros((1, 1), dtype=np.int64)]

    def extend(self, pos, keys, e):
        """The block with position ``e`` appended to every row."""
        c = pos.shape[0]
        return (
            np.hstack([pos, np.full((c, 1), e, dtype=np.intp)]),
            (keys[:, :, None] ^ self.syn[e]).reshape(c, -1),
        )

    def blocks(self, t: int, limit: int):
        """(pos, keys) blocks that list the t-subsets of range(limit) in order."""
        n = len(self.syn)
        if t == len(self.pos) and comb(n, t) * 3**t <= _TABLE_ENTRIES:
            parts = [
                self.extend(p, k, e) for e in range(t - 1, n) for p, k in self.blocks(t - 1, e)
            ]
            self.pos.append(np.concatenate([p for p, _ in parts]))
            self.keys.append(np.concatenate([k for _, k in parts]))
        if t < len(self.pos):
            c = comb(limit, t)
            if c:
                yield self.pos[t][:c], self.keys[t][:c]
            return
        for e in range(t - 1, limit):
            for p, k in self.blocks(t - 1, e):
                yield self.extend(p, k, e)


def join_entries(n: int, w: int) -> int:
    """Keys that :func:`normalizer_min_weight` lists to search weight ``w``:
    the A lists over all b plus the B lists over all b."""
    h, l = (w + 1) // 2, w // 2
    return comb(n - l, h) * 3**h + comb(n - h + 1, l + 1) * 3**l


def _paulis(pos: np.ndarray, letters: np.ndarray, n: int) -> np.ndarray:
    """(P, 2n) bit rows of the Paulis with the given positions and base-3
    letter indices."""
    v = np.zeros((len(pos), 2 * n), dtype=np.uint8)
    rows = np.arange(len(pos))
    t = pos.shape[1]
    for j in range(t):
        let = letters // 3 ** (t - 1 - j) % 3
        v[rows, pos[:, j]] = let != 2
        v[rows, n + pos[:, j]] = let != 0
    return v


def _joined(small, large, n: int):
    """Bit rows of the Paulis A + B for every pair of equal keys.

    ``small`` and ``large`` are iterables of (pos, keys) blocks over disjoint
    positions; ``small`` is sorted whole and each ``large`` block probes it.
    """
    small = list(small)
    if not small:
        return
    pos_s = np.concatenate([p for p, _ in small])
    keys_s = np.concatenate([k for _, k in small])
    order = np.argsort(keys_s, axis=None)
    flat = keys_s.ravel()[order]
    for pos_l, keys_l in large:
        probe = keys_l.ravel()
        lo = np.searchsorted(flat, probe)
        hit = np.flatnonzero(flat[np.minimum(lo, flat.size - 1)] == probe)
        if not hit.size:
            continue
        lo = lo[hit]
        cnt = np.searchsorted(flat, probe[hit], side="right") - lo
        li = np.repeat(hit, cnt)
        si = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        ws, wl = keys_s.shape[1], keys_l.shape[1]
        yield _paulis(pos_s[si // ws], si % ws, n) | _paulis(pos_l[li // wl], li % wl, n)


def normalizer_min_weight(
    gens: np.ndarray, span_rows: np.ndarray, span_pivots: np.ndarray, n: int, cap: int
) -> int:
    """Minimum Pauli weight of a vector commuting with all generators but
    outside their row span; 0 when nothing is found up to ``cap``.

    Meet in the middle on syndromes (Stern, "A method for finding codewords
    of small weight", 1988).  A Pauli commutes with every generator iff the
    syndromes of its single-qubit letters XOR to 0.  A weight-w Pauli splits
    in exactly one way into A, its first ceil(w/2) positions with the last
    one at b, and B, the floor(w/2) positions after b.  For each b the A
    list and the B list are joined on equal keys (the smaller list sorted,
    the larger one probing it), and only the joined pairs are checked
    against the generators past the key and reduced against the span.
    """
    gens = np.asarray(gens, dtype=np.uint8)
    span = np.asarray(span_rows, dtype=np.uint8)
    pivots = np.asarray(span_pivots, dtype=np.intp)
    unkeyed = gens[_KEY_BITS:]
    unkeyed = np.hstack([unkeyed[:, n:], unkeyed[:, :n]]).T  # symplectic dual
    syn = _single_syndromes(gens, n)
    fwd, rev = _SubsetTables(syn), _SubsetTables(syn[::-1])
    for w in range(1, cap + 1):
        h, l = (w + 1) // 2, w // 2
        for b in range(h - 1, n - l):
            a_side = (fwd.extend(p, k, b) for p, k in fwd.blocks(h - 1, b))
            b_side = ((n - 1 - p, k) for p, k in rev.blocks(l, n - 1 - b))
            if comb(b, h - 1) * 3**h <= comb(n - 1 - b, l) * 3**l:
                small, large = a_side, b_side
            else:
                small, large = b_side, a_side
            for v in _joined(small, large, n):
                if unkeyed.size:
                    v = v[~gf2.mat_mul(v, unkeyed).any(axis=1)]
                if (gf2.mat_mul(v[:, pivots], span) != v).any():
                    return w
    return 0


# Draws per block of the flip stream (kept in cache), trials per chunk of the
# Monte Carlo kernels, and distances per block of hard trials x codewords.
_STREAM_BLOCK = 1 << 15
_TRIAL_CHUNK = 1 << 16
_DIST_BLOCK = 1 << 17


def _trial_errors(n: int, delta: float, start: int, stop: int, seed: int) -> np.ndarray:
    """Error words of trials ``start .. stop-1``, packed as (stop - start,
    words) uint64 rows in the :func:`stab2lin.gf2.pack_rows` convention.

    Bit ``j`` of trial ``i`` flips when u < delta, where u = (z >> 11) * 2^-53
    and z is splitmix64 of (i * n + j + 1) * golden + seed.  It is a pure
    function of (seed, i * n + j), so any split of the trials into ranges
    draws the same flips.  The draws are made about ``_STREAM_BLOCK`` at a
    time, in reused buffers, and each block is packed little-endian by one
    ``np.packbits`` over rows padded to whole bytes.
    """
    nbytes = -(-n // 8)
    out = np.zeros((stop - start, 8 * -(-n // 64)), dtype=np.uint8)
    # z >> 11 < 2^53, and delta * 2^53 <= 2^52 is exact, so u < delta holds
    # iff z >> 11 < ceil(delta * 2^53), i.e. iff z < ceil(delta * 2^53) << 11
    limit = np.uint64(ceil(delta * 2**53) << 11)
    step = max(1, _STREAM_BLOCK // n)
    ramp = np.arange(1, step * n + 1, dtype=np.uint64) * _GOLDEN  # (i*n + j + 1) * golden
    z, tmp = np.empty_like(ramp), np.empty_like(ramp)
    # whole bytes per row, so one flat packbits packs every row; the pad
    # columns are never written and stay False
    flips = np.zeros((step, 8 * nbytes), dtype=bool)
    for lo in range(0, stop - start, step):
        rows = min(stop - start, lo + step) - lo
        offset = np.uint64(((start + lo) * n * int(_GOLDEN) + seed) % 2**64)
        zs = _mix64(np.add(ramp[: rows * n], offset, out=z[: rows * n]), tmp[: rows * n])
        np.less(zs.reshape(rows, n), limit, out=flips[:rows, :n])
        packed = np.packbits(flips[:rows], bitorder="little")
        out[lo : lo + rows, :nbytes] = packed.reshape(rows, nbytes)
    return out.view("<u8")


def min_row_weight(codewords: np.ndarray, n: int) -> int:
    """d: the least weight of a nonzero row (row 0 is the zero codeword)."""
    return int(_popcount_words(codewords[1:]).min(initial=2 * n))


def bsc_trial_successes(
    codewords: np.ndarray, n: int, delta: float, trials: int, seed: int
) -> int:
    """Number of trials where the zero codeword's message is recovered.

    Each trial is decoded against every row of ``codewords`` (indexed by
    message, message 0 first); it succeeds when the first nearest row is row
    0, i.e. when no row is strictly closer to the error e than row 0.  That
    holds without a comparison when 2 wt(e) <= d: every row c != 0 has
    wt(e + c) >= d - wt(e) >= wt(e).  Only the other, hard, trials are
    compared with the rows, a block of hard trials and rows at a time.
    """
    d = min_row_weight(codewords, n)
    rows = codewords[1:]
    cw_step = max(1, min(len(rows), _DIST_BLOCK))
    tr_step = max(1, _DIST_BLOCK // cw_step)
    succ = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        err = _trial_errors(n, delta, start, min(trials, start + _TRIAL_CHUNK), seed)
        wt = _popcount_words(err)
        hard = wt > d // 2
        succ += int(hard.size - hard.sum())
        err, wt = err[hard], wt[hard]
        for lo in range(0, err.shape[0], tr_step):
            e = err[lo : lo + tr_step, None, :]
            nearest = np.full(e.shape[0], n, dtype=np.int64)
            for c in range(0, len(rows), cw_step):
                dist = _popcount_words(e ^ rows[None, c : c + cw_step])
                np.minimum(nearest, dist.min(axis=1), out=nearest)
            succ += int((nearest >= wt[lo : lo + tr_step]).sum())
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
    the zero codeword, i.e. iff wt(e) equals its coset's minimum weight.  The
    syndrome of a packed error is the XOR, over its bytes, of 256-entry tables
    of each byte's syndromes.
    """
    cols = np.zeros(-(-n // 8) * 8, dtype=np.uint64)
    cols[:n] = syndrome_cols
    # tables[b][v]: the syndrome of byte value v at byte b of the error word
    tables = doubling_table(cols.reshape(-1, 8).T, 8).T.copy()
    succ = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        err = _trial_errors(n, delta, start, min(trials, start + _TRIAL_CHUNK), seed)
        by = err.view(np.uint8)
        syn = tables[0][by[:, 0]]
        for b in range(1, len(tables)):
            syn ^= tables[b][by[:, b]]
        succ += int((_popcount_words(err) == leader_weight[syn]).sum())
    return succ
