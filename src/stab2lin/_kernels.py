"""Hot enumeration kernels, vectorized with numpy.

- ``codeword_weight_hist``: weight histogram of all 2^k codewords.
- ``min_weight_logicals``: the lightest logical operators, by a meet-in-the-
  middle join of single-qubit syndromes, weight by weight, over the Paulis
  of one or more letter alphabets, and ``normalizer_min_weight`` their weight;
  each level is priced (``join_entries``) when the search reaches it.
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
from .pauli import parse_pauli

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
    """The XOR of every subset of the first ``upto`` packed rows, 2^upto x words.

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
    base = min(k, 20 - (packed.shape[1] - 1).bit_length())  # a table of at most 2^20 words
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
# A colex subset table is kept whole up to this many keys; rows of a larger
# one are built on demand from the table one size down.  Tables and the probe
# side of a join are built in blocks of about _BLOCK_KEYS keys, which bounds
# the temporaries of a search.
_TABLE_ENTRIES = 1 << 18
_BLOCK_KEYS = 1 << 16
# The hash mask of a join's sorted side has 16 to 32 entries per key, and at
# most 2^_MASK_BITS.  It is built only for a join whose larger side exceeds
# _MASK_PROBE keys: below that, sorting the whole probe side is cheaper
# (measured with and without the mask, BENCH_11.json).
_MASK_BITS = 20
_MASK_PROBE = 1 << 12
# One join covers a range of split points while its sorted (smaller) side
# stays within this many keys (chosen by a sweep of 2^10 .. 2^16, BENCH_11.json).
_GROUP_KEYS = 1 << 11


def _single_syndromes(gens: np.ndarray, n: int, alphabet: str) -> np.ndarray:
    """(n, len(alphabet)) int64 join keys of each letter at each position: the
    XOR of the masks of the generators the letter anticommutes with (X_p
    those with a Z at p, Z_p those with an X at p, Y_p both)."""
    m = gens.shape[0]
    folded = _mix64(np.arange(1, max(m - _KEY_BITS, 0) + 1, dtype=np.uint64) * _GOLDEN)
    masks = np.concatenate([
        np.left_shift(1, np.arange(min(m, _KEY_BITS), dtype=np.int64)),
        (folded >> np.uint64(64 - _KEY_BITS)).astype(np.int64),
    ])[:, None]
    sx = np.bitwise_xor.reduce(np.where(gens[:, n:] == 1, masks, 0), axis=0)
    sz = np.bitwise_xor.reduce(np.where(gens[:, :n] == 1, masks, 0), axis=0)
    x, z = parse_pauli(alphabet).reshape(2, -1)
    return sx[:, None] * x ^ sz[:, None] * z


class _SubsetTables:
    """Join keys of every t-subset of range(n) in colex order under every
    lettering from an alphabet of a letters: ``rows(t, r0, r1)`` is the
    (r1 - r0, a^t) block of subsets r0 .. r1-1, the letter at a subset's j-th
    position being base-a digit j of the column, least significant first.  In
    colex order the subsets whose last position is e are rows C(e, t) ..
    C(e + 1, t) - 1, so the t-subsets of range(b) are the first C(b, t).
    Positions are not stored: ``positions`` recovers them from row numbers."""

    def __init__(self, syn: np.ndarray):
        self.syn = syn
        self.n, self.a = syn.shape
        self.keys = {0: np.zeros((1, 1), dtype=np.int64)}
        self.colex = {}

    def starts(self, t: int) -> np.ndarray:
        """C(e, t) for e = 0 .. n: the first row whose last position is e."""
        if t not in self.colex:
            self.colex[t] = np.array([comb(e, t) for e in range(self.n + 1)], dtype=np.int64)
        return self.colex[t]

    def rows(self, t: int, r0: int, r1: int) -> np.ndarray:
        """Keys of rows r0 .. r1-1 of the t-table, kept whole if it is small."""
        if t not in self.keys and comb(self.n, t) * self.a**t <= _TABLE_ENTRIES:
            table = np.empty((comb(self.n, t), self.a**t), dtype=np.int64)
            for c0, c1 in self.blocks(t, 0, len(table)):
                table[c0:c1] = self._extend(t, c0, c1)
            self.keys[t] = table
        if t in self.keys:
            return self.keys[t][r0:r1]
        return self._extend(t, r0, r1)

    def blocks(self, t: int, r0: int, r1: int):
        """Row ranges of about ``_BLOCK_KEYS`` keys that tile r0 .. r1-1."""
        step = max(1, _BLOCK_KEYS // self.a**t)
        return ((c, min(r1, c + step)) for c in range(r0, r1, step))

    def _extend(self, t: int, r0: int, r1: int) -> np.ndarray:
        """Rows r0 .. r1-1 in one gather: row r, with last position e, is row
        r - C(e, t) of the (t-1)-table with e appended, its letter the most
        significant digit.  A range that starts inside one e's rows and runs
        past them is split there, so it never gathers more rows than it
        builds."""
        starts = self.starts(t)
        e0 = int(self.last(t, r0))
        if starts[e0] < r0 and starts[e0 + 1] < r1:
            split = int(starts[e0 + 1])
            return np.concatenate([self._extend(t, r0, split), self._extend(t, split, r1)])
        idx = np.arange(r0, r1)
        e = self.last(t, idx)
        idx -= starts[e]
        lo = int(idx[0])
        prev = self.rows(t - 1, lo, int(idx.max()) + 1)
        return (self.syn[e][:, :, None] ^ prev[idx - lo][:, None, :]).reshape(len(idx), -1)

    def last(self, t: int, r: np.ndarray) -> np.ndarray:
        """The last position of the subsets in rows ``r``; -1 for t = 0."""
        return np.searchsorted(self.starts(t), r, side="right") - 1

    def positions(self, t: int, r: np.ndarray) -> np.ndarray:
        """(len(r), t) ascending positions of the subsets in rows ``r``."""
        pos = np.empty((len(r), t), dtype=np.intp)
        r = r.copy()
        for j in range(t, 0, -1):
            pos[:, j - 1] = self.last(j, r)
            r -= self.starts(j)[pos[:, j - 1]]
        return pos


def _split_groups(n: int, h: int, l: int, a: int):
    """The joins that search weight h + l with an alphabet of a letters, as
    (b0, b1, A keys, B keys): split points b0 .. b1-1 are joined at once.  The
    A side lists the h-subsets whose last position lies in [b0, b1), the B
    side the l-subsets lying wholly after b0.  A range grows while its
    smaller side stays within ``_GROUP_KEYS`` keys."""
    b0, stop = h - 1, n - l
    while b0 < stop:
        size_b = comb(n - 1 - b0, l) * a**l
        b1 = b0 + 1
        if size_b <= _GROUP_KEYS:
            b1 = stop
        while b1 < stop and (comb(b1 + 1, h) - comb(b0, h)) * a**h <= _GROUP_KEYS:
            b1 += 1
        yield b0, b1, (comb(b1, h) - comb(b0, h)) * a**h, size_b
        b0 = b1


def join_entries(n: int, w: int, a: int) -> int:
    """Keys that :func:`min_weight_logicals` lists to search weight ``w``
    with an alphabet of ``a`` letters: both sides of every join."""
    return sum(size_a + size_b for *_, size_a, size_b in _split_groups(n, (w + 1) // 2, w // 2, a))


# A search does not start a weight level that lists more join keys than this
# (join_entries, summed over the alphabets it runs): at about 25 ns per key
# on one core, no level past about 50 s starts.  The rotated surface code
# with d=9, a CSS code, lists 5.9e7 keys at w = 9 in its two one-letter
# joins; over {X, Y, Z} it would list 6.3e9.
MAX_JOIN_ENTRIES = 2 * 10**9


class WorkLimit(ValueError):
    """A weight level the search refused: every weight up to ``searched``
    was searched, and the next would list ``keys`` join keys."""

    def __init__(self, searched: int, keys: int):
        super().__init__(
            f"searching weight {searched + 1} would list {keys:.2g} join keys, "
            f"above the limit {MAX_JOIN_ENTRIES:.2g}; refusing"
        )
        self.searched, self.keys = searched, keys


def _paulis(pos: np.ndarray, letters: np.ndarray, n: int, alphabet: str) -> np.ndarray:
    """(P, 2n) bit rows of the Paulis with the given positions and base-a
    letter indices (digit j for column j of ``pos``, least significant first)."""
    a, t = len(alphabet), pos.shape[1]
    x, z = parse_pauli(alphabet).reshape(2, -1)
    v = np.zeros((len(pos), 2 * n), dtype=np.uint8)
    rows = np.arange(len(pos))[:, None]
    let = letters[:, None] // a ** np.arange(t) % a
    v[rows, pos] = x[let]
    v[rows, n + pos] = z[let]
    return v


def _bucket(keys: np.ndarray, bits: int) -> np.ndarray:
    """A multiplicative hash of int64 keys onto ``bits`` bits."""
    return (keys.view(np.uint64) * _GOLDEN) >> np.uint64(64 - bits)


def _joined(fwd: _SubsetTables, rev: _SubsetTables, h: int, l: int, group, alphabet: str):
    """Bit rows of the Paulis A + B with equal keys over one range of split
    points (a group of :func:`_split_groups`), where max(A) < min(B).

    The smaller side is sorted whole.  The other side is listed in blocks,
    and each block is sorted and looked up in the sorted keys.  On a large
    join the sorted keys are first marked in a mask under a multiplicative
    hash, and only the block entries whose hash is marked are sorted and
    looked up, so most keys of the large side cost a hash and a mask read.
    ``rev`` lists the B side reversed, so the l-subsets after b0 are its
    first C(n-1-b0, l) rows."""
    b0, b1, size_a, size_b = group
    n, a = fwd.n, fwd.a
    sides = [(fwd, h, comb(b0, h), comb(b1, h)), (rev, l, 0, comb(n - 1 - b0, l))]
    if size_a > size_b:
        sides.reverse()
    (tab_s, t_s, s0, s1), (tab_l, t_l, l0, l1) = sides
    keys_s = tab_s.rows(t_s, s0, s1).ravel()
    order = np.argsort(keys_s)
    flat = keys_s[order]
    del keys_s  # this generator's locals live as long as the join
    masked = max(size_a, size_b) > _MASK_PROBE
    if masked:
        bits = min(_MASK_BITS, flat.size.bit_length() + 4)
        marked = np.zeros(1 << bits, dtype=bool)
        marked[_bucket(flat, bits)] = True
    for c0, c1 in tab_l.blocks(t_l, l0, l1):
        probe = tab_l.rows(t_l, c0, c1).ravel()
        # sorted probes make the lookups run much faster
        if masked:
            li = np.flatnonzero(marked[_bucket(probe, bits)])
            li = li[np.argsort(probe[li])]
        else:
            li = np.argsort(probe)
        lo = np.searchsorted(flat, probe[li])
        cnt = np.searchsorted(flat, probe[li], side="right") - lo
        if not cnt.any():
            continue
        si = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        li = np.repeat(li, cnt) + (c0 - l0) * a**t_l
        ia, ib = (si, li) if tab_s is fwd else (li, si)
        ra, rb = comb(b0, h) + ia // a**h, ib // a**l
        keep = fwd.last(h, ra) < n - 1 - rev.last(l, rb)  # max(A) < min(B)
        ia, ib, ra, rb = ia[keep], ib[keep], ra[keep], rb[keep]
        pos = np.hstack([fwd.positions(h, ra), n - 1 - rev.positions(l, rb)])
        yield _paulis(pos, ia % a**h + ib % a**l * a**h, n, alphabet)


def min_weight_logicals(
    gens: np.ndarray,
    span_rows: np.ndarray,
    span_pivots: np.ndarray,
    n: int,
    cap: int,
    alphabets: tuple[str, ...] = ("XYZ",),
):
    """The lightest Paulis that commute with all generators but lie outside
    their row span, their letters drawn from one of ``alphabets``: yields
    (w, bit rows) one join block at a time, every block of the least weight
    w <= ``cap`` that has one, and nothing past that level.

    Meet in the middle on syndromes (Stern, "A method for finding codewords
    of small weight", 1988).  A Pauli commutes with every generator iff the
    syndromes of its single-qubit letters XOR to 0.  A weight-w Pauli splits
    in exactly one way into A, its first ceil(w/2) positions with the last
    one at b, and B, the floor(w/2) positions after b.  One join covers a
    whole range [b0, b1) of split points (:func:`_split_groups`): A lists the
    subsets whose last position lies in the range, a slice of the colex
    table, and B those lying wholly after b0, a prefix of the reversed table.
    Keys are joined on equality, and a pair is kept only when max(A) <
    min(B), so each Pauli is still listed once; the kept pairs are checked
    against the generators past the key and reduced against the span.

    Every alphabet is searched at each weight before the next, so the answer
    is the first weight at which any alphabet finds a logical.  ``"XYZ"``
    covers every Pauli; ``("X", "Z")`` covers the pure-X and pure-Z ones, which
    is exact for a CSS group (see :func:`stab2lin.stabilizer.quantum_distance`).
    A level whose joins would list over ``MAX_JOIN_ENTRIES`` keys raises WorkLimit.
    """
    gens = np.asarray(gens, dtype=np.uint8)
    span = np.asarray(span_rows, dtype=np.uint8)
    pivots = np.asarray(span_pivots, dtype=np.intp)
    unkeyed = gens[_KEY_BITS:]
    unkeyed = np.hstack([unkeyed[:, n:], unkeyed[:, :n]]).T  # symplectic dual
    tables = []
    for alphabet in alphabets:
        syn = _single_syndromes(gens, n, alphabet)
        tables.append((alphabet, _SubsetTables(syn), _SubsetTables(syn[::-1])))
    for w in range(1, cap + 1):
        keys = sum(join_entries(n, w, len(alphabet)) for alphabet, *_ in tables)
        if keys > MAX_JOIN_ENTRIES:
            raise WorkLimit(w - 1, keys)
        h, l = (w + 1) // 2, w // 2
        found = False
        for alphabet, fwd, rev in tables:
            for group in _split_groups(n, h, l, len(alphabet)):
                for v in _joined(fwd, rev, h, l, group, alphabet):
                    if unkeyed.size:
                        v = v[~gf2.mat_mul(v, unkeyed).any(axis=1)]
                    v = v[(gf2.mat_mul(v[:, pivots], span) != v).any(axis=1)]
                    if len(v):
                        found = True
                        yield w, v
        if found:
            return


def normalizer_min_weight(gens, span_rows, span_pivots, n, cap, alphabets=("XYZ",)) -> int:
    """The weight of the first block of :func:`min_weight_logicals`, which
    searches no further; 0 when no logical weighs up to ``cap``."""
    return next(min_weight_logicals(gens, span_rows, span_pivots, n, cap, alphabets), (0,))[0]


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
