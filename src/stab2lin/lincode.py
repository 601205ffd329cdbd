"""Classical binary linear codes: codeword tables, the minimum distance,
coset leaders, and binary-symmetric-channel performance.

Decoding is complete nearest-codeword decoding (not bounded-distance), with
ties broken toward the lexicographically smallest message.  By linearity the
channel is analysed for the zero codeword, where the tie-break favours the
zero message: an error pattern is corrected iff it has minimum weight in its
coset.  Both channel numbers rest on that coset-leader (standard-array) view
over the 2^(n-k) syndromes:

- exact: the leader weights and leader counts of every coset give the
  histogram of corrected patterns by weight, for n - k <= NK_EXACT_LIMIT;
- Monte Carlo: when n - k <= min(k, NK_EXACT_LIMIT), a trial succeeds iff
  its weight equals the leader weight of its syndrome; otherwise each trial
  is decoded against the 2^k codewords.  There, a trial with 2 wt(e) <= d
  (bounded-distance decoding) succeeds without a comparison, and the others
  cost 2^k comparisons each.  A run predicted to draw more trial bits plus
  trial-codeword comparisons than MAX_MC_WORK is refused.  Per-trial
  randomness is a pure function of (seed, trial index), drawn as one packed
  stream, so the count does not depend on batching, scheduling or which path
  ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, lgamma, log, log1p, sqrt

import numpy as np

from . import _kernels, gf2

# 2^k codewords of n bits take 2^k ceil(n/64) 64-bit words; a sweep over
# them and an in-memory table of them are priced in those words.
K_ENUM_LIMIT = 28  # 2^K_ENUM_LIMIT words of codeword sweeps
NK_EXACT_LIMIT = 23  # 2^(n-k) coset-leader tables
K_TABLE_LIMIT = 24  # 2^K_TABLE_LIMIT words of in-memory codeword tables for decoding
_CHUNK = 1 << 20  # array elements per frontier chunk of the leader search
# bsc_monte_carlo refuses a run predicted to draw more trial bits (trials * n)
# plus trial-codeword comparisons than this.  Measured on one core, a trial bit
# costs 5-13 ns for n >= 3 and up to 26 ns at n = 1, where the per-trial
# overhead dominates; a comparison costs 1.5-2 ns.  So no accepted run passes
# about 50 s.
MAX_MC_WORK = 2 * 10**9


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """A k x n generator matrix with independent rows, equal to another with
    the same rows.  ``h`` holds n - k independent parity-check rows
    (``gf2.nullspace(rows)``), and ``syndrome_cols[j]`` is the syndrome of the
    single-bit error e_j, bit i being parity check i (None past
    ``NK_EXACT_LIMIT``); all three are read-only, and only ``rows`` takes
    part in equality, hashing and the repr."""

    rows: np.ndarray
    h: np.ndarray = field(init=False, repr=False)
    syndrome_cols: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        rows = gf2.as_bits(self.rows)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("expected a k x n matrix with k >= 1")
        if rows.shape[0] > rows.shape[1]:
            raise ValueError("k must not exceed n")
        h = gf2.nullspace(rows)
        if len(h) != rows.shape[1] - rows.shape[0]:
            raise ValueError("generator rows must be independent")
        rows.flags.writeable = h.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "h", h)
        cols = None
        if len(h) <= NK_EXACT_LIMIT:  # no channel path reads them past it
            cols = np.array(gf2.to_ints(h.T), dtype=np.int64)
            cols.flags.writeable = False
        object.__setattr__(self, "syndrome_cols", cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    def __hash__(self):
        return hash((self.rows.shape, self.rows.tobytes()))

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def _codeword_words(g: GeneratorMatrix) -> int:
    """The 64-bit words of all 2^k packed codewords: 2^k ceil(n/64)."""
    return (1 << g.k) * -(-g.n // 64)


def codeword_table(g: GeneratorMatrix) -> np.ndarray:
    """All 2^k codewords as packed uint64 words, indexed by big-endian message.

    Numeric index order coincides with lexicographic message order, so a
    first-minimum scan implements the documented tie-break.  Refuses a table
    of more than 2^K_TABLE_LIMIT words.
    """
    if _codeword_words(g) > 1 << K_TABLE_LIMIT:
        raise ValueError(
            f"k = {g.k} too large for an in-memory codeword table at n = {g.n}: "
            f"2^k * ceil(n/64) words must not exceed 2^{K_TABLE_LIMIT}"
        )
    return _kernels.doubling_table(gf2.pack_rows(g.rows)[::-1], g.k)


def lightest_codewords(h: np.ndarray) -> tuple[int, np.ndarray]:
    """The least weight w of a nonzero codeword of the code whose parity
    checks are the rows of ``h`` (such as ``GeneratorMatrix.h``), and all
    codewords of weight w; (0, no rows) for the zero code.  One join of
    :func:`_kernels.min_weight_logicals` over {X}, with an empty span and
    generators (0 | h): X^c commutes with them iff c is a codeword.  Raises
    ``_kernels.WorkLimit`` past its guard."""
    n = h.shape[1]
    gens = np.hstack([np.zeros_like(h), h])
    blocks = list(_kernels.min_weight_logicals(gens, gens[:0], [], n, n, ("X",)))
    return (blocks[0][0], np.vstack([v[:, :n] for _, v in blocks])) if blocks else (0, h[:0])


@dataclass(frozen=True)
class MinDistanceResult:
    distance: int
    weight_enumerator: dict[int, int] | None


def min_distance(g: GeneratorMatrix) -> MinDistanceResult:
    """Minimum Hamming weight over the nonzero codewords, plus the weight
    enumerator from a 2^k sweep; past 2^K_ENUM_LIMIT swept words
    (2^k ceil(n/64)), d alone (the enumerator None), by
    :func:`lightest_codewords` on ``g.h``."""
    if _codeword_words(g) > 1 << K_ENUM_LIMIT:
        return MinDistanceResult(lightest_codewords(g.h)[0], None)
    hist = _kernels.codeword_weight_hist(g.rows, g.n)
    nonzero = [w for w in range(1, g.n + 1) if hist[w]]
    return MinDistanceResult(
        distance=nonzero[0],
        weight_enumerator={w: int(hist[w]) for w in range(g.n + 1) if hist[w]},
    )


@dataclass(frozen=True)
class ChannelReport:
    """Success probability of message recovery on a binary symmetric channel."""

    delta: float
    success_probability: float
    method: str  # "exact-enumeration" | "monte-carlo"
    trials: int | None = None
    seed: int | None = None
    standard_error: float | None = None


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must be in [0, 1/2], got {delta}")
    return delta


@dataclass(frozen=True)
class CosetLeaders:
    """Coset-leader (standard-array) data over the 2^(n-k) syndromes.

    Bit i of a syndrome is parity check i of the code's
    ``GeneratorMatrix.h``, and the syndrome of the single-bit error e_j is
    its ``syndrome_cols[j]``.  ``min_weight[s]`` is the leader weight of the
    coset with syndrome s, and ``count[s]`` the number of patterns of that
    weight in it.  ``min_weight`` is int8, and ``count`` the narrowest
    unsigned type that holds 2^k, a coset's size (uint64 from k = 63 on,
    where ``coset_leaders``' guard keeps counts below 2^63).
    """

    min_weight: np.ndarray
    count: np.ndarray


def coset_leaders(g: GeneratorMatrix) -> CosetLeaders:
    """Coset-leader table of ``g``, in O(min(n, 2^k) * 2^(n-k)) time and
    O(2^(n-k)) memory.

    Codes with 2^k (2^(n-k) + 6000) <= 20n 2^(n-k) sweep their codewords
    over a byte grid of all syndromes; every other code is filled by a
    breadth-first search over the parity checks.  Both give the same table.
    On tables of 2^14 to 2^23 syndromes, one search step (a syndrome and a
    column) costs about as much as 20 grid steps (a syndrome and a
    codeword), and each codeword adds a fixed cost of about 6000 grid steps
    (its numpy calls), which decides small tables.
    """
    n, nk = g.n, g.n - g.k
    if nk > NK_EXACT_LIMIT:
        raise ValueError(
            f"n - k = {nk} exceeds the exact-channel limit n - k <= {NK_EXACT_LIMIT}; "
            "estimate it by Monte Carlo instead (bsc_monte_carlo, or simulate without --exact)"
        )
    # Leader weights never exceed n - k; w * count[s] must fit in an int64.
    if max((w * comb(n, w) for w in range(1, nk + 1)), default=0) >= 1 << 63:
        raise ValueError(f"n = {n} is too long for 64-bit leader counts at n - k = {nk}")
    cols = g.syndrome_cols
    if (1 << g.k) * ((1 << nk) + 6000) <= (20 * n) << nk:
        min_weight, count = _leaders_by_codewords(codeword_table(g), cols, n, nk)
    else:
        min_weight = _leader_weights(cols, nk)
        count = _leader_counts(cols, min_weight)
    return CosetLeaders(min_weight=min_weight, count=count)


def _leader_weights(cols: np.ndarray, nk: int) -> np.ndarray:
    """Leader weight of every syndrome, by a weight-ordered breadth-first
    search from syndrome 0 over the columns: level w holds the syndromes
    first reached in w steps.  The frontier is expanded a bounded chunk at a
    time."""
    min_weight = np.full(1 << nk, -1, dtype=np.int8)
    min_weight[0] = 0
    step = max(1, _CHUNK // len(cols))
    frontier = np.zeros(1, dtype=np.int64)
    w = 0
    while frontier.size:
        w += 1
        for lo in range(0, frontier.size, step):
            nb = cols[:, None] ^ frontier[lo : lo + step]
            min_weight[nb[min_weight[nb] < 0]] = w
        frontier = np.flatnonzero(min_weight == w)
    return min_weight


def _leader_counts(cols: np.ndarray, min_weight: np.ndarray) -> np.ndarray:
    """Leader count of every syndrome, level by level of the search.

    Each leader of a weight-w coset s, minus any one of its w bits j, is a
    leader of the weight-(w-1) coset s ^ h_j; conversely no leader of such a
    coset contains bit j, or s would have weight w-2.  So
    ``w * count[s] = sum_j [min_weight[s ^ h_j] == w-1] * count[s ^ h_j]``.
    """
    k = len(cols) + 1 - min_weight.size.bit_length()  # the table has 2^(n-k) entries
    count = np.zeros(min_weight.size, dtype=np.min_scalar_type(1 << min(k, 63)))
    count[0] = 1
    step = max(1, _CHUNK // len(cols))
    for w in range(1, int(min_weight.max()) + 1):
        frontier = np.flatnonzero(min_weight == w)
        for lo in range(0, frontier.size, step):
            s = frontier[lo : lo + step]
            nb = cols[:, None] ^ s
            pulled = np.where(min_weight[nb] == w - 1, count[nb], 0)
            count[s] = pulled.sum(axis=0) // w
    return count


def _leaders_by_codewords(
    codewords: np.ndarray, cols: np.ndarray, n: int, nk: int
) -> tuple[np.ndarray, np.ndarray]:
    """The same table from the 2^k packed codewords, message 0 first.

    ``gf2.nullspace`` puts an identity on the columns u_i that are free in
    rref(G), so e_s, which sets u_i for each bit i of s, has syndrome s and
    weight popcount(s), and coset s is e_s + C.  A codeword c that sets the
    u_i of the bits of q and r other bits gives wt(e_s + c) = r + popcount(s ^ q).
    With s split into its high ceil((n-k)/2) and low floor((n-k)/2) bits, that
    is r + popcount(s_hi ^ q_hi) + popcount(s_lo ^ q_lo): one row of each half
    added onto a (2^hi, 2^lo) byte grid whose flat index is s.  One sweep over
    the codewords takes the minimum, a second counts the codewords that reach it.
    """
    unit = [int(np.flatnonzero(cols == 1 << i)[0]) for i in range(nk)]
    bits = gf2.unpack_rows(codewords, n).astype(np.int64)
    q = (bits[:, unit] << np.arange(nk, dtype=np.int64)).sum(axis=1, keepdims=True)
    rest = bits.sum(axis=1, keepdims=True) - bits[:, unit].sum(axis=1, keepdims=True)
    lo = nk // 2
    his = (np.bitwise_count(np.arange(1 << (nk - lo)) ^ (q >> lo)) + rest).astype(np.uint8)
    los = np.bitwise_count(np.arange(1 << lo) ^ (q & (1 << lo) - 1))  # already uint8
    min_weight = his[0][:, None] + los[0]
    grid = np.empty_like(min_weight)
    for hi_row, lo_row in zip(his[1:], los[1:]):
        np.add(hi_row[:, None], lo_row, out=grid)
        np.minimum(min_weight, grid, out=min_weight)
    count = np.zeros(min_weight.shape, dtype=np.min_scalar_type(len(codewords)))
    tie = grid.view(bool)  # the ties overwrite the grid, which the next add refills
    for hi_row, lo_row in zip(his, los):
        np.add(hi_row[:, None], lo_row, out=grid)
        np.equal(grid, min_weight, out=tie)
        count += tie
    return min_weight.ravel().view(np.int8), count.ravel()


def correctable_weight_histogram(g: GeneratorMatrix) -> np.ndarray:
    """hist[w] = number of weight-w error patterns the decoder maps to the
    zero message, i.e. patterns of minimum weight within their coset.

    This is the delta-independent core of the exact channel computation;
    reuse it when evaluating several deltas.
    """
    table = coset_leaders(g)
    hist = np.zeros(g.n + 1, dtype=np.int64)
    # slices of 2^16 entries: one int64 copy of 512 KB at a time, never one
    # of the whole table
    step = _CHUNK // 16
    for lo in range(0, table.count.size, step):
        part = slice(lo, lo + step)
        np.add.at(hist, table.min_weight[part], table.count[part].astype(np.int64, copy=False))
    return hist


def bsc_success_exact(g: GeneratorMatrix, delta: float) -> ChannelReport:
    """Exact success probability from the coset-leader table.

    By linearity the classification is done against the zero codeword: a
    pattern counts as corrected when nearest-codeword decoding (with its
    lexicographic tie-break, which favors the zero message) returns message 0,
    i.e. when it has minimum weight in its coset.
    """
    delta = _check_delta(delta)
    hist = correctable_weight_histogram(g)
    return ChannelReport(
        delta=delta,
        success_probability=success_from_histogram(hist, g.n, delta),
        method="exact-enumeration",
    )


def success_from_histogram(hist: np.ndarray, n: int, delta: float) -> float:
    ws = np.arange(n + 1, dtype=np.float64)
    terms = hist * np.power(delta, ws) * np.power(1.0 - delta, n - ws)
    return float(terms.sum())


def _hard_fraction(n: int, d: int, delta: float) -> float:
    """P[Bin(n, delta) > d/2]: the share of trials that the codeword path
    compares with every codeword."""
    if delta == 0.0:
        return 0.0
    lp, lq = log(delta), log1p(-delta)
    return sum(
        exp(lgamma(n + 1) - lgamma(w + 1) - lgamma(n - w + 1) + w * lp + (n - w) * lq)
        for w in range(d // 2 + 1, n + 1)
    )


def bsc_monte_carlo(
    g: GeneratorMatrix, delta: float, trials: int, seed: int
) -> ChannelReport:
    """Monte-Carlo estimate of the exact-enumeration quantity.

    Transmits the zero codeword each trial (by linearity, as in the exact
    path), flips bits independently with probability delta, and counts trials
    whose decode returns message 0.  Decodes by syndrome lookup when
    n - k <= k (and n - k <= NK_EXACT_LIMIT), against the codeword table
    otherwise; both give the same count.  Every run draws trials * n bits,
    and the codeword path also compares about trials * P[wt(e) > d/2] * 2^k
    trial-codeword pairs; a run whose sum is above MAX_MC_WORK raises
    ValueError before decoding.  The trial bits are checked first, so a run
    they already rule out builds no codeword table (which d needs) and is
    told only to use fewer trials.  The syndrome path reads only the leader
    weights, so it computes no leader counts and has no limit on n beyond
    the work.
    """
    delta = _check_delta(delta)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lookup = g.n - g.k <= min(g.k, NK_EXACT_LIMIT)
    predicted, work, hint = trials * g.n, f"draw {trials * g.n:.2g} trial bits", ""
    if not lookup and predicted <= MAX_MC_WORK:
        codewords = codeword_table(g)
        d = _kernels.min_row_weight(codewords, g.n)
        compared = trials * _hard_fraction(g.n, d, delta) * len(codewords)
        predicted += compared
        work += f" and compare about {compared:.2g} trial-codeword pairs (d = {d})"
        hint = f", or a code with n - k <= min(k, {NK_EXACT_LIMIT}), decoded by syndrome lookup"
    if predicted > MAX_MC_WORK:
        raise ValueError(
            f"Monte Carlo would {work}, above the limit {MAX_MC_WORK:.0e}; use fewer trials{hint}"
        )
    if lookup:
        weights = _leader_weights(g.syndrome_cols, g.n - g.k)
        succ = _kernels.leader_trial_successes(g.syndrome_cols, weights, g.n, delta, trials, seed)
    else:
        succ = _kernels.bsc_trial_successes(codewords, g.n, delta, trials, seed)
    p = succ / trials
    return ChannelReport(
        delta=delta,
        success_probability=p,
        method="monte-carlo",
        trials=trials,
        seed=seed,
        standard_error=sqrt(p * (1.0 - p) / trials),
    )
