"""The classical-to-quantum isomorphism phi(y) = Z^(y,0^r)|C_0>.

``verify_phi`` decides its three claims exactly, for any n, on the
phase-tracked stabilizer tableau of ``|C_0>`` (``pauli.StabilizerTableau``).
The dense statevector tools below build the same states as 2^n amplitudes
for small n; the tests use them as the reference.

Basis convention: qubit 1 is the most significant index bit, so the
amplitude of |b_1 ... b_n> sits at index sum_j b_j 2^(n-j).  The operator of
(a|b) is i^(a.b) X^a Z^b with X factors applied after Z factors per qubit.
Under it, (1|1) acts as the standard sigma_y and every operator squares to
+I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .extraction import extract_classical
from .pauli import PauliVector, StabilizerTableau, bitmask, from_bits, signed_row
from .stabilizer import StandardForm, logical_bit_ops, logical_phase_ops

DEFAULT_STATE_CAP = 12
TOLERANCE = 1e-9
COLLAPSED = (
    "codeword construction collapsed to (near) zero; the generator "
    "phase convention is inconsistent"
)


@dataclass(frozen=True)
class StateVector:
    """2^n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def _parity_signs(masked: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(masked.astype(np.uint64)) & 1)


_I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def apply_pauli(state: StateVector, p: PauliVector) -> StateVector:
    """Apply i^(a.b) X^a Z^b to the state."""
    if p.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, operator n={p.n}")
    n = state.n
    amask = bitmask(p.a[::-1])  # qubit 1 is the most significant bit
    bmask = bitmask(p.b[::-1])
    idx = np.arange(1 << n)
    src = idx ^ amask
    signs = _parity_signs(src & bmask)
    phase = _I_POWERS[int(np.bitwise_and(p.a, p.b).sum() & 3)]
    return StateVector(n, phase * signs * state.amplitudes[src])


def eigenvalue_sign(state: StateVector, p: PauliVector, tol: float = TOLERANCE):
    """+1 or -1 when the state is an eigenvector within tol, else None."""
    moved = apply_pauli(state, p).amplitudes
    for sign in (1.0, -1.0):
        if np.max(np.abs(moved - sign * state.amplitudes)) < tol:
            return int(sign)
    return None


def build_C0(sf: StandardForm, cap: int = DEFAULT_STATE_CAP) -> StateVector:
    """The joint +1 eigenstate of G_1..G_m, L_1..L_k, built as the normalized
    product (I+G_1)...(I+G_s)(I+L_1)...(I+L_k) |0...0>."""
    n = sf.n
    if n > cap:
        raise ValueError(f"n = {n} exceeds the statevector cap {cap}")
    amps = zero_state(n).amplitudes
    for row in np.vstack([sf.reassemble()[: sf.s], logical_phase_ops(sf)]):
        amps = amps + apply_pauli(StateVector(n, amps), from_bits(row)).amplitudes
    amps = amps / np.sqrt(2.0 ** (sf.s + sf.k))
    state = StateVector(n, amps)
    if state.norm < 0.5:
        raise RuntimeError(COLLAPSED)
    return state


def build_Cx(sf: StandardForm, x: np.ndarray, cap: int = DEFAULT_STATE_CAP) -> StateVector:
    """Codeword basis state for message x: N_1^{x_1} ... N_k^{x_k} |C_0>."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (sf.k,):
        raise ValueError(f"message length {x.shape} != k = {sf.k}")
    nx = gf2.mat_mul(x[None, :], logical_bit_ops(sf))[0]  # the N_j are Z-type
    return apply_pauli(build_C0(sf, cap=cap), from_bits(nx))


def phi(sf: StandardForm, y: np.ndarray, cap: int = DEFAULT_STATE_CAP) -> StateVector:
    """phi(y) = sigma_z^{y_1} x ... x sigma_z^{y_{n-r}} x I^r |C_0>."""
    y = np.asarray(y, dtype=np.uint8)
    nr = sf.n - sf.r
    if y.shape != (nr,):
        raise ValueError(f"expected {nr} bits, got {y.shape}")
    op = PauliVector(
        np.zeros(sf.n, dtype=np.uint8),
        np.concatenate([y, np.zeros(sf.r, dtype=np.uint8)]),
    )
    return apply_pauli(build_C0(sf, cap=cap), op)


@dataclass(frozen=True)
class PhiReport:
    """Outcome of the three isomorphism checks, decided exactly.

    The check is GF(2) arithmetic on the tableau of ``|C_0>``, so it covers
    all 2^(n-r) images and 4^(n-r) (word, error) pairs, the deviations are
    0.0, and the error correspondence holds exactly and up to phase alike.
    """

    bijectivity_ok: bool
    codeword_property_ok: bool
    error_property_ok: bool
    error_property_exact_ok: bool
    max_deviation: float
    max_deviation_exact: float
    images_checked: int
    pairs_checked: int
    exhaustive: bool
    counterexamples: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.bijectivity_ok and self.codeword_property_ok and self.error_property_ok


def projected_state(n: int, ops) -> tuple[StabilizerTableau, list[int]]:
    """The tableau of (I + P_1) ... (I + P_t)|0^n>, normalised, projected in
    the order given, and the positions of the factors whose +P already
    stabilized the state: each of those leaves the dense product
    unnormalised.  Raises the collapse RuntimeError when some -P did."""
    state = StabilizerTableau(n)
    redundant = []
    for i, op in enumerate(ops):
        expectation = state.project(op)
        if expectation < 0:
            raise RuntimeError(COLLAPSED)
        if expectation > 0:
            redundant.append(i)
    return state, redundant


def z_images_orthogonal(state: StabilizerTableau, n: int, r: int) -> bool:
    """Whether the states Z^(u,0^r)|state> are pairwise orthogonal, that is,
    whether no nonzero (0 | u, 0^r) lies in the span of the stabilizers."""
    visible = [x | (z >> (n - r)) << n for x, z, _ in state.stabilizers]
    bits = [[(v >> j) & 1 for j in range(n + r)] for v in visible]
    return gf2.rank(np.array(bits, np.uint8)) == n


def verify_phi(sf: StandardForm) -> PhiReport:
    """Check bijectivity, the codeword correspondence and the error
    correspondence of phi(y) = Z^(y,0^r)|C_0> on a phase-tracked tableau."""
    n, nr, k = sf.n, sf.n - sf.r, sf.k
    gens = [signed_row(row) for row in sf.reassemble()]
    lops = [signed_row(row) for row in logical_phase_ops(sf)]
    counterexamples: list[str] = []

    # 1. bijectivity: the images are orthonormal iff C_0 is normalised and
    #    distinct Z^(u,0) move it to orthogonal states
    state, redundant = projected_state(n, gens[: sf.s] + lops)
    for i in redundant:
        label = f"G_{i + 1}" if i < sf.s else f"L_{i - sf.s + 1}"
        counterexamples.append(f"{label} already stabilizes the state; C_0 is not normalised")
    if not z_images_orthogonal(state, n, sf.r):
        counterexamples.append("some Z^(u,0) with u != 0 stabilizes C_0 up to sign")
    bij_ok = not counterexamples

    # 2. codeword correspondence: phi(x.M) = N^x|C_0> and G_i phi(x.M) =
    #    phi(x.M) for all i.  Both are linear in x, so the k basis messages
    #    decide every message.  The first says Z^(x.M,0) N^x stabilizes C_0.
    #    Given that and +G_i in the group, the second holds: G_i commutes with
    #    that Z-type element and with N^x, so x.M has even overlap with G_i's
    #    X part.
    codeword_failures = []
    if k:
        for i, g in enumerate(gens):
            if state.expectation(g) != 1:
                codeword_failures.append(f"C_0 is not a +1 eigenstate of G_{i + 1}")
        gen = extract_classical(sf).generator
        bit_ops = logical_bit_ops(sf)
        for j in range(k):
            diff = bitmask(gen[j]) ^ bitmask(bit_ops[j, n:])
            if diff and state.expectation((0, diff, 0)) != 1:
                codeword_failures.append(f"codeword x=e_{j + 1}: phi(x.M) != N^x C_0")
    counterexamples += codeword_failures

    # 3. error correspondence: phi(y xor e) = Z^(e,0) phi(y) for every y and
    #    e, because Z-type Paulis compose without a phase.
    return PhiReport(
        bijectivity_ok=bij_ok,
        codeword_property_ok=not codeword_failures,
        error_property_ok=True,
        error_property_exact_ok=True,
        max_deviation=0.0,
        max_deviation_exact=0.0,
        images_checked=1 << nr,
        pairs_checked=1 << (2 * nr),
        exhaustive=True,
        counterexamples=counterexamples,
    )
