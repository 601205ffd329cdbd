"""Dense statevector tools and the dense check of the phi isomorphism: the
reference that the symbolic ``statevec.verify_phi`` is tested against.  The
check costs O(4^(n-r) 2^n), so it is meant for n <= 8.

Basis convention: qubit 1 is the most significant index bit, so the
amplitude of |b_1 ... b_n> sits at index sum_j b_j 2^(n-j).  The operator of
(a|b) is i^(a.b) X^a Z^b with X factors applied after Z factors per qubit.
Under it, (1|1) acts as the standard sigma_y and every operator squares to
+I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from stab2lin import gf2
from stab2lin.extraction import extract_classical
from stab2lin.stabilizer import StandardForm, logical_bit_ops, logical_phase_ops

DEFAULT_STATE_CAP = 12
TOL = 1e-9
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


@dataclass(frozen=True)
class DensePhiReport:
    """The three verdicts of the dense check plus what it measures: whether
    the error correspondence also holds without a phase, the largest
    amplitude deviation with and without that phase, and the images and
    (word, error) pairs compared."""

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


def zero_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def _parity_signs(masked: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(masked.astype(np.uint64)) & 1)


_I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def apply_pauli(state: StateVector, row: np.ndarray) -> StateVector:
    """Apply i^(a.b) X^a Z^b, the operator of the (a|b) row, to the state."""
    if len(row) != 2 * state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, row of {len(row)} bits")
    n = state.n
    a, b = np.reshape(row, (2, n))
    amask, bmask = gf2.to_ints(np.stack([a[::-1], b[::-1]]))  # qubit 1 is the top bit
    idx = np.arange(1 << n)
    src = idx ^ amask
    signs = _parity_signs(src & bmask)
    phase = _I_POWERS[int(np.bitwise_and(a, b).sum() & 3)]
    return StateVector(n, phase * signs * state.amplitudes[src])


def eigenvalue_sign(state: StateVector, row: np.ndarray, tol: float = TOL):
    """+1 or -1 when the state is an eigenvector of the row's operator within
    tol, else None."""
    moved = apply_pauli(state, row).amplitudes
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
    for row in np.vstack([sf.matrix[: sf.s], logical_phase_ops(sf)]):
        amps = amps + apply_pauli(StateVector(n, amps), row).amplitudes
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
    return apply_pauli(build_C0(sf, cap=cap), nx)


def phi(sf: StandardForm, y: np.ndarray, cap: int = DEFAULT_STATE_CAP) -> StateVector:
    """phi(y) = sigma_z^{y_1} x ... x sigma_z^{y_{n-r}} x I^r |C_0>."""
    y = np.asarray(y, dtype=np.uint8)
    nr = sf.n - sf.r
    if y.shape != (nr,):
        raise ValueError(f"expected {nr} bits, got {y.shape}")
    op = np.zeros(2 * sf.n, dtype=np.uint8)
    op[sf.n : 2 * sf.n - sf.r] = y
    return apply_pauli(build_C0(sf, cap=cap), op)



def dense_verify_phi(sf: StandardForm, tol: float = TOL) -> DensePhiReport:
    """Check all three claims on 2^n amplitudes, exhaustively, with C_0
    built once.  Raises the same RuntimeError as ``build_C0`` on collapse."""
    n, nr, k = sf.n, sf.n - sf.r, sf.k
    c0 = build_C0(sf).amplitudes
    idx = np.arange(1 << n, dtype=np.uint64)
    ys = np.arange(1 << nr, dtype=np.uint64)
    # phi(y) = Z^(y,0^r) C_0; the r identity bits are the low index bits
    images = _parity_signs((ys << np.uint64(n - nr))[:, None] & idx[None, :]) * c0[None, :]
    counterexamples: list[str] = []

    # 1. bijectivity: pairwise orthonormality of the images
    off = images.conj() @ images.T - np.eye(len(ys))
    max_dev = float(np.max(np.abs(off)))
    bij_ok = max_dev < tol
    if not bij_ok:
        counterexamples.append(f"images not orthonormal (deviation {max_dev:.3g})")

    # 2. codeword correspondence: phi(x.M) = N^x C_0, in the +1 eigenspace of
    #    every generator, for all 2^k messages (only x = 0 when k = 0)
    cw_ok = True
    gens = sf.matrix
    gen = extract_classical(sf).generator if k else None
    n_rows = logical_bit_ops(sf)
    for mi in range(1 << k):
        x = np.array([(mi >> (k - 1 - i)) & 1 for i in range(k)], np.uint8)
        nx = (x @ n_rows & 1).astype(np.uint8)
        rhs = apply_pauli(StateVector(n, c0), nx).amplitudes
        lhs, dev = rhs, 0.0
        if k:
            y = (x @ gen & 1).astype(np.uint8)
            lhs = images[int("".join(map(str, y)), 2)]
            dev = float(np.max(np.abs(lhs - rhs)))
        for g in gens:
            moved = apply_pauli(StateVector(n, lhs), g).amplitudes
            dev = max(dev, float(np.max(np.abs(moved - lhs))))
        max_dev = max(max_dev, dev)
        if dev >= tol:
            cw_ok = False
            counterexamples.append(f"codeword x={''.join(map(str, x))}: deviation {dev:.3g}")

    # 3. error correspondence: phi(y xor e) = Z_e phi(y), exactly and up to
    #    one global phase per error pattern
    err_ok = err_exact_ok = True
    max_dev_exact = max_dev
    for e in ys:
        lhs = images[ys ^ e]
        rhs = _parity_signs((e << np.uint64(n - nr)) & idx)[None, :] * images
        exact_dev = float(np.max(np.abs(lhs - rhs)))
        max_dev_exact = max(max_dev_exact, exact_dev)
        err_exact_ok &= exact_dev < tol
        ref = int(np.argmax(np.abs(rhs[0])))
        alpha = lhs[0][ref] / rhs[0][ref] if abs(rhs[0][ref]) > tol else 1.0
        if abs(abs(alpha) - 1.0) > tol:
            alpha = 1.0
        phase_dev = float(np.max(np.abs(lhs - alpha * rhs)))
        max_dev = max(max_dev, phase_dev)
        if phase_dev >= tol:
            err_ok = False
            counterexamples.append(f"error pattern e={int(e)}: deviation {phase_dev:.3g}")

    return DensePhiReport(
        bijectivity_ok=bij_ok,
        codeword_property_ok=cw_ok,
        error_property_ok=err_ok,
        error_property_exact_ok=err_exact_ok,
        max_deviation=max_dev,
        max_deviation_exact=max_dev_exact,
        images_checked=len(ys),
        pairs_checked=len(ys) ** 2,
        exhaustive=True,
        counterexamples=counterexamples,
    )
