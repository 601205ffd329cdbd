"""The classical-to-quantum isomorphism phi(y) = Z^(y,0^r)|C_0>.

``verify_phi`` decides its three claims exactly, for any n, on the
phase-tracked stabilizer tableau of ``|C_0>`` (``pauli.StabilizerTableau``).
The operator of (a|b) is i^(a.b) X^a Z^b, so every operator squares to +I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gf2
from .extraction import extract_classical
from .pauli import StabilizerTableau, signed_row
from .stabilizer import StandardForm, logical_bit_ops, logical_phase_ops

COLLAPSED = (
    "codeword construction collapsed to (near) zero; the generator "
    "phase convention is inconsistent"
)


@dataclass(frozen=True)
class PhiReport:
    """Outcome of the three isomorphism checks, decided exactly.

    The check is GF(2) arithmetic on the tableau of ``|C_0>``, so it covers
    all 2^(n-r) images and 4^(n-r) (word, error) pairs.
    """

    bijectivity_ok: bool
    codeword_property_ok: bool
    error_property_ok: bool
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
    return gf2.rank(gf2.from_ints(visible, n + r)) == n


def verify_phi(sf: StandardForm) -> PhiReport:
    """Check bijectivity, the codeword correspondence and the error
    correspondence of phi(y) = Z^(y,0^r)|C_0> on a phase-tracked tableau."""
    n, k = sf.n, sf.k
    gens = [signed_row(row) for row in sf.matrix]
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
        words = gf2.to_ints(extract_classical(sf).generator)
        flips = gf2.to_ints(logical_bit_ops(sf)[:, n:])
        for j in range(k):
            diff = words[j] ^ flips[j]
            if diff and state.expectation((0, diff, 0)) != 1:
                codeword_failures.append(f"codeword x=e_{j + 1}: phi(x.M) != N^x C_0")
    counterexamples += codeword_failures

    # 3. error correspondence: phi(y xor e) = Z^(e,0) phi(y) for every y and
    #    e, because Z-type Paulis compose without a phase.
    return PhiReport(
        bijectivity_ok=bij_ok,
        codeword_property_ok=not codeword_failures,
        error_property_ok=True,
        counterexamples=counterexamples,
    )
