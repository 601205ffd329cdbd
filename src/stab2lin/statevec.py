"""The classical-to-quantum isomorphism phi(y) = Z^(y,0^r)|C_0>.

``verify_phi`` decides its three claims exactly, for any n.  Bijectivity and
the error correspondence hold for every standard form, by the proofs in its
docstring; the codeword correspondence depends on the blocks and is decided
on the phase-tracked stabilizer tableau of ``|C_0>``
(``pauli.StabilizerTableau``).  The operator of (a|b) is i^(a.b) X^a Z^b, so
every operator squares to +I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gf2
from .extraction import extract_classical
from .pauli import StabilizerTableau, signed_row
from .stabilizer import StandardForm, logical_bit_ops, logical_phase_ops


@dataclass(frozen=True)
class PhiReport:
    """Outcome of the three isomorphism checks, decided exactly.

    Bijectivity and the error correspondence are proved for every standard
    form (``verify_phi``), so they are always True; the codeword
    correspondence is GF(2) arithmetic on the tableau of ``|C_0>``, which
    covers all 2^k messages.
    """

    bijectivity_ok: bool
    codeword_property_ok: bool
    error_property_ok: bool
    counterexamples: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.bijectivity_ok and self.codeword_property_ok and self.error_property_ok


def verify_phi(sf: StandardForm) -> PhiReport:
    """Check bijectivity, the codeword correspondence and the error
    correspondence of phi(y) = Z^(y,0^r)|C_0>.

    |C_0> is (I + G_1) ... (I + G_s)(I + L_1) ... (I + L_k)|0^n>, normalised.
    On the first n - r qubits the X parts of P_1..P_(s+k) = G_1..G_s,
    L_1..L_k form T = [[I_s, A1], [0, I_k]], invertible for any block values.

    Bijectivity holds for every standard form.  The group of |0^n> is
    Z-type, and projecting P onto a state with group S leaves the group
    generated by P and the elements of S that commute with P.  So before
    P_i, the group is generated by P_1..P_(i-1) and Z-type elements, and
    its X parts span only theirs.  The rows of T are independent, so no
    +-P_i lies in it: P_i anticommutes with one of its elements, every
    projection has expectation 0, none is redundant or annihilates the
    state, and |C_0> has norm 1.  For u != 0, T u != 0, so Z^(u,0^r)
    anticommutes with some P_i and <C_0|Z^(u,0^r)|C_0> = 0: the 2^(n-r)
    images are orthonormal.

    The error correspondence phi(y xor e) = Z^(e,0^r) phi(y) holds for every
    y and e, because Z-type Paulis compose without a phase.

    The codeword correspondence, phi(x.M) = N^x|C_0> in the +1 eigenspace of
    every G_i, is decided on the tableau.
    """
    n, k = sf.n, sf.k
    gens = [signed_row(row) for row in sf.matrix]
    state = StabilizerTableau(n)
    for op in gens[: sf.s] + [signed_row(row) for row in logical_phase_ops(sf)]:
        state.project(op)

    # phi(x.M) = N^x|C_0> and G_i phi(x.M) = phi(x.M) for all i.  At x = 0
    # the second says that C_0 is a +1 eigenstate of every G_i.  Both are
    # linear in x, so x = 0 and the k basis messages decide every message.
    # The first says Z^(x.M,0) N^x stabilizes C_0.  Given that and +G_i in
    # the group, the second holds: G_i commutes with that Z-type element and
    # with N^x, so x.M has even overlap with G_i's X part.
    counterexamples = [
        f"C_0 is not a +1 eigenstate of G_{i + 1}"
        for i, g in enumerate(gens)
        if state.expectation(g) != 1
    ]
    if k:
        words = gf2.to_ints(extract_classical(sf).generator)
        flips = gf2.to_ints(logical_bit_ops(sf)[:, n:])
        for j in range(k):
            diff = words[j] ^ flips[j]
            if diff and state.expectation((0, diff, 0)) != 1:
                counterexamples.append(f"codeword x=e_{j + 1}: phi(x.M) != N^x C_0")

    return PhiReport(
        bijectivity_ok=True,
        codeword_property_ok=not counterexamples,
        error_property_ok=True,
        counterexamples=counterexamples,
    )
