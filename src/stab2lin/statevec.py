"""The classical-to-quantum isomorphism phi(y) = Z^(y,0^r)|C_0>.

``verify_phi`` decides its three claims exactly, for any n.  Bijectivity and
the error correspondence hold for every standard form, by the proofs in its
docstring; the codeword correspondence holds exactly when the generators
commute, which one symplectic Gram matrix decides.  The operator of (a|b) is
i^(a.b) X^a Z^b, so every operator squares to +I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import symplectic_product_rows
from .stabilizer import StandardForm


@dataclass(frozen=True)
class PhiReport:
    """Outcome of the three isomorphism checks, decided exactly.

    Bijectivity and the error correspondence are proved for every standard
    form (``verify_phi``), so they are always True; the codeword
    correspondence, for all 2^k messages, holds exactly when the generators
    commute.
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

    The codeword correspondence, phi(x.M) = N^x|C_0> in the +1 eigenspace
    of every G_i for all 2^k messages x, holds exactly when the generators
    commute.  Row j of M, padded with r zeros, is the Z part of N_j by
    construction (:func:`extraction.extract_classical` reads M off the N_j),
    and:

    - Every L_j commutes with every G_i for any block values.  Against
      G_1..G_s the terms B2^T + C2^T B3^T cancel D; against G_(s+1)..G_m
      the two C2 terms cancel.  The N_j commute with every G_i too: the two
      A1 terms cancel against G_1..G_s.
    - When the generators, and so the P's, commute, the group of C_0 is
      <P's> times the Z-type elements of |0^n>'s group that commute with
      every P.  So each G_i is in it with sign +1, and N^x|C_0>, with N^x
      commuting with each G_i, is a +1 eigenstate of each too.  N^x is
      Z-type, so N^x|C_0> = Z^(x.M,0^r)|C_0> = phi(x.M).
    - Suppose some pair G_a, G_b anticommutes.  C_0 has norm 1 by the
      bijectivity proof, which holds for any block values.  So C_0 cannot
      be a +1 eigenstate of both: G_a G_b C_0 = C_0 = -G_b G_a C_0.  That
      breaks the claim at x = 0, which is made for every k, k = 0 included.
    """
    pairs = np.argwhere(np.triu(symplectic_product_rows(sf.matrix), 1))
    counterexamples = [
        f"G_{i + 1}, G_{j + 1} anticommute: C_0 is not a +1 eigenstate of both"
        for i, j in pairs
    ]
    return PhiReport(
        bijectivity_ok=True,
        codeword_property_ok=not counterexamples,
        error_property_ok=True,
        counterexamples=counterexamples,
    )
