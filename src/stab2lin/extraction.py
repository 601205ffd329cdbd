"""Extract the classical binary linear code hiding inside a standard form.

For a standardized code with blocks (s, k, r) the extracted generator matrix
is the k x (n - r) block matrix (A1^T | I_k).  The k x k identity guarantees
full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stabilizer import StandardForm


@dataclass(frozen=True)
class ExtractionResult:
    """The extracted generator matrix plus parameter bookkeeping.

    ``theorem_parameters`` is the (n-1, k) form the headline claims use when
    r >= 1; ``parameters`` is what the construction actually yields, (n-r, k).
    No padding is performed.  ``r_zero_warning`` flags r = 0 inputs, where the
    construction still goes through but the sharper claim does not apply.
    """

    generator: np.ndarray
    n_classical: int
    k: int
    r: int
    source_n: int

    @property
    def parameters(self) -> tuple[int, int]:
        return (self.n_classical, self.k)

    @property
    def theorem_parameters(self) -> tuple[int, int]:
        return (self.source_n - 1, self.k)

    @property
    def r_zero_warning(self) -> bool:
        return self.r == 0


def extract_classical(sf: StandardForm) -> ExtractionResult:
    """Build (A1^T | I_k) from a standard form. Requires k >= 1."""
    if sf.k == 0:
        raise ValueError("no encoded qubits, no classical code (k = 0)")
    gen = np.hstack([sf.a1.T, np.eye(sf.k, dtype=np.uint8)])
    return ExtractionResult(
        generator=gen,
        n_classical=sf.n - sf.r,
        k=sf.k,
        r=sf.r,
        source_n=sf.n,
    )
