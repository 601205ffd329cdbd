"""stab2lin: classical binary linear codes extracted from quantum stabilizer
codes, with brute-force verification of the error-correcting claims."""

from . import bounds, extraction, formats, gf2, lincode, pauli, stabilizer, statevec

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "extraction",
    "formats",
    "gf2",
    "lincode",
    "pauli",
    "stabilizer",
    "statevec",
    "__version__",
]
