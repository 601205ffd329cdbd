"""stab2lin: classical binary linear codes extracted from quantum stabilizer
codes, with brute-force verification of the error-correcting claims."""

__version__ = "0.1.0"
