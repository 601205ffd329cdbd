"""Dense statevector check of the phi isomorphism: the reference that the
symbolic ``statevec.verify_phi`` is tested against.  It costs
O(4^(n-r) 2^n), so it is meant for n <= 8."""

from __future__ import annotations

import numpy as np

from stab2lin.extraction import extract_classical
from stab2lin.pauli import PauliVector
from stab2lin.stabilizer import StandardForm, logical_bit_ops
from stab2lin.statevec import PhiReport, StateVector, _parity_signs, apply_pauli, build_C0

TOL = 1e-9


def dense_verify_phi(sf: StandardForm, tol: float = TOL) -> PhiReport:
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
    #    every generator, for all 2^k messages
    cw_ok = True
    gens = sf.reassemble()
    g_rows = [PauliVector(row[:n], row[n:]) for row in gens]
    if k:
        gen = extract_classical(sf).generator
        n_rows = logical_bit_ops(sf)
        for mi in range(1 << k):
            x = np.array([(mi >> (k - 1 - i)) & 1 for i in range(k)], np.uint8)
            y = (x @ gen & 1).astype(np.uint8)
            lhs = images[int("".join(map(str, y)), 2)]
            nx = (x @ n_rows & 1).astype(np.uint8)
            rhs = apply_pauli(StateVector(n, c0), PauliVector(nx[:n], nx[n:])).amplitudes
            dev = float(np.max(np.abs(lhs - rhs)))
            for g in g_rows:
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

    return PhiReport(
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
