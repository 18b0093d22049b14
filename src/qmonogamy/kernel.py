"""Small dense complex linear algebra for few-qubit density operators.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are at
most 16x16 (four qubits), so robustness and clear validation win over speed.
The qubit index convention is big-endian: qubit 0 is the leftmost tensor
factor, i.e. basis state ``|q0 q1 ... q_{n-1}>`` has index
``sum(q_k * 2**(n-1-k))``.
"""

from __future__ import annotations

import numpy as np

# Tolerance separating Hermitian-roundoff from genuinely bad input.
HERMITICITY_TOL = 1e-10
# Eigenvalues above this (negative) threshold are treated as roundoff zeros;
# anything below flags an invalid state.
EIGENVALUE_CLAMP = 1e-8
TRACE_TOL = 1e-8
# Magnitudes below this are double-precision roundoff of an exact zero;
# zeroing them keeps fractional powers (sqrt in particular) clean.
ROUNDOFF_ZERO = 1e-14

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
# The spin-flip matrix sigma_y (x) sigma_y; its entries are real.
YY = np.kron(SIGMA_Y, SIGMA_Y).real


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting anything else."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix is not square: shape {arr.shape}")
    return float(np.max(np.abs(arr - arr.conj().T)))


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    arr = as_matrix(m)
    defect = hermiticity_defect(arr)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return arr


def require_density(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues >= -1e-8."""
    arr = require_hermitian(rho)
    if dim is not None and arr.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {arr.shape}")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL:.1e}")
    lo = float(np.min(np.linalg.eigvalsh(arr)))
    if lo < -EIGENVALUE_CLAMP:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return arr


def partial_trace(rho, n_qubits: int, keep) -> np.ndarray:
    """Reduced density operator on the qubits in ``keep``.

    ``rho`` must be ``2**n_qubits`` square.  Kept qubits appear in ascending
    original order; the trace is preserved exactly up to roundoff.
    """
    arr = as_matrix(rho)
    dim = 2**n_qubits
    if arr.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {arr.shape}"
        )
    kept = sorted(set(int(k) for k in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n_qubits:
        raise ValueError(f"keep indices {kept} out of range for {n_qubits} qubits")

    tens = arr.reshape([2] * (2 * n_qubits))
    traced = [q for q in range(n_qubits) if q not in kept]
    # Contract bra/ket axes of each traced qubit, highest axis first so the
    # remaining axis numbers stay valid.
    offset = n_qubits
    for q in reversed(traced):
        tens = np.trace(tens, axis1=q, axis2=q + offset)
        offset -= 1
    k = len(kept)
    return tens.reshape(2**k, 2**k)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    arr = require_hermitian(h)
    vals = np.linalg.eigvalsh(arr)
    return np.sort(vals.real)[::-1].copy()


def trace_power(rho, p: float) -> float:
    """Trace of ``rho**p`` for a PSD Hermitian matrix, via its spectrum.

    Eigenvalues in ``[-1e-8, 0)`` are clamped to zero (anything more negative
    means the input is not a valid state and raises); roundoff-scale positive
    values are zeroed too, so fractional powers of exact zeros stay exact.
    """
    if p <= 0:
        raise ValueError(f"power must be positive, got {p}")
    vals = hermitian_eigenvalues(rho)
    if vals[-1] < -EIGENVALUE_CLAMP:
        raise ValueError(f"negative eigenvalue {vals[-1]:.3e}: not a valid state")
    clamped = np.where(vals < ROUNDOFF_ZERO, 0.0, vals)
    return float(np.sum(clamped**p))
