"""Small dense complex linear algebra for few-qubit density operators.

Everything here operates on plain ``numpy`` complex arrays of matrices at
most 16x16 (four qubits).  Every function takes either one 2-D matrix or a
stack of them along a leading axis, shape ``(count, dim, dim)``, and works on
the last two axes only, so a stack costs one call per layer instead of one
per matrix.  Each member of a stack gets exactly the result a call on that
member alone returns; a 2-D input returns what it always has (a float where a
scalar is due).  Validation checks every member and names the index of the
first bad one.  The qubit index convention is big-endian: qubit 0 is the
leftmost tensor factor, i.e. basis state ``|q0 q1 ... q_{n-1}>`` has index
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
    """Coerce to a complex 2-D matrix or a 3-D stack of them, rejecting any
    other shape and NaN or infinite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim not in (2, 3) or 0 in arr.shape:
        raise ValueError(f"expected a 2-D matrix or a stack of them, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        _check_members(arr, bad, bad, lambda _: "matrix has NaN or infinite entries")
    return arr


def _check_members(arr: np.ndarray, values, failed, describe) -> None:
    """Raise a ValueError for the first member flagged in ``failed``.

    ``values`` and ``failed`` hold one entry per member of ``arr`` (scalars
    for a 2-D matrix); ``describe(value)`` words what is wrong with a member.
    For a stack the message names the member.
    """
    if arr.ndim == 2:
        if failed:
            raise ValueError(describe(values))
    elif failed.any():
        index = int(np.argmax(failed))
        raise ValueError(f"stack member {index}: {describe(values[index])}")


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    arr = as_matrix(m)
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"matrix is not square: shape {arr.shape}")
    # Largest entrywise deviation of each member from its conjugate transpose.
    defect = np.abs(arr - arr.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _check_members(
        arr,
        defect,
        defect > tol,
        lambda d: f"matrix is not Hermitian: defect {d:.3e} > {tol:.1e}",
    )
    return arr


def require_density(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix, or each member of a stack: Hermitian, unit
    trace, eigenvalues >= -1e-8."""
    arr = require_unit_trace(rho, dim)
    require_nonnegative(arr, np.linalg.eigvalsh(arr))
    return arr


def require_unit_trace(rho, dim: int | None = None) -> np.ndarray:
    """``require_density`` short of its eigenvalue check."""
    arr = require_hermitian(rho)
    if dim is not None and arr.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {arr.shape}")
    tr = arr.trace(axis1=-2, axis2=-1)
    _check_members(
        arr,
        tr,
        abs(tr - 1.0) > TRACE_TOL,
        lambda t: f"density matrix trace {complex(t)} is not 1 within {TRACE_TOL:.1e}",
    )
    return arr


def require_nonnegative(arr: np.ndarray, ascending: np.ndarray) -> None:
    """The eigenvalue check of ``require_density``, on the ascending
    eigenvalues of ``arr`` that the caller computed."""
    lo = ascending[..., 0]
    _check_members(
        arr,
        lo,
        lo < -EIGENVALUE_CLAMP,
        lambda v: f"density matrix has negative eigenvalue {v:.3e}",
    )


def partial_trace(rho, n_qubits: int, keep) -> np.ndarray:
    """Reduced density operator on the qubits in ``keep``, of one matrix or
    of each member of a stack.

    ``rho`` must be ``2**n_qubits`` square.  Kept qubits appear in ascending
    original order; the trace is preserved exactly up to roundoff.  Qubits
    are traced out highest first, each as ``(0.0 + b0) + b1`` of its
    ``|0><0|`` and ``|1><1|`` blocks: ``np.trace``'s order, to the bit.
    """
    arr = as_matrix(rho)
    dim = 2**n_qubits
    if arr.shape[-2:] != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {arr.shape}"
        )
    kept = sorted(set(int(k) for k in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n_qubits:
        raise ValueError(f"keep indices {kept} out of range for {n_qubits} qubits")

    lead = arr.shape[:-2]
    out, m = arr, n_qubits
    for q in reversed([q for q in range(n_qubits) if q not in kept]):
        # Highest qubit first, so the lower qubit numbers stay valid.
        t = out.reshape(lead + (2**q, 2, 2 ** (m - q - 1)) * 2)
        m -= 1
        out = 0.0 + t[..., :, 0, :, :, 0, :]
        out += t[..., :, 1, :, :, 1, :]
        out = out.reshape(lead + (2**m, 2**m))
    return out


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending along the
    last axis (one row per member of a stack)."""
    arr = require_hermitian(h)
    # eigvalsh returns them real and ascending.
    return np.linalg.eigvalsh(arr)[..., ::-1].copy()


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
