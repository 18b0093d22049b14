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

import numbers

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
        _check_members(bad, bad, lambda _: "matrix has NaN or infinite entries")
    return arr


def _check_members(values, failed, describe) -> None:
    """Raise a ValueError for the first member flagged in ``failed``.

    ``values`` and ``failed`` hold one entry per member of a stack, or one
    scalar each for a single matrix; ``describe(value)`` words what is wrong
    with a member.  For a stack the message names the member.
    """
    if np.ndim(failed) == 0:
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
        defect,
        defect > tol,
        lambda d: f"matrix is not Hermitian: defect {d:.3e} > {tol:.1e}",
    )
    return arr


def require_density(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix, or each member of a stack: Hermitian, unit
    trace, eigenvalues >= -1e-8."""
    arr = require_unit_trace(rho, dim)
    clamp_spectrum(np.linalg.eigvalsh(arr))  # raises on a negative eigenvalue
    return arr


def require_unit_trace(rho, dim: int | None = None) -> np.ndarray:
    """``require_density`` short of its eigenvalue check."""
    arr = require_hermitian(rho)
    if dim is not None and arr.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {arr.shape}")
    tr = arr.trace(axis1=-2, axis2=-1)
    _check_members(
        tr,
        abs(tr - 1.0) > TRACE_TOL,
        lambda t: f"density matrix trace {complex(t)} is not 1 within {TRACE_TOL:.1e}",
    )
    return arr


def clamp_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """The one clamp rule for the eigenvalues of a state (a row per member of
    a stack, sorted either way): below ``-EIGENVALUE_CLAMP`` raises, and below
    ``ROUNDOFF_ZERO`` becomes 0.0, so powers and roots of zeros stay exact."""
    # The smaller end; a min over a short last axis costs far more.
    lo = np.minimum(spectrum[..., 0], spectrum[..., -1])
    _check_members(
        lo,
        lo < -EIGENVALUE_CLAMP,
        lambda v: f"density matrix has negative eigenvalue {v:.3e}",
    )
    return np.where(spectrum < ROUNDOFF_ZERO, 0.0, spectrum)


def as_integer(value, name: str) -> int:
    """``value`` as an int, for every qubit count and index: an integer or an
    integral float."""
    if isinstance(value, float) and value.is_integer():  # False for NaN and inf
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def partial_trace(rho, n_qubits: int, keep) -> np.ndarray:
    """Reduced density operator on the qubits in ``keep``, of one matrix or
    of each member of a stack.

    ``rho`` must be ``2**n_qubits`` square.  Kept qubits appear in ascending
    original order; the trace is preserved exactly up to roundoff.  Qubits
    are traced out highest first, each as ``(0.0 + b0) + b1`` of its
    ``|0><0|`` and ``|1><1|`` blocks: ``np.trace``'s order, to the bit.
    """
    arr = as_matrix(rho)
    n_qubits = as_integer(n_qubits, "n_qubits")
    dim = 2**n_qubits
    if arr.shape[-2:] != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {arr.shape}"
        )
    kept = sorted({as_integer(k, "qubit index") for k in keep})
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
