"""Construction and validation of n-qubit pure states and density matrices.

Includes the five-amplitude canonical form of a three-qubit pure state
(the Acin normal form) and seeded Haar-random state sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernel

NORM_TOL = 1e-10


def _beyond_float_range(field: str) -> ValueError:
    return ValueError(f"{field} must be finite, got an integer beyond float range")


def _to_float(value, field: str) -> float:
    """``float(value)``; an integer too large for a float is a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise _beyond_float_range(field) from None


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized n-qubit amplitude vector, qubit 0 leftmost."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = kernel.as_integer(self.n_qubits, "n_qubits", least=1)
        try:
            amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        except OverflowError:
            raise _beyond_float_range("amplitudes") from None
        # The bit length rules out a huge n before 2**n is formed.
        if amps.size.bit_length() != n + 1 or amps.size != 2**n:
            raise ValueError(f"n_qubits = {n} needs 2**{n} amplitudes, got {amps.size}")
        # An amplitude past sqrt(float max) squares to inf, which fails below.
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum(np.abs(amps) ** 2))
        # Written so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            if not np.isfinite(amps).all():
                raise ValueError(f"state has NaN or infinite amplitudes: {amps}")
            raise ValueError(f"state not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def to_json(self) -> str:
        pairs = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps({"n_qubits": self.n_qubits, "amplitudes": pairs})

    @classmethod
    def from_json(cls, text: str) -> "PureState":
        data = json.loads(text)
        try:
            n = data["n_qubits"]
            amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed state JSON: {exc}") from exc
        return cls(n, amps)


@dataclass(frozen=True)
class AcinParams:
    """Amplitudes and phase of the canonical three-qubit pure state.

    The five amplitudes must be nonnegative with squares summing to one, and
    the phase must lie in [0, pi].
    """

    lambdas: tuple[float, float, float, float, float]
    phi: float = 0.0

    def __post_init__(self):
        lams = tuple(_to_float(v, "amplitudes") for v in self.lambdas)
        if len(lams) != 5:
            raise ValueError(f"need exactly 5 amplitudes, got {len(lams)}")
        if not all(math.isfinite(v) for v in lams):
            raise ValueError(f"amplitudes must be finite: {lams}")
        if any(v < 0 for v in lams):
            raise ValueError(f"amplitudes must be nonnegative: {lams}")
        total = sum(v * v for v in lams)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"amplitude squares sum to {total!r}, expected 1")
        phi = _to_float(self.phi, "phase")
        if not 0.0 <= phi <= math.pi:
            raise ValueError(f"phase {phi} outside [0, pi]")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "phi", phi)

    def to_json(self) -> str:
        return json.dumps({"lambda": list(self.lambdas), "phi": self.phi})

    @classmethod
    def from_json(cls, text: str) -> "AcinParams":
        data = json.loads(text)
        try:
            lams = tuple(float(v) for v in data["lambda"])
            phi = float(data.get("phi", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed canonical-form JSON: {exc}") from exc
        return cls(lams, phi)


def acin_state(params: AcinParams) -> PureState:
    """Three-qubit pure state in the canonical five-term form.

    Nonzero amplitudes sit at basis indices 0 (|000>), 4 (|100>), 5 (|101>),
    6 (|110>) and 7 (|111>); the phase multiplies the |100> term.
    """
    l0, l1, l2, l3, l4 = params.lambdas
    amps = np.zeros(8, dtype=complex)
    amps[0] = l0
    amps[4] = l1 * np.exp(1j * params.phi)
    amps[5] = l2
    amps[6] = l3
    amps[7] = l4
    return PureState(3, amps)


def density(state: PureState) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a pure state."""
    v = state.amplitudes
    return np.outer(v, v.conj())


def _haar_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` Haar-distributed unit vectors, one per row.

    Normalized i.i.d. complex Gaussians from a Box-Muller transform over the
    generator's uniform stream, kept explicit (rather than
    ``rng.standard_normal``) so the sample stream is pinned to the documented
    PCG64 uniform doubles and the textbook transform, making seeds portable.
    Vector ``i`` takes uniforms ``2 dim i`` onwards, ``dim`` for the radii and
    then ``dim`` for the angles, so one draw of shape ``(count, 2, dim)`` gives
    the same vectors as ``count`` draws of one vector each.

    The radius times the cosine and the sine of the angle go straight into
    the real and the imaginary parts of the result, and each row is scaled
    by the reciprocal of its norm: numpy divides a complex number by a real
    one as exactly that product, so the bits are those of
    ``(radius * cos + 1j * radius * sin) / norm``.
    """
    _check_draw(count, dim)
    u = rng.random((count, 2, dim))
    radius = np.subtract(1.0, u[:, 0])  # (0, 1]: log stays finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[:, 1]
    angle *= 2.0 * np.pi
    vec = np.empty((count, dim), dtype=complex)
    np.multiply(radius, np.cos(angle, out=vec.real), out=vec.real)
    np.multiply(radius, np.sin(angle, out=vec.imag), out=vec.imag)
    # The row norms as np.linalg.norm forms them for one vector, so every
    # row is normalized exactly as a single draw would be.
    norm = np.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag))
    vec *= (1.0 / norm)[:, None]
    return vec


def _check_draw(rows: int, dim: int):
    """Refuse ``rows`` vectors of ``dim`` amplitudes whose uniforms would
    pass the largest array size; numpy's own error there is a ValueError."""
    if int(rows) * 2 * dim * 8 > np.iinfo(np.intp).max:
        raise MemoryError("its float64 draw would exceed the largest array size")


def haar_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unit vector: normalized i.i.d. complex Gaussians."""
    return _haar_vectors(rng, 1, dim)[0]


def random_pure_state(n_qubits: int, seed: int) -> PureState:
    """Seeded Haar-random pure state on 1..4 qubits (PCG64 stream), the one
    row of ``random_pure_states(n_qubits, 1, seed)``."""
    return PureState(n_qubits, random_pure_states(n_qubits, 1, seed)[0])


def random_pure_states(n_qubits: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows ``start .. start + count`` of one seeded stream of states: a
    read-only ``(count, 2**n_qubits)`` array, one normalized amplitude
    vector per row.

    Row ``i`` of the stream depends only on the seed and ``i``, so any
    batch equals the same rows of a longer one: enlarging a sweep only
    appends states, and a long stream can be drawn a block at a time.  The
    generator skips the ``2 * 2**n_qubits`` uniforms of each earlier row
    (``bit_generator.advance``) without drawing them.  A ``start`` whose
    uniforms would pass the largest array size is refused, as such a
    ``count`` is.
    """
    n_qubits = kernel.as_integer(n_qubits, "n_qubits")
    if not 1 <= n_qubits <= 4:
        raise ValueError(f"n_qubits must be in 1..4, got {n_qubits}")
    start = kernel.as_integer(start, "start", least=0)
    count = kernel.as_integer(count, "count", least=0)
    # numpy takes True as seed 1 and refuses 3.0 with a TypeError.
    seed = kernel.as_integer(seed, "seed", least=0)
    dim = 2**n_qubits
    _check_draw(start, dim)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * 2 * dim)
    vectors = _haar_vectors(rng, count, dim)
    vectors.setflags(write=False)
    return vectors
