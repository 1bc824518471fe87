"""Fixed-shape complex linear algebra for qutrits.

Rays (unit complex 3-vectors), 3x3 Hermitian matrices, projector sums, and
their eigensystems through LAPACK's Hermitian solver. Everything is immutable
after construction and every function is pure, so concurrent use needs no
locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

NORM_TOLERANCE = 1e-6
HERMITICITY_TOLERANCE = 1e-12


def _as_complex3(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (3,):
        raise ValidationError(f"expected 3 complex amplitudes, got shape {arr.shape}")
    return arr


def _norm(arr: np.ndarray) -> float:
    """`np.linalg.norm` of a complex vector, by numpy's own sum for complex
    input, without the wrapper that costs more than the sum itself."""
    re, im = arr.real, arr.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class Ray:
    """A normalized complex 3-vector: a qutrit pure state up to global phase.

    The constructor tolerates text-format rounding: vectors whose norm is
    within 1e-6 of 1 are renormalized, anything farther off is rejected so
    bad data never slips through silently. Use :meth:`normalized` to build a
    ray from an arbitrary nonzero vector.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        arr = _as_complex3(amplitudes)
        norm = _norm(arr)
        if not math.isfinite(norm) or abs(norm - 1.0) >= NORM_TOLERANCE:
            raise ValidationError(
                f"ray norm {norm:.9g} deviates from 1 by {abs(norm - 1.0):.3g} "
                f"(limit {NORM_TOLERANCE}); normalize explicitly if intended"
            )
        arr = arr / norm
        arr.setflags(write=False)
        self.amplitudes = arr

    @classmethod
    def normalized(cls, amplitudes) -> "Ray":
        """Build a ray from any finite nonzero vector, normalizing it first.

        A vector whose squared norm overflows, or underflows into the
        subnormal range or to zero, is first scaled by a power of two, which
        is exact, so that its largest part lies in [0.5, 1); numpy's
        overflow and underflow warnings are off meanwhile. Every other
        vector is divided by its norm as it stands.
        """
        arr = _as_complex3(amplitudes)
        with np.errstate(over="ignore", under="ignore"):
            norm = _norm(arr)
            if 0.0 < norm < math.inf:
                try:
                    return cls(arr / norm)
                except ValidationError:
                    pass  # the squared norm lost its precision below the normal range
            parts = np.ascontiguousarray(arr).view(np.float64)
            if not (np.isfinite(parts).all() and parts.any()):
                raise ValidationError("cannot normalize a zero or non-finite vector")
            scaled = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(np.complex128)
            return cls(scaled / _norm(scaled))

    def __repr__(self) -> str:
        a, b, c = self.amplitudes
        return f"Ray(({a:.6g}, {b:.6g}, {c:.6g}))"


class Hermitian3:
    """A finite 3x3 complex matrix equal to its conjugate transpose within 1e-12."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (3, 3):
            raise ValidationError(f"expected a 3x3 matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("matrix has a non-finite entry")
        deviation = float(np.max(np.abs(arr - arr.conj().T)))
        if deviation > HERMITICITY_TOLERANCE:
            raise ValidationError(
                f"matrix deviates from Hermitian symmetry by {deviation:.3e} "
                f"(limit {HERMITICITY_TOLERANCE})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self.matrix = arr

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self) -> str:
        return f"Hermitian3(trace={self.trace():.6g})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending with matching eigenvector rays."""

    eigenvalues: tuple[float, float, float]
    eigenvectors: tuple[Ray, Ray, Ray]


def overlap(a: Ray, b: Ray) -> float:
    """Magnitude of the Hermitian inner product, in [0, 1].

    Symmetric in its arguments and invariant under independent global phases
    on either ray.
    """
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def projector(r: Ray) -> Hermitian3:
    """Rank-1 projector onto the ray: idempotent, trace 1."""
    v = r.amplitudes
    return Hermitian3(np.outer(v, v.conj()))


def _projector_sum(vectors: list[np.ndarray]) -> np.ndarray:
    """Entrywise sum of the outer products v v^H of one or more unit vectors.

    One broadcast product makes every outer product, and the reduction adds
    them to a zero matrix in the order given, as a running `+=` would. The
    sum of finite unit vectors' projectors is Hermitian to within a few ulps,
    far inside `HERMITICITY_TOLERANCE`, so internal callers use the array
    as it is.
    """
    v = np.array(vectors)
    return np.add.reduce(v[:, :, None] * v.conj()[:, None, :], axis=0, initial=0.0)


def projector_sum(rays: Iterable[Ray]) -> Hermitian3:
    """Entrywise sum of the rank-1 projectors of the given rays."""
    vectors = [r.amplitudes for r in rays]
    if not vectors:
        raise ValidationError("projector_sum needs at least one ray: no vertices are bound to rays")
    return Hermitian3(_projector_sum(vectors))


def _eigh(a: np.ndarray):
    """`np.linalg.eigh` of the exact Hermitian part (a + a^H)/2 of a 3x3 matrix."""
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def eigensystem(m: Hermitian3) -> EigenDecomposition:
    """Diagonalize a 3x3 Hermitian matrix with LAPACK's Hermitian solver.

    The solver sees the exact Hermitian part (m + m^H)/2, so the 1e-12
    asymmetry the matrix may carry cannot skew the spectrum.
    """
    values, vectors = _eigh(m.matrix)
    eigenvalues = tuple(float(x) for x in values)
    eigenvectors = tuple(Ray(vectors[:, k]) for k in range(3))
    return EigenDecomposition(eigenvalues, eigenvectors)  # type: ignore[arg-type]

