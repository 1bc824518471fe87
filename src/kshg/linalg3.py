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
        """Build a ray from any nonzero vector, normalizing it first."""
        arr = _as_complex3(amplitudes)
        norm = _norm(arr)
        if norm <= 0.0 or not math.isfinite(norm):
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return cls(arr / norm)

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


def projector_sum(rays: Iterable[Ray]) -> Hermitian3:
    """Entrywise sum of the rank-1 projectors of the given rays.

    One broadcast product makes every outer product, and the reduction adds
    them to a zero matrix in the order given, as a running `+=` would.
    """
    vectors = [r.amplitudes for r in rays]
    if not vectors:
        raise ValidationError("projector_sum needs at least one ray: no vertices are bound to rays")
    v = np.array(vectors)
    return Hermitian3(np.add.reduce(v[:, :, None] * v.conj()[:, None, :], axis=0, initial=0.0))


def eigensystem(m: Hermitian3) -> EigenDecomposition:
    """Diagonalize a 3x3 Hermitian matrix with LAPACK's Hermitian solver.

    The solver sees the exact Hermitian part (m + m^H)/2, so the 1e-12
    asymmetry the matrix may carry cannot skew the spectrum.
    """
    a = m.matrix
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    eigenvalues = tuple(float(x) for x in values)
    eigenvectors = tuple(Ray(vectors[:, k]) for k in range(3))
    return EigenDecomposition(eigenvalues, eigenvectors)  # type: ignore[arg-type]
