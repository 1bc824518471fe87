"""Unit and property tests for rays, projectors, and the eigensolver."""

import math

import numpy as np
import pytest

from kshg import (
    Hermitian3,
    Ray,
    ValidationError,
    eigensystem,
    overlap,
    projector,
    projector_sum,
    tetrahedron_rays,
)

RT3 = 1.0 / math.sqrt(3.0)


def random_ray(rng: np.random.RandomState) -> Ray:
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return Ray.normalized(vec)


def random_hermitian(rng: np.random.RandomState) -> Hermitian3:
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return Hermitian3(a + a.conj().T)


class TestRay:
    def test_accepts_unit_vectors(self):
        r = Ray((1, 0, 0))
        assert np.allclose(r.amplitudes, [1, 0, 0])

    def test_renormalizes_small_deviation(self):
        r = Ray((1 + 5e-7, 0, 0))
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(ValidationError):
            Ray((2, 0, 0))

    def test_normalized_accepts_any_scale(self):
        r = Ray.normalized((2, 0, 0))
        assert np.allclose(r.amplitudes, [1, 0, 0])

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValidationError):
            Ray.normalized((0, 0, 0))

    @pytest.mark.parametrize("vector, expected", [
        ((1e200, 0, 0), (1.0, 0.0, 0.0)),  # the squared norm overflows
        ((1e-200, 0, 0), (1.0, 0.0, 0.0)),  # it underflows to zero
        ((1e-170,) * 3, (RT3,) * 3),  # each square underflows to zero
        ((1e-160, 0, 0), (1.0, 0.0, 0.0)),  # a subnormal square too coarse for 1e-6
        ((1e308, -1e308j, 1e308), (RT3, -1j * RT3, RT3)),
        ((5e-324, 0, 0), (1.0, 0.0, 0.0)),
    ])
    def test_normalized_accepts_any_finite_nonzero_vector(self, vector, expected):
        # pytest turns warnings into errors: numpy's overflow warning must not escape
        r = Ray.normalized(vector)
        assert np.allclose(r.amplitudes, expected, rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-15

    @pytest.mark.parametrize("vector", [
        (0, 0, 0), (math.nan, 0, 0), (math.inf, 0, 0), (1e308, -math.inf, 0), (0, 0, complex(0, math.nan)),
    ])
    def test_normalized_still_refuses_zero_and_non_finite(self, vector):
        with pytest.raises(ValidationError, match="^cannot normalize a zero or non-finite vector$"):
            Ray.normalized(vector)

    def test_normalized_keeps_the_bits_of_every_vector_accepted_before(self):
        # The rescaling applies only where dividing by the norm is refused.
        from kshg.linalg3 import _norm

        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-150, 1e-100, 1e-30, 3.0, 1e30, 1e100, 1e150):
            for v in (rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))) * scale:
                assert Ray.normalized(v).amplitudes.tobytes() == Ray(v / _norm(v)).amplitudes.tobytes()

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValidationError):
            Ray((1, 0))

    def test_amplitudes_read_only(self):
        r = Ray((1, 0, 0))
        with pytest.raises(ValueError):
            r.amplitudes[0] = 0.0

    def test_norm_is_numpys_bit_for_bit(self):
        # the reference: dividing by `np.linalg.norm`, on contiguous and strided vectors
        rng = np.random.RandomState(29)
        for _ in range(2000):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m *= 10.0 ** rng.randint(-3, 4)
            for vec in (m[0], m[:, 1]):
                once = vec / float(np.linalg.norm(vec))  # `normalized`, then the constructor
                expected = once / float(np.linalg.norm(once))
                assert Ray.normalized(vec).amplitudes.tobytes() == expected.tobytes()


class TestOverlap:
    def test_identical_rays(self):
        r = Ray((1, 0, 0))
        assert overlap(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_vectors(self):
        assert overlap(Ray((1, 0, 0)), Ray((0, 1, 0))) == 0.0

    def test_tetrahedron_pair(self):
        a = Ray((RT3, RT3, RT3))
        b = Ray((RT3, -RT3, -RT3))
        # direct inner-product arithmetic: |1 - 1 - 1| / 3
        assert overlap(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_and_phase_invariance(self):
        rng = np.random.RandomState(11)
        for _ in range(200):
            a, b = random_ray(rng), random_ray(rng)
            base = overlap(a, b)
            assert overlap(b, a) == pytest.approx(base, abs=1e-12)
            pa = Ray(np.exp(1j * rng.uniform(0, 2 * np.pi)) * a.amplitudes)
            pb = Ray(np.exp(1j * rng.uniform(0, 2 * np.pi)) * b.amplitudes)
            assert overlap(pa, pb) == pytest.approx(base, abs=1e-12)


class TestProjector:
    def test_basis_vector(self):
        p = projector(Ray((1, 0, 0)))
        assert np.allclose(p.matrix, np.diag([1, 0, 0]), atol=1e-15)
        p = projector(Ray((0, 0, 1)))
        assert np.allclose(p.matrix, np.diag([0, 0, 1]), atol=1e-15)

    def test_uniform_ray(self):
        p = projector(Ray((RT3, RT3, RT3)))
        assert np.max(np.abs(p.matrix - np.full((3, 3), 1.0 / 3.0))) < 1e-12

    def test_idempotent_trace_one(self):
        rng = np.random.RandomState(5)
        for _ in range(1000):
            p = projector(random_ray(rng)).matrix
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert abs(np.trace(p).real - 1.0) < 1e-12


class TestProjectorSum:
    def test_tetrahedron_identity(self):
        total = projector_sum(tetrahedron_rays())
        assert np.max(np.abs(total.matrix - (4.0 / 3.0) * np.eye(3))) < 1e-12

    def test_single_ray(self):
        total = projector_sum([Ray((1, 0, 0))])
        assert np.allclose(total.matrix, np.diag([1, 0, 0]), atol=1e-15)

    def test_standard_basis_completeness(self):
        basis = [Ray((1, 0, 0)), Ray((0, 1, 0)), Ray((0, 0, 1))]
        assert np.max(np.abs(projector_sum(basis).matrix - np.eye(3))) < 1e-10

    def test_random_complete_bases(self):
        rng = np.random.RandomState(17)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            rays = [Ray(q[:, k]) for k in range(3)]
            assert np.max(np.abs(projector_sum(rays).matrix - np.eye(3))) < 1e-10

    def test_trace_counts_rays(self):
        rng = np.random.RandomState(23)
        rays = [random_ray(rng) for _ in range(7)]
        assert projector_sum(rays).trace() == pytest.approx(7.0, abs=1e-10)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError, match="no vertices"):
            projector_sum([])

    def test_equals_running_sum_bit_for_bit(self):
        # the reference: a zero matrix plus one outer product per ray, in order
        rng = np.random.RandomState(31)
        for _ in range(300):
            count = rng.randint(1, 121)
            vecs = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
            vecs *= rng.choice([0.0, -0.0, 1.0, 1.0], size=(count, 3))  # signed zeros, real entries
            rays = [Ray.normalized(v) for v in vecs if np.any(v)]
            if not rays:
                continue
            expected = np.zeros((3, 3), dtype=np.complex128)
            for r in rays:
                expected += np.outer(r.amplitudes, r.amplitudes.conj())
            assert projector_sum(rays).matrix.tobytes() == expected.tobytes()


class TestHermitian3:
    def test_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            Hermitian3(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            Hermitian3(np.eye(2))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, entry):
        m = np.eye(3, dtype=complex)
        m[0, 1] = m[1, 0] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            Hermitian3(m)


class TestEigensystem:
    def test_diagonal(self):
        eig = eigensystem(Hermitian3(np.diag([3.0, 1.0, 2.0])))
        assert eig.eigenvalues == pytest.approx((1.0, 2.0, 3.0), abs=1e-14)

    def test_scaled_identity(self):
        eig = eigensystem(Hermitian3((4.0 / 3.0) * np.eye(3)))
        assert eig.eigenvalues == pytest.approx((4 / 3, 4 / 3, 4 / 3), abs=1e-14)

    def test_projector_spectrum(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            eig = eigensystem(projector(random_ray(rng)))
            assert eig.eigenvalues == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_residuals_and_trace(self):
        rng = np.random.RandomState(31)
        for _ in range(1000):
            m = random_hermitian(rng)
            eig = eigensystem(m)
            for lam, vec in zip(eig.eigenvalues, eig.eigenvectors):
                residual = np.linalg.norm(m.matrix @ vec.amplitudes - lam * vec.amplitudes)
                assert residual <= 1e-12
            assert sum(eig.eigenvalues) == pytest.approx(m.trace(), abs=1e-10)

    def test_eigenvector_orthogonality(self):
        rng = np.random.RandomState(37)
        for _ in range(200):
            eig = eigensystem(random_hermitian(rng))
            vs = eig.eigenvectors
            for a in range(3):
                for b in range(a + 1, 3):
                    assert overlap(vs[a], vs[b]) < 1e-10

    def test_eigenvalues_sorted(self):
        rng = np.random.RandomState(41)
        for _ in range(200):
            eig = eigensystem(random_hermitian(rng))
            assert eig.eigenvalues[0] <= eig.eigenvalues[1] <= eig.eigenvalues[2]
