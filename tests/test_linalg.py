"""Power-iteration eigensolver against the dense numpy oracle."""

import numpy as np
import pytest

from flowmat.linalg import (ConvergenceError, EigenPair,
                            hermitian_top_eigpair, hermitian_top_eigpairs,
                            normalize_phase)


def random_psd(rng, n=8):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


def psd_with_spectrum(rng, values):
    """Hermitian PSD matrix with the given eigenvalues, random eigenbasis."""
    n = len(values)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    a = (q * np.asarray(values, dtype=float)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestOracleAgreement:
    def test_200_random_psd_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            a = random_psd(rng)
            pair = hermitian_top_eigpair(a)
            vals, vecs = np.linalg.eigh(a)
            lam_ref, v_ref = vals[-1], vecs[:, -1]
            assert abs(pair.value - lam_ref) / abs(lam_ref) < 1e-8
            assert abs(np.vdot(pair.vector, v_ref)) > 1.0 - 1e-8

    def test_degenerate_spectrum_eigenvalue(self):
        # identity-like matrix: every vector is an eigenvector; only the
        # eigenvalue is well defined
        a = 3.0 * np.eye(4, dtype=complex)
        pair = hermitian_top_eigpair(a)
        assert abs(pair.value - 3.0) < 1e-9


class TestContracts:
    def test_unit_norm_vector(self):
        pair = hermitian_top_eigpair(random_psd(np.random.default_rng(7)))
        assert abs(np.linalg.norm(pair.vector) - 1.0) < 1e-9

    def test_phase_convention(self):
        pair = hermitian_top_eigpair(random_psd(np.random.default_rng(8)))
        k = int(np.argmax(np.abs(pair.vector)))
        assert abs(pair.vector[k].imag) < 1e-9
        assert pair.vector[k].real >= 0.0

    def test_normalize_phase_is_idempotent(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = normalize_phase(v)
        np.testing.assert_allclose(normalize_phase(w), w)
        np.testing.assert_allclose(np.abs(w), np.abs(v))

    def test_normalize_phase_zero_vector(self):
        np.testing.assert_array_equal(normalize_phase(np.zeros(3, complex)),
                                      np.zeros(3, complex))

    def test_determinism(self):
        a = random_psd(np.random.default_rng(10))
        p1 = hermitian_top_eigpair(a)
        p2 = hermitian_top_eigpair(a)
        assert p1.value == p2.value
        np.testing.assert_array_equal(p1.vector, p2.vector)

    def test_zero_matrix(self):
        pair = hermitian_top_eigpair(np.zeros((4, 4), complex))
        assert pair.value == 0.0


class TestStack:
    def test_each_matrix_gets_its_solo_result(self):
        # a fast (gap 10x), a slow (gap 1%) and a zero matrix: each leaves
        # the active set after its own residual test, so the stacked result
        # equals each solo solve exactly
        rng = np.random.default_rng(12)
        fast = psd_with_spectrum(rng, [10.0, 1.0, 0.5, 0.1])
        slow = psd_with_spectrum(rng, [1.0, 0.99, 0.5, 0.1])
        stack = np.stack([fast, slow, np.zeros((4, 4), complex), fast])
        values, vectors = hermitian_top_eigpairs(stack)
        for a, value, vector in zip(stack, values, vectors):
            solo = hermitian_top_eigpair(a)
            assert value == solo.value
            np.testing.assert_array_equal(vector, solo.vector)
        assert values[2] == 0.0
        np.testing.assert_allclose(values[:2], [10.0, 1.0], rtol=1e-8)

    def test_matches_oracle_on_a_stack(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_psd(rng) for _ in range(50)])
        values, vectors = hermitian_top_eigpairs(stack)
        vals, vecs = np.linalg.eigh(stack)
        np.testing.assert_allclose(values, vals[:, -1], rtol=1e-8)
        align = np.abs(np.einsum("mi,mi->m", vectors.conj(), vecs[..., -1]))
        assert np.all(align > 1.0 - 1e-8)

    def test_convergence_error_names_failing_matrix(self):
        rng = np.random.default_rng(14)
        fast = psd_with_spectrum(rng, [10.0, 1.0, 0.5, 0.1])
        slow = psd_with_spectrum(rng, [1.0, 0.99, 0.5, 0.1])
        with pytest.raises(ConvergenceError, match="matrix 2") as exc:
            hermitian_top_eigpairs(np.stack([fast, fast, slow, fast]),
                                   max_iter=100)
        assert exc.value.index == 2
        assert exc.value.iterate.shape == (4,)

    def test_rejects_non_hermitian_member(self):
        stack = np.stack([np.eye(2, dtype=complex),
                          np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)])
        with pytest.raises(ValueError, match="matrix 1"):
            hermitian_top_eigpairs(stack)

    def test_normalize_phase_rows(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        v[3] = 0.0
        rows = normalize_phase(v)
        for row, solo in zip(rows, v):
            np.testing.assert_array_equal(row, normalize_phase(solo))


class TestValidation:
    def test_rejects_non_hermitian(self):
        a = np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_top_eigpair(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_top_eigpair(np.zeros((2, 3), complex))

    def test_eigenpair_rejects_negative_value(self):
        with pytest.raises(ValueError):
            EigenPair(value=-1.0, vector=np.array([1.0 + 0j]))

    def test_eigenpair_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            EigenPair(value=1.0, vector=np.array([2.0 + 0j]))

    def test_convergence_error_carries_iterate(self):
        a = random_psd(np.random.default_rng(11))
        with pytest.raises(ConvergenceError) as exc:
            hermitian_top_eigpair(a, tol=1e-16, max_iter=2)
        assert exc.value.iterate.shape == (8,)
