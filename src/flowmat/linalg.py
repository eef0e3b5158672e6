"""Dominant eigenpairs of complex Hermitian PSD matrices via power iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-8
CONVERGENCE_TOL = 1e-10
MAX_ITERATIONS = 10_000


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate of the
    matrix that failed and that matrix's index in the stack."""

    def __init__(self, message: str, iterate: np.ndarray, index: int = 0):
        super().__init__(message)
        self.iterate = iterate
        self.index = index


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray  # complex, unit norm

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("eigenvalue must be nonnegative")
        if abs(np.linalg.norm(self.vector) - 1.0) > 1e-9:
            raise ValueError("eigenvector must be unit norm")


def normalize_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each row (last axis) of a complex array so its largest-magnitude
    entry is real >= 0; an all-zero row stays zero.

    Fixes the intrinsic phase ambiguity for reproducible serialization; all
    quality metrics remain phase-invariant regardless.
    """
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None],
                               axis=-1)
    mag = np.hypot(pivot.real, pivot.imag)  # abs() of each pivot, bit for bit
    return v * (np.conj(pivot) / np.where(mag == 0.0, 1.0, mag))


def start_vector(n: int) -> np.ndarray:
    """The fixed unit-norm start vector of every power iteration."""
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v0 / np.linalg.norm(v0)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(x * y) of each row pair of two [M, n] stacks, as M dot products
    (the arithmetic of ``np.dot`` on one row)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex [M, n] stack, summed like
    ``np.linalg.norm`` of one row."""
    return np.sqrt(_row_dot(x.real, x.real) + _row_dot(x.imag, x.imag))


def hermitian_top_eigpairs(a: np.ndarray, tol: float = CONVERGENCE_TOL,
                           max_iter: int = MAX_ITERATIONS):
    """Dominant eigenpairs of a stack ``a`` [M, n, n] of Hermitian PSD
    matrices: (values [M], unit-norm vectors [M, n]).

    The caller is expected to form Gram-type matrices (e.g. H^H H), so each
    is validated as Hermitian within ``HERMITIAN_TOL``. Every matrix starts
    from one fixed vector and leaves the active set as soon as its own
    eigen-residual ||A v - lam v|| drops below tol * max(lam, 1e-300), so
    each gets the result of a solve on its own. Raises ConvergenceError
    for the first matrix still active after ``max_iter`` rounds.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("input must be a stack of square matrices")
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), 1.0)
    skewed = (np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2))
              > HERMITIAN_TOL * scale)
    if skewed.any():
        raise ValueError(f"matrix {np.flatnonzero(skewed)[0]} is not "
                         "Hermitian within tolerance")

    m, n = a.shape[:2]
    values = np.zeros(m)
    vectors = np.empty((m, n), dtype=np.complex128)
    active, v = np.arange(m), np.tile(start_vector(n), (m, 1))
    for _ in range(max_iter):
        if not active.size:
            break
        av = (a[active] @ v[:, :, None])[:, :, 0]
        lam = _row_dot(v.conj(), av).real
        residual = _row_norm(av - lam[:, None] * v)
        norm = _row_norm(av)
        done = residual <= tol * np.maximum(lam, 1e-300)
        # a zero A v puts v in the null space; for PSD input the top
        # eigenvalue of the restriction is 0 only if A is 0 on this subspace
        leave = done | (norm == 0.0)
        values[active[done]] = np.maximum(lam[done], 0.0)
        vectors[active[leave]] = v[leave]
        active, v = active[~leave], av[~leave] / norm[~leave, None]
    if active.size:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations "
            f"(matrix {active[0]})", v[0], int(active[0]))
    return values, normalize_phase(vectors)


def hermitian_top_eigpair(a: np.ndarray, tol: float = CONVERGENCE_TOL,
                          max_iter: int = MAX_ITERATIONS) -> EigenPair:
    """Dominant eigenpair of one Hermitian PSD matrix: the one-matrix stack
    of ``hermitian_top_eigpairs``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    values, vectors = hermitian_top_eigpairs(a[None], tol, max_iter)
    return EigenPair(value=float(values[0]), vector=vectors[0])
