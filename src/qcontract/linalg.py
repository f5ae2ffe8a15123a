"""Core linear-algebra layer: validated operator types, norms and vectorization.

Conventions
-----------
* Vectorization is column-stacking: ``vec(X)[i + d*j] = X[i, j]``, i.e.
  ``numpy`` order ``'F'``.  Under this convention ``vec(A X B) =
  (B.T kron A) vec(X)``, so a superoperator acting as ``X -> A X B`` has
  matrix ``np.kron(B.T, A)`` and a Kraus set ``{K}`` gives
  ``sum_K kron(conj(K), K)``.  This is the one statement of the
  convention.  Beyond this module only the channel constructors (Kraus
  sums, Choi matrix) use it; other code acts through
  :meth:`Superoperator.apply`, which takes one d x d matrix or a
  (B, d, d) stack, and :meth:`Superoperator.in_basis`.
* Eigenvalues are always reported in ascending order (``numpy.linalg.eigh``).
* Validated states (:class:`DensityMatrix`) and superoperators are
  immutable after construction; their ndarrays are marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotHermitian,
    NotPositive,
    NotSquare,
    TraceZero,
    UnsupportedOrder,
)

__all__ = [
    "DEFAULT_VALIDATION_TOL",
    "HERMITICITY_REJECT_TOL",
    "DensityMatrix",
    "Superoperator",
    "hermitianize",
    "validate_density",
    "schatten_norm",
    "trace_distance",
    "vectorize",
    "devectorize",
    "random_hermitian",
    "random_density",
]

#: tolerance of state validation (PSD slack, rank decisions)
DEFAULT_VALIDATION_TOL = 1e-9
#: inputs whose relative asymmetry exceeds this are rejected as non-Hermitian
HERMITICITY_REJECT_TOL = 1e-6


def _as_matrix(a, *, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce input to a square complex ndarray with d >= 2; with ``stack``,
    a (B, d, d) stack of such matrices is accepted too."""
    if isinstance(a, DensityMatrix):
        return a.entries
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.shape[-1] != arr.shape[-2]:
        raise NotSquare(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise DimensionMismatch(f"{name} must have dimension >= 2, got {arr.shape[-1]}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def hermitianize(a) -> np.ndarray:
    """Return (A + A^dag)/2, for one matrix or each of a (B, d, d) stack."""
    arr = _as_matrix(a, stack=True)
    return 0.5 * (arr + arr.conj().swapaxes(-1, -2))


@dataclass(frozen=True, slots=True, eq=False)
class DensityMatrix:
    """A validated density matrix (Hermitian, PSD, unit trace).

    Use :func:`validate_density` to construct one from raw entries.  The
    spectral decomposition computed during validation is cached on the
    instance so downstream code never re-diagonalizes reference states.
    """

    entries: np.ndarray
    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    full_rank: bool

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def __repr__(self):
        return (
            f"DensityMatrix(dim={self.dim}, full_rank={self.full_rank}, "
            f"min_eig={self.min_eigenvalue:.3e})"
        )


def validate_density(entries) -> DensityMatrix:
    """Validate raw entries as a density matrix.

    Rejects inputs whose relative asymmetry exceeds
    ``HERMITICITY_REJECT_TOL`` with :class:`NotHermitian`, symmetrizes,
    clips eigenvalues at zero (rejecting anything below
    ``-DEFAULT_VALIDATION_TOL`` with :class:`NotPositive`), renormalizes
    the trace to one, and caches the spectral decomposition.  Tiny negative
    eigenvalues from iterated channel application are the intended clients
    of the clipping.
    """
    if isinstance(entries, DensityMatrix):
        return entries
    arr = _as_matrix(entries)
    ents, vals, vecs, asym, min_eig, trace = validate_stack(arr[None])
    if asym[0] > HERMITICITY_REJECT_TOL:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {asym[0]:.3e} "
            f"(> {HERMITICITY_REJECT_TOL:.0e})"
        )
    if min_eig[0] < -DEFAULT_VALIDATION_TOL:
        raise NotPositive(
            f"minimum eigenvalue {min_eig[0]:.3e} below -{DEFAULT_VALIDATION_TOL:.0e}"
        )
    if trace[0] <= DEFAULT_VALIDATION_TOL:
        raise TraceZero(f"trace {trace[0]:.3e} too small to normalize")
    full_rank = bool(stack_full_rank(vals)[0])
    ents, vals, vecs = ents[0], vals[0], vecs[0]
    for a in (ents, vals, vecs):
        a.setflags(write=False)
    return DensityMatrix(ents, arr.shape[0], vals, vecs, full_rank)


def validate_stack(arr: np.ndarray):
    """The arithmetic of :func:`validate_density` on a finite complex
    (B, d, d) stack, without raising.

    Returns ``(entries, eigenvalues, eigenvectors, asymmetry, min_eigenvalue,
    trace)``: the normalized states and their spectral decompositions (the
    eigenvalues of the Hermitian part clipped at zero and divided by their
    sum), the relative asymmetry ||A - A^dag||_F / max(1, ||A||_F), the
    unclipped minimum eigenvalue and the clipped trace.  The states are
    meaningful only where :func:`stack_valid` holds.
    """
    adj = arr.conj().transpose(0, 2, 1)
    diff = arr - adj
    asym = np.sqrt((diff.conj() * diff).real.sum(axis=(1, 2)))
    asym /= np.maximum(1.0, np.sqrt((arr.conj() * arr).real.sum(axis=(1, 2))))
    vals, vecs = np.linalg.eigh(0.5 * (arr + adj))
    min_eig = vals[:, 0]
    vals = np.maximum(vals, 0.0)
    trace = vals.sum(axis=1)
    # the floor only guards the rows that fail the trace check
    vals = vals / np.maximum(trace, DEFAULT_VALIDATION_TOL)[:, None]
    ents = (vecs * vals[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    ents = 0.5 * (ents + ents.conj().transpose(0, 2, 1))
    return ents, vals, vecs, asym, min_eig, trace


def stack_valid(asym, min_eig, trace) -> np.ndarray:
    """Where :func:`validate_density` would accept a matrix of the stack:
    Hermitian, positive within tolerance and of nonzero trace."""
    return ((asym <= HERMITICITY_REJECT_TOL) & (min_eig >= -DEFAULT_VALIDATION_TOL)
            & (trace > DEFAULT_VALIDATION_TOL))


def stack_full_rank(eigenvalues: np.ndarray) -> np.ndarray:
    """Where a state of a validated stack is full rank, from its ascending
    eigenvalues (B, d): the rule behind ``DensityMatrix.full_rank``."""
    return eigenvalues[:, 0] > DEFAULT_VALIDATION_TOL


def schatten_norm(a, order=2) -> float:
    """Schatten norm of order 1 (trace), 2 (Frobenius) or inf (operator)."""
    arr = _as_matrix(a)
    if order == 2:
        return float(np.linalg.norm(arr))
    s = np.linalg.svd(arr, compute_uv=False)
    if order == 1:
        return float(s.sum())
    if order in (np.inf, math.inf, "inf"):
        return float(s[0])
    raise UnsupportedOrder(f"Schatten order must be 1, 2 or inf, got {order!r}")


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * schatten_norm(_as_matrix(rho) - _as_matrix(sigma), 1)


def vectorize(x) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[i + d*j] = X[i, j]."""
    return np.asarray(_as_matrix(x)).ravel(order="F").copy()


def devectorize(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(v, dtype=complex).ravel()
    if dim is None:
        dim = math.isqrt(vec.size)
    if dim * dim != vec.size:
        raise DimensionMismatch(
            f"vector of length {vec.size} is not a vectorized {dim}x{dim} matrix"
        )
    return vec.reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d matrices in the column-stacking convention."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionMismatch(
                f"superoperator matrix shape {m.shape} does not match dim {self.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        """E(X) for a d x d matrix X, or for each X of a (B, d, d) stack.

        Each X is one matrix-vector product M vec(X), so a stack gives
        bit for bit what its matrices give one at a time.
        """
        arr = _as_matrix(x, name="superoperator input", stack=True)
        d = self.dim
        if arr.shape[-1] != d:
            raise DimensionMismatch(f"input of dimension {arr.shape[-1]} for dim {d}")
        # vec(X) of each matrix as a (d^2, 1) column
        vecs = arr.swapaxes(-1, -2).reshape(-1, d * d, 1)
        return (self.matrix @ vecs).reshape(arr.shape).swapaxes(-1, -2)

    def in_basis(self, v: np.ndarray) -> np.ndarray:
        """The matrix U^dag M U, U = kron(conj(v), v): the map written on the
        matrix units |v_i><v_j| of the orthonormal columns of v."""
        u = np.kron(v.conj(), v)
        return u.conj().T @ self.matrix @ u

    def adjoint(self) -> "Superoperator":
        """Adjoint with respect to the Hilbert-Schmidt inner product."""
        return Superoperator(self.matrix.conj().T, self.dim)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix (GUE-style, unnormalized)."""
    return hermitianize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random density matrix A A^dag / tr from a complex Ginibre A of the given rank."""
    if rank is None:
        rank = dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real)
