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
  (B, d, d) stack, and :meth:`Superoperator.in_basis`.  The SDPI search
  acts on the stacks it builds itself through the unchecked
  :meth:`Superoperator._apply`, the same product without the input checks.
* Eigenvalues are always reported in ascending order (``numpy.linalg.eigh``).
* Validated states (:class:`DensityMatrix`) and superoperators are
  immutable after construction; their ndarrays are marked read-only.
"""

from __future__ import annotations

import math
import numbers
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


def _numeric_array(a, name: str, dtype: type = complex) -> np.ndarray:
    """``np.asarray(a, dtype)``, with :class:`InputError` for input that is
    not a numeric array (strings, ragged nested lists)."""
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a numeric array: {exc}") from None


def _integer(value, name: str, minimum: int, below: type = InputError) -> int:
    """An integral argument; one below ``minimum`` raises ``below``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise below(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(value, name: str) -> float:
    """A finite real argument that is not a bool, as a float; anything else
    raises :class:`InputError`.  Its range is the caller's to check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InputError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _as_matrix(a, *, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce input to a square complex ndarray with d >= 2; with ``stack``,
    a (B, d, d) stack of such matrices is accepted too."""
    if isinstance(a, DensityMatrix):
        return a.entries
    arr = _numeric_array(a, name)
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
    of the clipping.  It is :func:`_validate_states` on one matrix.
    """
    return _validate_states([entries])[0]


def _validate_states(arrays, names=None) -> list:
    """The one validation path: each raw matrix of ``arrays`` validated as
    by :func:`validate_density`, all in one :func:`validate_stack` call and
    bit for bit as alone; a :class:`DensityMatrix` passes through.  Stack
    order decides which error wins: the first bad matrix raises, checked for
    asymmetry, then the minimum eigenvalue, then the trace.  Matrices not
    all finite, square and of one shape are validated one at a time, in
    order.  Given ``names``, each message opens with its matrix's name."""
    states, names = list(arrays), names or [None] * len(arrays)
    raw = [i for i, a in enumerate(states) if not isinstance(a, DensityMatrix)]
    try:
        arrs = [_as_matrix(states[i]) for i in raw]
    except InputError as exc:
        if len(raw) == 1:
            name = names[raw[0]]
            raise type(exc)(f"{name}: {exc}") if name else exc from None
        arrs = None
    if arrs is None or len({a.shape for a in arrs}) > 1:
        return [_validate_states([a], [n])[0] for a, n in zip(states, names)]
    if not raw:
        return states
    vals, vecs, asym, min_eig, trace = validate_stack(np.array(arrs))
    for k, i in enumerate(raw):
        if asym[k] > HERMITICITY_REJECT_TOL:
            exc = NotHermitian(f"matrix deviates from Hermitian by {asym[k]:.3e} "
                               f"(> {HERMITICITY_REJECT_TOL:.0e})")
        elif min_eig[k] < -DEFAULT_VALIDATION_TOL:
            exc = NotPositive(f"minimum eigenvalue {min_eig[k]:.3e} below "
                              f"-{DEFAULT_VALIDATION_TOL:.0e}")
        elif trace[k] <= DEFAULT_VALIDATION_TOL:
            exc = TraceZero(f"trace {trace[k]:.3e} too small to normalize")
        else:
            continue
        raise type(exc)(f"{names[i]}: {exc}") if names[i] else exc
    ents, full_rank = stack_states(vals, vecs), stack_full_rank(vals).tolist()
    for a in (ents, vals, vecs):
        a.setflags(write=False)
    for k, i in enumerate(raw):
        states[i] = DensityMatrix(ents[k], ents.shape[-1], vals[k], vecs[k], full_rank[k])
    return states


def validate_stack(arr: np.ndarray):
    """The arithmetic of :func:`validate_density` on a finite complex
    (..., d, d) stack, without raising.

    Returns ``(eigenvalues, eigenvectors, asymmetry, min_eigenvalue,
    trace)``: the spectral decompositions of the normalized states (the
    eigenvalues of the Hermitian part clipped at zero and divided by their
    sum), the relative asymmetry ||A - A^dag||_F / max(1, ||A||_F), the
    unclipped minimum eigenvalue and the clipped trace.  The states are
    :func:`stack_states` of the spectra, built only by callers that read
    them; both are meaningful only where :func:`stack_valid` holds.
    """
    adj = arr.conj().swapaxes(-1, -2)
    diff = arr - adj
    asym = np.sqrt((diff.conj() * diff).real.sum(axis=(-2, -1)))
    asym /= np.maximum(1.0, np.sqrt((arr.conj() * arr).real.sum(axis=(-2, -1))))
    vals, vecs = np.linalg.eigh(0.5 * (arr + adj))
    min_eig = vals[..., 0]
    vals = np.maximum(vals, 0.0)
    trace = vals.sum(axis=-1)
    # the floor only guards the rows that fail the trace check
    vals /= np.maximum(trace, DEFAULT_VALIDATION_TOL)[..., None]
    return vals, vecs, asym, min_eig, trace


def stack_states(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The Hermitian states V diag(vals) V^dag of a stack of spectral
    decompositions, as :func:`validate_stack` gives them."""
    ents = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return 0.5 * (ents + ents.conj().swapaxes(-1, -2))


def stack_valid(asym, min_eig, trace) -> np.ndarray:
    """Where :func:`validate_density` would accept a matrix of the stack:
    Hermitian, positive within tolerance and of nonzero trace."""
    return ((asym <= HERMITICITY_REJECT_TOL) & (min_eig >= -DEFAULT_VALIDATION_TOL)
            & (trace > DEFAULT_VALIDATION_TOL))


def stack_full_rank(eigenvalues: np.ndarray) -> np.ndarray:
    """Where a state of a validated stack is full rank, from its ascending
    eigenvalues (..., d): the rule behind ``DensityMatrix.full_rank``."""
    return eigenvalues[..., 0] > DEFAULT_VALIDATION_TOL


def eigvalsh_stack(a) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a (..., d, d) stack,
    read from the diagonal and the lower triangle as ``np.linalg.eigvalsh``.

    At d = 2 this is the closed form of LAPACK's ``dlae2`` on [[p, z*],
    [z, c]], elementwise over the stack, so a matrix gets bit for bit the
    same values alone and inside any stack, with no LAPACK call.  The root
    of larger magnitude is rt1 = (sm +- hypot(p - c, 2|z|)) / 2, with
    sm = p + c and the sign of sm.  The other is det / rt1, computed as
    (acmx/rt1) acmn - (|z|/rt1) |z| (acmx, acmn the diagonal entries of
    larger and smaller magnitude), so it keeps its relative accuracy where
    det is well conditioned, however far below rt1 it lies; sm = 0 gives
    -rt1.  A NaN entry gives NaN eigenvalues.  Every other d is
    ``np.linalg.eigvalsh(a)``.
    """
    a = np.asarray(a)
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)
    p, c = a[..., 0, 0].real, a[..., 1, 1].real
    az = np.abs(a[..., 1, 0])
    sm = p + c
    rt = np.hypot(p - c, 2.0 * az)
    rt1 = 0.5 * (sm + np.copysign(rt, sm))
    big = np.abs(p) > np.abs(c)
    acmx, acmn = np.where(big, p, c), np.where(big, c, p)
    # rt1 = 0 only where sm = 0, which takes -rt1 instead
    with np.errstate(divide="ignore", invalid="ignore"):
        rt2 = np.where(sm == 0.0, -rt1, (acmx / rt1) * acmn - (az / rt1) * az)
    w = np.empty(sm.shape + (2,))
    np.minimum(rt1, rt2, out=w[..., 0])
    np.maximum(rt1, rt2, out=w[..., 1])
    return w


def projector_stack(a, select) -> np.ndarray:
    """The orthogonal projector onto the selected eigenvectors of each
    Hermitian matrix of a (..., d, d) stack: sum_i select_i v_i v_i^dag,
    with ``select`` a boolean (..., d) mask on the ascending eigenvalues
    (as :func:`eigvalsh_stack` orders them).

    At d = 2 this is the closed form P_top = I/2 + (A - tr(A) I/2) / rt on
    the entries of A, rt = hypot(p - c, 2|z|) the eigenvalue gap as in
    :func:`eigvalsh_stack`, and P_bottom = I - P_top.  It reads the
    traceless part, not A - w_1 I, so it keeps its accuracy where the gap
    is far below the eigenvalues; rt = 0 gives P_top = P_bottom = I/2,
    which sum to I over a degenerate pair selected whole.  It is
    elementwise over the stack, with no LAPACK call.  Every other d takes
    one stacked ``np.linalg.eigh``.  Either way a matrix gets bit for bit
    the same projector alone and inside any stack.
    """
    a = np.asarray(a)
    if a.shape[-1] != 2:
        v = np.linalg.eigh(a)[1]
        return (v * select[..., None, :]) @ v.conj().swapaxes(-1, -2)
    p, c, z = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0]
    rt = np.hypot(p - c, 2.0 * np.abs(z))
    inv = np.divide(1.0, rt, out=np.zeros_like(rt), where=rt > 0.0)
    lo, hi = select[..., 0].astype(float), select[..., 1].astype(float)
    # P = lo I + (hi - lo) P_top
    step = hi - lo
    half_diag = (0.5 * step) * ((p - c) * inv)
    mid = lo + 0.5 * step
    out = np.empty(a.shape, complex)
    out[..., 0, 0] = mid + half_diag
    out[..., 1, 1] = mid - half_diag
    out[..., 1, 0] = (step * inv) * z
    out[..., 0, 1] = out[..., 1, 0].conj()
    return out


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
    a, b = _as_matrix(rho, name="rho"), _as_matrix(sigma, name="sigma")
    if a.shape != b.shape:
        raise DimensionMismatch(f"rho has shape {a.shape} but sigma has shape {b.shape}")
    return 0.5 * schatten_norm(a - b, 1)


def vectorize(x) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[i + d*j] = X[i, j]."""
    return np.asarray(_as_matrix(x)).ravel(order="F").copy()


def devectorize(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = _numeric_array(v, "vector").ravel()
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
        # a copy in the input's memory order, which the products' rounding follows
        m = np.array(_numeric_array(self.matrix, "superoperator matrix"))
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
        if arr.shape[-1] != self.dim:
            raise DimensionMismatch(f"input of dimension {arr.shape[-1]} for dim {self.dim}")
        return self._apply(arr)

    def _apply(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`apply` without its input checks, for a finite complex
        (..., d, d) stack of any leading shape that the caller built."""
        d = self.dim
        # vec(X) of each matrix as a (d^2, 1) column
        vecs = arr.swapaxes(-1, -2).reshape(-1, d * d, 1)
        return (self.matrix @ vecs).reshape(arr.shape).swapaxes(-1, -2)

    def in_basis(self, v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """The matrix U_w^dag M U_v, U_v = kron(conj(v), v): the map written
        from the matrix units |v_i><v_j| of the orthonormal columns of v to
        those of w (default v)."""
        u = np.kron(v.conj(), v)
        out = u if w is None else np.kron(w.conj(), w)
        return out.conj().T @ self.matrix @ u

    def adjoint(self) -> "Superoperator":
        """Adjoint with respect to the Hilbert-Schmidt inner product."""
        return Superoperator(self.matrix.conj().T, self.dim)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix (GUE-style, unnormalized)."""
    return hermitianize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random density matrix A A^dag / tr from a complex Ginibre A of the given rank."""
    return validate_density(_ginibre_state(dim, rng, rank))


def _ginibre_state(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """The raw entries that :func:`random_density` draws and validates."""
    dim = _integer(dim, "dim", 2, DimensionMismatch)
    rank = dim if rank is None else _integer(rank, "rank", 1)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real
