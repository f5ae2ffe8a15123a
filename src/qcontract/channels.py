"""Quantum channels: construction, representations, fixed points, primitivity.

A channel is stored as a :class:`~qcontract.linalg.Superoperator`, in the
vectorization convention stated in the :mod:`qcontract.linalg` docstring,
and acts through its ``apply``.  A channel built from a superoperator is
verified completely positive and trace preserving through its Choi
matrix; a Kraus sum is completely positive by construction, so only
its trace preservation is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFixedSpace,
    ConvergenceFailure,
    DimensionMismatch,
    InputError,
    NotCompletelyPositive,
    NotProbability,
    NotSquare,
    NotStochastic,
    NotTracePreserving,
    ParameterOutOfRange,
    TraceZeroEigenvector,
)
from .linalg import (
    DensityMatrix,
    Superoperator,
    _as_matrix,
    _integer,
    _numeric_array,
    _real,
    devectorize,
    hermitianize,
    validate_density,
)

__all__ = [
    "CPTP_TOL",
    "SPECTRAL_TOL",
    "QuantumChannel",
    "PrimitivityReport",
    "kraus_to_superop",
    "choi_matrix",
    "channel_from_kraus",
    "channel_from_superop",
    "apply",
    "channel_adjoint",
    "channel_power",
    "fixed_point",
    "is_primitive",
    "depolarizing",
    "embedded_classical",
    "pauli_channel",
    "amplitude_damping",
    "random_channel",
]

#: tolerance for the CP (Choi PSD) and TP checks at construction
CPTP_TOL = 1e-9
#: distance from 1 (and from the unit circle) within which an eigenvalue of the
#: superoperator counts as fixed (peripheral); also the fixed-point residual bound
SPECTRAL_TOL = 1e-8

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map with its superoperator and (optionally) Kraus operators."""

    dim: int
    superop: Superoperator
    kraus: tuple | None = None
    label: str = "channel"

    def __call__(self, rho) -> DensityMatrix:
        return apply(self, rho)

    def __repr__(self):
        k = "none" if self.kraus is None else len(self.kraus)
        return f"QuantumChannel(dim={self.dim}, kraus={k}, label={self.label!r})"


@dataclass(frozen=True)
class PrimitivityReport:
    """Spectral evidence for/against primitivity of a channel."""

    is_primitive: bool
    spectral_gap: float
    fixed_point_min_eigenvalue: float
    peripheral_count: int
    reasons: tuple


def _kraus_operators(kraus) -> tuple:
    """The operators of a Kraus list as read-only complex arrays: the one
    home of its rules, a nonempty list of finite square matrices
    (:func:`~qcontract.linalg._as_matrix`) of one dimension d >= 2."""
    if not np.iterable(kraus):
        raise InputError(f"Kraus list must be a sequence of matrices, got {kraus!r}")
    mats = tuple(_as_matrix(k, name="Kraus operator").copy() for k in kraus)
    if not mats:
        raise InputError("empty Kraus list")
    for arr in mats:
        if arr.shape != mats[0].shape:
            raise DimensionMismatch("Kraus operators have mixed dimensions")
        arr.setflags(write=False)
    return mats


def _kron_sum(k: np.ndarray) -> np.ndarray:
    """sum_K kron(conj(K), K) over a (n, d, d) stack of operators, as one
    broadcast product."""
    d = k.shape[-1]
    return (k.conj()[:, :, None, :, None] * k[:, None, :, None, :]).sum(0).reshape(d * d, d * d)


def kraus_to_superop(kraus) -> np.ndarray:
    """Superoperator matrix sum_K kron(conj(K), K) of a Kraus list (see
    :func:`_kraus_operators` for its rules)."""
    return _kron_sum(np.array(_kraus_operators(kraus)))


def choi_matrix(superop) -> np.ndarray:
    """Choi matrix J = (id tensor E)(|Omega><Omega|), unnormalized.

    Block (i, j) of the d^2 x d^2 result is E(|i><j|).  With the
    column-stacking convention this is an index shuffle of the
    superoperator: J[(i,k),(j,l)] = M[(l,k),(j,i)].
    """
    if isinstance(superop, Superoperator):
        m = superop.matrix
    else:
        m = _numeric_array(superop, "superoperator matrix")
    d = int(round(np.sqrt(m.shape[0]))) if m.ndim == 2 else 0
    if m.shape != (d * d, d * d):
        raise NotSquare(f"superoperator matrix has shape {m.shape}")
    m4 = m.reshape(d, d, d, d)
    return m4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def _check_cptp(m: np.ndarray) -> int:
    """The dimension d of a CPTP superoperator matrix m; NotSquare unless m
    is d^2 x d^2, and the typed error of the property it lacks otherwise."""
    j = choi_matrix(m)
    d = int(round(np.sqrt(j.shape[0])))
    jmin = float(np.linalg.eigvalsh(hermitianize(j))[0])
    asym = float(np.linalg.norm(j - j.conj().T))
    if asym > 1e-8 or jmin < -CPTP_TOL:
        raise NotCompletelyPositive(
            f"Choi matrix not PSD (min eigenvalue {jmin:.3e}, asymmetry {asym:.3e})"
        )
    # trace preservation: partial trace of Choi over the output factor is I
    ptr = np.einsum("iaja->ij", j.reshape(d, d, d, d))
    tp_err = float(np.linalg.norm(ptr - np.eye(d)))
    if tp_err > CPTP_TOL * d:
        raise NotTracePreserving(f"partial trace of Choi deviates from I by {tp_err:.3e}")
    return d


def channel_from_kraus(kraus, label: str = "kraus") -> QuantumChannel:
    """Build a channel from Kraus operators, verifying sum K^dag K = I; a
    Kraus sum is completely positive by construction."""
    mats = _kraus_operators(kraus)
    k = np.array(mats)
    d = k.shape[-1]
    tp_err = float(np.linalg.norm((k.conj().swapaxes(1, 2) @ k).sum(0) - np.eye(d)))
    if tp_err > CPTP_TOL * d:
        raise NotTracePreserving(
            f"sum K^dag K deviates from identity by {tp_err:.3e} (atol {CPTP_TOL:.0e})"
        )
    return QuantumChannel(dim=d, superop=Superoperator(_kron_sum(k), d), kraus=mats, label=label)


def channel_from_superop(matrix, label: str = "superop") -> QuantumChannel:
    """Build a channel from a superoperator matrix, verifying CPTP."""
    m = _numeric_array(matrix, "superoperator matrix")
    d = _check_cptp(m)
    return QuantumChannel(dim=d, superop=Superoperator(m, d), kraus=None, label=label)


def apply(channel: QuantumChannel, rho) -> DensityMatrix:
    """Apply the channel and re-validate the output state."""
    return validate_density(channel.superop.apply(rho))


def channel_adjoint(channel: QuantumChannel) -> Superoperator:
    """Hilbert-Schmidt adjoint map E* (unital, generally not TP)."""
    return channel.superop.adjoint()


def channel_power(channel: QuantumChannel, n: int) -> QuantumChannel:
    """n-fold composition E^n (n >= 1)."""
    if _integer(n, "n", 1) == 1:
        return channel
    m = np.linalg.matrix_power(channel.superop.matrix, n)
    return QuantumChannel(
        dim=channel.dim,
        superop=Superoperator(m, channel.dim),
        kraus=None,
        label=f"{channel.label}^{n}",
    )


def _fixed_point_error(channel: QuantumChannel, x: np.ndarray) -> float:
    """The trace-norm residual ||E(X) - X||_1 of a Hermitian matrix X."""
    diff = hermitianize(channel.superop.apply(x)) - x
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def fixed_point(channel: QuantumChannel) -> DensityMatrix:
    """The invariant state of the channel.

    Takes the eigenvector of the superoperator with eigenvalue nearest 1,
    symmetrizes and trace-normalizes it, and verifies the residual
    ||E(pi) - pi||_1 <= SPECTRAL_TOL.  Raises :class:`DegenerateFixedSpace`
    if the eigenvalue 1 has multiplicity > 1 within SPECTRAL_TOL.
    """
    return _fixed_point(channel, *np.linalg.eig(channel.superop.matrix))


def _fixed_point(channel: QuantumChannel, vals: np.ndarray,
                 vecs: np.ndarray) -> DensityMatrix:
    """fixed_point from the eigendecomposition (vals, vecs) of the
    superoperator matrix."""
    near_one = np.abs(vals - 1.0) <= SPECTRAL_TOL
    if int(near_one.sum()) > 1:
        raise DegenerateFixedSpace(
            f"eigenvalue 1 has multiplicity {int(near_one.sum())} "
            f"within {SPECTRAL_TOL:.0e}"
        )
    idx = int(np.argmin(np.abs(vals - 1.0)))
    x = devectorize(vecs[:, idx], channel.dim)
    tr = np.trace(x)
    if abs(tr) <= SPECTRAL_TOL:
        raise TraceZeroEigenvector(f"fixed-space eigenvector has trace {abs(tr):.3e}")
    pi = validate_density(hermitianize(x / tr))
    residual = _fixed_point_error(channel, pi.entries)
    if residual > SPECTRAL_TOL:
        raise ConvergenceFailure(
            f"fixed-point residual ||E(pi)-pi||_1 = {residual:.3e} "
            f"exceeds {SPECTRAL_TOL:.0e}"
        )
    return pi


def is_primitive(channel: QuantumChannel) -> PrimitivityReport:
    """Spectral primitivity test.

    Primitive means: eigenvalue 1 is simple, it is the only eigenvalue on
    the unit circle, and the fixed point has full rank.  Reported
    ``spectral_gap`` is 1 minus the second-largest eigenvalue modulus.
    One eigendecomposition gives both the moduli and the fixed point.
    """
    return _primitivity(channel)[0]


def _primitivity(channel: QuantumChannel) -> tuple:
    """:func:`is_primitive`'s report and the fixed point its eigendecomposition
    gave, bit for bit :func:`fixed_point`'s (None when it gave none)."""
    vals, vecs = np.linalg.eig(channel.superop.matrix)
    mods = np.sort(np.abs(vals))[::-1]
    peripheral = int(np.sum(mods >= 1.0 - SPECTRAL_TOL))
    gap = float(1.0 - mods[1]) if mods.size > 1 else 1.0
    one_mult = int(np.sum(np.abs(vals - 1.0) <= SPECTRAL_TOL))
    reasons = []
    if one_mult != 1:
        reasons.append(f"eigenvalue 1 has multiplicity {one_mult}")
    if peripheral != 1:
        reasons.append(f"{peripheral} eigenvalues on the unit circle")
    min_eig, pi = float("nan"), None
    if one_mult == 1:
        try:
            pi = _fixed_point(channel, vals, vecs)
            min_eig = pi.min_eigenvalue
            if min_eig <= SPECTRAL_TOL:
                reasons.append(f"fixed point rank deficient (min eig {min_eig:.3e})")
        except (DegenerateFixedSpace, TraceZeroEigenvector) as exc:
            reasons.append(str(exc))
    return PrimitivityReport(
        is_primitive=not reasons,
        spectral_gap=gap,
        fixed_point_min_eigenvalue=min_eig,
        peripheral_count=peripheral,
        reasons=tuple(reasons),
    ), pi


# -- constructors -----------------------------------------------------------

def _weyl(dim: int, a: int, b: int) -> np.ndarray:
    """Discrete Weyl operator X^a Z^b on C^dim."""
    omega = np.exp(2j * np.pi / dim)
    z = np.diag(omega ** np.arange(dim))
    x = np.roll(np.eye(dim), 1, axis=0)
    return np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)


def depolarizing(p: float, dim: int = 2) -> QuantumChannel:
    """E(rho) = (1-p) rho + p tr(rho) I/dim, via a Weyl twirl Kraus set."""
    p = _real(p, "depolarizing parameter")
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"depolarizing parameter must be in [0, 1], got {p}")
    dim = _integer(dim, "dim", 2, DimensionMismatch)
    w0 = 1.0 - p + p / dim**2
    kraus = [np.sqrt(w0) * np.eye(dim, dtype=complex)]
    for a in range(dim):
        for b in range(dim):
            if a == 0 and b == 0:
                continue
            kraus.append(np.sqrt(p) / dim * _weyl(dim, a, b))
    return channel_from_kraus(kraus, label=f"depolarizing(p={p:g},d={dim})")


def embedded_classical(transition) -> QuantumChannel:
    """Embed a column-stochastic matrix W as the channel with Kraus
    sqrt(W[i,j]) |i><j|; populations evolve by W, coherences are killed."""
    w = _numeric_array(transition, "transition matrix", float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NotSquare(f"transition matrix has shape {w.shape}")
    if np.any(w < -1e-12):
        raise NotStochastic("transition matrix has negative entries")
    col_err = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    if col_err > 1e-9:
        raise NotStochastic(f"columns sum to 1 within {col_err:.3e} only")
    d = w.shape[0]
    kraus = []
    for i in range(d):
        for j in range(d):
            if w[i, j] <= 0.0:
                continue
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = np.sqrt(w[i, j])
            kraus.append(k)
    return channel_from_kraus(kraus, label=f"embedded(d={d})")


def pauli_channel(probs) -> QuantumChannel:
    """Qubit channel sum_k p_k sigma_k rho sigma_k over (I, X, Y, Z)."""
    p = _numeric_array(probs, "probabilities", float)
    if p.shape != (4,):
        raise NotProbability(f"need 4 probabilities, got shape {p.shape}")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise NotProbability(f"probabilities must be >= 0 and sum to 1, got {p.tolist()}")
    kraus = [np.sqrt(max(pk, 0.0)) * s for pk, s in zip(p, PAULI)]
    return channel_from_kraus(kraus, label=f"pauli({p[0]:g},{p[1]:g},{p[2]:g},{p[3]:g})")


def amplitude_damping(gamma: float, excitation: float) -> QuantumChannel:
    """Generalized amplitude damping with decay rate gamma toward the
    thermal state diag(1-excitation, excitation)."""
    gamma, excitation = _real(gamma, "gamma"), _real(excitation, "excitation")
    if not 0.0 < gamma < 1.0:
        raise ParameterOutOfRange(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 < excitation < 1.0:
        raise ParameterOutOfRange(f"excitation must be in (0, 1), got {excitation}")
    lam = excitation
    sg = np.sqrt(gamma)
    k1 = np.sqrt(1 - lam) * np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k2 = np.sqrt(1 - lam) * np.array([[0, sg], [0, 0]], dtype=complex)
    k3 = np.sqrt(lam) * np.array([[np.sqrt(1 - gamma), 0], [0, 1]], dtype=complex)
    k4 = np.sqrt(lam) * np.array([[0, 0], [sg, 0]], dtype=complex)
    return channel_from_kraus(
        [k1, k2, k3, k4], label=f"gad(gamma={gamma:g},lambda={lam:g})"
    )


def random_channel(dim: int, env: int | None = None, seed: int = 0) -> QuantumChannel:
    """Haar-ish random channel from a QR-orthonormalized Ginibre isometry
    into dim x env, traced over the environment."""
    dim = _integer(dim, "dim", 2, DimensionMismatch)
    env = dim * dim if env is None else _integer(env, "env", 1, DimensionMismatch)
    seed = _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim * env, dim)) + 1j * rng.normal(size=(dim * env, dim))
    q, r = np.linalg.qr(g)
    # fix the gauge so the isometry is a deterministic function of the seed
    phase = np.diag(r) / np.abs(np.diag(r))
    v = q * phase.conj()
    # row a*env + e of the isometry is <a, e|V, so K_e[a, b] = v[a*env + e, b]
    kraus = [v[e::env, :].copy() for e in range(env)]
    return channel_from_kraus(kraus, label=f"random(d={dim},env={env},seed={seed})")
