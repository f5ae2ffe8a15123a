"""Divergence evaluators: chi-square forms, hockey-stick, and the HT /
Petz / Matsumoto f-divergence families.

All evaluators use natural logarithms and require full-rank reference
states; support mismatches raise :class:`SingularReference` instead of
silently taking regularized limits.  Callers who want a regularized
evaluation apply :func:`epsilon_regularize` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import FAMILIES, FDivergenceSpec, SpectralWeight
from .errors import (
    DomainError,
    InputError,
    NotOperatorConvex,
    SingularReference,
)
from .linalg import (
    DensityMatrix,
    hermitianize,
    validate_density,
)
from .quadrature import integrate_piecewise

__all__ = [
    "DivergenceValue",
    "epsilon_regularize",
    "chi2_g",
    "chi2_max",
    "hockey_stick",
    "ht_divergence",
    "matsumoto_divergence",
    "petz_divergence",
    "evaluate",
    "reverse_pinsker_bound",
    "local_chi2_estimate",
    "DEFAULT_LOCAL_GRID",
]

#: relative tolerance of the hockey-stick integral quadrature
HT_QUAD_RTOL = 1e-8

#: default mixing parameters for the local chi-square limit estimator
DEFAULT_LOCAL_GRID = (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)


@dataclass(frozen=True)
class DivergenceValue:
    """A computed divergence with evaluator diagnostics."""

    value: float
    diagnostics: dict = field(default_factory=dict)

    def __float__(self):
        return self.value


def _density(x, who: str) -> DensityMatrix:
    try:
        return validate_density(x)
    except InputError as exc:
        raise type(exc)(f"{who}: {exc}") from exc


def _require_full_rank(state: DensityMatrix, who: str) -> None:
    if not state.full_rank:
        raise SingularReference(
            f"{who} must be full rank (min eigenvalue {state.min_eigenvalue:.3e})"
        )


def epsilon_regularize(rho, eps: float) -> DensityMatrix:
    """Deliberate regularization (1-eps) rho + eps I/d."""
    r = _density(rho, "rho")
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    d = r.dim
    return validate_density((1.0 - eps) * r.entries + (eps / d) * np.eye(d))


def _sigma_weights(sigma: DensityMatrix, g: SpectralWeight) -> np.ndarray:
    """Spectral weight matrix w[i, j] = g(mu_i / mu_j) / mu_j."""
    mu = sigma.eigenvalues
    ratio = mu[:, None] / mu[None, :]
    return np.asarray(g(ratio), float) / mu[None, :]


def chi2_quadratic_form(x: np.ndarray, sigma: DensityMatrix, g: SpectralWeight) -> float:
    """<X, Omega_sigma^g(X)> for Hermitian X, via the sigma eigenbasis."""
    v = sigma.eigenvectors
    xt = v.conj().T @ x @ v
    w = _sigma_weights(sigma, g)
    return float(np.sum(w * (xt.real**2 + xt.imag**2)))


def chi2_g(rho, sigma, g: SpectralWeight) -> DivergenceValue:
    """Weighted chi-square divergence chi2_g(rho || sigma).

    Computed in the sigma eigenbasis as sum_ij (1/mu_j) g(mu_i/mu_j)
    |X_ij|^2 with X = rho - sigma.
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    value = chi2_quadratic_form(r.entries - s.entries, s, g)
    return DivergenceValue(value, {"g": g.name})


def chi2_max(rho, sigma) -> DivergenceValue:
    """Maximal chi-square divergence tr[sigma^{-1} (rho-sigma)^2]."""
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    v, mu = s.eigenvectors, s.eigenvalues
    s_inv = (v / mu) @ v.conj().T
    x = r.entries - s.entries
    value = float(np.trace(s_inv @ x @ x).real)
    return DivergenceValue(value, {"formula": "trace"})


def _positive_eig_sum(a: np.ndarray) -> float:
    w = np.linalg.eigvalsh(a)
    return float(np.clip(w, 0.0, None).sum())


def hockey_stick(rho, sigma, gamma: float) -> float:
    """Hockey-stick divergence E_gamma = tr[(rho - gamma sigma)_+], gamma >= 1."""
    if gamma < 1.0:
        raise InputError(f"gamma must be >= 1, got {gamma}")
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    _require_full_rank(r, "rho")
    return _positive_eig_sum(r.entries - gamma * s.entries)


def _pencil_spectrum(r: DensityMatrix, s: DensityMatrix) -> np.ndarray:
    """Generalized eigenvalues of (rho, sigma): spec(sigma^-1/2 rho sigma^-1/2)."""
    v, mu = s.eigenvectors, s.eigenvalues
    s_mh = (v / np.sqrt(mu)) @ v.conj().T
    return np.linalg.eigvalsh(hermitianize(s_mh @ r.entries @ s_mh))


def ht_divergence(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """f-divergence built from the hockey-stick integral representation

        int_1^inf  f''(g) E_g(rho||sigma) + g^-3 f''(1/g) E_g(sigma||rho) dg

    (Hirche & Tomamichel, CMP 2024).  Substituting u = 1/g in the second
    term turns it into int_{t_min}^1 f''(u) tr(rho - u sigma)_- du, so the
    whole divergence is one integral over the pencil spectrum
    [t_min, t_max] of (rho, sigma) (Frenkel, Quantum 7, 1102, 2023):

        int_{t_min}^{t_max} f''(g) N(g) dg,
        N(g) = tr(rho - g sigma)_+ for g >= 1, tr(rho - g sigma)_- below 1.

    It is evaluated in s = log g, with integrand f''(e^s) e^s N(e^s).  The
    integrand is smooth except at the logarithms of the pencil eigenvalues
    and at s = 0, which delimit the quadrature panels.
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    _require_full_rank(r, "rho")
    t = _pencil_spectrum(r, s)
    f2 = spec.f2
    log_t = np.log(t)
    lo, hi = float(log_t[0]), float(log_t[-1])

    def integrand(x):
        g = np.exp(x)
        w = np.linalg.eigvalsh(r.entries[None, :, :]
                               - g[:, None, None] * s.entries[None, :, :])
        # the positive part above g = 1, the negative part below
        n_g = np.clip(np.where(g[:, None] >= 1.0, w, -w), 0.0, None).sum(axis=1)
        return np.asarray(f2(g), float) * g * n_g

    edges = [x for x in (*log_t, 0.0) if lo <= x <= hi]
    res = integrate_piecewise(integrand, edges, epsrel=HT_QUAD_RTOL)
    diag = {
        "family": "ht",
        "f": spec.name,
        "quad_error": res.error_estimate,
        "quad_evals": res.n_evals,
        "pencil_range": (float(t[0]), float(t[-1])),
    }
    return DivergenceValue(res.value, diag)


def matsumoto_divergence(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Maximal f-divergence tr[sigma f(sigma^-1/2 rho sigma^-1/2)].

    sigma must be full rank; a rank-deficient rho is admitted only when f
    has a finite limit at 0 (otherwise :class:`DomainError`).
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    v, mu = s.eigenvectors, s.eigenvalues
    s_mh = (v / np.sqrt(mu)) @ v.conj().T
    t_mat = hermitianize(s_mh @ r.entries @ s_mh)
    tvals, tvecs = np.linalg.eigh(t_mat)
    with np.errstate(all="ignore"):
        fv = np.asarray(spec.f(np.clip(tvals, 0.0, None)), float)
    if not np.all(np.isfinite(fv)):
        raise DomainError(
            f"f({spec.name}) not finite on the pencil spectrum "
            f"[{tvals[0]:.3e}, {tvals[-1]:.3e}]"
        )
    f_t = (tvecs * fv) @ tvecs.conj().T
    value = float(np.trace(s.entries @ f_t).real)
    return DivergenceValue(value, {"family": "matsumoto", "f": spec.name,
                                   "pencil_range": (float(tvals[0]), float(tvals[-1]))})


def petz_divergence(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Standard (Petz) f-divergence tr[sigma^1/2 f(Delta_{rho,sigma}) sigma^1/2].

    Evaluated by the spectral double sum
    sum_ij f(lambda_i/mu_j) mu_j |<phi_i|psi_j>|^2.  Requires an operator
    convex generator (data processing fails otherwise) and full-rank states.
    """
    if not spec.operator_convex:
        raise NotOperatorConvex(
            f"{spec.name} is not flagged operator convex; the Petz evaluator "
            "requires it"
        )
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    _require_full_rank(r, "rho")
    lam, phi = r.eigenvalues, r.eigenvectors
    mu, psi = s.eigenvalues, s.eigenvectors
    overlap = np.abs(phi.conj().T @ psi) ** 2
    ratios = lam[:, None] / mu[None, :]
    fv = np.asarray(spec.f(ratios), float)
    value = float(np.sum(fv * mu[None, :] * overlap))
    return DivergenceValue(value, {"family": "petz", "f": spec.name})


_FAMILY_FN = {
    "ht": ht_divergence,
    "petz": petz_divergence,
    "matsumoto": matsumoto_divergence,
}


def evaluate(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Dispatch on spec.family (ht / petz / matsumoto)."""
    if spec.family not in FAMILIES:
        raise InputError(
            f"spec {spec.name!r} has family {spec.family!r}; set one of {FAMILIES}"
        )
    return _FAMILY_FN[spec.family](spec, rho, sigma)


def reverse_pinsker_bound(spec: FDivergenceSpec, rho, sigma):
    """Upper bound (||rho-sigma||_1 / 2) (f(m)/(1-m) + f(M)/(M-1)) with m, M
    the extreme eigenvalues of the pencil; applies to any of the three
    families.

    Returns (bound, applicable); the bound is valid only when
    |rho - sigma| <= rho + sigma (checked spectrally).
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    t = _pencil_spectrum(r, s)
    m, big_m = float(t[0]), float(t[-1])
    x = r.entries - s.entries
    xvals, xvecs = np.linalg.eigh(x)
    abs_x = (xvecs * np.abs(xvals)) @ xvecs.conj().T
    gap = np.linalg.eigvalsh(r.entries + s.entries - abs_x)
    applicable = bool(gap[0] >= -1e-10)
    tn = float(np.abs(xvals).sum())

    a = float(np.asarray(spec.f2(np.asarray(1.0))))
    b = float(np.asarray(spec.f3(np.asarray(1.0))))

    def edge_term(u, sign):
        # u = 1-m (sign -1) or M-1 (sign +1); f(edge)/u with a series fallback
        if u < 1e-8:
            return a / 2 * u + sign * b / 6 * u**2
        edge = 1.0 + sign * u
        return float(np.asarray(spec.f(np.asarray(edge)))) / u

    bound = (tn / 2.0) * (edge_term(1.0 - m, -1) + edge_term(big_m - 1.0, +1))
    return float(bound), applicable


def _family_callable(evaluator, sigma):
    """Normalize the evaluator argument of local_chi2_estimate into a
    callable rho -> value."""
    if isinstance(evaluator, FDivergenceSpec):
        spec = evaluator
        if spec.family not in FAMILIES:
            raise InputError(
                f"spec {spec.name!r} needs family set for local estimation"
            )
        return lambda r: evaluate(spec, r, sigma).value
    if callable(evaluator):
        return lambda r: float(evaluator(r, sigma))
    raise InputError("evaluator must be an FDivergenceSpec with family or a callable")


def local_chi2_estimate(evaluator, rho, sigma, lambda_grid=DEFAULT_LOCAL_GRID):
    """Estimate lim_{l->0} D(l rho + (1-l) sigma || sigma) / l^2.

    Evaluates the curve on the descending grid and Neville-extrapolates
    the polynomial through (l, D/l^2) to l = 0.  Returns
    (limit_estimate, fit_residual) where the residual is the change from
    adding the final grid point.
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    lam = np.asarray(sorted(set(float(x) for x in lambda_grid), reverse=True), float)
    if lam.size < 4 or lam[0] >= 1.0 or lam[-1] <= 0.0:
        raise InputError("lambda_grid needs >= 4 distinct points inside (0, 1)")
    fn = _family_callable(evaluator, s)
    h = np.empty(lam.size)
    for k, l in enumerate(lam):
        mix = validate_density(l * r.entries + (1.0 - l) * s.entries)
        h[k] = fn(mix) / l**2
    # Neville tableau evaluated at lambda = 0
    p = h.copy()
    best_prev = p[0]
    for j in range(1, lam.size):
        for i in range(lam.size - j):
            p[i] = (lam[i] * p[i + 1] - lam[i + j] * p[i]) / (lam[i] - lam[i + j])
        if j == lam.size - 2:
            best_prev = p[0]
    limit = float(p[0])
    residual = float(abs(p[0] - best_prev))
    return limit, residual
