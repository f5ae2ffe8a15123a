"""Divergence evaluators: chi-square forms, hockey-stick, and the HT /
Petz / Matsumoto f-divergence families.

All evaluators use natural logarithms and require full-rank reference
states; support mismatches raise :class:`SingularReference` instead of
silently taking regularized limits.  Callers who want a regularized
evaluation apply :func:`epsilon_regularize` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    stack_full_rank,
    validate_density,
)
# integrate_piecewise stays bound here: perfbench/spans.py traces quadrature
# through this name
from .quadrature import _integrate_stack, _Stack, integrate_piecewise  # noqa: F401

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
    """Spectral weight matrix w[i, j] = g(mu_i / mu_j) / mu_j; raises
    :class:`InputError` unless every weight is positive and finite."""
    mu = sigma.eigenvalues
    ratio = mu[:, None] / mu[None, :]
    w = np.asarray(g(ratio), float) / mu[None, :]
    if not (np.isfinite(w) & (w > 0)).all():
        raise InputError(f"weight function {g.name} produced nonpositive weights")
    return w


def _quadratic_forms(x: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_ij |(V^dag X V)_ij|^2 for each X of a Hermitian (B, d, d) stack."""
    xt = v.conj().T @ x @ v
    return np.sum(w * (xt.real**2 + xt.imag**2), axis=(1, 2))


def chi2_quadratic_form(x: np.ndarray, sigma: DensityMatrix, g: SpectralWeight) -> float:
    """<X, Omega_sigma^g(X)> for Hermitian X, via the sigma eigenbasis."""
    w = _sigma_weights(sigma, g)
    return float(_quadratic_forms(np.asarray(x)[None], sigma.eigenvectors, w)[0])


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
    """Hockey-stick divergence E_gamma = tr[(rho - gamma sigma)_+], gamma >= 1.

    Defined for every state rho; sigma must be full rank.  A gamma that is
    not a finite number >= 1 (NaN, inf) raises :class:`InputError`.
    """
    if not (np.isfinite(gamma) and gamma >= 1.0):
        raise InputError(f"gamma must be finite and >= 1, got {gamma}")
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    return _positive_eig_sum(r.entries - gamma * s.entries)


class _Reference(NamedTuple):
    """What the family kernels read of a full-rank reference state sigma:
    its entries, eigenvalues mu, eigenvectors psi and sigma^-1/2."""

    entries: np.ndarray
    mu: np.ndarray
    psi: np.ndarray
    s_mh: np.ndarray


def _reference(s: DensityMatrix) -> _Reference:
    mu, psi = s.eigenvalues, s.eigenvectors
    return _Reference(s.entries, mu, psi, (psi / np.sqrt(mu)) @ psi.conj().T)


def _pencil(rho: np.ndarray, ref: _Reference) -> np.ndarray:
    """sigma^-1/2 rho sigma^-1/2, Hermitized, for a (B, d, d) stack of rho;
    its eigenvalues are the generalized eigenvalues of (rho, sigma)."""
    t = ref.s_mh @ rho @ ref.s_mh
    return 0.5 * (t + t.conj().transpose(0, 2, 1))


def _ht_integrals(f2, rho: np.ndarray, ref: _Reference, t: np.ndarray) -> _Stack:
    """The ht integrals of every full-rank rho of a (B, d, d) stack, given
    the ascending pencil spectra ``t`` (B, d) (eigenvalues of
    :func:`_pencil`), in one stacked quadrature loop.

    The panel edges of rho are its log pencil spectrum and 0, the kink of
    N at g = 1.  As tr rho = tr sigma = 1, the spectrum brackets 1, so 0
    lies in [log t_min, log t_max] up to rounding, which resetting the end
    edges absorbs.  The zero-width panels this or a degenerate spectrum
    leaves are dropped (so rho = sigma gives 0).  Each round makes one
    stacked eigvalsh over the nodes of all open panels of the stack.
    """
    log_t = np.log(t)
    edges = np.concatenate([log_t, np.zeros((len(t), 1))], axis=1)
    edges.sort(axis=1)
    # 0 sorts first or last only when rounding puts it outside the spectrum;
    # resetting the ends clips it in
    edges[:, 0], edges[:, -1] = log_t[:, 0], log_t[:, -1]
    sig = ref.entries

    def integrand(x, owner):
        g = np.exp(x)
        w = np.linalg.eigvalsh(rho[owner, None] - g[..., None, None] * sig)
        # the positive part above g = 1, the negative part below
        n_g = np.maximum(np.where(g[..., None] >= 1.0, w, -w), 0.0).sum(axis=-1)
        return np.asarray(f2(g), float) * g * n_g

    return _integrate_stack(integrand, edges, epsrel=HT_QUAD_RTOL)


def _matsumoto_values(f, rho: np.ndarray, ref: _Reference):
    """tr[sigma f(sigma^-1/2 rho sigma^-1/2)] for each rho of a (B, d, d)
    stack, NaN where f is not finite on the pencil spectrum; also returns
    the pencil spectra."""
    tvals, tvecs = np.linalg.eigh(_pencil(rho, ref))
    with np.errstate(all="ignore"):
        fv = np.asarray(f(np.clip(tvals, 0.0, None)), float)
        f_t = (tvecs * fv[:, None, :]) @ tvecs.conj().transpose(0, 2, 1)
        values = np.trace(ref.entries @ f_t, axis1=1, axis2=2).real
    values[~np.isfinite(fv).all(axis=1)] = np.nan
    return values, tvals


def _petz_values(f, lam: np.ndarray, phi: np.ndarray, mu: np.ndarray,
                 psi: np.ndarray) -> np.ndarray:
    """The double sum sum_ij f(lambda_i/mu_j) mu_j |<phi_i|psi_j>|^2 for a
    stack of eigenvalues lam (B, d) and eigenvectors phi (B, d, d) of rho."""
    overlap = np.abs(phi.conj().transpose(0, 2, 1) @ psi) ** 2
    fv = np.asarray(f(lam[:, :, None] / mu), float)
    return np.sum(fv * mu * overlap, axis=(1, 2))


def _divergence_stack(spec: FDivergenceSpec, ents: np.ndarray, lam: np.ndarray,
                      phi: np.ndarray, ref: _Reference) -> np.ndarray:
    """Values of spec's family on a stack of validated states (entries, and
    eigenvalues and eigenvectors as :func:`validate_stack` gives them)
    against one full-rank reference.

    NaN marks the points where the public evaluator raises a
    :class:`PreconditionError`: a rank-deficient rho for petz and ht, f not
    finite on the pencil spectrum for matsumoto.  The spec must have a
    family, and an operator convex generator for petz.
    """
    if spec.family == "matsumoto":
        return _matsumoto_values(spec.f, ents, ref)[0]
    full = stack_full_rank(lam)
    values = np.full(len(ents), np.nan)
    if spec.family == "petz":
        values[full] = _petz_values(spec.f, lam[full], phi[full], ref.mu, ref.psi)
    else:
        rho = ents[full]
        values[full] = _ht_integrals(spec.f2, rho, ref,
                                     np.linalg.eigvalsh(_pencil(rho, ref))).value
    return values


def _require_family(spec: FDivergenceSpec) -> None:
    if spec.family not in FAMILIES:
        raise InputError(
            f"spec {spec.name!r} has family {spec.family!r}; set one of {FAMILIES}"
        )


def _require_operator_convex(spec: FDivergenceSpec) -> None:
    if not spec.operator_convex:
        raise NotOperatorConvex(
            f"{spec.name} is not flagged operator convex; the Petz evaluator "
            "requires it"
        )


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
    and at s = 0, which delimit the quadrature panels.  The call is a stack
    of one in the stacked quadrature loop that the variational search runs
    on whole stacks (:func:`_ht_integrals`), so it gives bit for bit the
    value a state gets inside any stack; ``quad_evals`` counts the
    integrand nodes of this integral.
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    _require_full_rank(r, "rho")
    ref = _reference(s)
    rho1 = r.entries[None]
    t = np.linalg.eigvalsh(_pencil(rho1, ref))
    res = _ht_integrals(spec.f2, rho1, ref, t)
    diag = {
        "family": "ht",
        "f": spec.name,
        "quad_error": float(res.error_estimate[0]),
        "quad_evals": int(res.n_evals[0]),
        "pencil_range": (float(t[0, 0]), float(t[0, -1])),
    }
    return DivergenceValue(float(res.value[0]), diag)


def matsumoto_divergence(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Maximal f-divergence tr[sigma f(sigma^-1/2 rho sigma^-1/2)].

    sigma must be full rank; a rank-deficient rho is admitted only when f
    has a finite limit at 0 (otherwise :class:`DomainError`).
    """
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    values, tvals = _matsumoto_values(spec.f, r.entries[None], _reference(s))
    lo, hi = float(tvals[0, 0]), float(tvals[0, -1])
    if np.isnan(values[0]):
        raise DomainError(
            f"f({spec.name}) not finite on the pencil spectrum [{lo:.3e}, {hi:.3e}]"
        )
    return DivergenceValue(float(values[0]), {"family": "matsumoto", "f": spec.name,
                                              "pencil_range": (lo, hi)})


def petz_divergence(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Standard (Petz) f-divergence tr[sigma^1/2 f(Delta_{rho,sigma}) sigma^1/2].

    Evaluated by the spectral double sum
    sum_ij f(lambda_i/mu_j) mu_j |<phi_i|psi_j>|^2.  Requires an operator
    convex generator (data processing fails otherwise) and full-rank states.
    """
    _require_operator_convex(spec)
    r = _density(rho, "rho")
    s = _density(sigma, "sigma")
    _require_full_rank(s, "sigma")
    _require_full_rank(r, "rho")
    value = _petz_values(spec.f, r.eigenvalues[None], r.eigenvectors[None],
                         s.eigenvalues, s.eigenvectors)
    return DivergenceValue(float(value[0]), {"family": "petz", "f": spec.name})


_FAMILY_FN = {
    "ht": ht_divergence,
    "petz": petz_divergence,
    "matsumoto": matsumoto_divergence,
}


def evaluate(spec: FDivergenceSpec, rho, sigma) -> DivergenceValue:
    """Dispatch on spec.family (ht / petz / matsumoto)."""
    _require_family(spec)
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
    t = np.linalg.eigvalsh(_pencil(r.entries[None], _reference(s))[0])
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
