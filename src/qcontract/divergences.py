"""Divergence evaluators: chi-square forms, hockey-stick, and the HT /
Petz / Matsumoto f-divergence families.

All evaluators use natural logarithms and require full-rank reference
states; support mismatches raise :class:`SingularReference` instead of
silently taking regularized limits.  Callers who want a regularized
evaluation apply :func:`epsilon_regularize` explicitly.

``_require_family`` is the one check of a spec dispatched on its family
(by ``evaluate``, ``local_chi2_estimate``, the SDPI search and the
experiment), and ``_sigma_weights`` the one place every chi-square entry
point reads its weight g; both raise :class:`InputError` on a wrong type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import (
    _G_CATALOG,
    FAMILIES,
    FDivergenceSpec,
    SpectralWeight,
    _chi2_f,
    _kl_f,
    _require_spec,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    InputError,
    NotOperatorConvex,
    SingularReference,
)
from .linalg import (
    DensityMatrix,
    _real,
    _validate_states,
    eigvalsh_stack,
    projector_stack,
    stack_full_rank,
    stack_states,
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
    "chi2_quadratic_form",
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


def _require_full_rank(state: DensityMatrix, who: str) -> None:
    if not state.full_rank:
        raise SingularReference(
            f"{who} must be full rank (min eigenvalue {state.min_eigenvalue:.3e})"
        )


def _pair(rho, sigma) -> tuple[DensityMatrix, DensityMatrix]:
    """The validated rho and sigma of a public evaluator, of one dimension
    and with sigma full rank; each error names the argument it concerns.  They
    are one stack, rho first, so a bad rho's error wins (:func:`_validate_states`)."""
    r, s = _validate_states([rho, sigma], ("rho", "sigma"))
    if r.dim != s.dim:
        raise DimensionMismatch(f"rho is {r.dim}x{r.dim} but sigma is {s.dim}x{s.dim}")
    _require_full_rank(s, "sigma")
    return r, s


def epsilon_regularize(rho, eps: float) -> DensityMatrix:
    """Deliberate regularization (1-eps) rho + eps I/d."""
    (r,) = _validate_states([rho], ("rho",))
    eps = _real(eps, "eps")
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must be in (0, 1), got {eps}")
    d = r.dim
    return validate_density((1.0 - eps) * r.entries + (eps / d) * np.eye(d))


def _require_weight(g) -> None:
    """The one check of a chi-square weight argument."""
    if not isinstance(g, SpectralWeight):
        raise InputError(f"g must be a SpectralWeight, got {type(g).__name__}")


def _sigma_weights(sigma: DensityMatrix, g: SpectralWeight) -> np.ndarray:
    """Spectral weight matrix w[i, j] = g(mu_i / mu_j) / mu_j, through which
    every chi-square entry point reads g; raises :class:`InputError` unless
    g is a :class:`SpectralWeight` and every weight is positive and finite."""
    _require_weight(g)
    mu = sigma.eigenvalues
    ratio = mu[:, None] / mu[None, :]
    w = np.asarray(g(ratio), float) / mu[None, :]
    if not (np.isfinite(w) & (w > 0)).all():
        raise InputError(f"weight function {g.name} produced nonpositive weights")
    return w


def _rotated_forms(x: np.ndarray, v: np.ndarray, w: np.ndarray):
    """sum_ij w_ij |(V^dag X V)_ij|^2 for each X of a Hermitian (..., d, d)
    stack, and the rotated stack V^dag X V; v and w broadcast against it."""
    xt = v.conj().swapaxes(-1, -2) @ x @ v
    return (w * (xt.real**2 + xt.imag**2)).sum(axis=(-2, -1)), xt


def _chi2_gradients(xt: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradients in X of the quadratic forms of :func:`_rotated_forms`, from
    the rotated stack xt: 2 V (wbar o xt) V^dag with wbar = (w + w^T)/2, as
    only the Hermitian part of the weights acts on a Hermitian X (the GNS
    weight is not symmetric)."""
    wbar = 0.5 * (w + w.swapaxes(-1, -2))
    return 2.0 * (v @ (wbar * xt) @ v.conj().swapaxes(-1, -2))


#: eigenvalues within this relative gap take the derivative, not the
#: difference quotient, in the Daleckii-Krein gradients
DK_GAP = 1e-8


def _gaps(x: np.ndarray):
    """For a (..., d) stack of nonnegative spectra, the (..., d, d)
    differences x_i - x_k, with 1 in place of the pairs within the relative
    gap DK_GAP (the diagonal included), and the mask of those near pairs."""
    gap = x[..., :, None] - x[..., None, :]
    near = np.abs(gap) <= DK_GAP * np.maximum(x[..., :, None], x[..., None, :])
    return np.where(near, 1.0, gap), near


def _divided_differences(x: np.ndarray, fx: np.ndarray, dfx: np.ndarray) -> np.ndarray:
    """First divided differences (f(x_i) - f(x_k)) / (x_i - x_k) of f on a
    (..., d) stack of spectra, from the values fx and derivatives dfx there;
    the mean derivative on the diagonal and on near-equal pairs."""
    gap, near = _gaps(x)
    return np.where(near, 0.5 * (dfx[..., :, None] + dfx[..., None, :]),
                    (fx[..., :, None] - fx[..., None, :]) / gap)


def chi2_quadratic_form(x: np.ndarray, sigma: DensityMatrix, g: SpectralWeight) -> float:
    """<X, Omega_sigma^g(X)> for Hermitian X, via the sigma eigenbasis; an X
    that is not d x d, d sigma's dimension, raises :class:`DimensionMismatch`."""
    x = np.asarray(x)
    if x.shape != sigma.entries.shape:
        raise DimensionMismatch(f"X has shape {x.shape} but sigma is {sigma.dim}x{sigma.dim}")
    w = _sigma_weights(sigma, g)
    return float(_rotated_forms(x[None], sigma.eigenvectors, w)[0][0])


def chi2_g(rho, sigma, g: SpectralWeight) -> DivergenceValue:
    """Weighted chi-square divergence chi2_g(rho || sigma).

    Computed in the sigma eigenbasis as sum_ij (1/mu_j) g(mu_i/mu_j)
    |X_ij|^2 with X = rho - sigma.
    """
    r, s = _pair(rho, sigma)
    value = chi2_quadratic_form(r.entries - s.entries, s, g)
    return DivergenceValue(value, {"g": g.name})


def chi2_max(rho, sigma) -> DivergenceValue:
    """Maximal chi-square divergence tr[sigma^{-1} (rho-sigma)^2]."""
    r, s = _pair(rho, sigma)
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
    not a finite real number >= 1 (NaN, inf, None, a bool, a string) raises
    :class:`InputError`.
    """
    gamma = _real(gamma, "gamma")
    if gamma < 1.0:
        raise InputError(f"gamma must be a finite number >= 1, got {gamma!r}")
    r, s = _pair(rho, sigma)
    return _positive_eig_sum(r.entries - gamma * s.entries)


class _Reference(NamedTuple):
    """What the family kernels read of a full-rank reference state sigma:
    its entries, eigenvalues mu, eigenvectors psi and sigma^-1/2.  Each
    array may carry leading axes that broadcast against a stack of rho."""

    entries: np.ndarray
    mu: np.ndarray
    psi: np.ndarray
    s_mh: np.ndarray


def _reference(s: DensityMatrix) -> _Reference:
    mu, psi = s.eigenvalues, s.eigenvectors
    return _Reference(s.entries, mu, psi, (psi / np.sqrt(mu)) @ psi.conj().T)


def _references(*states: DensityMatrix) -> _Reference:
    """The references of n full-rank states, each array stacked as
    (n, 1, ...), to broadcast against an (n, k, d, d) stack of rho."""
    return _Reference(*(np.stack(parts)[:, None] for parts in zip(*map(_reference, states))))


def _pencil(rho: np.ndarray, ref: _Reference) -> np.ndarray:
    """sigma^-1/2 rho sigma^-1/2, Hermitized, for a (..., d, d) stack of rho;
    its eigenvalues are the generalized eigenvalues of (rho, sigma)."""
    t = ref.s_mh @ rho @ ref.s_mh
    return 0.5 * (t + t.conj().swapaxes(-1, -2))


def _ht_integrals(f2, rho: np.ndarray, sig: np.ndarray, t: np.ndarray,
                  gradients: bool = False) -> _Stack:
    """The ht integrals of every full-rank rho of a (B, d, d) stack, each
    against its own full-rank reference state (row b of the (B, d, d)
    ``sig``), given the ascending pencil spectra ``t`` (B, d) (eigenvalues
    of :func:`_pencil`), in one stacked quadrature loop.

    The panel edges of rho are its log pencil spectrum and 0, the kink of
    N at g = 1.  As tr rho = tr sigma = 1, the spectrum brackets 1, so 0
    lies in [log t_min, log t_max] up to rounding, which resetting the end
    edges absorbs.  The zero-width panels this or a degenerate spectrum
    leaves are dropped (so rho = sigma gives 0).  Each round makes one
    stacked eigensolve of rho - g sigma over the nodes of all open panels
    of the stack, with :func:`eigvalsh_stack`: the elementwise closed form
    at d = 2, one LAPACK call at d = 3.  Either way a value is bit for bit
    the same alone and in any stack, as long as ``t`` comes from
    :func:`eigvalsh_stack` too.

    With ``gradients`` the loop also integrates, as the quadrature's rider,
    the gradients in rho: f''(e^s) e^s grad N(e^s), with grad N(g) the
    projector P_+ onto the positive eigenvectors of rho - g sigma for
    g >= 1 and -P_- below 1 (:func:`projector_stack`).  N vanishes at
    t_min and t_max and is continuous at the interior kinks, so the
    panel edges, which move with rho, add nothing.  The values, closed on
    the same panels, are those without ``gradients``, bit for bit.
    """
    log_t = np.log(t)
    edges = np.concatenate([log_t, np.zeros((len(t), 1))], axis=1)
    edges.sort(axis=1)
    # 0 sorts first or last only when rounding puts it outside the spectrum;
    # resetting the ends clips it in
    edges[:, 0], edges[:, -1] = log_t[:, 0], log_t[:, -1]

    def integrand(x, owner):
        g = np.exp(x)
        h = rho[owner, None] - g[..., None, None] * sig[owner, None]
        w = eigvalsh_stack(h)
        # the positive part above g = 1, the negative part below
        above = g >= 1.0
        part = np.where(above[..., None], w, -w)
        n_g = np.maximum(part, 0.0).sum(axis=-1)
        weight = np.asarray(f2(g), float) * g
        if not gradients:
            return weight * n_g
        signed = np.where(above, weight, -weight)
        return weight * n_g, signed[..., None, None] * projector_stack(h, part > 0.0)

    res = _integrate_stack(integrand, edges, epsrel=HT_QUAD_RTOL)
    if gradients and res.rider is None:
        # every integral has zero width (rho = sigma): D and its gradient are 0
        res = res._replace(rider=np.zeros(rho.shape, complex))
    return res


def _matsumoto_values(f, rho: np.ndarray, ref: _Reference, df=None):
    """tr[sigma f(T)], T = sigma^-1/2 rho sigma^-1/2, for each rho of a
    (..., d, d) stack, NaN where f is not finite on the pencil spectrum; also
    returns the pencil spectra and, given df = f', the gradients in rho
    sigma^-1/2 V (G o V^dag sigma V) V^dag sigma^-1/2 (None without df),
    with V the eigenvectors of T and G the divided differences of f on its
    spectrum (Daleckii-Krein; Bhatia, Matrix Analysis, ch. V)."""
    tvals, tvecs = np.linalg.eigh(_pencil(rho, ref))
    t = np.clip(tvals, 0.0, None)
    vh = tvecs.conj().swapaxes(-1, -2)
    with np.errstate(all="ignore"):
        fv = np.asarray(f(t), float)
        f_t = (tvecs * fv[..., None, :]) @ vh
        values = (ref.entries @ f_t).trace(axis1=-2, axis2=-1).real
        grads = None
        if df is not None:
            gam = _divided_differences(t, fv, np.asarray(df(t), float))
            u = ref.s_mh @ tvecs
            grads = u @ (gam * (vh @ ref.entries @ tvecs)) @ u.conj().swapaxes(-1, -2)
    bad = ~np.isfinite(fv).all(axis=-1)
    if bad.any():
        values[bad] = np.nan
        if grads is not None:
            grads[bad] = np.nan
    return values, tvals, grads


def _petz_values(f, lam: np.ndarray, phi: np.ndarray, mu: np.ndarray,
                 psi: np.ndarray, df=None):
    """The double sum sum_ij f(lambda_i/mu_j) mu_j |C_ij|^2, C = Phi^dag Psi,
    for a stack of eigenvalues lam (..., d) and eigenvectors phi
    (..., d, d) of rho, with mu and psi broadcasting against it.  Given
    df = f', also returns the gradients in rho, Phi H Phi^dag
    (Daleckii-Krein, summed over the sigma eigenprojections): with
    F_ij = mu_j f(lambda_i/mu_j) and M = (F o C) C^dag,
    H_ik = (M - M^dag)_ik / (lambda_i - lambda_k), and on the diagonal and
    near-equal pairs sum_j f'(lambda_i/mu_j) C_ij conj(C_kj), averaged with
    its value at lambda_k in place of lambda_i."""
    c = phi.conj().swapaxes(-1, -2) @ psi
    overlap = np.abs(c) ** 2
    mu = mu[..., None, :]
    ratio = lam[..., :, None] / mu
    fmu = np.asarray(f(ratio), float) * mu
    values = (fmu * overlap).sum(axis=(-2, -1))
    if df is None:
        return values
    ch = c.conj().swapaxes(-1, -2)
    m = (fmu * c) @ ch
    k = (np.asarray(df(ratio), float) * c) @ ch
    gap, near = _gaps(lam)
    h = np.where(near, 0.5 * (k + k.conj().swapaxes(-1, -2)),
                 (m - m.conj().swapaxes(-1, -2)) / gap)
    return values, phi @ h @ phi.conj().swapaxes(-1, -2)


def _kernel_spec(spec: FDivergenceSpec) -> FDivergenceSpec | SpectralWeight:
    """The kernel that evaluates spec.  Two rules, in which the generator
    decides, not the name:

    * under chi2's generator f = (x - 1)^2, every family is the chi-square
      form of its local weight, globally: ht[chi2] is chi2_kmb and petz[chi2]
      = matsumoto[chi2] is chi2_max (kappa_chi2(x) = (1 + 1/x)/2 is max's
      weight), so the kernel is that :class:`SpectralWeight`, evaluated as
      :func:`chi2_g` is, with no quadrature;
    * an ht spec with kl's generator is the Umegaki relative entropy, as
      petz[kl] is (Frenkel, Quantum 7, 1102, 2023), so its kernel is its
      petz twin's closed form.

    Every other spec is its own kernel.  Specs and weights are frozen and
    hashable, so two labels with equal kernels can share one search; a
    spec kernel keeps the family, since matsumoto[kl] is another kernel."""
    if spec.f is _chi2_f:
        return _G_CATALOG["kmb" if spec.family == "ht" else "max"]
    return spec.with_family("petz") if spec.family == "ht" and spec.f is _kl_f else spec


def _closed_form(spec: FDivergenceSpec, family: str, r: DensityMatrix,
                 s: DensityMatrix) -> DivergenceValue | None:
    """spec's divergence under ``family`` on validated states, when the
    kernel of that spec (:func:`_kernel_spec`) is a closed form: the
    chi-square form of a weight on rho - sigma, as :func:`chi2_g` computes
    it, or petz's double sum; None for the ht quadrature and matsumoto."""
    kernel = _kernel_spec(spec if spec.family == family else spec.with_family(family))
    if isinstance(kernel, SpectralWeight):
        value = chi2_quadratic_form(r.entries - s.entries, s, kernel)
        return DivergenceValue(value, {"family": family, "f": spec.name, "g": kernel.name})
    if kernel.family != "petz":
        return None
    value = float(_petz_values(kernel.f, r.eigenvalues[None], r.eigenvectors[None],
                               s.eigenvalues, s.eigenvectors)[0])
    return DivergenceValue(value, {"family": family, "f": spec.name})


def _divergence_stacks(spec: FDivergenceSpec, lam: np.ndarray, phi: np.ndarray,
                       ref: _Reference):
    """Values of spec's family, and their Hermitian gradients in rho, for
    each state of a validated (..., d, d) stack, given as its eigenvalues
    and eigenvectors (as :func:`validate_stack` gives them), against the
    full-rank reference ``ref``, whose arrays broadcast against the stack's
    leading axes: one kernel call for the whole stack.  petz reads the
    spectra alone; matsumoto and ht read the states, built here with
    :func:`stack_states`.  Call it under ``np.errstate(all="ignore")``:
    the rows it marks NaN may overflow or divide by zero on the way.

    NaN marks the values and gradients where the public evaluator raises a
    :class:`PreconditionError`: a rank-deficient rho for petz and ht, f not
    finite on the pencil spectrum for matsumoto.  Each spec whose kernel is
    petz's (:func:`_kernel_spec`: petz, and ht[kl]) takes petz's closed
    form; the other ht values and gradients are integrated in one stacked
    quadrature loop, in which the reference rides in place of a
    rank-deficient rho.  The spec must have a family, and an operator convex
    generator for petz; its kernel must be a spec, not the weight of chi2's
    generator, whose forms the search takes on differences instead
    (``contraction._objective``).
    """
    kernel = _kernel_spec(spec)
    if kernel.family == "matsumoto":
        return _matsumoto_values(spec.f, stack_states(lam, phi), ref, spec.f1)[::2]
    full = stack_full_rank(lam)
    if kernel.family == "petz":
        values, grads = _petz_values(spec.f, lam, phi, ref.mu, ref.psi, spec.f1)
    else:
        rho = np.where(full[..., None, None], stack_states(lam, phi), ref.entries)
        d = rho.shape[-1]
        res = _ht_integrals(spec.f2, rho.reshape(-1, d, d),
                            np.broadcast_to(ref.entries, rho.shape).reshape(-1, d, d),
                            eigvalsh_stack(_pencil(rho, ref)).reshape(-1, d), gradients=True)
        values, grads = res.value.reshape(full.shape), res.rider.reshape(rho.shape)
    if full.all():
        return values, grads
    return np.where(full, values, np.nan), np.where(full[..., None, None], grads, np.nan)


def _require_family(spec) -> None:
    """The one check of a spec that an evaluator dispatches on its family:
    :class:`InputError` unless it is an :class:`FDivergenceSpec` whose
    family is one of :data:`FAMILIES`, and :class:`NotOperatorConvex` for a
    petz spec whose generator is not operator convex."""
    _require_spec(spec)
    if spec.family not in FAMILIES:
        raise InputError(
            f"spec {spec.name!r} has family {spec.family!r}; set one of {FAMILIES}"
        )
    if spec.family == "petz":
        _require_operator_convex(spec)


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
    integrand nodes of this integral.  The quadrature serves every f but
    two, with no quadrature diagnostics: for kl's generator the integral is
    the Umegaki relative entropy, and the value is petz[kl]'s closed form,
    bit for bit; for chi2's it is chi2_kmb, as :func:`chi2_g` computes it.
    :func:`_kernel_spec`, read for the spec as an ht spec whatever family
    it carries, states both rules.  rho must be full rank either way.
    """
    r, s = _pair(rho, sigma)
    _require_full_rank(r, "rho")
    closed = _closed_form(spec, "ht", r, s)
    if closed is not None:
        return closed
    ref = _reference(s)
    rho1 = r.entries[None]
    t = eigvalsh_stack(_pencil(rho1, ref))
    res = _ht_integrals(spec.f2, rho1, ref.entries[None], t)
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
    has a finite limit at 0 (otherwise :class:`DomainError`).  Under chi2's
    generator the value is chi2_max, as :func:`chi2_g` computes it
    (:func:`_kernel_spec`), with no pencil diagnostics.
    """
    r, s = _pair(rho, sigma)
    closed = _closed_form(spec, "matsumoto", r, s)
    if closed is not None:
        return closed
    values, tvals, _ = _matsumoto_values(spec.f, r.entries[None], _reference(s))
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
    Under chi2's generator the value is chi2_max, as :func:`chi2_g` computes
    it (:func:`_kernel_spec`).
    """
    _require_operator_convex(spec)
    r, s = _pair(rho, sigma)
    _require_full_rank(r, "rho")
    return _closed_form(spec, "petz", r, s)


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
    _require_spec(spec)
    r, s = _pair(rho, sigma)
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


def local_chi2_estimate(evaluator, rho, sigma, lambda_grid=DEFAULT_LOCAL_GRID):
    """Estimate lim_{l->0} D(l rho + (1-l) sigma || sigma) / l^2.

    The evaluator is a callable (rho, sigma) -> D or a spec with its
    family set.  Evaluates the curve on the descending grid and
    Neville-extrapolates the polynomial through (l, D/l^2) to l = 0.
    Returns (limit_estimate, fit_residual) where the residual is the change
    from adding the final grid point; the grid's mixtures are validated in one stack.
    """
    r, s = _pair(rho, sigma)
    if not np.iterable(lambda_grid):
        raise InputError(f"lambda_grid must be a sequence of numbers, got {lambda_grid!r}")
    grid = [_real(x, "lambda_grid point") for x in lambda_grid]
    lam = np.asarray(sorted(set(grid), reverse=True), float)
    if lam.size < 4 or lam[0] >= 1.0 or lam[-1] <= 0.0:
        raise InputError("lambda_grid needs >= 4 distinct points inside (0, 1)")
    if not callable(evaluator):
        _require_family(evaluator)
    h = np.empty(lam.size)
    mixes = _validate_states([l * r.entries + (1.0 - l) * s.entries for l in lam])
    for k, (l, mix) in enumerate(zip(lam, mixes)):
        value = evaluator(mix, s) if callable(evaluator) else evaluate(evaluator, mix, s).value
        h[k] = float(value) / l**2
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
