"""SDPI contraction machinery.

* Omega weights: Omega_sigma^g is the weighted inversion
  X -> sum_ij w_ij <i|X|j> |i><j| in the sigma eigenbasis, with
  w_ij = g(mu_i/mu_j)/mu_j, so the d x d weight matrix w determines it.
* Exact chi-square SDPI constants via the Hermitized second-singular-value
  formula.
* Variational lower-bound estimation of SDPI constants for the
  chi-square weights and the ht, petz and matsumoto families (seeded
  multi-start BFGS ascent on log R, with Armijo line-search trials
  evaluated two per restart and round, (1, 1/2), (1/4, 1/8), ..., or
  (2, 1), (1/2, 1/4), ... after a step that took alpha >= 1, and the
  inverse Hessian reset to steepest ascent when a line search fails on
  valid points; a call's restarts run in lockstep, each round one stacked
  ratio call with exact gradients from one validation and one call per
  kernel on the stack of rho and E(rho); sigma's and E(sigma)'s eigen-data
  are computed once per wave).
* Detailed-balance residuals and the GNS implies-all-g check.
* The contraction-rate experiment harness with rate-bound and
  tightness verdicts.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .catalog import (
    FDivergenceSpec,
    SpectralWeight,
    _label,
    g_catalog,
    gns_weight,
    local_weight,
)
from .channels import (
    QuantumChannel,
    _primitivity,
    apply,
    channel_power,
    # not called here: the benchmark's tracer patches both names on this module
    fixed_point,  # noqa: F401
    is_primitive,  # noqa: F401
)
from .divergences import (
    _chi2_gradients,
    _divergence_stacks,
    _kernel_spec,
    _references,
    _rotated_forms,
    _require_family,
    _require_full_rank,
    _require_weight,
    _sigma_weights,
    # not called here: the benchmark's tracer patches both names on this module
    chi2_quadratic_form,  # noqa: F401
    evaluate,  # noqa: F401
)
from .errors import (
    AllRestartsDegenerate,
    DimensionMismatch,
    InputError,
    NotPrimitive,
    NumericalError,
)
from .linalg import (
    DensityMatrix,
    _integer,
    stack_valid,
    validate_density,
    validate_stack,
    vectorize,
)

__all__ = [
    "SdpiEstimate",
    "VariationalOptions",
    "ExperimentOptions",
    "ExperimentReport",
    "omega",
    "sdpi_chi2",
    "sdpi_variational",
    "detailed_balance_residual",
    "carlen_maas_check",
    "sdpi_submultiplicativity_check",
    "contraction_experiment",
    "report_payload",
    "report_csv",
    "CSV_SCHEMA_VERSION",
    "DB_TOL",
    "DEFAULT_SEED",
]

#: residual below which a channel is treated as g-detailed balanced
DB_TOL = 1e-9

#: states within this trace distance of sigma are excluded from the search;
#: see test_exclusion_radius_keeps_kernels_accurate for how it was chosen
EXCLUSION = 1e-3
#: Frobenius norm of rho - sigma beyond which a state is outside the
#: exclusion ball with no eigensolve (||X||_1 / 2 >= ||X||_F / sqrt 2 for
#: traceless X), with a margin for rounding
_FROBENIUS_CLEAR = math.sqrt(2.0) * EXCLUSION * (1.0 + 1e-8)
#: length of each restart's first (steepest-ascent) step, relative to ||x||
INIT_STEP = 0.25
#: Armijo constant of the line search on log R
ARMIJO = 1e-4
#: line-search step floor of every search: no trial is shorter than this
STEP_TOL = 1e-6
#: a restart has converged when ||x|| ||grad log R|| falls below GRAD_TOL, or
#: when no line-search trial passes while it is below STALL_TOL: at the
#: step floor STEP_TOL that gradient would raise log R by about 1e-10, the
#: rounding of the petz and matsumoto ratios near the exclusion ball, so
#: larger gradients with no passing trial are a stall, not rounding
GRAD_TOL = 1e-9
STALL_TOL = 1e-4
#: slack of the experiment's rate and tightness verdicts
SLACK = 0.02
#: the tightness verdict's power equality eta(E^n) = eta(E)^n is judged on
#: the singular values sqrt(eta), which an SVD resolves to a few ulps of the
#: top one (1 at the fixed point): they must agree within POWER_SV_RTOL
#: relative (1e-7 on eta) plus POWER_SV_FLOOR absolute, so that a channel
#: with eta near 0 is not judged on rounding
POWER_SV_RTOL = 5e-8
POWER_SV_FLOOR = 256 * math.ulp(1.0)

CSV_SCHEMA_VERSION = "v1"
#: seed of the searches and experiments when none is given
DEFAULT_SEED = 1729


def omega(sigma, g: SpectralWeight) -> np.ndarray:
    """Read-only weight matrix w of Omega_sigma^g.

    Omega_sigma^g acts on the sigma-eigenbasis matrix units as
    |i><j| -> w_ij |i><j| with w_ij = g(mu_i/mu_j)/mu_j (eigenvalues
    ascending); its inverse and square roots have the entrywise
    reciprocal and square-root weights.  Raises :class:`InputError` unless
    every weight is positive and finite, as every chi-square entry point
    does.
    """
    s = validate_density(sigma)
    _require_full_rank(s, "sigma")
    w = _sigma_weights(s, g)
    w.setflags(write=False)
    return w


def _channel_sigma(channel: QuantumChannel, sigma) -> DensityMatrix:
    """The validated full-rank sigma of a channel entry point, of the
    channel's dimension."""
    s = validate_density(sigma)
    if channel.dim != s.dim:
        raise DimensionMismatch("channel and sigma dimensions differ")
    _require_full_rank(s, "sigma")
    return s


def _eigenbasis(channel: QuantumChannel, sigma):
    """The validated full-rank sigma and the channel's superoperator matrix
    Mt in the sigma eigenbasis."""
    s = _channel_sigma(channel, sigma)
    return s, channel.superop.in_basis(s.eigenvectors)


def _frame(channel: QuantumChannel, sigma) -> tuple[DensityMatrix, DensityMatrix]:
    """The validated full-rank sigma of a channel entry point and E(sigma), the
    reference of every SDPI numerator, full rank too (:class:`SingularReference`)."""
    s = _channel_sigma(channel, sigma)
    e_s = apply(channel, s)
    _require_full_rank(e_s, "E(sigma)")
    return s, e_s


def _db_residual(mt: np.ndarray, w: np.ndarray) -> float:
    """||D Mt^dag - Mt D||_F / ||D||_F with D = diag(1/vec(w)), w = omega(s, g)."""
    inv = 1.0 / vectorize(w)
    resid = inv[:, None] * mt.conj().T - mt * inv[None, :]
    return float(np.linalg.norm(resid) / np.linalg.norm(inv))


@dataclass(frozen=True)
class SdpiEstimate:
    """An SDPI constant, either exact (lambda_2) or a variational lower bound."""

    value: float
    method: str
    argmax_state: DensityMatrix | None = None
    top_eigenvalue_check: float | None = None
    restarts_used: int = 0
    diagnostics: dict = field(default_factory=dict)


def _sdpi_chi2(s: DensityMatrix, nt: np.ndarray, w_in: np.ndarray,
               w_out: np.ndarray) -> SdpiEstimate:
    """sdpi_chi2 for the validated sigma ``s``, the channel's matrix ``nt`` from the
    s eigenbasis to the E(s) one, and the weights omega(s, g) and omega(E(s), g)."""
    _, svals, v_h = np.linalg.svd(
        np.sqrt(vectorize(w_out))[:, None] * nt / np.sqrt(vectorize(w_in))[None, :])
    top = float(svals[0])
    # vec(s^(1/2)) must carry the top singular subspace
    target = vectorize(np.diag(np.sqrt(s.eigenvalues)))
    overlap = float(np.linalg.norm(v_h[svals >= top - 1e-7] @ target))
    if abs(top - 1.0) > 1e-7 or overlap < 0.99:
        raise NumericalError(f"top singular value {top:.12f} (overlap {overlap:.3f}) "
                             "is not witnessed by sigma^(1/2)")
    return SdpiEstimate(value=min(max(float(svals[1]) ** 2, 0.0), 1.0),
                        method="exact_lambda2", top_eigenvalue_check=top,
                        diagnostics={"singular_values": svals.copy(), "top_overlap": overlap})


def sdpi_chi2(channel: QuantumChannel, sigma, g: SpectralWeight) -> SdpiEstimate:
    """Exact chi-square SDPI constant, at any full-rank sigma whose E(sigma)
    is full rank too (else :class:`SingularReference`):
    eta = sup_rho chi2_g(E(rho) || E(sigma)) / chi2_g(rho || sigma), the
    supremum that the chi-square search bounds from below.

    Forms N = sqrt(Omega_E(sigma)) E inv_sqrt(Omega_sigma), with E written
    from the sigma eigenbasis to the E(sigma) eigenbasis, where both Omegas
    are diagonal: rows scaled by sqrt(omega(E(sigma), g)), columns by
    1/sqrt(omega(sigma, g)).  eta is the square of the second-largest
    singular value.  The standard monotone chi-square forms contract under
    every channel, so the top singular value is 1, witnessed by
    vec(sigma^(1/2)) = vec(diag(sqrt(mu))) in the eigenbasis; otherwise
    :class:`NumericalError` is raised.
    """
    s, e_s = _frame(channel, sigma)
    nt = channel.superop.in_basis(s.eigenvectors, e_s.eigenvectors)
    return _sdpi_chi2(s, nt, _sigma_weights(s, g), _sigma_weights(e_s, g))


def _seed(x) -> int:
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral) and x >= 0):
        raise InputError(f"seed must be a nonnegative integer, got {x!r}")
    return int(x)


def _seed_list(seed) -> list:
    return [_seed(x) for x in (seed if isinstance(seed, (tuple, list)) else [seed])]


def _store(options, **values) -> None:
    """Replace fields of a frozen options instance by their checked values."""
    for name, value in values.items():
        object.__setattr__(options, name, value)


@dataclass(frozen=True)
class VariationalOptions:
    """Settings of the multi-start variational SDPI search: restarts (>= 1)
    and max_iters (>= 1) of each restart, and the seed (an integer >= 0 or
    a tuple of them)."""

    restarts: int = 32
    max_iters: int = 150
    seed: object = DEFAULT_SEED

    def __post_init__(self):
        seeds = _seed_list(self.seed)
        _store(self, restarts=_integer(self.restarts, "restarts", 1),
               max_iters=_integer(self.max_iters, "max_iters", 1),
               seed=tuple(seeds) if isinstance(self.seed, (tuple, list)) else seeds[0])


def _outside_ball(rho: np.ndarray, sigma: np.ndarray):
    """Where the states of a (B, d, d) stack lie at trace distance
    >= EXCLUSION from sigma, and the differences rho - sigma.

    For traceless X, ||X||_1 / 2 >= ||X||_F / sqrt 2, so a row whose
    Frobenius norm is at least _FROBENIUS_CLEAR is kept without an
    eigensolve; only the others go through ``eigvalsh``.
    """
    x = rho - sigma
    keep = np.sqrt((x.real**2 + x.imag**2).sum(axis=(1, 2))) >= _FROBENIUS_CLEAR
    if not keep.all():
        near = np.flatnonzero(~keep)
        keep[near] = 0.5 * np.abs(np.linalg.eigvalsh(x[near])).sum(axis=1) >= EXCLUSION
    return keep, x


def _objective(evaluators, channel: QuantumChannel, sigma: DensityMatrix):
    """Build the objective ``ratios`` of a wave of SDPI searches and the
    label of each evaluator.

    ``ratios(rho, parts)`` maps a (B, d, d) stack of states rho to the B
    values R = D(E(rho) || E(sigma)) / D(rho || sigma) and their (B, d, d)
    Hermitian gradients in rho, in one call; ``parts`` lists pairs
    (i, stop), in row order: the rows up to stop, from the previous stop,
    are points of ``evaluators[i]``.  The evaluators are FDivergenceSpecs
    with family set, each resolved here to its kernel (:func:`_kernel_spec`),
    or one SpectralWeight (chi-square objective, computed on differences by
    linearity); anything else raises :class:`InputError`.  NaN marks an
    invalid point: within trace distance EXCLUSION of sigma, a denominator
    that is not positive or a numerator that is not finite, rho or E(rho)
    rejected by state validation, or outside an evaluator's domain; its
    gradient is NaN too.

    E acts on the whole stack, and the denominators and numerators are one
    (2, B, d, d) stack: group 0 is rho against sigma, group 1 is E(rho)
    against E(sigma).  sigma's and E(sigma)'s eigen-data are computed
    here, once per wave, as (2, 1, ...) references.  A call makes one
    :func:`validate_stack` call on that stack (none for chi-square) and one
    family kernel call per part, so ht with f other than kl integrates both
    groups in one quadrature loop.  The gradients are exact:
    G = (E*(grad N) - R grad D) / D with grad N and grad D the kernel's
    gradients at E(rho) and rho, and E* the adjoint channel, built here
    once.  E and E* act through ``Superoperator._apply``, with no input
    checks; a call runs under one ``np.errstate`` and skips the NaN masking
    when every point is valid.
    """
    for evaluator in evaluators:
        if not isinstance(evaluator, (SpectralWeight, FDivergenceSpec)):
            raise InputError(
                "evaluator must be a SpectralWeight or an FDivergenceSpec with family, "
                f"got {type(evaluator).__name__}"
            )
    sigma, e_sigma = _frame(channel, sigma)

    adjoint = channel.superop.adjoint()

    def ratio_gradients(ok, values, grads):
        # the ratios R = num / den where ok holds, NaN elsewhere, and their
        # gradients; a non-finite kernel gradient gives a NaN gradient but
        # leaves R as it is, so the search counts the point as one without
        # a finite gradient.  Call under np.errstate(all="ignore").
        (den, num), (den_grad, num_grad) = values, grads
        ok = ok & (den > 0.0) & np.isfinite(num)
        fin = np.isfinite(num_grad).all(axis=(1, 2))[:, None, None]
        clean = ok.all() and fin.all()
        r = num / den
        e_star = adjoint._apply(num_grad if clean else np.where(fin, num_grad, 0.0))
        g = (e_star - r[:, None, None] * den_grad) / den[:, None, None]
        if clean:
            return r, g
        return np.where(ok, r, np.nan), np.where(fin & ok[:, None, None], g, np.nan)

    if isinstance(evaluators[0], SpectralWeight):
        weight = evaluators[0]
        v = np.stack([sigma.eigenvectors, e_sigma.eigenvectors])[:, None]
        w = np.stack([_sigma_weights(sigma, weight),
                      _sigma_weights(e_sigma, weight)])[:, None]

        def ratios(rho, parts):
            keep, x = _outside_ball(rho, sigma.entries)
            ex = channel.superop._apply(x)
            pair = np.concatenate([x, 0.5 * (ex + ex.conj().transpose(0, 2, 1))])
            forms, xt = _rotated_forms(pair.reshape((2,) + x.shape), v, w)
            with np.errstate(all="ignore"):
                return ratio_gradients(keep, forms, _chi2_gradients(xt, v, w))

        return ratios, [f"chi2[{weight.name}]"]

    for spec in evaluators:
        _require_family(spec)
    kernels = [_kernel_spec(spec) for spec in evaluators]
    ref = _references(sigma, e_sigma)

    def ratios(rho, parts):
        keep, _ = _outside_ball(rho, sigma.entries)
        pair = np.concatenate([rho, channel.superop._apply(rho)]).reshape((2,) + rho.shape)
        lam, phi, *checks = validate_stack(pair)
        valid = stack_valid(*checks)
        with np.errstate(all="ignore"):
            if len(parts) == 1:
                values, grads = _divergence_stacks(kernels[parts[0][0]], lam, phi, ref)
            else:
                out = [_divergence_stacks(kernels[i], lam[:, a:b], phi[:, a:b], ref)
                       for (i, b), a in zip(parts, [0] + [stop for _, stop in parts])]
                values, grads = (np.concatenate(z, axis=1) for z in zip(*out))
            return ratio_gradients(keep & valid[0] & valid[1], values, grads)

    return ratios, [_label(spec) for spec in evaluators]


def _param_states(x: np.ndarray, d: int):
    """The matrices A (B, d, d) of a (B, 2 d^2) stack of parameter vectors
    x, the real then the imaginary parts of A, with t = ||x||^2 and the
    states A A^dag / tr: I/d where the trace vanishes, that is where A = 0."""
    a = (x[:, : d * d] + 1j * x[:, d * d:]).reshape(-1, d, d)
    m = a @ a.conj().transpose(0, 2, 1)
    tr = m.trace(axis1=1, axis2=2).real
    zero = tr <= 0.0
    if zero.any():
        m[zero] = np.eye(d)
        tr[zero] = d
    return a, (x * x).sum(axis=1), m / tr[:, None, None]


def _rho_from_params(x: np.ndarray, d: int) -> np.ndarray:
    """The states of :func:`_param_states` alone."""
    return _param_states(x, d)[2]


def _init_params(rng: np.random.Generator, sigma: DensityMatrix, kind: int) -> np.ndarray:
    d = sigma.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v, mu = sigma.eigenvectors, sigma.eigenvalues
    sqrt_sigma = (v * np.sqrt(mu)) @ v.conj().T
    scales = (0.02, 0.1, 0.4, None)
    scale = scales[kind % 4]
    a = g if scale is None else sqrt_sigma + scale * g
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


#: counters of the search, summed over restarts into ``diagnostics``
COUNTERS = ("ratio_calls", "ratio_evaluations", "curvature_skips", "nonfinite_gradients",
            "reinits", "identity_fallbacks", "hessian_resets", "extrapolations")
#: why a restart's ascent stopped
STOP_REASONS = ("converged", "line_search_exhausted", "max_iters")
#: restart values whose spread ``diagnostics["top_spread"]`` reports
TOP_RESTARTS = 3


def _new_counts() -> dict:
    return {**dict.fromkeys(COUNTERS, 0), "stop_reasons": dict.fromkeys(STOP_REASONS, 0)}


def _total_counts(diagnostics) -> dict:
    """The search counters and stop reasons summed over the ``diagnostics``
    of several searches, or over the counts of a wave's summary."""
    total = _new_counts()
    for diag in diagnostics:
        for key in COUNTERS:
            total[key] += diag[key]
        for key in STOP_REASONS:
            total["stop_reasons"][key] += diag["stop_reasons"][key]
    return total


def _kernel_searches(specs_by_label: dict, channel: QuantumChannel, sigma,
                     options) -> tuple[dict, dict]:
    """Run one search per distinct kernel spec (:func:`_kernel_spec`) on
    channel and sigma, all in one wave (:func:`_sdpi_searches`), in label
    order, with the options ``options(idx)``, idx the position of the first
    label of that kernel, and give its estimate to every label of the
    kernel, so ht[kl] and petz[kl] run one search.  Returns the estimates
    by label and the summary of the wave, the one home of what its searches
    did: ``searches``, the counters of each search that ran, keyed by its
    label; ``shared_searches``, the map from each label that reused a
    search to the label that ran it; and ``stacked_calls``, the wave's
    rounds.  ``qcontract sdpi`` reports this summary as is and
    :func:`contraction_experiment` folds one per power."""
    owners, runs, shared = {}, {}, {}
    for idx, (label, spec) in enumerate(specs_by_label.items()):
        owner = owners.setdefault(_kernel_spec(spec), label)
        if owner == label:
            runs[label] = (spec, options(idx))
        else:
            shared[label] = owner
    estimates = dict(zip(runs, _sdpi_searches(channel, sigma, list(runs.values()))))
    summary = {"searches": {label: _total_counts([est.diagnostics])
                            for label, est in estimates.items()},
               "shared_searches": shared,
               "stacked_calls": next(iter(estimates.values())).diagnostics["stacked_calls"]}
    return {label: estimates[shared.get(label, label)] for label in specs_by_label}, summary


def _param_gradients(a: np.ndarray, t: np.ndarray, rho: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """dR/dx for a (B, 2 d^2) stack of parameter vectors x, given its
    matrices A, t = ||x||^2 = tr A A^dag and states rho = A A^dag / t (as
    :func:`_param_states` returns them) and the gradients g of R in rho:
    the real and imaginary parts of 2 (G - tr(rho G) I) A / t; 0 where
    A = 0."""
    n = a.shape[-1] ** 2
    pos = t > 0.0
    scale = 2.0 / t if pos.all() else np.divide(2.0, t, out=np.zeros_like(t), where=pos)
    c = (rho * g.transpose(0, 2, 1)).sum(axis=(1, 2)).real
    m = (scale[:, None, None] * (g @ a - c[:, None, None] * a)).reshape(-1, n)
    return np.concatenate([m.real, m.imag], axis=1)


def _ascend(x0: np.ndarray, d: int, opts: VariationalOptions, counts: dict):
    """One quasi-Newton restart on log R, as a generator: it yields each
    stack of points to evaluate and is sent their ratios and gradients in x
    (:func:`_lockstep`); returns (value, rho, iterations, stop reason), or
    None when x0 is not a valid point.

    BFGS with a dense inverse Hessian H of -log R over the 2 d^2
    parameters (Nocedal & Wright, *Numerical Optimization*, ch. 6).  Until
    the first step pair (s, y) with s.y > 0, each direction is the
    gradient scaled to INIT_STEP ||x||; that pair starts H as
    (s.y / y.y) I, and each later pair updates it, except that a pair with
    s.y <= 0 leaves H as it is (``counts["curvature_skips"]``).  The
    gradient of log R is that of R over R.  Each evaluation returns the
    values and the exact gradients of the points it holds (see
    ``_objective``), so the accepted trial's gradient is the next one and
    no call is made for a gradient alone.

    The line search passes a trial whose log R rises by at least
    ARMIJO alpha (grad log R . p); a trial whose ratio is not finite and
    positive is rejected.  Its trials go two per yield while
    ||alpha p|| >= STEP_TOL, each pair formed when the previous one
    fails; the log is taken only of a rise.  The pairs are (1, 1/2), then
    (1/4, 1/8) and so on, and the first passing trial, in order, is taken.
    After an iteration that took alpha >= 1, the quasi-Newton step may be
    too short, so the first pair extrapolates: it is (2, 1), and the
    higher passing trial of the two is taken, but neither if the full step
    alpha = 1 is an invalid point (stepping past it may land on a far,
    valid point); then the pairs go on (1/2, 1/4), (1/8, 1/16) and so on,
    first passing trial first (``counts["extrapolations"]`` counts the
    accepted alpha = 2 steps).  When no trial passes although every trial
    was a valid point, H exists and the stop test is at least STALL_TOL,
    H is what failed: it is dropped (``counts["hessian_resets"]``), which
    uses the iteration, and the next direction is the INIT_STEP
    steepest-ascent step, as at the start, with no extrapolation.

    A start point whose ratio is 0 (or below) has no log R: it is a
    converged restart at once, with that value.  Only improvements are
    accepted, so the final point is the best.  The iterations are the
    gradients used.  Since R(c x) = R(x), the stop test
    ||x|| ||grad log R|| does not depend on the scale of x: below GRAD_TOL
    the restart has ``converged``, as it has when no trial passes while
    that test is below STALL_TOL (rounding then hides the rise); no
    passing trial otherwise, with no inverse Hessian to reset or an
    invalid trial, is ``line_search_exhausted``; or the restart stops
    after ``max_iters``.
    """
    n = x0.size
    x = x0.copy()
    f, grads = yield x[None]
    f0, dr = f[0], grads[0]
    if not np.isfinite(f0):
        return None
    h_inv = s = grad_old = None
    full = False
    stop = "max_iters"
    for it in range(opts.max_iters):
        if f0 <= 0.0:
            # only a start point can be here: log R is undefined at R = 0
            stop = "converged"
            break
        grad = dr / f0
        x_norm, g_norm = math.sqrt(x.dot(x)), math.sqrt(grad.dot(grad))
        scaled = x_norm * g_norm
        if scaled < GRAD_TOL:
            stop = "converged"
            break
        if s is not None:
            # the gradient change of -log R
            y = grad_old - grad
            sy = s.dot(y)
            if sy > 0.0:
                if h_inv is None:
                    h_inv = (sy / y.dot(y)) * np.eye(n)
                hy = h_inv @ y
                s_col = s[:, None]
                h_inv += ((1.0 + y.dot(hy) / sy) * (s_col * s) - hy[:, None] * s - s_col * hy) / sy
            else:
                counts["curvature_skips"] += 1
        p = grad * (INIT_STEP * x_norm / g_norm) if h_inv is None else h_inv @ grad
        slope = grad.dot(p)
        p_norm = math.sqrt(p.dot(p))
        accepted, valid = None, True
        alpha = 2.0 if full and p_norm >= STEP_TOL else 1.0
        while accepted is None and alpha * p_norm >= STEP_TOL:
            half = 0.5 * alpha
            a = [alpha, half] if half * p_norm >= STEP_TOL else [alpha]
            x_try = x + np.array(a)[:, None] * p
            f_try, g_try = yield x_try
            valid = valid and bool(np.isfinite(f_try).all())
            # f0 > 0, so the log is taken of a ratio above 1 only
            ok = [k for k, fk in enumerate(f_try.tolist())
                  if fk > f0 and np.log(fk / f0) >= ARMIJO * a[k] * slope]
            if alpha > 1.0:
                # (2, 1): the higher passing trial, and none past an invalid full step
                ok = [max(ok, key=f_try.__getitem__)] if ok and np.isfinite(f_try[1]) else []
            accepted = ok[0] if ok else None
            alpha = 0.5 * half
        if accepted is None:
            if h_inv is not None and valid and scaled >= STALL_TOL:
                # valid trials that do not rise: H has gone bad, not the point
                counts["hessian_resets"] += 1
                h_inv = s = None
                full = False
                continue
            stop = "converged" if scaled < STALL_TOL else "line_search_exhausted"
            break
        full = a[accepted] >= 1.0
        counts["extrapolations"] += a[accepted] > 1.0
        s, grad_old = x_try[accepted] - x, grad
        x, f0, dr = x_try[accepted], f_try[accepted], g_try[accepted]
    counts["stop_reasons"][stop] += 1
    return float(f0), _rho_from_params(x[None], d)[0], it + 1, stop


def _restart(rng: np.random.Generator, sigma: DensityMatrix, k: int,
             opts: VariationalOptions, counts: dict):
    """Restart k of a search: :func:`_ascend` from up to four starting points
    drawn from ``rng``, each after an invalid one (``counts["reinits"]``)."""
    for attempt in range(4):
        counts["reinits"] += attempt > 0
        res = yield from _ascend(_init_params(rng, sigma, k), sigma.dim, opts, counts)
        if res is not None:
            return res


def _lockstep(ratios, d: int, restarts: list) -> tuple[list, int]:
    """Run restart generators (:func:`_restart`, :func:`_ascend`) in
    lockstep on the ``ratios`` of :func:`_objective`; returns their
    results, in order, and the number of rounds.

    ``restarts`` holds (generator, counts, i), in order of i, the index of
    the restart's evaluator.  Each round makes one ratios call, with one
    :func:`_param_states` and one :func:`_param_gradients` call, on the
    points the active restarts yielded, in order, and sends each restart
    its rows, NaN where A is 0 (I/d has no gradient) or the gradient is not
    finite; a restart leaves when its generator returns, and a lone one's
    round stacks and splits nothing.  Each restart in a round adds 1 to its
    ``ratio_calls`` and its points to ``ratio_evaluations``,
    ``identity_fallbacks`` and ``nonfinite_gradients``.
    """
    results = [None] * len(restarts)
    active = [(j, gen, counts, i, next(gen)) for j, (gen, counts, i) in enumerate(restarts)]
    rounds = 0
    while active:
        rounds += 1
        lone = len(active) == 1
        if lone:
            x, parts = active[0][4], [(active[0][3], len(active[0][4]))]
        else:
            x = np.concatenate([r[4] for r in active])
            ends = itertools.accumulate(len(r[4]) for r in active)
            parts = list(dict(zip([r[3] for r in active], ends)).items())
        a, t, rho = _param_states(x, d)
        f, g = ratios(rho, parts)
        g = _param_gradients(a, t, rho, g)
        zero = None if (t > 0.0).all() else t <= 0.0
        if zero is not None:
            f[zero] = np.nan
        lost = None if np.isfinite(g).all() else np.isfinite(f) & ~np.isfinite(g).all(axis=1)
        if lost is not None:
            f[lost] = np.nan
        still, start = [], 0
        for j, gen, counts, i, trial in active:
            stop = start + len(trial)
            counts["ratio_calls"] += 1
            counts["ratio_evaluations"] += stop - start
            if zero is not None:
                counts["identity_fallbacks"] += int(zero[start:stop].sum())
            if lost is not None:
                counts["nonfinite_gradients"] += int(lost[start:stop].sum())
            sent = (f, g) if lone else (f[start:stop], g[start:stop])
            try:
                still.append((j, gen, counts, i, gen.send(sent)))
            except StopIteration as done:
                results[j] = done.value
            start = stop
        active = still
    return results, rounds


def _sdpi_searches(channel: QuantumChannel, sigma, searches: list) -> list:
    """The estimates of the searches (evaluator, VariationalOptions) on one
    channel and sigma, whose restarts (restart k seeded seed + [k]) run as
    one wave (:func:`_lockstep`); the evaluators are family specs of
    distinct kernels or one SpectralWeight.  A point's ratio does not depend
    on its stack, so each search gives, bit for bit, what it gives alone."""
    s = _channel_sigma(channel, sigma)
    ratios, labels = _objective([evaluator for evaluator, _ in searches], channel, s)
    counts = [_new_counts() for _ in searches]
    results, rounds = _lockstep(ratios, channel.dim, [
        (_restart(np.random.default_rng(_seed_list(opts.seed) + [k]), s, k, opts, c), c, i)
        for i, ((_, opts), c) in enumerate(zip(searches, counts)) for k in range(opts.restarts)])
    ordered, estimates = iter(results), []
    for (_, opts), label, count in zip(searches, labels, counts):
        valid = [r for r in itertools.islice(ordered, opts.restarts) if r is not None]
        if not valid:
            raise AllRestartsDegenerate(
                f"no restart of {opts.restarts} found a valid starting point (outside the "
                f"ball of radius {EXCLUSION:g} around sigma, with a finite ratio of positive "
                f"denominator and a finite gradient); {count['reinits']} reinits, "
                f"{count['ratio_evaluations']} ratio evaluations")
        best_f, best_rho, _, _ = max(valid, key=lambda r: r[0])
        top = sorted((float(r[0]) for r in valid), reverse=True)[:TOP_RESTARTS]
        estimates.append(SdpiEstimate(
            value=min(max(float(best_f), 0.0), 1.0),
            method="variational",
            argmax_state=validate_density(best_rho),
            restarts_used=opts.restarts,
            diagnostics={
                "objective": label,
                "raw_best": float(best_f),
                "clipped_above_one": bool(best_f > 1.0),
                "valid_restarts": len(valid),
                "restart_values": [float(r[0]) for r in valid],
                "restart_iterations": [r[2] for r in valid],
                "restart_stops": [r[3] for r in valid],
                "top_spread": top[0] - top[-1],
                **count,
                "stacked_calls": rounds,
            },
        ))
    return estimates


def sdpi_variational(evaluator, channel: QuantumChannel, sigma,
                     opts: VariationalOptions | None = None) -> SdpiEstimate:
    """Variational lower-bound estimate of the SDPI constant.

    Maximizes R = D(E(rho) || E(sigma)) / D(rho || sigma) over rho = A A^dag
    / tr, with seeded multi-start BFGS ascent on log R and an Armijo
    line search whose trials go two per restart and round: it backtracks
    from alpha = 1, or, after a step that took alpha >= 1, first tries
    alpha = 2 beside 1; a line search that fails on valid points only
    drops the inverse Hessian and goes on from steepest ascent once (see
    ``_ascend``).  The evaluator is a SpectralWeight (the chi-square
    objective) or an FDivergenceSpec with its family set (ht, petz or
    matsumoto); anything else raises :class:`InputError`.  Each ratio call
    returns the values with their exact gradients.  States within trace
    distance ``EXCLUSION`` of sigma are excluded, as are points whose ratio
    is not finite or whose states the evaluator rejects; if no restart
    finds a valid starting point, :class:`AllRestartsDegenerate` is raised.
    A starting point whose ratio is 0 is a valid restart of value 0.  The
    restarts run in lockstep (``_sdpi_searches``), each on the path it takes
    alone, and the result is deterministic per seed.

    ``diagnostics`` counts, summed over restarts, the ratio calls each
    restart took part in (``ratio_calls``) and the points they evaluated
    (``ratio_evaluations``), the BFGS updates skipped because s.y <= 0
    (``curvature_skips``), the points with a ratio but no finite gradient
    (``nonfinite_gradients``), the extra starting points tried after an
    invalid one, the evaluated points whose parameter matrix was 0 and so
    stood for I/d, the inverse Hessians dropped after a line search that
    failed on valid points (``hessian_resets``), the accepted alpha = 2
    steps (``extrapolations``), and how many restarts stopped for each reason
    (``stop_reasons``: ``converged``, ``line_search_exhausted`` or
    ``max_iters``); ``stacked_calls`` counts the stacked calls it made.
    Per valid restart it lists the value, the iterations and the stop
    reason; ``top_spread`` is the best value minus the lowest of the best
    ``TOP_RESTARTS`` values, 0 for one valid restart.
    ``clipped_above_one`` records whether the best ratio exceeded 1 and was
    clipped to 1, which flags an objective that breaks data processing.
    """
    return _sdpi_searches(channel, sigma, [(evaluator, opts or VariationalOptions())])[0]


def detailed_balance_residual(channel: QuantumChannel, sigma, g: SpectralWeight) -> float:
    """Residual of the g-detailed-balance equation
    Omega^{-1} E* = E Omega^{-1}, Frobenius-normalized by ||Omega^{-1}||.

    Evaluated in the sigma eigenbasis, where Omega^{-1} is the diagonal
    D = diag(1/w): ||D Mt^dag - Mt D||_F / ||D||_F equals the
    computational-basis residual because the Frobenius norm is unitarily
    invariant.
    """
    s, mt = _eigenbasis(channel, sigma)
    return _db_residual(mt, omega(s, g))


def carlen_maas_check(channel: QuantumChannel, sigma) -> dict:
    """Residual map over the GNS weight and every catalog g.

    If the GNS residual is <= 1e-9, every standard monotone residual must
    be <= 1e-7 (GNS detailed balance is the strongest); a violation would
    mean the Omega construction is broken, so it raises.
    """
    s, mt = _eigenbasis(channel, sigma)
    weights = {"gns": gns_weight(), **g_catalog()}
    residuals = {name: _db_residual(mt, omega(s, g)) for name, g in weights.items()}
    if residuals["gns"] <= DB_TOL:
        bad = {k: v for k, v in residuals.items() if k != "gns" and v > 1e-7}
        if bad:
            raise NumericalError(
                f"GNS detailed balance holds but catalog residuals exceed 1e-7: {bad}"
            )
    return residuals


def sdpi_submultiplicativity_check(channel: QuantumChannel, sigma,
                                   g: SpectralWeight, n: int) -> bool:
    """True iff eta_{chi2_g}(E^n, sigma) <= eta_{chi2_g}(E, sigma)^n + 1e-8.

    sigma must be fixed by the channel: the bound follows from
    eta(E o F, sigma) <= eta(E, F(sigma)) eta(F, sigma) only when
    F(sigma) = sigma."""
    base = sdpi_chi2(channel, sigma, g).value
    power = sdpi_chi2(channel_power(channel, n), sigma, g).value
    return bool(power <= base**n + 1e-8)


@dataclass(frozen=True)
class ExperimentOptions:
    """Configuration for the contraction-rate experiment: restarts (>= 1),
    max_iters (>= 1) and seed (an integer >= 0) of each search."""

    restarts: int = 12
    max_iters: int = 100
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _store(self, restarts=_integer(self.restarts, "restarts", 1),
               max_iters=_integer(self.max_iters, "max_iters", 1), seed=_seed(self.seed))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-n contraction data for one channel plus the two verdicts;
    ``diagnostics`` (outside ``report_payload``) folds the summaries of the
    waves, one per power, that :func:`_kernel_searches` returns: their
    ``searches`` summed into ``search_totals``, their ``shared_searches``
    and the sum of their ``stacked_calls``."""

    channel_label: str
    dim: int
    fixed_point: DensityMatrix
    family_labels: tuple
    g_names: tuple
    n_max: int
    n0: int | None
    base_eta: dict
    rows: tuple
    verdicts: dict
    options: dict
    diagnostics: dict = field(default_factory=dict)


def _distinct(kind: str, labels: list) -> tuple:
    """The labels as a tuple; the experiment keys its rows, CSV columns and
    verdicts by them, so a repeated one raises :class:`InputError`."""
    for label in labels:
        if labels.count(label) > 1:
            raise InputError(f"two {kind}s share the label {label!r}")
    return tuple(labels)


def _deviation_bounds(pi: DensityMatrix, powers: list) -> list:
    """Per power E^n, bound_n >= ||E^n(rho) - pi||_inf for every state rho:
    ||M^n - vec(pi) vec(I)^T||_2 sqrt((d-1)/d) sqrt(1 - 2 lambda_min(pi) + Tr pi^2).
    The matrix maps vec(rho - pi) to the traceless Hermitian vec(E^n(rho) - pi),
    whose operator norm is at most sqrt((d-1)/d) times its Frobenius norm, and
    ||rho - pi||_F^2 <= 1 - 2 lambda_min(pi) + Tr pi^2.  Exact on depolarizing
    channels, at pure rho."""
    d, mu = pi.dim, pi.eigenvalues
    proj = np.outer(vectorize(pi.entries), vectorize(np.eye(d)))
    norms = np.linalg.svd(np.array([e.superop.matrix for e in powers]) - proj,
                          compute_uv=False)[:, 0]
    return (norms * math.sqrt((d - 1) / d * (1.0 - 2.0 * mu[0] + mu @ mu))).tolist()


def contraction_experiment(channel: QuantumChannel, families, gs, n_max: int = 6,
                           opts: ExperimentOptions | None = None) -> ExperimentReport:
    """Run the contraction-rate experiment on a primitive channel.

    For n = 1..n_max, estimates the variational SDPI constant of each
    divergence family against E^n, the exact chi-square constants for
    each g against E and E^n, and detailed-balance residuals of E^n.
    Produces two verdicts:

    (a) rate: eta_f(E^n, pi)^(1/n) <= eta_{chi2_g}(E, pi) + SLACK for all
        n >= n0, the first power whose deviation bound (:func:`_deviation_bounds`)
        lies inside the convergence radius lambda_min(pi)/2;
    (b) tightness: whenever the channel is kappa_f-detailed balanced, the
        chi-square constants of powers multiply exactly and the
        variational eta_f(E^n) stays above eta_{chi2_kappa}(E)^n - SLACK.

    Each power's searches go through :func:`_kernel_searches`: one search
    per distinct kernel spec (:func:`_kernel_spec`, so ht[kl] and petz[kl]
    share one), with the seed (seed, n, index) of the first label of that
    kernel, and every label of the kernel takes its value.  A power's
    searches run as one wave (:func:`_sdpi_searches`).
    """
    opts = opts or ExperimentOptions()
    n_max = _integer(n_max, "n_max", 1)
    if n_max > 32:
        raise InputError(f"n_max must be in [1, 32], got {n_max}")
    families, gs = list(families), list(gs)
    if not families or not gs:
        raise InputError("need at least one family spec and one g weight")
    for spec in families:
        _require_family(spec)
    for g in gs:
        _require_weight(g)
    family_labels = _distinct("family spec", [_label(spec) for spec in families])
    g_names = _distinct("g weight", [g.name for g in gs])
    prim, pi = _primitivity(channel)
    if not prim.is_primitive:
        raise NotPrimitive(
            f"channel {channel.label!r} is not primitive: {'; '.join(prim.reasons)}"
        )

    specs = dict(zip(family_labels, families))
    kappas = {label: local_weight(spec.family, spec) for label, spec in specs.items()}
    powers = [channel_power(channel, n) for n in range(1, n_max + 1)]
    # one omega at pi per distinct weight, and one exact constant (output side at
    # E^n(pi)) and one residual per weight and power: kappa_ht is kmb, kappa_matsumoto max
    omegas = {g: _sigma_weights(pi, g) for g in dict.fromkeys([*gs, *kappas.values()])}
    chi2_eta, db_res = [], []
    for e_n in powers:
        e_pi = _frame(e_n, pi)[1]
        nt = e_n.superop.in_basis(pi.eigenvectors, e_pi.eigenvectors)
        chi2_eta.append({g: _sdpi_chi2(pi, nt, w, _sigma_weights(e_pi, g)).value
                         for g, w in omegas.items()})
        mt = e_n.superop.in_basis(pi.eigenvectors)
        db_res.append({g: _db_residual(mt, w) for g, w in omegas.items()})
    # powers[0] is the channel itself
    base_eta = {g.name: chi2_eta[0][g] for g in gs}

    bounds = _deviation_bounds(pi, powers)
    n0 = next((n for n, b in enumerate(bounds, start=1) if b < pi.min_eigenvalue / 2.0), None)

    rows, waves = [], []
    for n, e_n in enumerate(powers, start=1):
        estimates, wave = _kernel_searches(specs, e_n, pi, lambda idx: VariationalOptions(
            restarts=opts.restarts, max_iters=opts.max_iters, seed=(opts.seed, n, idx)))
        waves.append(wave)
        eta_f = {label: est.value for label, est in estimates.items()}
        row = {
            "n": n,
            "eta_f": eta_f,
            "eta_f_root": {k: v ** (1.0 / n) for k, v in eta_f.items()},
            "chi2_eta_power": {g.name: chi2_eta[n - 1][g] for g in gs},
            "chi2_eta_bound": dict(base_eta),
            "db_residual": {g.name: db_res[n - 1][g] for g in gs},
            "kappa_eta_power": {
                label: chi2_eta[n - 1][k] for label, k in kappas.items()
            },
            "sample_max_dev": bounds[n - 1],
        }
        rows.append(row)

    # verdict (a): n-th roots against every chi-square bound past n0, signed
    vacuous = n0 is None
    checked = [] if vacuous else [row for row in rows if row["n"] >= n0]
    theorem_rate = {"n0": n0, "slack": SLACK, "per_family": {}}
    for label in family_labels:
        per_g = {}
        for gname in g_names:
            worst = max((row["eta_f_root"][label] - base_eta[gname] - SLACK
                         for row in checked), default=None)
            per_g[gname] = {"pass": worst is None or worst <= 0.0, "max_excess": worst,
                            "n_checked": [row["n"] for row in checked]}
        theorem_rate["per_family"][label] = per_g
    theorem_rate["pass"] = all(entry["pass"] for per_g in theorem_rate["per_family"].values()
                               for entry in per_g.values())
    theorem_rate["vacuous"] = vacuous

    # verdict (b): detailed balance implies exact power-multiplicativity
    tightness = {"per_family": {}}
    for label in family_labels:
        res = db_res[0][kappas[label]]
        entry = {
            "kappa": kappas[label].name,
            "db_residual": res,
            "applicable": bool(res <= DB_TOL),
        }
        if entry["applicable"]:
            base = chi2_eta[0][kappas[label]]
            excess, margin = -math.inf, math.inf
            for row in rows:
                expect = base ** row["n"]
                sv_expect = math.sqrt(expect)
                excess = max(excess, abs(math.sqrt(row["kappa_eta_power"][label]) - sv_expect)
                             - (POWER_SV_RTOL * sv_expect + POWER_SV_FLOOR))
                margin = min(margin, row["eta_f"][label] - (expect - SLACK))
            entry["power_equality_max_excess"] = excess
            entry["power_equality_pass"] = bool(excess <= 0.0)
            entry["lower_bound_min_margin"] = margin
            entry["lower_bound_pass"] = bool(margin >= 0.0)
            entry["pass"] = entry["power_equality_pass"] and entry["lower_bound_pass"]
        else:
            entry["pass"] = "skipped"
        tightness["per_family"][label] = entry
    tightness["pass"] = all(entry["pass"] for entry in tightness["per_family"].values()
                            if entry["applicable"])

    return ExperimentReport(
        channel_label=channel.label,
        dim=channel.dim,
        fixed_point=pi,
        family_labels=family_labels,
        g_names=g_names,
        n_max=n_max,
        n0=n0,
        base_eta=base_eta,
        rows=tuple(rows),
        verdicts={"theorem_rate": theorem_rate, "tightness": tightness},
        options={
            "restarts": opts.restarts,
            "max_iters": opts.max_iters,
            "step_tol": STEP_TOL,
            "seed": opts.seed,
            "slack": SLACK,
        },
        diagnostics={
            "search_totals": _total_counts(c for w in waves for c in w["searches"].values()),
            "shared_searches": {k: v for w in waves for k, v in w["shared_searches"].items()},
            "stacked_calls": sum(w["stacked_calls"] for w in waves),
        },
    )


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready dict of the full experiment report."""
    return {
        "channel": report.channel_label,
        "dim": report.dim,
        "fixed_point_eigenvalues": [float(x) for x in report.fixed_point.eigenvalues],
        "family_labels": list(report.family_labels),
        "g_names": list(report.g_names),
        "n_max": report.n_max,
        "n0": report.n0,
        "base_eta": dict(report.base_eta),
        "rows": copy.deepcopy(list(report.rows)),
        "verdicts": report.verdicts,
        "options": report.options,
        "csv_schema": CSV_SCHEMA_VERSION,
    }


def report_csv(report: ExperimentReport) -> str:
    """Frozen per-n CSV table (schema v1):
    n, eta[label]..., eta_root[label]..., chi2_bound[g]..., db_residual[g]...
    """
    labels, g_names = report.family_labels, report.g_names
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["n", *(f"eta[{lab}]" for lab in labels),
                  *(f"eta_root[{lab}]" for lab in labels),
                  *(f"chi2_bound[{g}]" for g in g_names),
                  *(f"db_residual[{g}]" for g in g_names)])
    for row in report.rows:
        out.writerow([row["n"], *(f"{row['eta_f'][lab]:.12g}" for lab in labels),
                      *(f"{row['eta_f_root'][lab]:.12g}" for lab in labels),
                      *(f"{row['chi2_eta_bound'][g]:.12g}" for g in g_names),
                      *(f"{row['db_residual'][g]:.12g}" for g in g_names)])
    return buf.getvalue()
