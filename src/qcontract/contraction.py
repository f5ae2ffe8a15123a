"""SDPI contraction machinery.

* Omega weights: Omega_sigma^g is the weighted inversion
  X -> sum_ij w_ij <i|X|j> |i><j| in the sigma eigenbasis, with
  w_ij = g(mu_i/mu_j)/mu_j, so the d x d weight matrix w determines it.
* Exact chi-square SDPI constants via the Hermitized second-singular-value
  formula.
* Variational lower-bound estimation of SDPI constants for general
  f-divergence families (seeded multi-start gradient ascent; each
  central-difference gradient is one stacked evaluation of the ratio at
  all of its 2n perturbed points, with sigma's and E(sigma)'s eigen-data
  computed once per search).
* Detailed-balance residuals and the GNS implies-all-g check.
* The contraction-rate experiment harness with rate-bound and
  tightness verdicts.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, field

import numpy as np

from .catalog import (
    FDivergenceSpec,
    SpectralWeight,
    g_catalog,
    gns_weight,
    local_weight,
)
from .channels import (
    QuantumChannel,
    _fixed_point_error,
    apply,
    channel_power,
    fixed_point,
    is_primitive,
)
from .divergences import (
    _divergence_stack,
    _quadratic_forms,
    _reference,
    _require_family,
    _require_full_rank,
    _require_operator_convex,
    _sigma_weights,
    # not called here: the benchmark's tracer patches both names on this module
    chi2_quadratic_form,  # noqa: F401
    evaluate,  # noqa: F401
)
from .errors import (
    AllRestartsDegenerate,
    InputError,
    NotHermitian,
    NotPositive,
    NotPrimitive,
    NumericalError,
    PreconditionError,
    SingularReference,
    TraceZero,
)
from .linalg import (
    DensityMatrix,
    hermitianize,
    random_density,
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
]

#: residual below which a channel is treated as g-detailed balanced
DB_TOL = 1e-9

#: central-difference step of the search, relative to max(1, |x_i|)
FD_STEP = 1e-6
#: states within this trace distance of sigma are excluded from the search
EXCLUSION = 1e-6
#: first line-search step of each restart
INIT_STEP = 0.25
#: line-search step floor of the experiment's searches
EXPERIMENT_STEP_TOL = 1e-6
#: random states propagated to estimate n0
N0_SAMPLES = 12
#: slack of the experiment's rate and tightness verdicts
SLACK = 0.02

CSV_SCHEMA_VERSION = "v1"


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


def _eigenbasis(channel: QuantumChannel, sigma):
    """The validated full-rank sigma and the channel's superoperator matrix
    Mt in the sigma eigenbasis."""
    s = validate_density(sigma)
    _require_full_rank(s, "sigma")
    if channel.dim != s.dim:
        raise InputError("channel and sigma dimensions differ")
    return s, channel.superop.in_basis(s.eigenvectors)


def _db_residual(s: DensityMatrix, mt: np.ndarray, g: SpectralWeight) -> float:
    """||D Mt^dag - Mt D||_F / ||D||_F with D = diag(1/vec(w)), w = omega(s, g)."""
    inv = 1.0 / vectorize(omega(s, g))
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


def _sdpi_chi2(channel: QuantumChannel, s: DensityMatrix, mt: np.ndarray,
               g: SpectralWeight) -> SdpiEstimate:
    """sdpi_chi2 for the validated sigma ``s`` and ``mt`` from ``_eigenbasis``."""
    fix_err = _fixed_point_error(channel, s.entries)
    sw = np.sqrt(vectorize(omega(s, g)))
    u_l, svals, v_r = np.linalg.svd(sw[:, None] * mt / sw[None, :])
    top = float(svals[0])
    second = float(svals[1])
    diag = {"fixed_point_error": fix_err, "singular_values": svals.copy()}
    if fix_err <= 1e-7:
        # the fixed point must carry the top singular subspace
        target = vectorize(np.diag(np.sqrt(s.eigenvalues)))
        top_space = v_r.conj().T[:, svals >= svals[0] - 1e-7]
        overlap = float(np.linalg.norm(top_space.conj().T @ target))
        diag["top_overlap"] = overlap
        if abs(top - 1.0) > 1e-7 or overlap < 0.99:
            raise NumericalError(
                f"top singular value {top:.12f} (overlap {overlap:.3f}) does not "
                "witness the fixed point"
            )
    else:
        diag["warning"] = (
            f"sigma is not fixed by the channel (||E(sigma)-sigma||_1 = "
            f"{fix_err:.3e}); top-singular-value check skipped"
        )
    value = min(max(second**2, 0.0), 1.0)
    return SdpiEstimate(
        value=value,
        method="exact_lambda2",
        argmax_state=None,
        top_eigenvalue_check=top,
        restarts_used=0,
        diagnostics=diag,
    )


def sdpi_chi2(channel: QuantumChannel, sigma, g: SpectralWeight) -> SdpiEstimate:
    """Exact chi-square SDPI constant via the Hermitized operator.

    Forms N = sqrt(Omega) E inv_sqrt(Omega) in the sigma eigenbasis, where
    Omega is diagonal: the rotated superoperator with its rows scaled by
    sqrt(w) and its columns by 1/sqrt(w).  eta is the square of the
    second-largest singular value.  When sigma is fixed by the channel the
    top singular value must be 1 (witnessed by vec(sigma^(1/2)), which is
    vec(diag(sqrt(mu))) in the eigenbasis); for non-fixed sigma the sanity
    check is skipped and a warning recorded.
    """
    s, mt = _eigenbasis(channel, sigma)
    return _sdpi_chi2(channel, s, mt, g)


def _seed(x) -> int:
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral) and x >= 0):
        raise InputError(f"seed must be a nonnegative integer, got {x!r}")
    return int(x)


def _seed_list(seed) -> list:
    return [_seed(x) for x in (seed if isinstance(seed, (tuple, list)) else [seed])]


@dataclass(frozen=True)
class VariationalOptions:
    """Settings of the multi-start variational SDPI search: restarts (>= 1),
    max_iters and step_tol of each restart, and the seed (an integer >= 0
    or a tuple of them)."""

    restarts: int = 32
    max_iters: int = 150
    step_tol: float = 1e-7
    seed: object = 1729

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        _seed_list(self.seed)


def _objective(evaluator, channel: QuantumChannel, sigma: DensityMatrix):
    """Build ratios(rho_stack) -> ndarray for the SDPI search.

    ``ratios`` maps a (B, d, d) stack of states rho to the B values
    D(E(rho) || E(sigma)) / D(rho || sigma).  The evaluator may be a
    SpectralWeight (chi-square objective, computed on differences by
    linearity), an FDivergenceSpec with family set, or a callable
    D(rho, sigma) -> float.  NaN marks an invalid point: within trace
    distance EXCLUSION of sigma, a denominator that is not positive, rho or
    E(rho) rejected by state validation, or outside an evaluator's domain.

    The built-in objectives evaluate the whole stack at once: sigma's and
    E(sigma)'s eigen-data are computed here, once per search, and rho and
    E(rho) go through the stacked validation arithmetic, not through
    validate_density.  A callable is called point by point on validated
    states.
    """
    e_sigma = apply(channel, sigma)
    builtin = isinstance(evaluator, (SpectralWeight, FDivergenceSpec))
    if not (builtin or callable(evaluator)):
        raise InputError(
            "evaluator must be a SpectralWeight, an FDivergenceSpec with family, "
            "or a callable"
        )
    if builtin and not e_sigma.full_rank:
        raise SingularReference("E(sigma) must be full rank for the search objective")

    def outside_ball(rho):
        x = rho - sigma.entries
        return 0.5 * np.abs(np.linalg.eigvalsh(x)).sum(axis=1) >= EXCLUSION, x

    if isinstance(evaluator, SpectralWeight):
        v_s, w_s = sigma.eigenvectors, _sigma_weights(sigma, evaluator)
        v_e, w_e = e_sigma.eigenvectors, _sigma_weights(e_sigma, evaluator)

        def ratios(rho):
            out = np.full(len(rho), np.nan)
            keep, x = outside_ball(rho)
            idx = np.flatnonzero(keep)
            den = _quadratic_forms(x[idx], v_s, w_s)
            ok = den > 0.0
            ex = channel.superop.apply(x[idx[ok]])
            ex = 0.5 * (ex + ex.conj().transpose(0, 2, 1))
            out[idx[ok]] = _quadratic_forms(ex, v_e, w_e) / den[ok]
            return out

        return ratios, f"chi2[{evaluator.name}]"

    if isinstance(evaluator, FDivergenceSpec):
        spec = evaluator
        _require_family(spec)
        if spec.family == "petz":
            _require_operator_convex(spec)
        ref_s, ref_e = _reference(sigma), _reference(e_sigma)

        def ratios(rho):
            out = np.full(len(rho), np.nan)
            keep, _ = outside_ball(rho)
            ents, lam, phi, *checks = validate_stack(rho)
            idx = np.flatnonzero(keep & stack_valid(*checks))
            den = _divergence_stack(spec, ents[idx], lam[idx], phi[idx], ref_s)
            ok = den > 0.0
            idx, den = idx[ok], den[ok]
            e_stack = channel.superop.apply(ents[idx])
            e_ents, e_lam, e_phi, *e_checks = validate_stack(e_stack)
            ok = stack_valid(*e_checks)
            num = _divergence_stack(spec, e_ents[ok], e_lam[ok], e_phi[ok], ref_e)
            out[idx[ok]] = num / den[ok]
            return out

        return ratios, f"{spec.family}[{spec.name}]"

    def ratios(rho):
        out = np.full(len(rho), np.nan)
        for k in np.flatnonzero(outside_ball(rho)[0]):
            try:
                r = validate_density(rho[k])
                e_r = apply(channel, r)
            except (NotHermitian, NotPositive, TraceZero):
                continue
            try:
                den = float(evaluator(r, sigma))
                if den > 0.0:
                    out[k] = float(evaluator(e_r, e_sigma)) / den
            except PreconditionError:
                pass
        return out

    return ratios, "callable"


def _rho_from_params(x: np.ndarray, d: int, counts: dict | None = None) -> np.ndarray:
    """States A A^dag / tr for a (B, 2 d^2) stack of parameter vectors, the
    real then the imaginary parts of A; I/d where the trace vanishes, which
    adds to ``counts["identity_fallbacks"]`` when counts are given."""
    a = (x[:, : d * d] + 1j * x[:, d * d:]).reshape(-1, d, d)
    m = a @ a.conj().transpose(0, 2, 1)
    tr = np.trace(m, axis1=1, axis2=2).real
    zero = tr <= 0.0
    m[zero] = np.eye(d)
    tr[zero] = d
    if counts is not None:
        counts["identity_fallbacks"] += int(zero.sum())
    return m / tr[:, None, None]


def _init_params(rng: np.random.Generator, sigma: DensityMatrix, kind: int) -> np.ndarray:
    d = sigma.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v, mu = sigma.eigenvectors, sigma.eigenvalues
    sqrt_sigma = (v * np.sqrt(mu)) @ v.conj().T
    scales = (0.02, 0.1, 0.4, None)
    scale = scales[kind % 4]
    a = g if scale is None else sqrt_sigma + scale * g
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _ascend(ratios, x0: np.ndarray, d: int, opts: VariationalOptions, counts: dict):
    """One gradient-ascent restart; returns (value, rho) or None.

    Each central-difference gradient is one ``ratios`` call on the stack of
    all 2n perturbed points (x + h e_i, then x - h e_i); a coordinate whose
    +h or -h point is invalid (not finite) gets gradient 0 and is counted in
    ``counts["skipped_coordinates"]``.  The line search calls ``ratios`` on
    a stack of one.  Every evaluated point adds to
    ``counts["ratio_evaluations"]``, and one whose A is 0 (so that its state
    is the fallback I/d) to ``counts["identity_fallbacks"]``.  Only strict
    improvements are accepted, so the final point is the best.
    """
    def values(params):
        counts["ratio_evaluations"] += len(params)
        return ratios(_rho_from_params(params, d, counts))

    x = x0.copy()
    f0 = values(x[None])[0]
    if not np.isfinite(f0):
        return None
    step = INIT_STEP
    n = x.size
    coords = np.arange(n)
    for _ in range(opts.max_iters):
        h = FD_STEP * np.maximum(1.0, np.abs(x))
        pts = np.tile(x, (2 * n, 1))
        pts[coords, coords] += h
        pts[n + coords, coords] -= h
        f = values(pts)
        ok = np.isfinite(f[:n]) & np.isfinite(f[n:])
        counts["skipped_coordinates"] += int(n - ok.sum())
        grad = np.zeros(n)
        grad[ok] = (f[:n][ok] - f[n:][ok]) / (2 * h[ok])
        gn = float(np.linalg.norm(grad))
        if gn < 1e-12:
            break
        direction = grad / gn
        trial = step
        improved = False
        while trial >= opts.step_tol:
            x_new = x + trial * direction
            f_new = values(x_new[None])[0]
            if np.isfinite(f_new) and f_new > f0 + 1e-15:
                x, f0 = x_new, f_new
                step = min(2.0 * trial, 1.0)
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
    return float(f0), _rho_from_params(x[None], d)[0]


def sdpi_variational(evaluator, channel: QuantumChannel, sigma,
                     opts: VariationalOptions | None = None) -> SdpiEstimate:
    """Variational lower-bound estimate of the SDPI constant.

    Maximizes D(E(rho) || E(sigma)) / D(rho || sigma) over rho = A A^dag /
    tr, with seeded multi-start gradient ascent (central-difference
    gradients, backtracking line search).  Each gradient is one stacked
    evaluation of the ratio at all of its 2n perturbed points.  States
    within trace distance ``EXCLUSION`` of sigma are excluded, as are points
    whose ratio is not finite or whose states the evaluator rejects; if no
    restart finds a valid starting point, :class:`AllRestartsDegenerate` is
    raised.  Restarts
    run serially and the result is deterministic per seed.

    ``diagnostics`` counts, summed over restarts, the ratio evaluations
    (points), the gradient coordinates set to 0 because a perturbed point
    was invalid, the extra starting points tried after an invalid one, and
    the evaluated points whose parameter matrix was 0 and so stood for
    I/d.  ``clipped_above_one`` records whether the best ratio exceeded 1
    and was clipped to 1, which flags an objective that breaks data
    processing.
    """
    opts = opts or VariationalOptions()
    s = validate_density(sigma)
    _require_full_rank(s, "sigma")
    if channel.dim != s.dim:
        raise InputError("channel and sigma dimensions differ")
    ratios, obj_label = _objective(evaluator, channel, s)
    d = channel.dim
    seed_base = _seed_list(opts.seed)
    counts = {"ratio_evaluations": 0, "skipped_coordinates": 0, "reinits": 0,
              "identity_fallbacks": 0}

    def run_restart(k: int):
        rng = np.random.default_rng(seed_base + [k])
        for attempt in range(4):
            counts["reinits"] += attempt > 0
            x0 = _init_params(rng, s, k)
            res = _ascend(ratios, x0, d, opts, counts)
            if res is not None:
                return res
        return None

    results = [run_restart(k) for k in range(opts.restarts)]
    valid = [r for r in results if r is not None]
    if not valid:
        raise AllRestartsDegenerate(
            f"no restart of {opts.restarts} found a valid starting point "
            f"(outside the ball of radius {EXCLUSION:g} around sigma, with a "
            f"finite ratio of positive denominator); "
            f"{counts['reinits']} reinits, "
            f"{counts['ratio_evaluations']} ratio evaluations"
        )
    best_f, best_rho = max(valid, key=lambda r: r[0])
    return SdpiEstimate(
        value=min(max(float(best_f), 0.0), 1.0),
        method="variational",
        argmax_state=validate_density(best_rho),
        top_eigenvalue_check=None,
        restarts_used=opts.restarts,
        diagnostics={
            "objective": obj_label,
            "raw_best": float(best_f),
            "clipped_above_one": bool(best_f > 1.0),
            "valid_restarts": len(valid),
            "restart_values": [float(r[0]) for r in valid],
            **counts,
        },
    )


def detailed_balance_residual(channel: QuantumChannel, sigma, g: SpectralWeight) -> float:
    """Residual of the g-detailed-balance equation
    Omega^{-1} E* = E Omega^{-1}, Frobenius-normalized by ||Omega^{-1}||.

    Evaluated in the sigma eigenbasis, where Omega^{-1} is the diagonal
    D = diag(1/w): ||D Mt^dag - Mt D||_F / ||D||_F equals the
    computational-basis residual because the Frobenius norm is unitarily
    invariant.
    """
    s, mt = _eigenbasis(channel, sigma)
    return _db_residual(s, mt, g)


def carlen_maas_check(channel: QuantumChannel, sigma) -> dict:
    """Residual map over the GNS weight and every catalog g.

    If the GNS residual is <= 1e-9, every standard monotone residual must
    be <= 1e-7 (GNS detailed balance is the strongest); a violation would
    mean the Omega construction is broken, so it raises.
    """
    s, mt = _eigenbasis(channel, sigma)
    weights = {"gns": gns_weight(), **g_catalog()}
    residuals = {name: _db_residual(s, mt, g) for name, g in weights.items()}
    if residuals["gns"] <= DB_TOL:
        bad = {k: v for k, v in residuals.items() if k != "gns" and v > 1e-7}
        if bad:
            raise NumericalError(
                f"GNS detailed balance holds but catalog residuals exceed 1e-7: {bad}"
            )
    return residuals


def sdpi_submultiplicativity_check(channel: QuantumChannel, sigma,
                                   g: SpectralWeight, n: int) -> bool:
    """True iff eta_{chi2_g}(E^n) <= eta_{chi2_g}(E)^n + 1e-8."""
    base = sdpi_chi2(channel, sigma, g).value
    power = sdpi_chi2(channel_power(channel, n), sigma, g).value
    return bool(power <= base**n + 1e-8)


@dataclass(frozen=True)
class ExperimentOptions:
    """Configuration for the contraction-rate experiment: restarts (>= 1),
    max_iters and seed (an integer >= 0) of each search."""

    restarts: int = 12
    max_iters: int = 100
    seed: int = 1729

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        _seed(self.seed)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-n contraction data for one channel plus the two verdicts."""

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


def _estimate_n0(channel: QuantumChannel, pi: DensityMatrix, n_max: int,
                 opts: ExperimentOptions):
    """Smallest n with max sampled ||E^n(rho) - pi||_inf < lambda_min(pi)/2."""
    rng = np.random.default_rng([opts.seed, 0xA0])
    d = channel.dim
    states = np.array([random_density(d, rng, rank=1 if i % 2 == 0 else d).entries
                       for i in range(N0_SAMPLES)])
    radius = pi.min_eigenvalue / 2.0
    n0 = None
    max_devs = []
    for n in range(1, n_max + 1):
        states = hermitianize(channel.superop.apply(states))
        dev = float(np.max(np.abs(np.linalg.eigvalsh(states - pi.entries))))
        max_devs.append(dev)
        if n0 is None and dev < radius:
            n0 = n
    return n0, max_devs


def contraction_experiment(channel: QuantumChannel, families, gs, n_max: int = 6,
                           opts: ExperimentOptions | None = None) -> ExperimentReport:
    """Run the contraction-rate experiment on a primitive channel.

    For n = 1..n_max, estimates the variational SDPI constant of each
    divergence family against E^n, the exact chi-square constants for
    each g against E and E^n, and detailed-balance residuals of E^n.
    Produces two verdicts:

    (a) rate: eta_f(E^n, pi)^(1/n) <= eta_{chi2_g}(E, pi) + SLACK for all
        n >= n0 (n0 from the sampled convergence radius);
    (b) tightness: whenever the channel is kappa_f-detailed balanced, the
        chi-square constants of powers multiply exactly and the
        variational eta_f(E^n) stays above eta_{chi2_kappa}(E)^n - SLACK.
    """
    opts = opts or ExperimentOptions()
    if not 1 <= n_max <= 32:
        raise InputError(f"n_max must be in [1, 32], got {n_max}")
    prim = is_primitive(channel)
    if not prim.is_primitive:
        raise NotPrimitive(
            f"channel {channel.label!r} is not primitive: {'; '.join(prim.reasons)}"
        )
    pi = fixed_point(channel)
    families = list(families)
    gs = list(gs)
    for spec in families:
        if spec.family is None:
            raise InputError(f"family not set on spec {spec.name!r}")
    family_labels = tuple(f"{spec.family}[{spec.name}]" for spec in families)
    g_names = tuple(g.name for g in gs)

    kappas = {
        label: local_weight(spec.family, spec)
        for label, spec in zip(family_labels, families)
    }
    powers = [channel_power(channel, n) for n in range(1, n_max + 1)]
    # one exact constant and one residual per distinct weight and power:
    # kappa_ht is the catalog kmb weight and kappa_matsumoto the max weight
    weights = list(dict.fromkeys([*gs, *kappas.values()]))
    chi2_eta, db_res = [], []
    for e_n in powers:
        s, mt = _eigenbasis(e_n, pi)
        chi2_eta.append({w: _sdpi_chi2(e_n, s, mt, w).value for w in weights})
        db_res.append({w: _db_residual(s, mt, w) for w in weights})
    # powers[0] is the channel itself
    base_eta = {g.name: chi2_eta[0][g] for g in gs}

    n0, max_devs = _estimate_n0(channel, pi, n_max, opts)

    rows = []
    for n, e_n in enumerate(powers, start=1):
        eta_f = {}
        for idx, (label, spec) in enumerate(zip(family_labels, families)):
            vopts = VariationalOptions(
                restarts=opts.restarts,
                max_iters=opts.max_iters,
                step_tol=EXPERIMENT_STEP_TOL,
                seed=(opts.seed, n, idx),
            )
            eta_f[label] = sdpi_variational(spec, e_n, pi, vopts).value
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
            "sample_max_dev": max_devs[n - 1],
        }
        rows.append(row)

    # verdict (a): n-th roots against every chi-square bound past n0
    theorem_rate = {"n0": n0, "slack": SLACK, "per_family": {}}
    rate_pass = True
    vacuous = n0 is None or n0 > n_max
    for label in family_labels:
        per_g = {}
        for gname in g_names:
            checked = []
            worst = 0.0
            if not vacuous:
                for row in rows:
                    if row["n"] < n0:
                        continue
                    excess = row["eta_f_root"][label] - base_eta[gname] - SLACK
                    checked.append(row["n"])
                    worst = max(worst, excess)
            ok = worst <= 0.0
            per_g[gname] = {"pass": ok, "max_excess": worst, "n_checked": checked}
            rate_pass = rate_pass and ok
        theorem_rate["per_family"][label] = per_g
    theorem_rate["pass"] = rate_pass
    theorem_rate["vacuous"] = vacuous

    # verdict (b): detailed balance implies exact power-multiplicativity
    tightness = {"per_family": {}}
    tight_pass = True
    for label in family_labels:
        res = db_res[0][kappas[label]]
        entry = {
            "kappa": kappas[label].name,
            "db_residual": res,
            "applicable": bool(res <= DB_TOL),
        }
        if res <= DB_TOL:
            base = chi2_eta[0][kappas[label]]
            rel_err = 0.0
            margin = float("inf")
            for row in rows:
                n = row["n"]
                expect = base**n
                got = row["kappa_eta_power"][label]
                rel_err = max(rel_err, abs(got - expect) / max(expect, 1e-300))
                margin = min(margin, row["eta_f"][label] - (expect - SLACK))
            entry["power_equality_max_rel_err"] = rel_err
            entry["power_equality_pass"] = bool(rel_err <= 1e-7)
            entry["lower_bound_min_margin"] = margin
            entry["lower_bound_pass"] = bool(margin >= 0.0)
            entry["pass"] = entry["power_equality_pass"] and entry["lower_bound_pass"]
            tight_pass = tight_pass and entry["pass"]
        else:
            entry["pass"] = "skipped"
        tightness["per_family"][label] = entry
    tightness["pass"] = tight_pass

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
            "step_tol": EXPERIMENT_STEP_TOL,
            "seed": opts.seed,
            "slack": SLACK,
            "n0_samples": N0_SAMPLES,
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
    cols = ["n"]
    cols += [f"eta[{lab}]" for lab in report.family_labels]
    cols += [f"eta_root[{lab}]" for lab in report.family_labels]
    cols += [f"chi2_bound[{g}]" for g in report.g_names]
    cols += [f"db_residual[{g}]" for g in report.g_names]
    lines = [",".join(cols)]
    for row in report.rows:
        vals = [str(row["n"])]
        vals += [f"{row['eta_f'][lab]:.12g}" for lab in report.family_labels]
        vals += [f"{row['eta_f_root'][lab]:.12g}" for lab in report.family_labels]
        vals += [f"{row['chi2_eta_bound'][g]:.12g}" for g in report.g_names]
        vals += [f"{row['db_residual'][g]:.12g}" for g in report.g_names]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
