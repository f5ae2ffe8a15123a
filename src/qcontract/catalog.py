"""Catalogs of divergence generators f and chi-square weight functions g.

An :class:`FDivergenceSpec` bundles a convex generator f with its first
three derivatives and flags; every spec is grid-checked at construction
(normalization f(1)=f'(1)=0, f''(1)>0, convexity, derivative consistency
by finite differences).

A :class:`SpectralWeight` g parameterizes the weighted chi-square inner
product via the spectral weights w_ij = g(mu_i/mu_j)/mu_j.  Standard
monotone weights additionally satisfy g(1)=1, monotone decrease, and the
symmetry g(1/x) = x g(x); candidates are grid-checked by
:func:`standard_monotone`.  The GNS weight (g identically 1) deliberately
fails the symmetry requirement and is provided unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NotStandardMonotone

__all__ = [
    "FDivergenceSpec",
    "SpectralWeight",
    "fdivergence_spec",
    "standard_monotone",
    "f_catalog",
    "g_catalog",
    "gns_weight",
    "kappa_for_petz",
    "local_weight",
    "FAMILIES",
]

#: divergence families implemented by the evaluators
FAMILIES = ("ht", "petz", "matsumoto")

_CHECK_GRID = np.concatenate([
    np.geomspace(0.05, 0.8, 13),
    np.linspace(0.9, 1.1, 11),
    np.geomspace(1.25, 20.0, 13),
])


@dataclass(frozen=True)
class FDivergenceSpec:
    """A convex generator f with derivatives f1, f2, f3 and flags.

    ``operator_convex`` gates the Petz evaluator; ``pinsker_constant`` is
    the classically known C with D_f >= C ||rho - sigma||_1^2 (None when
    unknown); ``family`` optionally pins the spec to one of
    :data:`FAMILIES` for dispatch.
    """

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    f3: Callable
    operator_convex: bool = False
    pinsker_constant: float | None = None
    family: str | None = None

    def with_family(self, family: str) -> "FDivergenceSpec":
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")
        return FDivergenceSpec(
            self.name, self.f, self.f1, self.f2, self.f3,
            self.operator_convex, self.pinsker_constant, family,
        )


def _require_spec(spec) -> None:
    """:class:`InputError` unless ``spec`` is an :class:`FDivergenceSpec`."""
    if not isinstance(spec, FDivergenceSpec):
        raise InputError(f"spec must be an FDivergenceSpec, got {type(spec).__name__}")


def _label(spec: FDivergenceSpec) -> str:
    """family[f], the label of a spec with its family set."""
    return f"{spec.family}[{spec.name}]"


def _fd_check(fn, deriv, grid, h=1e-5, tol=1e-6, what="f"):
    """Central finite difference of fn must match deriv on the grid."""
    approx = (np.asarray(fn(grid + h), float) - np.asarray(fn(grid - h), float)) / (2 * h)
    exact = np.asarray(deriv(grid), float)
    scale = np.maximum(1.0, np.abs(exact))
    err = float(np.max(np.abs(approx - exact) / scale))
    if err > tol:
        raise InputError(f"derivative of {what} inconsistent with finite differences (err {err:.3e})")


def fdivergence_spec(name, f, f1, f2, f3, operator_convex=False,
                     pinsker_constant=None) -> FDivergenceSpec:
    """Build and sanity-check an f-divergence generator."""
    one = np.asarray(1.0)
    if abs(float(np.asarray(f(one)))) > 1e-12:
        raise InputError(f"{name}: f(1) must be 0")
    if abs(float(np.asarray(f1(one)))) > 1e-12:
        raise InputError(f"{name}: f'(1) must be 0 (Pinsker normalization)")
    if float(np.asarray(f2(one))) <= 0:
        raise InputError(f"{name}: f''(1) must be positive")
    if not np.all(np.asarray(f2(_CHECK_GRID), float) > 0):
        raise InputError(f"{name}: f'' must be positive on (0, inf) (convexity)")
    if not np.isfinite(float(np.asarray(f(np.asarray(0.0))))):
        raise InputError(f"{name}: f must have a finite limit at 0")
    _fd_check(f, f1, _CHECK_GRID, what=f"{name}.f")
    _fd_check(f1, f2, _CHECK_GRID, what=f"{name}.f1")
    _fd_check(f2, f3, _CHECK_GRID, what=f"{name}.f2")
    return FDivergenceSpec(name, f, f1, f2, f3, operator_convex, pinsker_constant)


def _kl_f(x):
    x = np.asarray(x, float)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    return np.where(pos, safe * np.log(safe) - safe + 1.0, 1.0)


def _kl_f1(x):
    return np.log(np.asarray(x, float))


def _chi2_f(x):
    x = np.asarray(x, float)
    return (x - 1.0) ** 2


def _hell_f(x):
    x = np.asarray(x, float)
    return (np.sqrt(x) - 1.0) ** 2


_F_CATALOG = {
    "kl": fdivergence_spec(
        "kl",
        _kl_f,
        _kl_f1,
        lambda x: 1.0 / np.asarray(x, float),
        lambda x: -1.0 / np.asarray(x, float) ** 2,
        operator_convex=True,
        pinsker_constant=0.5,
    ),
    "chi2": fdivergence_spec(
        "chi2",
        _chi2_f,
        lambda x: 2.0 * (np.asarray(x, float) - 1.0),
        lambda x: np.full_like(np.asarray(x, float), 2.0),
        lambda x: np.zeros_like(np.asarray(x, float)),
        operator_convex=True,
        pinsker_constant=1.0,
    ),
    "hellinger": fdivergence_spec(
        "hellinger",
        _hell_f,
        lambda x: 1.0 - np.asarray(x, float) ** -0.5,
        lambda x: 0.5 * np.asarray(x, float) ** -1.5,
        lambda x: -0.75 * np.asarray(x, float) ** -2.5,
        operator_convex=True,
        pinsker_constant=0.25,
    ),
}


def f_catalog() -> dict:
    """The built-in generators: kl, chi2, hellinger (all operator convex),
    as a fresh dict of the specs built and grid-checked once, at import."""
    return dict(_F_CATALOG)


@dataclass(frozen=True)
class SpectralWeight:
    """Weight function g for the chi-square inner product.

    Near x = 1 (within ``series_window``) evaluation switches to the
    quadratic Taylor series ``series_at_one`` in u = x - 1, which keeps
    removable singularities like log(x)/(x-1) well conditioned.
    """

    name: str
    fn: Callable = field(repr=False)
    series_at_one: tuple = (1.0, 0.0, 0.0)
    series_window: float = 0.0
    standard_monotone: bool = False

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.series_window <= 0.0:
            return np.asarray(self.fn(x), float)
        u = x - 1.0
        near = np.abs(u) < self.series_window
        safe = np.where(near, 2.0, x)
        direct = np.asarray(self.fn(safe), float)
        c0, c1, c2 = self.series_at_one
        series = c0 + u * (c1 + u * c2)
        return np.where(near, series, direct)


def standard_monotone(name, fn, series_at_one, series_window=0.0) -> SpectralWeight:
    """Grid-check a candidate standard monotone weight and wrap it.

    Checks normalization g(1) = 1, positivity and monotone decrease on a
    grid, and the symmetry g(1/x) = x g(x).  (Operator monotonicity itself
    is not numerically certified; catalog entries are known monotone.)
    """
    g = SpectralWeight(name, fn, tuple(series_at_one), series_window, True)
    vals = g(_CHECK_GRID)
    if abs(float(g(np.asarray(1.0))) - 1.0) > 1e-10:
        raise NotStandardMonotone(f"{name}: g(1) must be 1")
    if np.any(vals <= 0):
        raise NotStandardMonotone(f"{name}: g must be positive on (0, inf)")
    if np.any(np.diff(vals) > 1e-12):
        raise NotStandardMonotone(f"{name}: g must be non-increasing")
    sym_err = float(np.max(np.abs(g(1.0 / _CHECK_GRID) - _CHECK_GRID * vals)))
    if sym_err > 1e-9:
        raise NotStandardMonotone(
            f"{name}: symmetry g(1/x) = x g(x) violated by {sym_err:.3e}"
        )
    return g


def _g_max_fn(x):
    return (x + 1.0) / (2.0 * x)


def _g_kmb_fn(x):
    return np.log(x) / (x - 1.0)


_G_CATALOG = {
    "max": standard_monotone("max", _g_max_fn, (1.0, -0.5, 0.5)),
    "kmb": standard_monotone("kmb", _g_kmb_fn, (1.0, -0.5, 1.0 / 3.0), 1e-4),
}


def g_catalog() -> dict:
    """Built-in standard monotone weights: max and kmb, as a fresh dict of
    the weights built and grid-checked once, at import."""
    return dict(_G_CATALOG)


def gns_weight() -> SpectralWeight:
    """The GNS weight g = 1 (w_ij = 1/mu_j).

    Not standard monotone: it fails the symmetry g(1/x) = x g(x).  On
    Hermitian arguments its quadratic form coincides with chi2_max.
    """
    return SpectralWeight("gns", lambda x: np.ones_like(np.asarray(x, float)),
                          (1.0, 0.0, 0.0), 0.0, False)


def kappa_for_petz(spec: FDivergenceSpec) -> SpectralWeight:
    """The weight kappa(x) = (f(x) + x f(1/x)) / (f''(1) (x-1)^2).

    This is the local chi-square weight of the Petz f-divergence.  Its
    series at 1 is 1 - u/2 + c2 u^2 with
    c2 = 1/2 + f'''(1)/(3 f''(1)) + f''''(1)/(12 f''(1)); the missing
    fourth derivative is estimated by a central difference of f3.
    """
    _require_spec(spec)
    a = float(np.asarray(spec.f2(np.asarray(1.0))))
    b = float(np.asarray(spec.f3(np.asarray(1.0))))
    h = 1e-3
    f4 = (float(np.asarray(spec.f3(np.asarray(1.0 + h))))
          - float(np.asarray(spec.f3(np.asarray(1.0 - h))))) / (2 * h)
    c2 = 0.5 + b / (3 * a) + f4 / (12 * a)

    def kappa(x, _f=spec.f, _a=a):
        x = np.asarray(x, float)
        return (np.asarray(_f(x), float) + x * np.asarray(_f(1.0 / x), float)) / (
            _a * (x - 1.0) ** 2
        )

    return standard_monotone(f"kappa[{spec.name}]", kappa, (1.0, -0.5, c2), 1e-4)


def local_weight(family: str, spec: FDivergenceSpec) -> SpectralWeight:
    """The chi-square weight governing the local (second-order) behavior
    of the given divergence family: kmb for ht, max for matsumoto, and
    kappa_f for petz."""
    if family == "ht":
        return _G_CATALOG["kmb"]
    if family == "matsumoto":
        return _G_CATALOG["max"]
    if family == "petz":
        return kappa_for_petz(spec)
    raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")
