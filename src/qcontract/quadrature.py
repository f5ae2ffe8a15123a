"""Vectorized adaptive Gauss-Kronrod (7, 15) quadrature with breakpoint panels.

The integrands here (hockey-stick curves weighted by f'') are piecewise
smooth with kinks at known abscissas, so the integrator takes the panel
edges up front and refines adaptively inside each panel.  Each panel's 15
Kronrod nodes give both its value (K15) and its error estimate |K15 - G7|
from the embedded 7-point Gauss rule (QUADPACK's qk15).

One loop integrates a stack of B integrals at once: one refinement round
evaluates all open panels of all integrals in a single integrand call, so
the caller can vectorize (e.g. one batched eigenvalue solve over the gamma
grids of every state in a stack).  :func:`integrate_piecewise` is the
B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, QuadratureFailure

__all__ = ["QuadratureResult", "integrate_piecewise"]

# The (7, 15) Gauss-Kronrod pair as tabulated in QUADPACK (qk15).  Kronrod
# abscissas on [0, 1]: the odd entries (1, 3, 5, 7) are the G7 nodes.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

#: the 15 Kronrod nodes on [-1, 1], their K15 weights, and the G7 weights
#: on the same nodes (zero at the 8 Kronrod-only nodes)
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_K15 = np.concatenate([_WK[:-1], _WK[::-1]])
_G7 = np.zeros(15)
_G7[1:7:2] = _WG[:-1]
_G7[7] = _WG[-1]
_G7[9::2] = _WG[-2::-1]
_RULES = np.stack([_K15, _G7])


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_evals: int
    n_intervals: int


class _Stack(NamedTuple):
    """Results of :func:`_integrate_stack`, one entry per integral."""

    value: np.ndarray
    error_estimate: np.ndarray
    n_evals: np.ndarray
    n_intervals: np.ndarray


def _integrate_stack(fvec, edges: np.ndarray, epsrel=1e-8, epsabs=1e-14,
                     max_depth=40, max_intervals=20000) -> _Stack:
    """Integrate B piecewise smooth functions in one adaptive loop.

    Row b of the finite (B, k) array ``edges`` holds the ascending panel
    edges of integral b.  A repeated edge makes a zero-width panel, which is
    dropped, so an integral whose edges are all equal is 0.  The open
    panels are (lo, hi, owner) triples; ``fvec(x, owner)`` gets the Kronrod
    nodes of the m open panels as an (m, 15) array and the panels' owners,
    and returns the integrand values in the shape of x.

    Each round evaluates every open panel of every integral in that one
    call.  A panel whose |K15 - G7| is below its integral's tolerance,
    prorated by length, contributes its K15 value; the others are halved
    for the next round.  Each integral keeps its own scale, value, error,
    counts and budget of ``max_intervals`` open panels.  The rules are
    reductions along each panel's row, and each per-integral sum runs over
    that integral's panels in order, so an integral's result is bit for bit
    the same alone and inside any stack.

    Raises :class:`QuadratureFailure` in the first round where the
    integrand is not finite, and when any integral exceeds its budget or
    ``max_depth``.
    """
    n = len(edges)
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = hi > lo
    lo, hi, owner = lo[keep], hi[keep], keep.nonzero()[0]
    length = edges[:, -1] - edges[:, 0]
    scale = np.full(n, epsabs)
    value = np.zeros(n)
    error = np.zeros(n)
    n_panels = np.zeros(n, dtype=np.intp)
    n_final = np.zeros(n, dtype=np.intp)
    for depth in range(max_depth):
        if lo.size == 0:
            break
        if lo.size > max_intervals:
            n_open = np.bincount(owner, minlength=n)
            if n_open.max() > max_intervals:
                raise QuadratureFailure(
                    f"interval count {n_open.max()} of integral {n_open.argmax()} "
                    f"exceeded budget at depth {depth}"
                )
        width = hi - lo
        half = 0.5 * width
        x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES
        vals = fvec(x, owner)
        n_panels += np.bincount(owner, minlength=n)
        kronrod, gauss = (half[:, None] * np.add.reduce(vals[:, None, :] * _RULES, axis=2)).T
        # keep the scale current so epsrel tracks the true magnitude
        scale = np.maximum(scale, np.abs(value)
                           + np.bincount(owner, np.abs(kronrod), minlength=n))
        disc = np.abs(kronrod - gauss)
        done = disc <= np.maximum(epsabs, epsrel * scale)[owner] * width / length[owner]
        closed = owner[done]
        value += np.bincount(closed, kronrod[done], minlength=n)
        error += np.bincount(closed, disc[done], minlength=n)
        n_final += np.bincount(closed, minlength=n)
        if closed.size == owner.size:
            break
        # a value that is not finite makes its panel's |K15 - G7| NaN, which
        # keeps the panel open, so the first round to see one gets here
        if np.isnan(disc).any():
            k = np.isnan(disc).argmax()
            bad = np.flatnonzero(~np.isfinite(vals[k]))
            what = (f"{vals[k, bad[0]]} at x = {float(x[k, bad[0]])!r}" if bad.size
                    else "too large to sum")
            raise QuadratureFailure(
                f"integrand is {what} (integral {owner[k]}, depth {depth})"
            )
        keep = ~done
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
    else:
        if lo.size:
            raise QuadratureFailure(
                f"adaptive refinement did not converge (max_depth={max_depth}, "
                f"{lo.size} intervals open in integrals {np.unique(owner).tolist()})"
            )
    return _Stack(value, error, n_panels * _NODES.size, n_final)


def integrate_piecewise(fvec, edges, epsrel=1e-8, epsabs=1e-14,
                        max_depth=40, max_intervals=20000) -> QuadratureResult:
    """Integrate fvec over [edges[0], edges[-1]] with smooth panels between
    consecutive edges (taken sorted; repeated edges are ignored).

    ``fvec`` must accept a 1-d array of abscissas and return the integrand
    values; it is called once per refinement round, on the nodes of every
    open interval.  This is the B = 1 case of :func:`_integrate_stack`,
    whose rule and errors it shares; a non-finite edge raises
    :class:`InputError` before any evaluation.
    """
    edges = np.sort(np.asarray(edges, dtype=float).ravel())
    if not np.isfinite(edges).all():
        raise InputError(f"quadrature edges must be finite, got {edges}")
    if edges.size == 0:
        return QuadratureResult(0.0, 0.0, 0, 0)

    def flat(x, owner):
        return np.asarray(fvec(x.ravel()), dtype=float).reshape(x.shape)

    res = _integrate_stack(flat, edges[None], epsrel, epsabs, max_depth, max_intervals)
    return QuadratureResult(float(res.value[0]), float(res.error_estimate[0]),
                            int(res.n_evals[0]), int(res.n_intervals[0]))
