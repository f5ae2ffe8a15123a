"""Adaptive piecewise Gauss-Kronrod (7, 15) integrator."""

import numpy as np
import pytest
from scipy import integrate

import qcontract as qc
from qcontract import quadrature


def recording(fn):
    """fn plus the list of abscissa arrays it was called with."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return fn(x)

    return wrapped, calls


def test_kronrod_table_integrates_monomials_exactly():
    nodes = quadrature._NODES
    for k in range(23):
        exact = (1 - (-1) ** (k + 1)) / (k + 1)
        assert quadrature._K15 @ nodes**k == pytest.approx(exact, abs=1e-14), k
        if k <= 13:
            assert quadrature._G7 @ nodes**k == pytest.approx(exact, abs=1e-14), k
    # the embedded rule is a 7-point rule, so degree 14 is beyond it
    assert np.count_nonzero(quadrature._G7) == 7
    assert abs(quadrature._G7 @ nodes**14 - 2 / 15) > 1e-6


def test_smooth_panel_takes_one_call_of_fifteen_nodes():
    fn, calls = recording(np.exp)
    res = qc.integrate_piecewise(fn, [0.0, 1.0])
    assert [c.size for c in calls] == [15]
    assert res.n_evals == 15 and res.n_intervals == 1
    assert res.value == pytest.approx(np.e - 1.0, rel=1e-14)


def test_one_call_per_refinement_round():
    # an undeclared kink forces bisection; round k evaluates panels of
    # width 2^-k only, all in one call
    fn, calls = recording(lambda x: np.abs(x - np.pi / 6))
    res = qc.integrate_piecewise(fn, [0.0, 1.0], epsrel=1e-10)
    assert len(calls) > 3
    for k, x in enumerate(calls):
        panels = x.reshape(-1, 15)
        widths = (panels[:, -1] - panels[:, 0]) / quadrature._NODES[-1]
        np.testing.assert_allclose(widths, 2.0**-k, rtol=1e-6)
    assert res.n_evals == sum(c.size for c in calls)


def test_polynomial_is_exact():
    res = qc.integrate_piecewise(lambda x: 3 * x**2, [0.0, 2.0])
    assert res.value == pytest.approx(8.0, abs=1e-12)


def test_matches_scipy_on_smooth_integrand():
    fn = lambda x: np.exp(-x) * np.sin(3 * x) / (1 + x**2)
    expect, _ = integrate.quad(fn, 0.0, 10.0, limit=300)
    res = qc.integrate_piecewise(fn, [0.0, 10.0], epsrel=1e-10)
    assert res.value == pytest.approx(expect, rel=1e-9)
    assert res.n_evals > 0 and res.n_intervals >= 1


def test_kinked_integrand_with_declared_edges():
    # |x - 1/3| has a kink; declaring the edge keeps the error tiny
    fn = lambda x: np.abs(x - 1 / 3.0)
    expect = (1 / 3.0) ** 2 / 2 + (2 / 3.0) ** 2 / 2
    res = qc.integrate_piecewise(fn, [0.0, 1 / 3.0, 1.0])
    assert res.value == pytest.approx(expect, abs=1e-12)


def test_kinked_integrand_without_edges_still_converges():
    fn = lambda x: np.abs(x - np.pi / 6)
    expect, _ = integrate.quad(fn, 0.0, 1.0, points=[np.pi / 6])
    res = qc.integrate_piecewise(fn, [0.0, 1.0], epsrel=1e-9)
    assert res.value == pytest.approx(expect, rel=1e-8)


def test_edges_are_deduplicated_and_sorted():
    res = qc.integrate_piecewise(lambda x: x, [1.0, 0.0, 1.0, 0.5])
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_vectorized_calls_only():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return np.ones_like(x)

    qc.integrate_piecewise(fn, [0.0, 1.0])
    assert all(len(s) == 1 for s in calls)


def test_failure_when_interval_budget_exhausted():
    # near-singular integrand with an absurdly small interval budget
    fn = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-14)
    with pytest.raises(qc.QuadratureFailure):
        qc.integrate_piecewise(fn, [0.0, 1.0], epsrel=1e-13,
                               max_intervals=4, max_depth=3)


def test_error_estimate_is_honest():
    fn = lambda x: np.cos(7 * x)
    expect = np.sin(7.0) / 7.0
    res = qc.integrate_piecewise(fn, [0.0, 1.0], epsrel=1e-11)
    assert abs(res.value - expect) <= max(10 * res.error_estimate, 1e-12)
