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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_edge_rejected_before_any_evaluation(bad):
    # before, [0, inf] and [0, nan] bisected to 32,768 intervals
    fn, calls = recording(np.exp)
    with pytest.raises(qc.InputError, match="finite"):
        qc.integrate_piecewise(fn, [0.0, bad])
    assert sum(c.size for c in calls) == 0


def test_non_finite_integrand_fails_in_its_first_round():
    # NaN on part of [0, 1] cost 491,535 evaluations before the budget ran out
    fn, calls = recording(lambda x: np.where(x > 0.9, np.nan, x))
    with pytest.raises(qc.QuadratureFailure, match=r"nan at x = 0\.93243"):
        qc.integrate_piecewise(fn, [0.0, 1.0])
    assert sum(c.size for c in calls) == 15


def rounds_alone(fn, edges):
    """The integrand calls of integrate_piecewise on fn alone."""
    wrapped, calls = recording(fn)
    qc.integrate_piecewise(wrapped, edges, epsrel=1e-10)
    return calls


def test_stack_gives_each_integral_as_alone():
    # undeclared kinks of |x - c| e^x close the integrals at different
    # depths; rows of different panel counts are padded by repeating the
    # last edge (a zero-width panel, dropped)
    kinks = np.array([np.pi / 6, 0.5, 0.9, 1 / 3, 0.05])
    edges = np.array([[0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [-1.0, 0.2, 2.0],
                      [0.0, 0.7, 0.7], [0.3, 0.3, 0.3]])
    alone = [lambda x, c=c: np.abs(x - c) * np.exp(x) for c in kinks]
    calls = []

    def fvec(x, owner):
        calls.append(x.shape)
        return np.abs(x - kinks[owner][:, None]) * np.exp(x)

    res = quadrature._integrate_stack(fvec, edges, epsrel=1e-10)
    singles = [qc.integrate_piecewise(f, row, epsrel=1e-10) for f, row in zip(alone, edges)]
    for b, one in enumerate(singles):
        assert res.value[b] == one.value, b
        assert res.error_estimate[b] == one.error_estimate, b
        assert res.n_evals[b] == one.n_evals, b
        assert res.n_intervals[b] == one.n_intervals, b
    # the rows converge at different depths, one integrand call per round
    assert len({one.n_evals for one in singles}) > 2
    assert singles[4].value == 0.0 and singles[4].n_evals == 0
    assert len(calls) == max(len(rounds_alone(f, row)) for f, row in zip(alone, edges))
    assert all(len(shape) == 2 and shape[1] == 15 for shape in calls)


def test_exhausted_budget_in_one_member_fails_the_stack():
    def nasty(x, owner):
        # integral 1 is near-singular, integral 0 is smooth
        return np.where(owner[:, None] == 1, 1.0 / np.sqrt(np.abs(x) + 1e-14), np.exp(x))

    edges = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(qc.QuadratureFailure, match="of integral 1 exceeded budget"):
        quadrature._integrate_stack(nasty, edges, epsrel=1e-13, max_intervals=4)
    with pytest.raises(qc.QuadratureFailure, match=r"open in integrals \[1\]"):
        quadrature._integrate_stack(nasty, edges, epsrel=1e-13, max_depth=3)


# inf times a zero G7 weight is NaN, which numpy warns about on the way
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
def test_non_finite_member_fails_the_stack_in_its_first_round():
    calls = []

    def fvec(x, owner):
        calls.append(x.size)
        return np.where((owner[:, None] == 2) & (x > 0.5), np.inf, x)

    with pytest.raises(qc.QuadratureFailure, match=r"inf at x = .*\(integral 2, depth 0\)"):
        quadrature._integrate_stack(fvec, np.array([[0.0, 1.0]] * 3))
    assert calls == [45]


#: kinked integrands that close at different depths, and their panel edges
_KINKS = np.array([np.pi / 6, 0.5, 0.9, 1 / 3, 0.05])
_KINK_EDGES = np.array([[0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [-1.0, 0.2, 2.0],
                        [0.0, 0.7, 0.7], [0.3, 0.3, 0.3]])


def kinked(x, owner):
    return np.abs(x - _KINKS[owner][:, None]) * np.exp(x)


def polynomial_rider(x):
    """A (2, 2) complex matrix of polynomials of degree <= 22 per node."""
    return np.stack([np.stack([x**22, 1j * x**3], -1),
                     np.stack([3.0 + 0.5j * x, x**7 - 2j * x**2], -1)], -2)


def polynomial_integrals(a, b):
    """The exact integrals of polynomial_rider over [a, b]."""
    def prim(x):
        return np.array([[x**23 / 23, 1j * x**4 / 4],
                         [3.0 * x + 0.25j * x**2, x**8 / 8 - 2j * x**3 / 3]])
    return prim(b) - prim(a)


def test_rider_leaves_the_scalar_results_unchanged():
    plain = quadrature._integrate_stack(kinked, _KINK_EDGES, epsrel=1e-10)
    ridden = quadrature._integrate_stack(
        lambda x, owner: (kinked(x, owner), polynomial_rider(x)), _KINK_EDGES, epsrel=1e-10)
    assert plain.rider is None
    for field in ("value", "error_estimate", "n_evals", "n_intervals"):
        np.testing.assert_array_equal(getattr(ridden, field), getattr(plain, field))
    # the refinement splits the rows' panels, which a polynomial rider of
    # degree <= 22 does not feel: K15 is exact on each piece
    assert ridden.rider.shape == (5, 2, 2)
    for b, row in enumerate(_KINK_EDGES):
        np.testing.assert_allclose(ridden.rider[b], polynomial_integrals(row[0], row[-1]),
                                   rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(ridden.rider[4], np.zeros((2, 2)))


def test_rider_is_the_same_alone_and_in_a_stack():
    def fvec(x, owner):
        # a rider that differs per integral and is not polynomial
        return kinked(x, owner), np.cos(_KINKS[owner][:, None, None, None] * x[..., None, None]
                                        * np.array([[1.0, 2.0], [3.0, 4.0]]))

    res = quadrature._integrate_stack(fvec, _KINK_EDGES, epsrel=1e-10)
    assert not res.rider[4].any()
    # row 4 has zero width, so alone it has no rider at all (below)
    for b in range(4):
        one = quadrature._integrate_stack(lambda x, owner: fvec(x, owner + b),
                                          _KINK_EDGES[b:b + 1], epsrel=1e-10)
        assert one.value[0] == res.value[b], b
        np.testing.assert_array_equal(one.rider[0], res.rider[b])


def test_rider_of_zero_width_integrals_is_none():
    res = quadrature._integrate_stack(lambda x, owner: (x, polynomial_rider(x)),
                                      np.array([[0.5, 0.5]]))
    assert res.value[0] == 0.0 and res.rider is None
