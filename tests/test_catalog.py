"""Generator catalogs: f specs, spectral weights, local-weight mapping."""

import numpy as np
import pytest

import qcontract as qc


GRID = np.concatenate([
    np.geomspace(0.02, 0.8, 12), np.linspace(0.9, 1.1, 7),
    np.geomspace(1.3, 40.0, 12),
])


class TestFCatalog:
    def test_contents_and_flags(self, f_cat):
        assert set(f_cat) == {"kl", "chi2", "hellinger"}
        for spec in f_cat.values():
            assert spec.operator_convex
            assert spec.pinsker_constant is not None
        assert f_cat["kl"].pinsker_constant == 0.5
        assert f_cat["chi2"].pinsker_constant == 1.0
        assert f_cat["hellinger"].pinsker_constant == 0.25

    def test_generator_values(self, f_cat):
        x = GRID
        np.testing.assert_allclose(f_cat["kl"].f(x), x * np.log(x) - x + 1)
        np.testing.assert_allclose(f_cat["chi2"].f(x), (x - 1) ** 2)
        np.testing.assert_allclose(
            f_cat["hellinger"].f(x), (np.sqrt(x) - 1) ** 2
        )

    def test_normalization_and_curvature(self, f_cat):
        for spec in f_cat.values():
            assert spec.f(1.0) == pytest.approx(0.0, abs=1e-14)
            assert spec.f1(1.0) == pytest.approx(0.0, abs=1e-14)
            assert spec.f2(1.0) > 0
            assert np.isfinite(spec.f(0.0))

    def test_derivatives_match_finite_differences(self, f_cat):
        h = 1e-5
        for spec in f_cat.values():
            for x in (0.3, 0.9, 1.0, 1.7, 5.0):
                fd1 = (spec.f(x + h) - spec.f(x - h)) / (2 * h)
                fd2 = (spec.f(x + h) - 2 * spec.f(x) + spec.f(x - h)) / h**2
                assert spec.f1(x) == pytest.approx(fd1, abs=1e-7, rel=1e-6)
                assert spec.f2(x) == pytest.approx(fd2, abs=1e-4, rel=1e-4)

    def test_factory_rejects_unnormalized(self):
        with pytest.raises(qc.InputError):
            qc.fdivergence_spec(
                "bad", lambda x: x - 1, lambda x: np.ones_like(x),
                lambda x: np.zeros_like(x), lambda x: np.zeros_like(x),
            )

    def test_factory_rejects_inconsistent_derivative(self, f_cat):
        kl = f_cat["kl"]
        with pytest.raises(qc.InputError):
            qc.fdivergence_spec("bad", kl.f, lambda x: 2 * kl.f1(x), kl.f2,
                               kl.f3)

    @np.errstate(divide="ignore")
    @pytest.mark.parametrize("f, f1, f2, message", [
        (lambda x: x * np.log(x) - x + 2, lambda x: np.log(x), lambda x: 1 / x,
         r"f\(1\) must be 0"),
        (lambda x: -(x - 1) ** 2, lambda x: -2 * (x - 1), lambda x: -2 + 0 * x,
         r"f''\(1\) must be positive"),
        (lambda x: (x - 1) ** 2 - (x - 1) ** 3, lambda x: 2 * (x - 1) - 3 * (x - 1) ** 2,
         lambda x: 2 - 6 * (x - 1), r"f'' must be positive on \(0, inf\)"),
        (lambda x: x - 1 - np.log(x), lambda x: 1 - 1 / x, lambda x: 1 / x**2,
         "finite limit at 0"),
    ], ids=["f-at-one", "curvature-at-one", "curvature-on-grid", "infinite-at-zero"])
    def test_factory_rejects_each_generator_rule(self, f, f1, f2, message):
        with pytest.raises(qc.InputError, match=message) as info:
            qc.fdivergence_spec("bad", f, f1, f2, lambda x: 0 * x)
        assert type(info.value) is qc.InputError
        assert info.value.exit_code == 2

    def test_with_family(self, f_cat):
        spec = f_cat["kl"].with_family("petz")
        assert spec.family == "petz"
        assert f_cat["kl"].family is None
        with pytest.raises(qc.InputError):
            f_cat["kl"].with_family("nosuch")


class TestGCatalog:
    def test_contents(self, g_cat):
        assert set(g_cat) == {"max", "kmb"}
        for g in g_cat.values():
            assert g.standard_monotone

    def test_values(self, g_cat):
        x = GRID
        np.testing.assert_allclose(g_cat["max"](x), (x + 1) / (2 * x),
                                   rtol=1e-12)
        xm = x[np.abs(x - 1) > 1e-3]
        np.testing.assert_allclose(
            g_cat["kmb"](xm), np.log(xm) / (xm - 1), rtol=1e-10
        )

    def test_normalization_positivity_monotonicity(self, g_cat):
        x = np.geomspace(1e-3, 1e3, 4001)
        for g in g_cat.values():
            assert g(1.0) == pytest.approx(1.0, abs=1e-10)
            vals = g(x)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_symmetry_convention(self, g_cat):
        x = GRID
        for g in g_cat.values():
            np.testing.assert_allclose(g(1.0 / x), x * g(x), rtol=1e-9)

    def test_series_window_is_continuous(self, g_cat):
        # values just inside and outside the series window must agree
        for g in g_cat.values():
            w = g.series_window
            for x0 in (1 - 2 * w, 1 - 0.5 * w, 1 + 0.5 * w, 1 + 2 * w):
                direct = float(np.log(x0) / (x0 - 1)) if g.name == "kmb" \
                    else (x0 + 1) / (2 * x0)
                assert g(x0) == pytest.approx(direct, rel=1e-9)

    def test_factory_rejects_asymmetric_function(self):
        with pytest.raises(qc.NotStandardMonotone):
            qc.standard_monotone(
                "bad", lambda x: np.exp(-(x - 1)), (1.0, -1.0, 0.5), 1e-6
            )

    @pytest.mark.parametrize("fn, message", [
        (lambda x: 2.0 / (1.0 + x) + 1.0, r"g\(1\) must be 1"),
        (lambda x: 2.0 - x, "g must be positive"),
        (lambda x: (1.0 + x) / 2.0, "g must be non-increasing"),
    ], ids=["not-normalized", "not-positive", "increasing"])
    def test_factory_rejects_each_weight_rule(self, fn, message):
        with pytest.raises(qc.NotStandardMonotone, match=message) as info:
            qc.standard_monotone("bad", fn, (1.0, -0.5, 0.5))
        assert info.value.exit_code == 2

    def test_gns_weight_is_flat(self):
        g = qc.gns_weight()
        np.testing.assert_allclose(g(GRID), np.ones_like(GRID))
        assert not g.standard_monotone


@pytest.mark.parametrize("make", [qc.f_catalog, qc.g_catalog])
def test_catalog_calls_return_fresh_dicts_of_one_build(make):
    # built once at import: a caller's edits do not reach the next call
    cat = make()
    want = dict(cat)
    del cat[next(iter(cat))]
    cat["extra"] = None
    again = make()
    assert again == want and all(again[k] is v for k, v in want.items())


class TestLocalWeights:
    def test_kappa_of_quadratic_generator_is_max_weight(self, f_cat, g_cat):
        kappa = qc.kappa_for_petz(f_cat["chi2"])
        np.testing.assert_allclose(kappa(GRID), g_cat["max"](GRID), rtol=1e-9)

    def test_kappa_of_kl_is_kmb_weight(self, f_cat, g_cat):
        kappa = qc.kappa_for_petz(f_cat["kl"])
        np.testing.assert_allclose(kappa(GRID), g_cat["kmb"](GRID), rtol=1e-8)

    def test_kappa_closed_form(self, f_cat):
        # kappa(x) = (f(x) + x f(1/x)) / (f''(1) (x-1)^2)
        for spec in f_cat.values():
            kappa = qc.kappa_for_petz(spec)
            x = GRID[np.abs(GRID - 1) > 1e-2]
            expect = (spec.f(x) + x * spec.f(1.0 / x)) / (
                spec.f2(1.0) * (x - 1) ** 2
            )
            np.testing.assert_allclose(kappa(x), expect, rtol=1e-9)

    def test_kappa_is_standard_monotone(self, f_cat):
        for spec in f_cat.values():
            assert qc.kappa_for_petz(spec).standard_monotone

    def test_local_weight_dispatch(self, f_cat, g_cat):
        kl = f_cat["kl"]
        assert qc.local_weight("ht", kl) is g_cat["kmb"] or \
            np.allclose(qc.local_weight("ht", kl)(GRID), g_cat["kmb"](GRID))
        np.testing.assert_allclose(
            qc.local_weight("matsumoto", kl)(GRID), g_cat["max"](GRID)
        )
        np.testing.assert_allclose(
            qc.local_weight("petz", f_cat["chi2"])(GRID), g_cat["max"](GRID),
            rtol=1e-9,
        )
        with pytest.raises(qc.InputError):
            qc.local_weight("nosuch", kl)

    def test_family_names(self):
        assert qc.FAMILIES == ("ht", "petz", "matsumoto")
