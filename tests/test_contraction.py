"""Contraction: Omega weights, exact and variational SDPI constants,
detailed balance, and the experiment harness."""

import json

import numpy as np
import pytest

import qcontract as qc
from qcontract import contraction


@pytest.fixture(scope="module")
def gs():
    return qc.g_catalog()


def _apply_weights(sig, w, x):
    """Omega_sigma(X) from the weight matrix: entrywise in the sigma eigenbasis."""
    v = sig.eigenvectors
    return v @ (w * (v.conj().T @ x @ v)) @ v.conj().T


def _dense_omega(sig, g, power):
    """Dense d^2 x d^2 superoperator of Omega_sigma^power, built independently
    of the library as kron(conj(V), V) diag(w^power) kron(conj(V), V)^dag."""
    mu, v = sig.eigenvalues, sig.eigenvectors
    w = np.asarray(g(mu[:, None] / mu[None, :]), float) / mu[None, :]
    u = np.kron(v.conj(), v)
    return u @ np.diag((w**power).ravel(order="F")) @ u.conj().T


class TestOmega:
    def test_weights_are_positive_and_read_only(self, gs, rng):
        sig = qc.random_density(2, rng)
        for g in gs.values():
            w = qc.omega(sig, g)
            assert w.shape == (2, 2)
            assert np.isrealobj(w) and np.all(w > 0)
            assert not w.flags.writeable
        bad = qc.SpectralWeight("neg", lambda x: -np.ones_like(x))
        with pytest.raises(qc.InputError):
            qc.omega(sig, bad)

    def test_eigenbasis_action(self, gs):
        # on a diagonal sigma the action is entrywise w_ij = g(mu_i/mu_j)/mu_j
        mu = np.array([0.7, 0.3])
        sig = qc.validate_density(np.diag(mu))
        x = np.array([[0.1, 0.2 + 0.05j], [0.2 - 0.05j, -0.1]])
        for g in gs.values():
            w = np.array([[g(mu[i] / mu[j]) / mu[j] for j in range(2)]
                          for i in range(2)])
            np.testing.assert_allclose(
                _apply_weights(sig, qc.omega(sig, g), x), w * x, atol=1e-12
            )

    def test_gns_weight_is_right_division(self, rng):
        sig = qc.random_density(2, rng)
        w = qc.omega(sig, qc.gns_weight())
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            _apply_weights(sig, w, x), x @ np.linalg.inv(sig.entries), atol=1e-9
        )

    def test_singular_sigma_rejected(self, gs):
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.omega(sig, gs["max"])

    def test_nonpositive_weights_rejected_at_every_entry_point(self):
        ch = qc.random_channel(2, seed=1)
        pi = qc.fixed_point(ch)
        rho = qc.random_density(2, np.random.default_rng(3))
        bad = qc.SpectralWeight("neg", lambda x: -np.ones_like(x))
        calls = [
            lambda: qc.omega(pi, bad),
            lambda: qc.chi2_g(rho, pi, bad),
            lambda: qc.chi2_quadratic_form(rho.entries - pi.entries, pi, bad),
            lambda: qc.sdpi_chi2(ch, pi, bad),
            lambda: qc.detailed_balance_residual(ch, pi, bad),
            lambda: qc.sdpi_variational(bad, ch, pi, qc.VariationalOptions(restarts=1)),
        ]
        for call in calls:
            with pytest.raises(qc.InputError, match="nonpositive weights"):
                call()


class TestDenseOmegaReference:
    """The eigenbasis forms equal the dense-superoperator definitions."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sdpi_chi2_and_residual_match_dense_omega(self, gs, dim):
        weights = list(gs.values()) + [qc.gns_weight()]
        for seed in range(4):
            ch = qc.random_channel(dim, seed=seed)
            pi = qc.fixed_point(ch)
            m = ch.superop.matrix
            for g in weights:
                n_mat = _dense_omega(pi, g, 0.5) @ m @ _dense_omega(pi, g, -0.5)
                eta = np.linalg.svd(n_mat, compute_uv=False)[1] ** 2
                assert qc.sdpi_chi2(ch, pi, g).value == pytest.approx(eta, abs=1e-12)
                inv = _dense_omega(pi, g, -1.0)
                res = np.linalg.norm(inv @ m.conj().T - m @ inv) / np.linalg.norm(inv)
                assert qc.detailed_balance_residual(ch, pi, g) == \
                    pytest.approx(res, abs=1e-12)


class TestDimensionMismatch:
    @pytest.mark.parametrize("entry", [
        "sdpi_chi2", "sdpi_variational", "detailed_balance_residual",
        "carlen_maas_check",
    ])
    def test_channel_sigma_dimension_mismatch_is_input_error(self, gs, entry):
        ch = qc.depolarizing(0.5, dim=3)
        sig = qc.validate_density(np.eye(2) / 2)
        calls = {
            "sdpi_chi2": lambda: qc.sdpi_chi2(ch, sig, gs["max"]),
            "sdpi_variational": lambda: qc.sdpi_variational(gs["max"], ch, sig),
            "detailed_balance_residual":
                lambda: qc.detailed_balance_residual(ch, sig, gs["max"]),
            "carlen_maas_check": lambda: qc.carlen_maas_check(ch, sig),
        }
        with pytest.raises(qc.InputError, match="dimensions differ"):
            calls[entry]()


class TestExactSdpi:
    def test_depolarizing_known_values(self, gs):
        for p in (0.25, 0.5, 0.75):
            ch = qc.depolarizing(p)
            pi = qc.fixed_point(ch)
            for g in gs.values():
                est = qc.sdpi_chi2(ch, pi, g)
                assert est.value == pytest.approx((1 - p) ** 2, abs=1e-9)
                assert est.method == "exact_lambda2"
                assert est.top_eigenvalue_check == pytest.approx(1.0, abs=1e-9)

    def test_embedded_chain_known_value(self, gs):
        ch = qc.embedded_classical(np.array([[0.7, 0.3], [0.3, 0.7]]))
        pi = qc.fixed_point(ch)
        for g in gs.values():
            assert qc.sdpi_chi2(ch, pi, g).value == \
                pytest.approx(0.16, abs=1e-9)

    def test_pauli_channel_known_value(self, gs):
        ch = qc.pauli_channel([0.7, 0.1, 0.1, 0.1])
        pi = qc.fixed_point(ch)
        for g in gs.values():
            assert qc.sdpi_chi2(ch, pi, g).value == \
                pytest.approx(0.36, abs=1e-9)

    def test_identity_channel_gives_one(self, gs, rng):
        ident = qc.channel_from_kraus([np.eye(2)], label="id")
        sig = qc.random_density(2, rng)
        for g in gs.values():
            assert qc.sdpi_chi2(ident, sig, g).value == \
                pytest.approx(1.0, abs=1e-9)

    def test_amplitude_damping_rate(self, gs):
        gamma = 0.3
        ch = qc.amplitude_damping(gamma, 0.25)
        pi = qc.fixed_point(ch)
        for g in gs.values():
            assert qc.sdpi_chi2(ch, pi, g).value == \
                pytest.approx(1 - gamma, abs=1e-9)

    def test_value_clamped_to_unit_interval(self, gs):
        for seed in range(6):
            ch = qc.random_channel(2, seed=seed)
            pi = qc.fixed_point(ch)
            for g in gs.values():
                est = qc.sdpi_chi2(ch, pi, g)
                assert 0.0 <= est.value <= 1.0

    def test_hermitized_singular_values_contained(self, gs):
        # all singular values of the Hermitized operator lie in [0, 1+1e-9]
        for seed in (3, 13):
            ch = qc.random_channel(2, seed=seed)
            pi = qc.fixed_point(ch)
            for g in gs.values():
                svals = qc.sdpi_chi2(ch, pi, g).diagnostics["singular_values"]
                assert np.all(svals >= -1e-9)
                assert np.all(svals <= 1 + 1e-9)

    def test_non_fixed_sigma_warns_and_skips_check(self, gs, rng):
        ch = qc.amplitude_damping(0.3, 0.25)
        sig = qc.validate_density(np.diag([0.5, 0.5]))
        est = qc.sdpi_chi2(ch, sig, gs["max"])
        assert "warning" in est.diagnostics
        assert 0.0 <= est.value <= 1.0

    def test_completely_depolarizing_gives_zero(self, gs):
        kraus = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            kraus[idx][i, j] = 1 / np.sqrt(2)
        ch = qc.channel_from_kraus(kraus)
        pi = qc.fixed_point(ch)
        for g in gs.values():
            assert qc.sdpi_chi2(ch, pi, g).value == pytest.approx(0.0, abs=1e-9)


class TestVariationalSdpi:
    def test_matches_exact_on_qubit_fixtures(self, gs):
        """Chi-square objective: variational must land within
        [exact - 1e-2, exact + 1e-6] on 5 seeded channels x 2 weights."""
        for seed in range(5):
            ch = qc.random_channel(2, seed=seed)
            pi = qc.fixed_point(ch)
            for g in gs.values():
                exact = qc.sdpi_chi2(ch, pi, g).value
                est = qc.sdpi_variational(
                    g, ch, pi, qc.VariationalOptions(restarts=32, seed=101)
                )
                assert est.method == "variational"
                assert est.restarts_used == 32
                assert est.value <= exact + 1e-6
                assert est.value >= exact - 1e-2
                assert est.argmax_state is not None

    def test_f_divergence_objective_at_least_local_weight_rate(self, f_cat, gs):
        # variational f-ratio dominates the kappa-weighted exact constant
        ch = qc.random_channel(2, seed=0)
        pi = qc.fixed_point(ch)
        for fam in qc.FAMILIES:
            spec = f_cat["kl"].with_family(fam)
            kappa = qc.local_weight(fam, spec)
            exact = qc.sdpi_chi2(ch, pi, kappa).value
            est = qc.sdpi_variational(
                spec, ch, pi,
                qc.VariationalOptions(restarts=8, max_iters=80, seed=5),
            )
            assert est.value >= exact - 1e-2

    def test_callable_evaluator(self, gs):
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        fn = lambda r, s: qc.chi2_max(r, s).value
        est = qc.sdpi_variational(
            fn, ch, pi, qc.VariationalOptions(restarts=6, seed=3)
        )
        assert est.value == pytest.approx(0.25, abs=1e-6)

    def test_deterministic_given_seed(self, gs):
        ch = qc.random_channel(2, seed=2)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=4, seed=77)
        a = qc.sdpi_variational(gs["max"], ch, pi, opts)
        b = qc.sdpi_variational(gs["max"], ch, pi, opts)
        assert a.value == b.value
        np.testing.assert_array_equal(
            a.argmax_state.entries, b.argmax_state.entries
        )

    def test_all_restarts_degenerate(self, gs, rng):
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        dead = lambda r, s: 0.0
        with pytest.raises(qc.AllRestartsDegenerate):
            qc.sdpi_variational(
                dead, ch, pi, qc.VariationalOptions(restarts=3, seed=1)
            )

    def test_singular_sigma_rejected(self, gs):
        ch = qc.depolarizing(0.5)
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.sdpi_variational(gs["max"], ch, sig)

    @pytest.mark.parametrize("options, kwargs", [
        *[(cls, kw) for cls in (qc.VariationalOptions, qc.ExperimentOptions)
          for kw in ({"seed": -1}, {"seed": 1.5}, {"restarts": 0})],
        (qc.VariationalOptions, {"seed": (1729, -2)}),
        (qc.ExperimentOptions, {"seed": (1729, 2)}),
        (qc.VariationalOptions, {"seed": True}),
        (qc.VariationalOptions, {"seed": (True, 3)}),
        (qc.ExperimentOptions, {"seed": False}),
    ])
    def test_invalid_restarts_and_seeds_rejected(self, options, kwargs):
        with pytest.raises(qc.InputError):
            options(**kwargs)


def _search_objectives(f_cat, gs):
    specs = [f_cat[f].with_family(fam) for fam in qc.FAMILIES
             for f in ("kl", "chi2", "hellinger")]
    return specs + [gs["max"], gs["kmb"]]


def _scalar_ratio(obj, ch, sig, rho):
    """One search ratio from public calls alone: None where the point is
    within EXCLUSION of sigma, the denominator is not positive, or an
    evaluator rejects its input."""
    if qc.trace_distance(rho, sig.entries) < contraction.EXCLUSION:
        return None
    r = qc.validate_density(rho)
    e_r, e_sig = qc.apply(ch, r), qc.apply(ch, sig)
    if isinstance(obj, qc.SpectralWeight):
        fn = lambda a, b: qc.chi2_g(a, b, obj).value
    else:
        fn = lambda a, b: qc.evaluate(obj, a, b).value
    try:
        den = fn(r, sig)
        return fn(e_r, e_sig) / den if den > 0.0 else None
    except qc.PreconditionError:
        return None


class TestStackedSearch:
    """The search's stacked ratio against the public evaluators, point by point."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_public_ratios(self, f_cat, gs, dim):
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([7, dim])
        rho = contraction._rho_from_params(rng.normal(size=(20, 2 * dim * dim)), dim)
        for obj in _search_objectives(f_cat, gs):
            ratios, _ = contraction._objective(obj, ch, pi)
            got = ratios(rho)
            want = np.array([_scalar_ratio(obj, ch, pi, r) for r in rho], float)
            assert np.all(np.isfinite(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_invalid_points_agree(self, f_cat, gs, dim):
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([8, dim])
        h = qc.random_hermitian(dim, rng)
        h -= np.trace(h) / dim * np.eye(dim)
        pure = np.zeros((dim, dim))
        pure[0, 0] = 1.0
        rho = np.array([
            pi.entries,                                  # sigma itself
            pi.entries + 1e-8 * h,                       # inside the ball
            pi.entries + 1e-3 * h,                       # outside it
            pure,                                        # rank deficient
            0.5 * pure + 0.5 * qc.random_density(dim, rng).entries,
        ], dtype=complex)
        for obj in _search_objectives(f_cat, gs):
            ratios, _ = contraction._objective(obj, ch, pi)
            got = ratios(rho)
            want = [_scalar_ratio(obj, ch, pi, r) for r in rho]
            assert [w is None for w in want] == list(np.isnan(got))
            finite = [i for i, w in enumerate(want) if w is not None]
            np.testing.assert_allclose(got[finite], [want[i] for i in finite],
                                       rtol=1e-12, atol=0)
        kl = {fam: contraction._objective(f_cat["kl"].with_family(fam), ch, pi)[0]
              for fam in qc.FAMILIES}
        assert np.isnan(kl["petz"](rho[3:4])[0])
        assert np.isnan(kl["ht"](rho[3:4])[0])
        assert np.isfinite(kl["matsumoto"](rho[3:4])[0])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_of_one_is_the_public_value(self, f_cat, dim):
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([9, dim])
        rho = contraction._rho_from_params(rng.normal(size=(4, 2 * dim * dim)), dim)
        for fam in qc.FAMILIES:
            spec = f_cat["kl"].with_family(fam)
            ratios, _ = contraction._objective(spec, ch, pi)
            for r in rho:
                v = qc.validate_density(r)
                want = (qc.evaluate(spec, qc.apply(ch, v), qc.apply(ch, pi)).value
                        / qc.evaluate(spec, v, pi).value)
                assert ratios(r[None])[0] == want

    def test_traced_names_stay_bound(self):
        # the benchmark's tracer patches these names on the contraction module
        for name in ("evaluate", "apply", "chi2_quadratic_form", "validate_density",
                     "omega", "channel_power", "fixed_point", "is_primitive"):
            assert callable(getattr(contraction, name))


class TestSearchFallbacks:
    @staticmethod
    def _nan_every(k):
        calls = []

        def flaky(r, s):
            calls.append(None)
            return float("nan") if len(calls) % k == 0 else qc.chi2_max(r, s).value

        return flaky

    def test_nan_from_callable_is_an_invalid_point(self):
        # every fourth call is the numerator of every second point
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        est = qc.sdpi_variational(
            self._nan_every(4), ch, pi,
            qc.VariationalOptions(restarts=2, max_iters=3, seed=1),
        )
        assert np.isfinite(est.value) and 0.0 <= est.value <= 1.0
        assert est.diagnostics["skipped_coordinates"] > 0

    def test_nan_on_every_numerator_leaves_no_valid_point(self):
        # every second call is every numerator, so no point is valid
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        with pytest.raises(qc.AllRestartsDegenerate,
                           match="no restart of 2 found a valid starting point"):
            qc.sdpi_variational(
                self._nan_every(2), ch, pi,
                qc.VariationalOptions(restarts=2, max_iters=3, seed=1),
            )

    def test_skipped_coordinates_are_counted(self):
        # the evaluator's domain is the start state and its image only, so
        # every perturbed point of the first gradient is invalid
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        seen = []

        def narrow(r, s):
            if len(seen) < 2:
                seen.append(r.entries.copy())
            if not any(np.array_equal(r.entries, x) for x in seen):
                raise qc.DomainError("outside the evaluator's domain")
            return qc.chi2_max(r, s).value

        est = qc.sdpi_variational(
            narrow, ch, pi, qc.VariationalOptions(restarts=1, max_iters=1, seed=1)
        )
        n = 2 * 2 * 2
        assert est.value == pytest.approx(0.25, abs=1e-12)
        assert est.diagnostics["skipped_coordinates"] == n
        assert est.diagnostics["ratio_evaluations"] == 1 + 2 * n
        assert est.diagnostics["reinits"] == 0

    def test_reinits_are_counted(self):
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        calls = []

        def late(r, s):
            calls.append(None)
            return 0.0 if len(calls) == 1 else qc.chi2_max(r, s).value

        est = qc.sdpi_variational(
            late, ch, pi, qc.VariationalOptions(restarts=1, max_iters=2, seed=1)
        )
        assert est.diagnostics["reinits"] == 1
        assert est.diagnostics["valid_restarts"] == 1
        assert est.diagnostics["skipped_coordinates"] == 0

    def test_identity_fallbacks_are_counted(self, gs):
        # A = 0 has trace 0, so its state is the fallback I/d; every perturbed
        # point of the gradient and every line-search point has A != 0
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        ratios, _ = contraction._objective(gs["max"], ch, pi)
        counts = {"ratio_evaluations": 0, "skipped_coordinates": 0, "reinits": 0,
                  "identity_fallbacks": 0}
        res = contraction._ascend(ratios, np.zeros(8), 2,
                                  qc.VariationalOptions(max_iters=2), counts)
        assert res is not None
        assert counts["identity_fallbacks"] == 1
        assert counts["ratio_evaluations"] > 1
        est = qc.sdpi_variational(gs["max"], ch, pi,
                                  qc.VariationalOptions(restarts=2, max_iters=3, seed=1))
        assert est.diagnostics["identity_fallbacks"] == 0

    def test_ratio_above_one_is_clipped_and_recorded(self):
        # 1 / chi2_max turns data processing around: every ratio is >= 1
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=1, max_iters=2, seed=1)
        est = qc.sdpi_variational(lambda r, s: 1.0 / qc.chi2_max(r, s).value, ch, pi, opts)
        assert est.diagnostics["raw_best"] > 1.0
        assert est.value == 1.0
        assert est.diagnostics["clipped_above_one"] is True
        est = qc.sdpi_variational(lambda r, s: qc.chi2_max(r, s).value, ch, pi, opts)
        assert est.value == est.diagnostics["raw_best"] < 1.0
        assert est.diagnostics["clipped_above_one"] is False

    def test_singular_image_of_sigma_is_singular_reference(self, f_cat, gs):
        # the reset channel maps every state to |0><0|
        reset = qc.channel_from_kraus([np.array([[1, 0], [0, 0]]),
                                       np.array([[0, 1], [0, 0]])])
        sig = qc.validate_density(np.eye(2) / 2)
        for obj in (f_cat["kl"].with_family("matsumoto"), gs["max"]):
            with pytest.raises(qc.SingularReference):
                qc.sdpi_variational(obj, reset, sig,
                                    qc.VariationalOptions(restarts=1, max_iters=2))

    def test_counters_sum_over_restarts(self, gs):
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        one, two = (qc.sdpi_variational(gs["max"], ch, pi, qc.VariationalOptions(
            restarts=k, max_iters=5, seed=4)) for k in (1, 2))
        # restart 0 is the same search in both runs
        assert two.diagnostics["ratio_evaluations"] > \
            one.diagnostics["ratio_evaluations"] > 0
        for key in ("ratio_evaluations", "skipped_coordinates", "reinits"):
            assert isinstance(two.diagnostics[key], int)


class TestDetailedBalance:
    def test_pauli_channel_balanced_for_all_weights(self, gs):
        ch = qc.pauli_channel([0.7, 0.1, 0.1, 0.1])
        pi = qc.fixed_point(ch)
        res = qc.carlen_maas_check(ch, pi)
        assert set(res) == {"gns", "max", "kmb"}
        assert all(v <= 1e-10 for v in res.values())

    def test_reversible_chain_balanced(self, gs):
        ch = qc.embedded_classical(np.array([[0.7, 0.3], [0.3, 0.7]]))
        pi = qc.fixed_point(ch)
        assert all(v <= 1e-10 for v in qc.carlen_maas_check(ch, pi).values())

    def test_amplitude_damping_balanced(self, gs):
        ch = qc.amplitude_damping(0.3, 0.25)
        pi = qc.fixed_point(ch)
        res = qc.carlen_maas_check(ch, pi)
        assert all(v <= 1e-12 for v in res.values())
        assert qc.detailed_balance_residual(ch, pi, gs["max"]) <= 1e-12

    def test_random_channel_not_balanced(self, gs):
        ch = qc.random_channel(2, env=4, seed=7)
        pi = qc.fixed_point(ch)
        res = qc.carlen_maas_check(ch, pi)
        assert res["gns"] > 1e-3
        assert res["max"] > 1e-3
        assert res["kmb"] > 1e-3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_check_equals_single_residuals(self, gs, dim):
        weights = {"gns": qc.gns_weight(), **gs}
        for seed in range(3):
            ch = qc.random_channel(dim, seed=seed)
            pi = qc.fixed_point(ch)
            res = qc.carlen_maas_check(ch, pi)
            assert list(res) == list(weights)
            for name, g in weights.items():
                assert res[name] == qc.detailed_balance_residual(ch, pi, g)

    def test_residual_is_scale_free(self, gs, rng):
        # residual of the identity channel is exactly zero
        ident = qc.channel_from_kraus([np.eye(2)])
        sig = qc.random_density(2, rng)
        for g in gs.values():
            assert qc.detailed_balance_residual(ident, sig, g) <= 1e-14


class TestSubmultiplicativity:
    def test_power_never_exceeds_base_power(self, gs):
        for seed in (0, 4):
            ch = qc.random_channel(2, seed=seed)
            pi = qc.fixed_point(ch)
            for g in gs.values():
                for n in (2, 3):
                    assert qc.sdpi_submultiplicativity_check(ch, pi, g, n)

    def test_strict_on_pinned_fixture(self, gs):
        # seed-11 channel: eta(E^3) is strictly below eta(E)^3 by a margin
        ch = qc.random_channel(2, seed=11)
        pi = qc.fixed_point(ch)
        g = gs["max"]
        base = qc.sdpi_chi2(ch, pi, g).value
        power = qc.sdpi_chi2(qc.channel_power(ch, 3), pi, g).value
        assert base**3 == pytest.approx(0.0610396080869618, abs=1e-10)
        assert power == pytest.approx(0.0405319846137040, abs=1e-10)
        assert power < base**3 - 0.02
        assert qc.sdpi_submultiplicativity_check(ch, pi, g, 3)

    def test_equality_for_detailed_balanced_channel(self, gs):
        ch = qc.pauli_channel([0.7, 0.1, 0.1, 0.1])
        pi = qc.fixed_point(ch)
        for g in gs.values():
            base = qc.sdpi_chi2(ch, pi, g).value
            for n in range(1, 9):
                power = qc.sdpi_chi2(qc.channel_power(ch, n), pi, g).value
                assert power == pytest.approx(base**n, rel=1e-7)


@pytest.fixture(scope="module")
def depol_report(f_cat, gs):
    families = [f_cat["kl"].with_family(fam) for fam in qc.FAMILIES]
    return qc.contraction_experiment(
        qc.depolarizing(0.4), families, list(gs.values()), n_max=3,
        opts=qc.ExperimentOptions(restarts=6, max_iters=60, seed=9),
    )


class TestExperiment:
    def test_verdicts_pass_for_depolarizing(self, depol_report):
        rep = depol_report
        assert rep.verdicts["theorem_rate"]["pass"]
        assert not rep.verdicts["theorem_rate"]["vacuous"]
        assert rep.verdicts["tightness"]["pass"]
        for entry in rep.verdicts["tightness"]["per_family"].values():
            assert entry["applicable"]
            assert entry["power_equality_max_rel_err"] <= 1e-7

    def test_rows_contain_expected_quantities(self, depol_report):
        rep = depol_report
        assert [row["n"] for row in rep.rows] == [1, 2, 3]
        for row in rep.rows:
            n = row["n"]
            for g in rep.g_names:
                assert row["chi2_eta_power"][g] == \
                    pytest.approx(0.36**n, rel=1e-9)
                assert row["chi2_eta_bound"][g] == pytest.approx(0.36, rel=1e-9)
                assert row["db_residual"][g] <= 1e-12
            for lab in rep.family_labels:
                assert row["eta_f"][lab] == pytest.approx(0.36**n, abs=1e-6)

    def test_payload_and_csv_schema(self, depol_report):
        payload = qc.report_payload(depol_report)
        json.dumps(payload)  # must be JSON-clean
        csv_text = qc.report_csv(depol_report)
        header = csv_text.splitlines()[0].split(",")
        labels = list(depol_report.family_labels)
        expect = (
            ["n"]
            + [f"eta[{lab}]" for lab in labels]
            + [f"eta_root[{lab}]" for lab in labels]
            + [f"chi2_bound[{g}]" for g in depol_report.g_names]
            + [f"db_residual[{g}]" for g in depol_report.g_names]
        )
        assert header == expect
        assert len(csv_text.splitlines()) == 1 + 3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_n0_sample_matches_per_state_loop(self, dim):
        # the stacked propagation reproduces the state-by-state loop bit for bit
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        opts = qc.ExperimentOptions(seed=5)
        rng = np.random.default_rng([opts.seed, 0xA0])
        states = [qc.random_density(dim, rng, rank=1 if i % 2 == 0 else dim).entries
                  for i in range(contraction.N0_SAMPLES)]
        devs = []
        for _ in range(4):
            states = [qc.hermitianize(ch.superop.apply(s)) for s in states]
            devs.append(max(float(np.max(np.abs(np.linalg.eigvalsh(s - pi.entries))))
                            for s in states))
        assert contraction._estimate_n0(ch, pi, 4, opts)[1] == devs

    def test_deterministic_reports_bit_identical(self, f_cat, gs):
        families = [f_cat["kl"].with_family("petz")]
        kwargs = dict(
            n_max=2, opts=qc.ExperimentOptions(restarts=4, max_iters=40, seed=3)
        )
        ch = qc.embedded_classical(np.array([[0.8, 0.2], [0.2, 0.8]]))
        a = qc.contraction_experiment(ch, families, [gs["max"]], **kwargs)
        b = qc.contraction_experiment(ch, families, [gs["max"]], **kwargs)
        assert json.dumps(qc.report_payload(a), sort_keys=True) == \
            json.dumps(qc.report_payload(b), sort_keys=True)

    def test_chi2_quantities_equal_public_calls(self, f_cat, gs):
        # each weight is asked once per power; the rows and verdicts must
        # still hold exactly what the public functions return
        ch = qc.random_channel(2, seed=1)
        pi = qc.fixed_point(ch)
        families = [f_cat["kl"].with_family(fam) for fam in qc.FAMILIES]
        rep = qc.contraction_experiment(
            ch, families, [gs["max"], gs["kmb"]], n_max=2,
            opts=qc.ExperimentOptions(restarts=1, max_iters=2, seed=3),
        )
        kappas = {
            lab: qc.local_weight(spec.family, spec)
            for lab, spec in zip(rep.family_labels, families)
        }
        for row in rep.rows:
            e_n = qc.channel_power(ch, row["n"])
            for name in ("max", "kmb"):
                g = gs[name]
                assert row["chi2_eta_power"][name] == qc.sdpi_chi2(e_n, pi, g).value
                assert row["chi2_eta_bound"][name] == qc.sdpi_chi2(ch, pi, g).value
                assert row["db_residual"][name] == \
                    qc.detailed_balance_residual(e_n, pi, g)
            for lab, k in kappas.items():
                assert row["kappa_eta_power"][lab] == qc.sdpi_chi2(e_n, pi, k).value
        for lab, k in kappas.items():
            entry = rep.verdicts["tightness"]["per_family"][lab]
            assert entry["db_residual"] == qc.detailed_balance_residual(ch, pi, k)

    def test_not_primitive_rejected(self, f_cat, gs):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        uni = qc.channel_from_kraus([u])
        with pytest.raises(qc.NotPrimitive):
            qc.contraction_experiment(
                uni, [f_cat["kl"].with_family("ht")], [gs["max"]], n_max=2
            )

    def test_family_must_be_set(self, f_cat, gs):
        with pytest.raises(qc.InputError):
            qc.contraction_experiment(
                qc.depolarizing(0.5), [f_cat["kl"]], [gs["max"]], n_max=2
            )

    def test_n_max_range_enforced(self, f_cat, gs):
        fam = [f_cat["kl"].with_family("petz")]
        with pytest.raises(qc.InputError):
            qc.contraction_experiment(
                qc.depolarizing(0.5), fam, [gs["max"]], n_max=0
            )
        with pytest.raises(qc.InputError):
            qc.contraction_experiment(
                qc.depolarizing(0.5), fam, [gs["max"]], n_max=33
            )

    def test_vacuous_rate_verdict_when_convergence_not_reached(self, f_cat, gs):
        # a barely-contracting channel cannot reach the sampling radius in
        # one step, so the rate verdict is vacuous but still reported PASS
        ch = qc.depolarizing(0.02)
        rep = qc.contraction_experiment(
            ch, [f_cat["kl"].with_family("petz")], [gs["max"]], n_max=1,
            opts=qc.ExperimentOptions(restarts=4, max_iters=40, seed=3),
        )
        assert rep.n0 is None
        assert rep.verdicts["theorem_rate"]["vacuous"]
        assert rep.verdicts["theorem_rate"]["pass"]
