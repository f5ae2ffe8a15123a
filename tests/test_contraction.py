"""Contraction: Omega weights, exact and variational SDPI constants,
detailed balance, and the experiment harness."""

import csv
import functools
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import qcontract as qc
from qcontract import contraction, divergences
from qcontract.linalg import eigvalsh_stack, stack_states, validate_stack


@pytest.fixture(scope="module")
def gs():
    return qc.g_catalog()


def _fake_objective(monkeypatch, ratios):
    """Make every search of the test run on ``ratios``: a map from a
    (B, d, d) stack of states to B ratios and their (B, d, d) gradients."""
    monkeypatch.setattr(contraction, "_objective", lambda evaluators, channel, sigma:
                        (lambda rho, parts: ratios(rho), ["fake"] * len(evaluators)))


def _objective(evaluator, channel, sigma):
    """The objective of one search on its own, as such a map, and its label."""
    ratios, labels = contraction._objective([evaluator], channel, sigma)
    return (lambda rho: ratios(rho, [(0, len(rho))])), labels[0]


def _ascend(ratios, x0, d, opts, counts):
    """One restart of ``contraction._ascend`` from x0, driven alone by the
    search's driver ``contraction._lockstep`` on such a map ``ratios``."""
    results, _ = contraction._lockstep(lambda rho, parts: ratios(rho), d,
                                       [(contraction._ascend(x0, d, opts, counts), counts, 0)])
    return results[0]


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

    @pytest.mark.parametrize("entry", [
        "sdpi_chi2", "sdpi_variational", "detailed_balance_residual", "carlen_maas_check",
    ])
    def test_channel_sigma_dimension_mismatch_type(self, gs, entry):
        """The type apply raises for the same mismatch, checked before the
        rank of sigma, as in the two-state evaluators."""
        ch = qc.depolarizing(0.5, dim=3)
        fn = getattr(qc, entry)
        for sig in (np.eye(2) / 2, np.diag([1.0, 0.0])):
            args = {"sdpi_variational": (gs["max"], ch, sig), "carlen_maas_check": (ch, sig)}
            with pytest.raises(qc.QcontractError) as info:
                fn(*args.get(entry, (ch, sig, gs["max"])))
            assert type(info.value) is qc.DimensionMismatch
            assert str(info.value) == "channel and sigma dimensions differ"


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

    @pytest.mark.parametrize("channel", [
        lambda: qc.random_channel(2, seed=1),
        lambda: qc.random_channel(3, seed=1),
        lambda: qc.amplitude_damping(0.3, 0.25),
    ], ids=["random-d2", "random-d3", "amplitude-damping"])
    def test_non_fixed_sigma_is_the_search_supremum(self, gs, channel):
        # the search's objective chi2_g(E(rho) || E(sigma)) / chi2_g(rho || sigma)
        # has the exact value as its supremum at every sigma, not only at
        # the fixed point, and vec(sigma^(1/2)) witnesses the top singular value
        ch = channel()
        for seed in range(3):
            sig = qc.random_density(ch.dim, np.random.default_rng(seed))
            assert qc.trace_distance(qc.apply(ch, sig), sig) > 0.1
            for name in ("max", "kmb"):
                exact = qc.sdpi_chi2(ch, sig, gs[name])
                est = qc.sdpi_variational(gs[name], ch, sig,
                                          qc.VariationalOptions(restarts=8))
                assert exact.value == pytest.approx(est.value, rel=1e-9, abs=0.0)
                assert abs(exact.top_eigenvalue_check - 1.0) <= 1e-12
                assert exact.diagnostics["top_overlap"] > 0.99

    def test_rank_deficient_output_reference_raises(self, gs):
        # the reset channel sends every sigma to |0><0|
        reset = qc.channel_from_kraus([np.array([[1.0, 0.0], [0.0, 0.0]]),
                                       np.array([[0.0, 1.0], [0.0, 0.0]])])
        for call in (lambda: qc.sdpi_chi2(reset, np.eye(2) / 2, gs["max"]),
                     lambda: qc.sdpi_variational(gs["max"], reset, np.eye(2) / 2)):
            with pytest.raises(qc.SingularReference, match=r"E\(sigma\) must be full rank"):
                call()

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

    @pytest.mark.parametrize("p", [0.4, 0.5])
    def test_no_estimate_above_the_exact_constant(self, f_cat, p):
        # eta of the depolarizing E^n is (1-p)^(2n) for every family, with
        # the supremum at sigma, inside the exclusion ball; a search that
        # walked into the rounding noise near sigma would report more
        ch = qc.depolarizing(p)
        pi = qc.fixed_point(ch)
        for n in (1, 2):
            exact = (1 - p) ** (2 * n)
            for fam in ("petz", "matsumoto"):
                est = qc.sdpi_variational(
                    f_cat["kl"].with_family(fam), qc.channel_power(ch, n), pi,
                    qc.VariationalOptions(restarts=6, max_iters=60, seed=9),
                )
                assert est.diagnostics["raw_best"] <= exact * (1 + 1e-9)
                assert est.value >= exact - 1e-2

    @pytest.mark.parametrize("evaluator, match", [
        (lambda r, s: qc.chi2_max(r, s).value, "SpectralWeight or an FDivergenceSpec"),
        ("kl", "SpectralWeight or an FDivergenceSpec"),
        (None, "SpectralWeight or an FDivergenceSpec"),
        (qc.f_catalog()["kl"], "family None"),
    ], ids=["callable", "name", "none", "no_family"])
    def test_only_weights_and_family_specs_are_objectives(self, evaluator, match):
        ch = qc.depolarizing(0.5)
        with pytest.raises(qc.InputError, match=match):
            qc.sdpi_variational(evaluator, ch, qc.fixed_point(ch),
                                qc.VariationalOptions(restarts=1))

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

    def test_all_restarts_degenerate(self, gs, monkeypatch):
        # no point is valid: each restart tries four starting points, one
        # call each
        _fake_objective(monkeypatch, lambda rho: (np.full(len(rho), np.nan),
                                                  np.full(rho.shape, np.nan, complex)))
        ch = qc.depolarizing(0.5)
        with pytest.raises(qc.AllRestartsDegenerate,
                           match="no restart of 2 found a valid starting point .*; "
                                 "6 reinits, 8 ratio evaluations"):
            qc.sdpi_variational(gs["max"], ch, qc.fixed_point(ch),
                                qc.VariationalOptions(restarts=2, max_iters=3, seed=1))

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
        (qc.VariationalOptions, {"restarts": 2.5}),
        (qc.VariationalOptions, {"restarts": True}),
        (qc.ExperimentOptions, {"max_iters": 1.5}),
        (functools.partial(qc.contraction_experiment, qc.depolarizing(0.5),
                           [qc.f_catalog()["kl"].with_family("petz")],
                           [qc.g_catalog()["max"]]), {"n_max": 2.5}),
        (functools.partial(qc.channel_power, qc.depolarizing(0.5)), {"n": 2.5}),
    ])
    def test_invalid_restarts_and_seeds_rejected(self, options, kwargs):
        with pytest.raises(qc.InputError):
            options(**kwargs)

    @pytest.mark.parametrize("options, kwargs", [
        (qc.VariationalOptions, {"max_iters": 0}),
        (qc.ExperimentOptions, {"max_iters": 0}),
    ])
    def test_invalid_search_length_rejected(self, options, kwargs):
        # max_iters < 1 would return the start point unsearched
        with pytest.raises(qc.InputError, match=next(iter(kwargs))):
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
    # the family objectives apply E to rho as given, then validate rho and
    # E(rho); chi-square needs no validation and measures rho - sigma
    r = qc.validate_density(rho)
    chi2 = isinstance(obj, qc.SpectralWeight)
    e_r, e_sig = qc.apply(ch, r if chi2 else rho), qc.apply(ch, sig)
    if chi2:
        fn = lambda a, b: qc.chi2_g(a, b, obj).value
    else:
        fn = lambda a, b: qc.evaluate(obj, a, b).value
    try:
        den = fn(r, sig)
        return fn(e_r, e_sig) / den if den > 0.0 else None
    except qc.PreconditionError:
        return None


@pytest.mark.parametrize("dim", [2, 3])
def test_chi2_family_searches_find_the_exact_constant(f_cat, gs, dim):
    # under f = chi2, ht is chi2_kmb and petz and matsumoto are chi2_max, so
    # each search, ht's through its quadrature and gradient rider, ends at
    # the exact constant of that weight
    ch = qc.random_channel(dim, seed=1)
    pi = qc.fixed_point(ch)
    for fam, weight in (("ht", "kmb"), ("petz", "max"), ("matsumoto", "max")):
        est = qc.sdpi_variational(f_cat["chi2"].with_family(fam), ch, pi,
                                  qc.VariationalOptions(restarts=4))
        assert est.value == pytest.approx(qc.sdpi_chi2(ch, pi, gs[weight]).value, rel=1e-9)


class TestStackedSearch:
    """The search's stacked ratio against the public evaluators, point by point."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_public_ratios(self, f_cat, gs, dim):
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([7, dim])
        rho = contraction._rho_from_params(rng.normal(size=(20, 2 * dim * dim)), dim)
        for obj in _search_objectives(f_cat, gs):
            ratios, _ = _objective(obj, ch, pi)
            got = ratios(rho)[0]
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
            ratios, _ = _objective(obj, ch, pi)
            got = ratios(rho)[0]
            want = [_scalar_ratio(obj, ch, pi, r) for r in rho]
            assert [w is None for w in want] == list(np.isnan(got))
            finite = [i for i, w in enumerate(want) if w is not None]
            np.testing.assert_allclose(got[finite], [want[i] for i in finite],
                                       rtol=1e-12, atol=0)
        kl = {fam: _objective(f_cat["kl"].with_family(fam), ch, pi)[0]
              for fam in qc.FAMILIES}
        assert np.isnan(kl["petz"](rho[3:4])[0][0])
        assert np.isnan(kl["ht"](rho[3:4])[0][0])
        assert np.isfinite(kl["matsumoto"](rho[3:4])[0][0])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_of_one_is_the_public_value(self, f_cat, dim):
        ch = qc.random_channel(dim, seed=1)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([9, dim])
        rho = contraction._rho_from_params(rng.normal(size=(4, 2 * dim * dim)), dim)
        # every built-in f under every family: the stacked dispatch
        # (_divergence_stacks) and the public one (evaluate) agree bit for bit
        for spec in (f_cat[f].with_family(fam) for f in ("kl", "chi2", "hellinger")
                     for fam in qc.FAMILIES):
            ratios, _ = _objective(spec, ch, pi)
            for r in rho:
                want = (qc.evaluate(spec, qc.apply(ch, r), qc.apply(ch, pi)).value
                        / qc.evaluate(spec, r, pi).value)
                assert ratios(r[None])[0][0] == want

    def test_traced_names_stay_bound(self):
        # the benchmark's tracer patches each (module, attribute) of its
        # TARGETS, so each must still name a callable
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        unbound = [(mod, attr) for mod, attr, *_ in spans.TARGETS
                   if not callable(getattr(importlib.import_module(mod), attr, None))]
        assert spans.TARGETS and not unbound


class TestConvergence:
    """The quasi-Newton search converges, 150 iterations at most: its
    chi-square estimates reach the exact constant.  ht[kl] and petz[kl],
    both the Umegaki relative entropy, share one kernel, so two searches
    with one seed give the same value bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_chi2_estimates_reach_the_exact_constant(self, gs, dim, seed):
        ch = qc.random_channel(dim, seed=seed)
        pi = qc.fixed_point(ch)
        for g in (gs["max"], gs["kmb"]):
            exact = qc.sdpi_chi2(ch, pi, g).value
            for restarts in (1, 4):
                est = qc.sdpi_variational(g, ch, pi, qc.VariationalOptions(
                    restarts=restarts, max_iters=150, seed=seed))
                assert est.value == pytest.approx(exact, rel=1e-9, abs=0), (g.name, restarts)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_ht_and_petz_kl_estimates_agree(self, f_cat, dim, seed):
        ch = qc.random_channel(dim, seed=seed)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=4, max_iters=150, seed=seed)
        ht, petz = (qc.sdpi_variational(f_cat["kl"].with_family(fam), ch, pi, opts).value
                    for fam in ("ht", "petz"))
        assert ht == petz


#: central-difference step of the stencil reference, relative to max(1, |x_i|)
FD_STEP = 1e-6


def _sequential_ascend(ratios, x0, d, opts, stencil=False):
    """Reference search: the BFGS ascent of ``contraction._ascend``, with its
    trial order (2, 1, 1/2, ... after an accepted full step, 1, 1/2, ...
    otherwise) and its steepest-ascent reset, but each line-search trial is
    a ratio call of its own.  Its gradients are the exact ones, the accepted
    trial's being the next, or, with ``stencil``, central differences over
    the 2n points x +- h e_i, one call at each accepted point.  Returns
    (value, rho, iterations, stop reason)."""
    def call(params):
        a, t, rho = contraction._param_states(params, d)
        f, g = ratios(rho)
        g = contraction._param_gradients(a, t, rho, g)
        # a point with no finite gradient is invalid
        f[~np.isfinite(g).all(axis=1)] = np.nan
        return f, g

    x = x0.copy()
    f0, dr = (v[0] for v in call(x[None]))
    if not np.isfinite(f0):
        return None
    n = x.size
    h_inv = s = grad_old = None
    full = False
    stop = "max_iters"
    for it in range(opts.max_iters):
        if f0 <= 0.0:
            stop = "converged"
            break
        if stencil:
            h = FD_STEP * np.maximum(1.0, np.abs(x))
            f = call(x + np.vstack([np.diag(h), -np.diag(h)]))[0]
            with np.errstate(invalid="ignore"):
                dr = (f[:n] - f[n:]) / (2 * h)
        grad = np.where(np.isfinite(dr), dr, 0.0) / f0
        x_norm, g_norm = np.linalg.norm(x), np.linalg.norm(grad)
        scaled = x_norm * g_norm
        if scaled < contraction.GRAD_TOL:
            stop = "converged"
            break
        if s is not None:
            y = grad_old - grad
            sy = s.dot(y)
            if sy > 0.0:
                if h_inv is None:
                    h_inv = (sy / y.dot(y)) * np.eye(n)
                hy = h_inv @ y
                h_inv += ((1.0 + y.dot(hy) / sy) * np.outer(s, s)
                          - np.outer(hy, s) - np.outer(s, hy)) / sy
        if h_inv is None:
            p = grad * (contraction.INIT_STEP * x_norm / g_norm)
        else:
            p = h_inv @ grad
        slope, p_norm = grad.dot(p), np.linalg.norm(p)
        # after a full step, try alpha = 2 before 1 and keep the higher of
        # the two if both pass, but neither if the full step is invalid
        alpha = 2.0 if full and p_norm >= contraction.STEP_TOL else 1.0
        best, valid = None, True
        while alpha * p_norm >= contraction.STEP_TOL:
            x_new = x + alpha * p
            f_new, g_new = (v[0] for v in call(x_new[None]))
            valid = valid and np.isfinite(f_new)
            with np.errstate(divide="ignore", invalid="ignore"):
                rise = np.log(f_new / f0)
            if (f_new > f0 and rise >= contraction.ARMIJO * alpha * slope
                    and (best is None or f_new > best[0])):
                best = (f_new, g_new, x_new, alpha)
            if alpha == 1.0 and full and not np.isfinite(f_new):
                best = None
            if best is not None and alpha <= 1.0:
                break
            alpha *= 0.5
        else:
            if h_inv is not None and valid and scaled >= contraction.STALL_TOL:
                # every trial was valid and none rose: restart from steepest ascent
                h_inv = s = None
                full = False
                continue
            stop = "converged" if scaled < contraction.STALL_TOL else "line_search_exhausted"
            break
        f_new, g_new, x_new, alpha = best
        full = alpha >= 1.0
        s, grad_old = x_new - x, grad
        x, f0, dr = x_new, f_new, g_new
    return f0, contraction._rho_from_params(x[None], d)[0], it + 1, stop


def _oracle_objective(name, f_cat, gs):
    family, f = name[:-1].split("[")
    return gs[f] if family == "chi2" else f_cat[f].with_family(family)


class TestStackedIterations:
    """The search, with its line-search trials two per stacked call, takes
    the path of the sequential reference with the same exact gradients,
    bit for bit; run to convergence, it ends where the stencil reference
    does, although the two paths part within a few iterations."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", ["ht[hellinger]", "petz[kl]", "matsumoto[kl]",
                                      "chi2[kmb]"])
    def test_path_is_the_sequential_one(self, f_cat, gs, name, dim, seed):
        ch = qc.random_channel(dim, seed=seed)
        pi = qc.fixed_point(ch)
        ratios, _ = _objective(_oracle_objective(name, f_cat, gs), ch, pi)
        opts = qc.VariationalOptions(max_iters=40)
        x0 = contraction._init_params(np.random.default_rng([seed, dim]), pi, seed)
        want = _sequential_ascend(ratios, x0, dim, opts)
        got = _ascend(ratios, x0, dim, opts, contraction._new_counts())
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]

    @pytest.mark.parametrize("fam, restart", [("petz", 11), ("matsumoto", 4)])
    def test_reset_path_is_the_sequential_one(self, f_cat, fam, restart):
        # restarts of the default CLI experiment on the power E^n of
        # random_channel(2, seed=1) whose line search fails on valid points
        # only, so that H is reset to the steepest-ascent step once
        n = 6 if fam == "petz" else 3
        ch = qc.channel_power(qc.random_channel(2, seed=1), n)
        pi = qc.fixed_point(ch)
        ratios, _ = _objective(f_cat["kl"].with_family(fam), ch, pi)
        opts = qc.VariationalOptions(max_iters=100)
        x0 = contraction._init_params(np.random.default_rng([qc.DEFAULT_SEED, n, restart]),
                                      pi, restart)
        counts = contraction._new_counts()
        got = _ascend(ratios, x0, 2, opts, counts)
        want = _sequential_ascend(ratios, x0, 2, opts)
        assert counts["hessian_resets"] == 1
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", ["ht[hellinger]", "petz[kl]", "matsumoto[kl]",
                                      "chi2[max]", "chi2[kmb]"])
    def test_exact_search_ends_where_the_stencil_reference_does(self, f_cat, gs, name,
                                                               dim, seed):
        ch = qc.random_channel(dim, seed=seed)
        pi = qc.fixed_point(ch)
        ratios, _ = _objective(_oracle_objective(name, f_cat, gs), ch, pi)
        opts = qc.VariationalOptions(max_iters=150)
        x0 = contraction._init_params(np.random.default_rng([seed, dim]), pi, seed)
        want = _sequential_ascend(ratios, x0, dim, opts, stencil=True)
        got = _ascend(ratios, x0, dim, opts, contraction._new_counts())
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=0), (got[2:], want[2:])


def _restarts_alone(evaluator, ch, pi, opts):
    """The restarts of a search, each run alone, one after another, as a
    wave of one restart: their results and the summed counters."""
    ratios, _ = contraction._objective([evaluator], ch, pi)
    counts = contraction._new_counts()
    seed = contraction._seed_list(opts.seed)
    results = []
    for k in range(opts.restarts):
        gen = contraction._restart(np.random.default_rng(seed + [k]), pi, k, opts, counts)
        one, rounds = contraction._lockstep(ratios, ch.dim, [(gen, counts, 0)])
        results += one
    return [r for r in results if r is not None], counts


class TestWaves:
    """Every restart of every search of one call runs in one wave, one
    stacked ratio call per round; each search, and each restart, takes
    the path it takes alone, bit for bit."""

    def _assert_alone(self, est, evaluator, ch, pi, opts):
        valid, counts = _restarts_alone(evaluator, ch, pi, opts)
        diag = est.diagnostics
        assert diag["restart_values"] == [r[0] for r in valid]
        assert diag["restart_iterations"] == [r[2] for r in valid]
        assert diag["restart_stops"] == [r[3] for r in valid]
        best = max(valid, key=lambda r: r[0])
        assert est.value == best[0]
        assert np.array_equal(est.argmax_state.entries, qc.validate_density(best[1]).entries)
        for key in (*contraction.COUNTERS, "stop_reasons"):
            assert diag[key] == counts[key], key

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kernels_of_one_wave_search_as_alone(self, f_cat, dim):
        ch = qc.random_channel(dim, seed=dim)
        pi = qc.fixed_point(ch)
        specs = [f_cat["kl"].with_family("ht"), f_cat["kl"].with_family("matsumoto"),
                 f_cat["hellinger"].with_family("ht")]
        opts = [qc.VariationalOptions(restarts=4, max_iters=30, seed=(5, i))
                for i in range(len(specs))]
        wave = contraction._sdpi_searches(ch, pi, list(zip(specs, opts)))
        for est, spec, o in zip(wave, specs, opts):
            self._assert_alone(est, spec, ch, pi, o)
            alone = qc.sdpi_variational(spec, ch, pi, o)
            assert est.value == alone.value
            assert est.diagnostics["ratio_calls"] == alone.diagnostics["ratio_calls"]
        rounds = {est.diagnostics["stacked_calls"] for est in wave}
        assert len(rounds) == 1
        assert rounds.pop() <= min(sum(est.diagnostics["ratio_calls"] for est in wave),
                                   max(est.diagnostics["ratio_calls"] for est in wave))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_chi2_wave_searches_as_alone(self, gs, dim):
        ch = qc.random_channel(dim, seed=dim)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=4, max_iters=30, seed=5)
        est = qc.sdpi_variational(gs["max"], ch, pi, opts)
        self._assert_alone(est, gs["max"], ch, pi, opts)

    @pytest.mark.parametrize("fam, restart", [("petz", 11), ("matsumoto", 4)])
    def test_reset_path_is_the_sequential_one_inside_a_wave(self, f_cat, fam, restart):
        # the restarts of test_reset_path_is_the_sequential_one, each among
        # 32 restarts of one wave
        n = 6 if fam == "petz" else 3
        ch = qc.channel_power(qc.random_channel(2, seed=1), n)
        pi = qc.fixed_point(ch)
        spec = f_cat["kl"].with_family(fam)
        opts = qc.VariationalOptions(max_iters=100)
        x0s = [contraction._init_params(np.random.default_rng([qc.DEFAULT_SEED, n, k]), pi, k)
               for k in range(32)]
        counts = [contraction._new_counts() for _ in x0s]
        ratios, _ = contraction._objective([spec], ch, pi)
        results, rounds = contraction._lockstep(
            ratios, 2, [(contraction._ascend(x0, 2, opts, c), c, 0)
                        for x0, c in zip(x0s, counts)])
        got = results[restart]
        want = _sequential_ascend(_objective(spec, ch, pi)[0], x0s[restart], 2, opts)
        assert counts[restart]["hessian_resets"] == 1
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]
        assert rounds == max(c["ratio_calls"] for c in counts)

    def test_stacked_calls_count_the_rounds(self, f_cat, gs):
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        for obj in (gs["max"], f_cat["kl"].with_family("petz")):
            for restarts in (1, 3):
                diag = qc.sdpi_variational(obj, ch, pi, qc.VariationalOptions(
                    restarts=restarts, max_iters=20, seed=2)).diagnostics
                assert 0 < diag["stacked_calls"] <= diag["ratio_calls"]
                assert (diag["stacked_calls"] == diag["ratio_calls"]) == (restarts == 1)
        rep = qc.contraction_experiment(
            ch, [f_cat["kl"].with_family(fam) for fam in qc.FAMILIES], [gs["max"]], n_max=2,
            opts=qc.ExperimentOptions(restarts=2, max_iters=20, seed=7))
        assert 0 < rep.diagnostics["stacked_calls"] \
            < rep.diagnostics["search_totals"]["ratio_calls"]
        assert "stacked_calls" not in rep.diagnostics["search_totals"]
        assert "stacked_calls" not in contraction.COUNTERS


#: embedded classical chains whose supremum lies off pi: two asymmetric
#: 2 x 2 chains and a 3 x 3 chain that is not reversible
CLASSICAL_CHAINS = [
    [[0.9, 0.4], [0.1, 0.6]],
    [[0.95, 0.5], [0.05, 0.5]],
    [[0.7, 0.1, 0.3], [0.2, 0.6, 0.1], [0.1, 0.3, 0.6]],
]
_SERIES_K = np.arange(2, 22)


def _f_near_one(name, u):
    """f(1 + u) of kl or hellinger, without the cancellation of f's own form
    near u = 0: kl as (1 + u) log1p(u) - u, and by its Taylor series
    sum_k (-u)^k / (k (k - 1)) where |u| < 0.1."""
    if name == "hellinger":
        return (u / (np.sqrt(1.0 + u) + 1.0)) ** 2
    out = np.where(u > -1.0, (1.0 + u) * np.log1p(u) - u, 1.0)
    near = np.abs(u) < 0.1
    out[near] = ((-u[near, None]) ** _SERIES_K / (_SERIES_K * (_SERIES_K - 1))).sum(axis=-1)
    return out


def _classical_eta(name, w, n):
    """The classical eta_f(W^n, p) = sup_q D_f(W^n q || p) / D_f(q || p) of a
    column-stochastic W with stationary p, over q = p + delta: a grid on the
    plane sum(delta) = 0 that covers the simplex, then scipy's bounded search
    (d = 2) or Nelder-Mead (d = 3) from the best grid point.  Both
    divergences are read from delta and W^n delta alone, so no difference
    of nearby numbers is taken."""
    w = np.asarray(w, float)
    d = len(w)
    vals, vecs = np.linalg.eig(w)
    p = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    p /= p.sum()
    wn = np.linalg.matrix_power(w, n)
    basis = np.linalg.svd(np.ones((1, d)))[2][1:]

    def ratio(z):
        delta = np.atleast_2d(z) @ basis
        with np.errstate(all="ignore"):
            num = _f_near_one(name, (delta @ wn.T) / p) @ p
            den = _f_near_one(name, delta / p) @ p
            return np.where((p + delta > 0.0).all(axis=1) & (den > 0.0), num / den, 0.0)

    axis = np.linspace(-1.5, 1.5, 3001 if d == 2 else 301)
    z = axis[:, None] if d == 2 else np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    z0, h = z[np.argmax(ratio(z))], axis[1] - axis[0]
    if d == 2:
        res = optimize.minimize_scalar(lambda t: -ratio([t])[0], method="bounded",
                                       bounds=(z0[0] - h, z0[0] + h), options={"xatol": 1e-13})
    else:
        res = optimize.minimize(lambda t: -ratio(t)[0], z0, method="Nelder-Mead",
                                options={"xatol": 1e-11, "fatol": 1e-18, "maxiter": 2000,
                                         "initial_simplex": [z0, z0 + [h, 0], z0 + [0, h]]})
    return -res.fun


class TestClassicalChains:
    """An embedded classical chain kills coherences and its pi is diagonal,
    so, pinching being a channel that fixes pi, every family's eta_f(E^n, pi)
    is the classical eta_f(W^n, p) (Raginsky, IEEE Trans. IT 62, 2016).
    On these chains it exceeds eta_chi2, so the supremum lies off pi, and
    the search meets an exact answer that no kernel of the library gives."""

    @pytest.mark.parametrize("name", ["kl", "hellinger"])
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("chain", range(len(CLASSICAL_CHAINS)))
    def test_every_family_reaches_the_classical_eta(self, f_cat, gs, chain, n, name):
        w = CLASSICAL_CHAINS[chain]
        ch = qc.channel_power(qc.embedded_classical(w), n)
        pi = qc.fixed_point(ch)
        want = _classical_eta(name, w, n)
        assert want > qc.sdpi_chi2(ch, pi, gs["max"]).value
        for fam in qc.FAMILIES:
            est = qc.sdpi_variational(f_cat[name].with_family(fam), ch, pi,
                                      qc.VariationalOptions(restarts=8))
            assert est.value == pytest.approx(want, rel=1e-12, abs=0), fam


def _sdpi_qutrit_channel(index):
    """Entry ``index`` of the benchmark's sdpi_qutrit pool: three Kraus
    operators of a Ginibre isometry C^3 -> C^3 x C^3, orthonormalized by QR."""
    rng = np.random.default_rng([0x5D, index])
    g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    q, _ = np.linalg.qr(g)
    return qc.channel_from_kraus([q[e::3, :].copy() for e in range(3)])


class TestSearchLength:
    """After an accepted full step the line search tries alpha = 2 first,
    so BFGS learns the step length in fewer iterations: these searches of
    the sdpi_qutrit benchmark pool (one restart of 100 iterations, the
    objective's index j in the seed) ran to the cap when the line search
    never stepped past alpha = 1, at the values given here, and now
    converge within it, no lower."""

    @pytest.mark.parametrize("index, fam, j, capped_value", [
        (0, "matsumoto", 1, 0.6391027388816262),
        (2, "petz", 0, 0.764619268090435),
        (2, "matsumoto", 1, 0.8182412442241267),
    ])
    def test_searches_converge_within_the_cap(self, f_cat, index, fam, j, capped_value):
        ch = _sdpi_qutrit_channel(index)
        est = qc.sdpi_variational(f_cat["kl"].with_family(fam), ch, qc.fixed_point(ch),
                                  qc.VariationalOptions(restarts=1, max_iters=100,
                                                        seed=(0x5D, index, j)))
        assert est.diagnostics["restart_stops"] == ["converged"]
        assert est.value >= capped_value
        assert est.diagnostics["extrapolations"] > 0


#: (objective, d, value, (ratio_calls, ratio_evaluations, curvature_skips,
#: nonfinite_gradients, identity_fallbacks, hessian_resets, extrapolations),
#: restart_iterations, stop_reasons (converged, line_search_exhausted,
#: max_iters)) of two restarts of 30 iterations, seed 5, on
#: random_channel(d, seed=d): a change to any of them is a change of the
#: search's path, not only of its cost.  ht[kl] runs petz[kl]'s kernel, so
#: their rows are equal; ht[hellinger] pins a search through the quadrature
PINNED_SEARCHES = [
    ("ht[kl]", 2, 0.5259382528935244, (58, 114, 2, 0, 0, 0, 20), [28, 21], (2, 0, 0)),
    ("ht[kl]", 3, 0.3211421220991798, (73, 144, 0, 0, 0, 0, 22), [28, 30], (1, 0, 1)),
    ("ht[hellinger]", 2, 0.530901691924517, (47, 92, 0, 0, 0, 0, 16), [23, 19], (2, 0, 0)),
    ("ht[hellinger]", 3, 0.32346108249041305, (77, 152, 0, 0, 0, 0, 16), [22, 30], (1, 0, 1)),
    ("petz[kl]", 2, 0.5259382528935244, (58, 114, 2, 0, 0, 0, 20), [28, 21], (2, 0, 0)),
    ("petz[kl]", 3, 0.3211421220991798, (73, 144, 0, 0, 0, 0, 22), [28, 30], (1, 0, 1)),
    ("matsumoto[kl]", 2, 0.5180237234850273, (51, 100, 1, 0, 0, 0, 19), [20, 25], (2, 0, 0)),
    ("matsumoto[kl]", 3, 0.33423283446772156, (76, 150, 0, 0, 0, 0, 21), [26, 30], (1, 0, 1)),
    ("chi2[kmb]", 2, 0.5050238856448318, (24, 46, 0, 0, 0, 1, 2), [7, 7], (1, 1, 0)),
    ("chi2[kmb]", 3, 0.3139992141422123, (41, 80, 0, 0, 0, 0, 19), [23, 18], (2, 0, 0)),
]


class TestPinnedSearches:
    """The payload hashes pin values only; a search that made other calls or
    counted otherwise would still pass them."""

    @pytest.mark.parametrize("name, dim, value, counters, iterations, stops", PINNED_SEARCHES)
    def test_value_and_counters_are_pinned(self, f_cat, gs, name, dim, value, counters,
                                           iterations, stops):
        ch = qc.random_channel(dim, seed=dim)
        est = qc.sdpi_variational(_oracle_objective(name, f_cat, gs), ch, qc.fixed_point(ch),
                                  qc.VariationalOptions(restarts=2, max_iters=30, seed=5))
        diag = est.diagnostics
        assert est.value == value
        assert tuple(diag[k] for k in ("ratio_calls", "ratio_evaluations", "curvature_skips",
                                       "nonfinite_gradients", "identity_fallbacks",
                                       "hessian_resets", "extrapolations")) == counters
        assert diag["restart_iterations"] == iterations
        assert tuple(diag["stop_reasons"][k] for k in contraction.STOP_REASONS) == stops


def _exact_objectives(f_cat, gs):
    """Every built-in objective, all with exact gradients: each family with
    each catalog f, and chi-square with each catalog g and the GNS weight."""
    return _search_objectives(f_cat, gs) + [qc.gns_weight()]


def _params_of(rho):
    """Parameters of A = rho^1/2, so that A A^dag / tr is rho."""
    w, v = np.linalg.eigh(rho)
    a = (v * np.sqrt(w)) @ v.conj().T
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _near_degenerate_points(pi, dim, rng):
    """Parameters of states whose eigenvalues, and (at d = 3) whose pencil
    eigenvalues against pi, have a pair 1e-12 apart (relative), where the
    Daleckii-Krein difference quotients lose every digit.  At d = 2 a
    degenerate pencil spectrum would make the state pi itself."""
    u = qc.random_density(dim, rng).eigenvectors
    lam = np.array([1.0, 1.0 + 1e-12, 1.3][:dim])
    rho = (u * lam) @ u.conj().T
    points = [_params_of(rho / np.trace(rho).real)]
    if dim == 3:
        s_half = (pi.eigenvectors * np.sqrt(pi.eigenvalues)) @ pi.eigenvectors.conj().T
        pencil = s_half @ rho @ s_half
        points.append(_params_of(pencil / np.trace(pencil).real))
    return points


#: kl plus chi2: tr(rho grad D) is not proportional to D for this f, so the
#: chain rule's tr(rho G) term does not vanish, as it does for the catalog
_KL_CHI2 = qc.fdivergence_spec(
    "kl+chi2",
    lambda x: qc.f_catalog()["kl"].f(x) + (np.asarray(x, float) - 1.0) ** 2,
    lambda x: np.log(np.asarray(x, float)) + 2.0 * (np.asarray(x, float) - 1.0),
    lambda x: 1.0 / np.asarray(x, float) + 2.0,
    lambda x: -1.0 / np.asarray(x, float) ** 2,
    operator_convex=True,
)


class TestExactGradients:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradients_match_central_differences(self, f_cat, gs, dim):
        ch = qc.random_channel(dim, seed=2)
        pi = qc.fixed_point(ch)
        rng = np.random.default_rng([12, dim])
        x = np.vstack([rng.normal(size=(3, 2 * dim * dim)),
                       *_near_degenerate_points(pi, dim, rng)])
        n = x.shape[1]
        a, t, rho = contraction._param_states(x, dim)
        objectives = _exact_objectives(f_cat, gs) + [_KL_CHI2.with_family(fam)
                                                     for fam in qc.FAMILIES]
        for obj in objectives:
            ratios, name = _objective(obj, ch, pi)
            values, g = ratios(rho)
            grads = contraction._param_gradients(a, t, rho, g)
            for b in range(len(x)):
                h = 1e-6
                pts = np.tile(x[b], (2 * n, 1))
                pts[np.arange(n), np.arange(n)] += h
                pts[n + np.arange(n), np.arange(n)] -= h
                f = ratios(contraction._rho_from_params(pts, dim))[0]
                fd = (f[:n] - f[n:]) / (2 * h)
                err = np.linalg.norm(grads[b] - fd) / np.linalg.norm(fd)
                assert err <= 1e-6, (name, b, err)

    def test_gradients_are_nan_where_the_ratio_is(self, f_cat, gs):
        # a pure state may have a finite ratio but no gradient (f'(0) = -inf
        # for kl), which the search skips coordinate by coordinate
        ch = qc.random_channel(2, seed=1)
        pi = qc.fixed_point(ch)
        rho = np.array([pi.entries, np.diag([1.0, 0.0]),
                        qc.random_density(2, np.random.default_rng(4)).entries])
        for obj in _exact_objectives(f_cat, gs):
            ratios, name = _objective(obj, ch, pi)
            values, g = ratios(rho)
            assert np.isnan(values[0]) and np.isfinite(values[2]), name
            assert np.isnan(g[np.isnan(values)]).all() and np.isfinite(g[2]).all(), name

    def test_no_call_is_made_for_a_gradient_alone(self, f_cat, gs):
        ch = qc.random_channel(2, seed=1)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=2, max_iters=4, seed=3)
        for obj in _exact_objectives(f_cat, gs):
            diag = qc.sdpi_variational(obj, ch, pi, opts).diagnostics
            # the two line-search trials per call, or the last one of a ladder
            assert diag["ratio_evaluations"] <= 2 * diag["ratio_calls"], diag["objective"]


class TestExclusionBall:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_frobenius_shortcut_keeps_the_eigvalsh_mask(self, dim):
        pi = qc.fixed_point(qc.random_channel(dim, seed=1))
        rng = np.random.default_rng([13, dim])
        radius = contraction.EXCLUSION
        rows = []
        for k in range(60):
            h = qc.random_hermitian(dim, rng)
            if k % 3 == 0:
                # rank two, where ||X||_1 / 2 = ||X||_F / sqrt 2: the bound is tight
                w, v = np.linalg.eigh(h)
                h = (v[:, :1] @ v[:, :1].conj().T) - (v[:, 1:2] @ v[:, 1:2].conj().T)
            h -= np.trace(h) / dim * np.eye(dim)
            half_trace_norm = 0.5 * np.abs(np.linalg.eigvalsh(h)).sum()
            frobenius = np.linalg.norm(h)
            for rel in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6, 0.5):
                rows.append(h * radius * (1 + rel) / half_trace_norm)
                rows.append(h * np.sqrt(2) * radius * (1 + 1e-8) * (1 + rel) / frobenius)
        rho = pi.entries + np.array(rows)
        keep, x = contraction._outside_ball(rho, pi.entries)
        want = 0.5 * np.abs(np.linalg.eigvalsh(rho - pi.entries)).sum(axis=1) >= radius
        assert np.array_equal(keep, want)
        assert np.array_equal(x, rho - pi.entries)
        assert 0 < want.sum() < len(want)

    @pytest.mark.parametrize("fixture", ["random_channel(2, seed=1)",
                                         "random_channel(3, seed=1)",
                                         "depolarizing(0.5)"])
    def test_exclusion_radius_keeps_kernels_accurate(self, f_cat, gs, fixture):
        """At the edge of the exclusion ball, the petz and matsumoto ratios,
        which cancel O(1) terms down to D = O(r^2), still agree with the kl
        quadrature (an integral of a small integrand) and with chi2[max] to
        1e-9 relative.  At EXCLUSION = 1e-3 the
        worst petz[kl] vs quadrature gap here is 4.9e-10; at 1e-4 it is
        4.0e-8, so that radius would fail."""
        ch = eval(f"qc.{fixture}")
        pi = qc.fixed_point(ch)
        dim = ch.dim
        rng = np.random.default_rng([14, dim])
        rows = []
        for _ in range(20):
            h = qc.random_hermitian(dim, rng)
            h -= np.trace(h) / dim * np.eye(dim)
            # just outside the ball, so that rounding keeps every point in
            scale = contraction.EXCLUSION * (1 + 1e-6)
            rows.append(h * scale / (0.5 * np.abs(np.linalg.eigvalsh(h)).sum()))
        rho = pi.entries + np.array(rows)

        def ratios(obj):
            return _objective(obj, ch, pi)[0](rho)[0]

        def kl_quadrature(states, s):
            ref = divergences._reference(s)
            t = eigvalsh_stack(divergences._pencil(states, ref))
            return divergences._ht_integrals(f_cat["kl"].f2, states,
                                             np.broadcast_to(s.entries, states.shape), t).value

        chi2 = ratios(gs["max"])
        assert np.isfinite(chi2).all()
        # the states of the search's rho / E(rho) stack, as its kernels read them
        states = stack_states(*validate_stack(np.stack([rho, ch.superop.apply(rho)]))[:2])
        quad = kl_quadrature(states[1], qc.apply(ch, pi)) / kl_quadrature(states[0], pi)
        np.testing.assert_allclose(ratios(f_cat["kl"].with_family("petz")), quad,
                                   rtol=1e-9, atol=0)
        for fam in ("petz", "matsumoto"):
            np.testing.assert_allclose(ratios(f_cat["chi2"].with_family(fam)), chi2,
                                       rtol=1e-9, atol=0)


def _chi2_max_ratios(ch, pi):
    return _objective(qc.g_catalog()["max"], ch, pi)[0]


class TestSearchFallbacks:
    def test_nan_trial_is_an_invalid_point(self, gs, monkeypatch):
        # the first trial of every stacked call is invalid, so only the
        # steps 1/2, 1/8, ... can pass; the search still ends at the optimum
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        chi2 = _chi2_max_ratios(ch, pi)

        def no_first_trials(rho):
            f, g = chi2(rho)
            if len(rho) == 2:
                f[0], g[0] = np.nan, np.nan
            return f, g

        _fake_objective(monkeypatch, no_first_trials)
        est = qc.sdpi_variational(gs["max"], ch, pi,
                                  qc.VariationalOptions(restarts=2, max_iters=150, seed=1))
        assert est.value == pytest.approx(qc.sdpi_chi2(ch, pi, gs["max"]).value,
                                          rel=1e-9, abs=0)
        assert est.diagnostics["nonfinite_gradients"] == 0

    def test_points_without_a_finite_gradient_are_invalid(self, gs, monkeypatch):
        # a start point with a ratio but no finite gradient is not a restart,
        # and a trial without one is rejected, however high its ratio
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        chi2 = _chi2_max_ratios(ch, pi)
        x0 = contraction._init_params(np.random.default_rng(1), pi, 0)
        counts = contraction._new_counts()
        opts = qc.VariationalOptions(restarts=1, max_iters=150, seed=1)
        no_gradient = lambda rho: (chi2(rho)[0], np.full(rho.shape, np.nan, complex))
        assert _ascend(no_gradient, x0, 2, opts, counts) is None
        assert counts["nonfinite_gradients"] == counts["ratio_evaluations"] == 1
        _fake_objective(monkeypatch, no_gradient)
        with pytest.raises(qc.AllRestartsDegenerate, match="finite gradient"):
            qc.sdpi_variational(gs["max"], ch, pi, opts)

        lost = []

        def no_first_gradients(rho):
            # the first trial of each stacked call loses its gradient
            f, g = chi2(rho)
            if len(rho) == 2:
                g[0] = np.nan
                lost.append(np.isfinite(f[0]))
            return f, g

        _fake_objective(monkeypatch, no_first_gradients)
        est = qc.sdpi_variational(gs["max"], ch, pi, opts)
        assert est.value == pytest.approx(qc.sdpi_chi2(ch, pi, gs["max"]).value,
                                          rel=1e-9, abs=0)
        assert est.diagnostics["nonfinite_gradients"] == sum(lost) > 0

    def test_reinits_are_counted(self, gs, monkeypatch):
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        chi2 = _chi2_max_ratios(ch, pi)
        calls = []

        def late(rho):
            # the first starting point is invalid
            calls.append(None)
            f, g = chi2(rho)
            return (f + np.nan, g) if len(calls) == 1 else (f, g)

        _fake_objective(monkeypatch, late)
        est = qc.sdpi_variational(
            gs["max"], ch, pi, qc.VariationalOptions(restarts=1, max_iters=2, seed=1)
        )
        assert est.diagnostics["reinits"] == 1
        assert est.diagnostics["valid_restarts"] == 1
        assert est.diagnostics["nonfinite_gradients"] == 0

    def test_identity_fallbacks_are_counted(self, gs):
        # A = 0 has trace 0, so its state is the fallback I/d, which has no
        # gradient: there A = 0 is an invalid start
        ch = qc.random_channel(2, seed=3)
        pi = qc.fixed_point(ch)
        ratios, _ = _objective(gs["max"], ch, pi)
        counts = contraction._new_counts()
        assert _ascend(ratios, np.zeros(8), 2,
                                   qc.VariationalOptions(max_iters=2), counts) is None
        assert counts["identity_fallbacks"] == 1
        assert counts["ratio_evaluations"] == 1
        est = qc.sdpi_variational(gs["max"], ch, pi,
                                  qc.VariationalOptions(restarts=2, max_iters=3, seed=1))
        assert est.diagnostics["identity_fallbacks"] == 0

    def test_ratio_above_one_is_clipped_and_recorded(self, gs, monkeypatch):
        # 1 / R turns data processing around: every ratio is >= 1
        ch = qc.depolarizing(0.5)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=1, max_iters=2, seed=1)
        chi2 = _chi2_max_ratios(ch, pi)

        def inverse(rho):
            f, g = chi2(rho)
            return 1.0 / f, -g / (f * f)[:, None, None]

        with monkeypatch.context() as m:
            _fake_objective(m, inverse)
            est = qc.sdpi_variational(gs["max"], ch, pi, opts)
        assert est.diagnostics["raw_best"] > 1.0
        assert est.value == 1.0
        assert est.diagnostics["clipped_above_one"] is True
        est = qc.sdpi_variational(gs["max"], ch, pi, opts)
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
        for key in ("ratio_evaluations", "nonfinite_gradients", "reinits"):
            assert isinstance(two.diagnostics[key], int)
        for key in contraction.COUNTERS:
            assert isinstance(two.diagnostics[key], int)
            assert two.diagnostics[key] >= one.diagnostics[key]

    @pytest.mark.parametrize("reason, case", [
        pytest.param("converged", "constant", id="converged"),
        pytest.param("line_search_exhausted", "ball", id="line_search_exhausted"),
        pytest.param("max_iters", "random", id="max_iters"),
        pytest.param("converged", "exact", id="converged_exact"),
    ])
    def test_each_stop_reason_is_counted(self, f_cat, gs, monkeypatch, reason, case):
        # a constant ratio (faked here) has gradient 0, and so, up to
        # rounding, has every chi2 ratio of the depolarizing channel, which
        # is (1/2)^2; the petz[kl] supremum of that channel lies at sigma, so
        # the search ends on the edge of the exclusion ball, where every
        # trial steps into the ball although the gradient is not small; two
        # iterations do not reach the optimum of a random channel
        if case == "constant":
            _fake_objective(monkeypatch, lambda rho: (np.ones(len(rho)),
                                                      np.zeros(rho.shape, complex)))
        objective, ch, max_iters = {
            "constant": (gs["max"], qc.depolarizing(0.5), 5),
            "ball": (f_cat["kl"].with_family("petz"), qc.depolarizing(0.5), 100),
            "random": (gs["max"], qc.random_channel(2, seed=3), 2),
            "exact": (gs["max"], qc.depolarizing(0.5), 5),
        }[case]
        est = qc.sdpi_variational(objective, ch, qc.fixed_point(ch),
                                  qc.VariationalOptions(restarts=3, max_iters=max_iters,
                                                        seed=1))
        diag = est.diagnostics
        assert diag["stop_reasons"] == {r: 3 * (r == reason)
                                        for r in contraction.STOP_REASONS}
        assert diag["restart_stops"] == [reason] * 3
        if reason == "line_search_exhausted":
            assert all(it < max_iters for it in diag["restart_iterations"])
        else:
            want_iters = max_iters if reason == "max_iters" else 1
            assert diag["restart_iterations"] == [want_iters] * 3
        values = sorted(diag["restart_values"])
        assert diag["top_spread"] == values[-1] - values[0] >= 0.0

    def test_zero_ratio_is_a_converged_restart(self, f_cat, gs):
        # depolarizing(1.0) maps every state to I/2, so every ratio is 0, where
        # log R is undefined; for the chi2 weights and two matsumoto objectives
        # the rounding of E(rho) - E(sigma) leaves ratios of about 1e-31
        rounding = {"chi2[max]", "chi2[kmb]", "chi2[gns]", "matsumoto[chi2]",
                    "matsumoto[hellinger]"}
        ch = qc.depolarizing(1.0)
        pi = qc.fixed_point(ch)
        opts = qc.VariationalOptions(restarts=2, max_iters=20, seed=1)
        for obj in _exact_objectives(f_cat, gs):
            est = qc.sdpi_variational(obj, ch, pi, opts)
            diag = est.diagnostics
            if diag["objective"] in rounding:
                assert est.value < 1e-20, diag["objective"]
            else:
                assert est.value == 0.0, diag["objective"]
                assert diag["restart_stops"] == ["converged"] * 2
                assert diag["restart_iterations"] == [1, 1]

    def test_curvature_skips_are_counted(self, gs, monkeypatch):
        # log R = <E(rho), Z>^2 = <rho, Z>^2 / 4 for the depolarizing(0.5) E
        # is convex in rho, so the search meets pairs with s.y <= 0, which
        # leave the inverse Hessian as it is
        ch = qc.depolarizing(0.5)
        sigma = qc.validate_density(np.diag([0.7, 0.3]))
        z = np.diag([1.0, -1.0])

        def convex(rho):
            u = 0.5 * np.trace(rho @ z, axis1=1, axis2=2).real
            r = np.exp(u * u)
            return r, (r * u)[:, None, None] * z

        _fake_objective(monkeypatch, convex)
        est = qc.sdpi_variational(gs["max"], ch, sigma,
                                  qc.VariationalOptions(restarts=4, max_iters=20, seed=1))
        diag = est.diagnostics
        assert diag["curvature_skips"] > 0
        # the supremum is exp(1/4), at a pure eigenstate of Z
        assert diag["raw_best"] == pytest.approx(np.exp(0.25), rel=1e-9)


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
            assert entry["power_equality_max_excess"] <= 0.0

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

    def test_csv_quotes_a_label_with_a_comma(self, f_cat, gs):
        kl = f_cat["kl"]
        odd = qc.fdivergence_spec('kl,"x"', kl.f, kl.f1, kl.f2, kl.f3, operator_convex=True)
        rep = qc.contraction_experiment(qc.depolarizing(0.5), [odd.with_family("petz")],
                                        [gs["max"]], n_max=2,
                                        opts=qc.ExperimentOptions(restarts=1, max_iters=2))
        header, *rows = csv.reader(io.StringIO(qc.report_csv(rep)))
        assert header[1] == 'eta[petz[kl,"x"]]'
        assert len(header) == 5 and [len(row) for row in rows] == [5, 5]

    def test_numpy_integers_give_a_json_ready_payload(self, f_cat, gs):
        opts = qc.ExperimentOptions(restarts=np.int64(1), max_iters=2, seed=np.int64(3))
        rep = qc.contraction_experiment(qc.depolarizing(0.5), [f_cat["kl"].with_family("petz")],
                                        [gs["max"]], n_max=np.int64(1), opts=opts)
        payload = json.loads(json.dumps(qc.report_payload(rep)))
        assert payload["n_max"] == 1 and payload["options"]["seed"] == 3
        vopts = qc.VariationalOptions(restarts=np.int64(2), seed=[np.int64(1), 2])
        assert type(vopts.restarts) is int and vopts.seed == (1, 2)
        assert all(type(x) is int for x in vopts.seed)

    @pytest.mark.parametrize("make", [
        lambda: qc.depolarizing(0.5),
        lambda: qc.pauli_channel([0.7, 0.1, 0.1, 0.1]),
        lambda: qc.amplitude_damping(0.3, 0.2),
        lambda: qc.random_channel(2, seed=1),
        lambda: qc.random_channel(3, seed=1),
        lambda: qc.random_channel(3, seed=4),
    ], ids=["depolarizing", "pauli", "amplitude-damping", "random-2-1", "random-3-1",
            "random-3-4"])
    def test_deviation_bound_covers_every_state(self, make):
        # n0 is certified: bound_n >= ||E^n(rho) - pi||_inf on seeded pure and
        # mixed states, with equality on depolarizing, where every pure state
        # attains it
        ch = make()
        pi = qc.fixed_point(ch)
        powers = [qc.channel_power(ch, n) for n in range(1, 7)]
        rng = np.random.default_rng(17)
        states = np.array([qc.random_density(ch.dim, rng, rank=1 if i % 2 == 0 else None).entries
                           for i in range(40)])
        for e_n, bound in zip(powers, contraction._deviation_bounds(pi, powers)):
            dev = float(np.abs(np.linalg.eigvalsh(
                qc.hermitianize(e_n.superop.apply(states)) - pi.entries)).max())
            assert dev <= bound * (1.0 + 1e-12)
            if ch.label.startswith("depolarizing"):
                assert dev == pytest.approx(bound, rel=1e-12)

    def test_rate_verdict_reports_signed_margin(self, f_cat, gs):
        # the depolarizing roots sit at the bound, so the margin is about -SLACK
        rep = qc.contraction_experiment(
            qc.depolarizing(0.5), [f_cat["kl"].with_family("petz")], [gs["max"]], n_max=3,
            opts=qc.ExperimentOptions(restarts=2, max_iters=40, seed=3))
        entry = rep.verdicts["theorem_rate"]["per_family"]["petz[kl]"]["max"]
        assert rep.n0 == 2 and entry["n_checked"] == [2, 3]
        assert entry["max_excess"] == max(row["eta_f_root"]["petz[kl]"] for row in rep.rows[1:]) \
            - rep.base_eta["max"] - contraction.SLACK
        assert -contraction.SLACK - 1e-5 < entry["max_excess"] < 0.0 and entry["pass"]

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

    @pytest.mark.parametrize("p", [1.0, 0.999999])
    def test_tightness_holds_where_eta_is_rounding(self, f_cat, gs, p):
        # eta_kappa(E) is 0 (p = 1) or 1e-12: an SVD gives the singular
        # values sqrt(eta) to rounding of the top one, 1, so eta(E^n) and
        # eta(E)^n differ by far more than 1e-7 relative, but not sqrt(eta)
        families = [f_cat["kl"].with_family(fam) for fam in qc.FAMILIES]
        rep = qc.contraction_experiment(
            qc.depolarizing(p), families, list(gs.values()), n_max=3,
            opts=qc.ExperimentOptions(restarts=2),
        )
        tight = rep.verdicts["tightness"]
        for label, entry in tight["per_family"].items():
            assert entry["applicable"] and entry["power_equality_pass"]
            assert entry["power_equality_max_excess"] <= 0.0
            eta = [row["kappa_eta_power"][label] for row in rep.rows]
            assert max(abs(got - eta[0] ** n) / max(eta[0] ** n, 1e-300)
                       for n, got in enumerate(eta, 1)) > 1e-7
        assert tight["pass"]

    @pytest.mark.parametrize("which", ["families", "gs"])
    def test_repeated_labels_are_input_errors(self, f_cat, gs, which):
        # rows, CSV columns and verdicts are keyed by label
        families = [f_cat["kl"].with_family("petz")]
        weights = [gs["max"]]
        if which == "families":
            families, match = families * 2, r"petz\[kl\]"
        else:
            weights, match = [gs["max"], gs["kmb"], gs["max"]], "'max'"
        with pytest.raises(qc.InputError, match=match):
            qc.contraction_experiment(qc.depolarizing(0.5), families, weights, n_max=1)

    @pytest.mark.parametrize("which", ["families", "gs"])
    def test_empty_label_list_is_input_error(self, f_cat, gs, which):
        families = [] if which == "families" else [f_cat["kl"].with_family("petz")]
        weights = [] if which == "gs" else [gs["max"]]
        with pytest.raises(qc.InputError, match="need at least one") as info:
            qc.contraction_experiment(qc.depolarizing(0.5), families, weights, n_max=1)
        assert type(info.value) is qc.InputError
        assert info.value.exit_code == 2

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
        # a barely-contracting channel cannot reach the convergence radius in
        # one step, so the rate verdict is vacuous but still reported PASS
        ch = qc.depolarizing(0.02)
        rep = qc.contraction_experiment(
            ch, [f_cat["kl"].with_family("petz")], [gs["max"]], n_max=1,
            opts=qc.ExperimentOptions(restarts=4, max_iters=40, seed=3),
        )
        assert rep.n0 is None
        assert rep.verdicts["theorem_rate"]["vacuous"]
        assert rep.verdicts["theorem_rate"]["pass"]
        assert rep.verdicts["theorem_rate"]["per_family"]["petz[kl]"]["max"]["max_excess"] is None


class TestSharedSearches:
    """Labels whose specs evaluate with one kernel share one search per power."""

    OPTS = qc.ExperimentOptions(restarts=2, max_iters=40, seed=7)

    def test_ht_and_petz_kl_share_one_search(self, f_cat, gs):
        # petz[kl] takes ht[kl]'s rows; ht[kl] and matsumoto[kl] are the lone
        # searches with their own seed triples, so a key that folds
        # matsumoto[kl] into petz[kl] (the generator alone) fails here
        ch = qc.random_channel(2, seed=1)
        pi = qc.fixed_point(ch)
        kl = f_cat["kl"]
        families = [kl.with_family(fam) for fam in qc.FAMILIES]
        rep = qc.contraction_experiment(ch, families, [gs["max"]], n_max=2, opts=self.OPTS)
        assert rep.diagnostics["shared_searches"] == {"petz[kl]": "ht[kl]"}
        calls = 0
        for row in rep.rows:
            n = row["n"]
            assert row["eta_f"]["petz[kl]"] == row["eta_f"]["ht[kl]"]
            for idx, spec in enumerate(families):
                if spec.family == "petz":
                    continue
                alone = qc.sdpi_variational(spec, qc.channel_power(ch, n), pi,
                                            qc.VariationalOptions(
                                                restarts=self.OPTS.restarts,
                                                max_iters=self.OPTS.max_iters,
                                                seed=(self.OPTS.seed, n, idx)))
                assert row["eta_f"][f"{spec.family}[kl]"] == alone.value
                calls += alone.diagnostics["ratio_calls"]
        # search_totals count the four searches that ran, each once
        totals = rep.diagnostics["search_totals"]
        assert sum(totals["stop_reasons"].values()) == 2 * 2 * self.OPTS.restarts
        assert totals["ratio_calls"] == calls

    def test_wave_summary_counts_each_search_that_ran(self, f_cat):
        ch = qc.random_channel(2, seed=1)
        specs = {f"{fam}[kl]": f_cat["kl"].with_family(fam) for fam in qc.FAMILIES}
        opts = qc.VariationalOptions(restarts=2, max_iters=40, seed=7)
        estimates, summary = contraction._kernel_searches(specs, ch, qc.fixed_point(ch),
                                                          lambda idx: opts)
        assert summary["shared_searches"] == {"petz[kl]": "ht[kl]"}
        assert set(summary["searches"]) == {"ht[kl]", "matsumoto[kl]"}
        for label, counts in summary["searches"].items():
            diag = estimates[label].diagnostics
            assert counts == {**{key: diag[key] for key in contraction.COUNTERS},
                              "stop_reasons": diag["stop_reasons"]}
            assert summary["stacked_calls"] == diag["stacked_calls"]

    @pytest.mark.parametrize("generator", ["hellinger", "named_kl"])
    def test_other_kernels_run_their_own_searches(self, f_cat, gs, generator):
        # ht[hellinger] integrates; so does a spec named "kl" on another f
        if generator == "hellinger":
            spec = f_cat["hellinger"]
        else:
            kl = f_cat["kl"]
            spec = qc.fdivergence_spec("kl", lambda x: kl.f(x), kl.f1, kl.f2, kl.f3,
                                       operator_convex=True)
        families = [spec.with_family("ht"), spec.with_family("petz")]
        assert divergences._kernel_spec(families[0]) == families[0]
        opts = qc.ExperimentOptions(restarts=1, max_iters=5, seed=7)
        rep = qc.contraction_experiment(qc.random_channel(2, seed=1), families,
                                        [gs["max"]], n_max=1, opts=opts)
        assert rep.diagnostics["shared_searches"] == {}
        assert sum(rep.diagnostics["search_totals"]["stop_reasons"].values()) == 2
