"""Divergence evaluators: three quantum f-divergence families, weighted
chi-square divergences, hockey-stick, reverse Pinsker, local limits."""

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import inv, logm, sqrtm

import qcontract as qc
from conftest import classical_f_divergence, commuting_pair
from qcontract import divergences, quadrature
from qcontract.catalog import FDivergenceSpec
from qcontract.linalg import _validate_states, eigvalsh_stack, stack_full_rank, validate_stack

FAMILY_FN = {
    "ht": qc.ht_divergence,
    "petz": qc.petz_divergence,
    "matsumoto": qc.matsumoto_divergence,
}


def umegaki(rho, sigma) -> float:
    r, s = qc.validate_density(rho), qc.validate_density(sigma)
    return float(np.trace(r.entries @ (logm(r.entries) - logm(s.entries))).real)


def scipy_ht_oracle(spec, rho, sigma) -> float:
    """Independent slow evaluation of the hockey-stick integral."""
    r, s = qc.validate_density(rho), qc.validate_density(sigma)
    s_isqrt = inv(sqrtm(s.entries))
    ev = np.linalg.eigvalsh(s_isqrt @ r.entries @ s_isqrt)
    t_max, t_min = float(ev.max()), float(ev.min())

    def e_gamma(a, b, gam):
        return float(
            np.maximum(np.linalg.eigvalsh(a.entries - gam * b.entries), 0).sum()
        )

    total = 0.0
    if t_max > 1:
        total += integrate.quad(
            lambda g: spec.f2(g) * e_gamma(r, s, g), 1.0, t_max, limit=400
        )[0]
    if t_min < 1:
        total += integrate.quad(
            lambda g: g**-3 * spec.f2(1.0 / g) * e_gamma(s, r, g),
            1.0, 1.0 / t_min, limit=400,
        )[0]
    return total


def ht_stack(spec, rho, sigma):
    """The stacked ht integrals of a (B, d, d) stack of states against sigma,
    with the pencil spectra that _divergence_stacks and ht_divergence take."""
    ref = divergences._reference(sigma)
    t = eigvalsh_stack(divergences._pencil(rho, ref))
    return divergences._ht_integrals(spec.f2, rho, np.broadcast_to(ref.entries, rho.shape), t)


#: f(x) = x - 1 - log x, whose f(0) is not finite
REVERSE_KL = FDivergenceSpec("reverse_kl", lambda x: x - 1.0 - np.log(x), lambda x: 1.0 - 1.0 / x,
                             lambda x: x ** -2.0, lambda x: -2.0 * x ** -3.0)


def near_singular(sig, rng):
    """sig with its smallest eigenvalue moved near 1e-4."""
    d = sig.dim
    mu = np.concatenate([[10 ** rng.uniform(-4.5, -3.5)], rng.dirichlet(np.ones(d - 1))])
    v = sig.eigenvectors
    return qc.validate_density((v * (mu / mu.sum())) @ v.conj().T)


class TestClassicalConsistency:
    def test_all_families_reduce_to_classical(self, f_cat):
        rng = np.random.default_rng(2)
        for trial in range(6):
            d = 2 + trial % 2
            rho, sig, p, q = commuting_pair(d, rng)
            for name, spec in f_cat.items():
                expect = classical_f_divergence(p, q, spec.f)
                for fam, fn in FAMILY_FN.items():
                    got = fn(spec.with_family(fam), rho, sig).value
                    assert got == pytest.approx(expect, abs=1e-8), (name, fam)

    def test_pinned_binary_kl(self, f_cat):
        rho = qc.validate_density(np.diag([0.6, 0.4]))
        sig = qc.validate_density(np.diag([0.5, 0.5]))
        expect = 0.020135513550688862
        for fam, fn in FAMILY_FN.items():
            assert fn(f_cat["kl"].with_family(fam), rho, sig).value == \
                pytest.approx(expect, abs=1e-12)

    def test_identical_states_give_zero(self, f_cat, rng):
        sig = qc.random_density(3, rng)
        for spec in f_cat.values():
            for fam, fn in FAMILY_FN.items():
                assert abs(fn(spec.with_family(fam), sig, sig).value) <= 1e-12


class TestGoldenPair:
    def test_pinned_values(self, f_cat, golden_pair):
        rho, sig = golden_pair
        kl = f_cat["kl"]
        assert qc.ht_divergence(kl.with_family("ht"), rho, sig).value == \
            pytest.approx(0.2214583150359963, abs=1e-9)
        assert qc.petz_divergence(kl.with_family("petz"), rho, sig).value == \
            pytest.approx(0.2214583150359963, abs=1e-11)
        assert qc.matsumoto_divergence(
            kl.with_family("matsumoto"), rho, sig
        ).value == pytest.approx(0.2230609837738290, abs=1e-11)

    def test_petz_kl_equals_operator_log_oracle(self, f_cat, golden_pair):
        rho, sig = golden_pair
        got = qc.petz_divergence(f_cat["kl"].with_family("petz"), rho, sig)
        assert got.value == pytest.approx(umegaki(rho, sig), abs=1e-10)

    def test_matsumoto_kl_equals_sandwich_log_oracle(self, f_cat, golden_pair):
        rho, sig = golden_pair
        rs = sqrtm(rho.entries)
        oracle = float(np.trace(
            rho.entries @ logm(rs @ inv(sig.entries) @ rs)
        ).real)
        got = qc.matsumoto_divergence(
            f_cat["kl"].with_family("matsumoto"), rho, sig
        )
        assert got.value == pytest.approx(oracle, abs=1e-10)


class TestHtIntegral:
    def test_matches_scipy_oracle_on_random_pairs(self, f_cat):
        rng = np.random.default_rng(42)
        for trial in range(4):
            d = 2 + trial % 2
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            for spec in f_cat.values():
                got = qc.ht_divergence(spec.with_family("ht"), rho, sig)
                expect = scipy_ht_oracle(spec, rho, sig)
                assert got.value == pytest.approx(
                    expect, rel=1e-7, abs=1e-10
                ), spec.name

    def test_kl_equals_umegaki_on_random_pairs(self, f_cat):
        # the kl quadrature, the reference for petz's closed form that ht[kl]
        # takes, against Tr rho (log rho - log sigma), including sigma with
        # an eigenvalue near 1e-4
        rng = np.random.default_rng(7)
        spec = f_cat["kl"]
        for trial in range(40):
            d = 2 + trial % 2
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            if trial % 4 == 3:
                sig = near_singular(sig, rng)
                assert sig.min_eigenvalue < 1e-3
            got = ht_stack(spec, rho.entries[None], sig).value[0]
            assert got == pytest.approx(umegaki(rho, sig), rel=1e-10), trial

    def test_kl_is_the_petz_closed_form(self, f_cat, golden_pair):
        # the generator, not the name, sends ht to petz's closed form: a
        # spec named "kl" whose f is another function still integrates
        rho, sig = golden_pair
        kl = f_cat["kl"]
        got = qc.ht_divergence(kl.with_family("ht"), rho, sig)
        assert got.value == qc.petz_divergence(kl.with_family("petz"), rho, sig).value
        assert got.diagnostics == {"family": "ht", "f": "kl"}
        named = qc.fdivergence_spec("kl", lambda x: kl.f(x), kl.f1, kl.f2, kl.f3)
        integrated = qc.ht_divergence(named.with_family("ht"), rho, sig)
        assert integrated.diagnostics["quad_evals"] > 0
        assert integrated.value == ht_stack(kl, rho.entries[None], sig).value[0]
        # inside a stack, values and gradients too
        rng = np.random.default_rng(4)
        lam, phi, *_ = validate_stack(np.array([qc.random_density(3, rng).entries
                                                for _ in range(5)]))
        ref = divergences._reference(qc.random_density(3, rng))
        ht, petz = (divergences._divergence_stacks(kl.with_family(fam), lam, phi, ref)
                    for fam in ("ht", "petz"))
        for a, b in zip(ht, petz):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("f_name", ["chi2", "hellinger"])
    def test_stack_values_are_the_lone_values(self, f_cat, dim, f_name):
        # stacks of 1 to 20 states, half against a near-singular sigma, so that
        # the integrals of one stack close at different depths; sigma itself
        # (all panels of zero width or nearly so) rides in the last stack.
        # ht[hellinger] is the quadrature's stack of one; ht[chi2] is chi2_kmb,
        # so its quadrature, kept as the reference, is compared alone
        spec = f_cat[f_name].with_family("ht")

        def lone(r, sig):
            if f_name == "hellinger":
                return qc.ht_divergence(spec, r, sig)
            one = ht_stack(spec, r.entries[None], sig)
            return divergences.DivergenceValue(float(one.value[0]), {
                "quad_error": one.error_estimate[0], "quad_evals": one.n_evals[0]})

        rng = np.random.default_rng([dim, len(f_name)])
        mixed = 0
        for trial, size in enumerate([1, 2, 7, 20, 13, 20]):
            sig = qc.random_density(dim, rng)
            if trial % 2:
                sig = near_singular(sig, rng)
            states = [qc.random_density(dim, rng) for _ in range(size - 1)] + [sig]
            res = ht_stack(spec, np.array([r.entries for r in states]), sig)
            for k, r in enumerate(states):
                one = lone(r, sig)
                assert res.value[k] == one.value, (trial, k)
                assert res.error_estimate[k] == one.diagnostics["quad_error"], (trial, k)
                assert res.n_evals[k] == one.diagnostics["quad_evals"], (trial, k)
            assert res.value[-1] == pytest.approx(0.0, abs=1e-20)
            # more evaluations than one round over the panels: a deeper integral
            mixed += int(res.n_evals.max() > 15 * dim)
        assert mixed > 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_chi2_against_a_near_singular_sigma(self, f_cat, g_cat, dim):
        # the chi2 quadrature, the reference for the chi2_kmb form that
        # ht[chi2] takes, with sigma's smallest eigenvalue between 1e-7 and
        # 1e-4: every integral closes within the interval budget, at chi2_kmb
        # and below the maximal divergence (further down, to 1e-9, the
        # quadrature can exceed its budget; the public ht[chi2] does not
        # integrate, see TestChi2Oracle)
        chi2, mats = f_cat["chi2"], f_cat["chi2"].with_family("matsumoto")
        rng = np.random.default_rng([31, dim])
        for trial in range(40):
            rho = qc.random_density(dim, rng)
            low = 10 ** rng.uniform(-7, -4)
            mu = np.concatenate([[low], (1 - low) * rng.dirichlet(np.ones(dim - 1))])
            v = qc.random_density(dim, rng).eigenvectors
            sig = qc.validate_density((v * mu) @ v.conj().T)
            assert 1e-7 <= sig.min_eigenvalue <= 1e-4, trial
            got = ht_stack(chi2, rho.entries[None], sig).value[0]
            assert np.isfinite(got) and got >= 0.0, trial
            assert got <= qc.matsumoto_divergence(mats, rho, sig).value, trial
            assert got == pytest.approx(qc.chi2_g(rho, sig, g_cat["kmb"]).value,
                                        rel=1e-8), trial

    def test_nan_in_integrand_raises(self, f_cat):
        # the closed-form eigensolve at d = 2 passes a NaN entry on as NaN
        # eigenvalues, which the quadrature loop reports
        rng = np.random.default_rng(2)
        sig = qc.random_density(2, rng)
        rho = np.array([qc.random_density(2, rng).entries for _ in range(3)])
        ref = divergences._reference(sig)
        t = eigvalsh_stack(divergences._pencil(rho, ref))
        rho[1, -1, 0] = np.nan
        with pytest.raises(qc.QuadratureFailure, match=r"nan at x = .*\(integral 1, "):
            divergences._ht_integrals(f_cat["kl"].f2, rho,
                                      np.broadcast_to(ref.entries, rho.shape), t)

    def test_traced_name_stays_bound(self):
        # perfbench's tracer patches integrate_piecewise on this module
        assert divergences.integrate_piecewise is quadrature.integrate_piecewise

    @pytest.mark.parametrize("f_name", ["chi2", "hellinger"])
    def test_diagnostics_present(self, f_cat, golden_pair, f_name):
        rho, sig = golden_pair
        got = qc.ht_divergence(f_cat[f_name].with_family("ht"), rho, sig)
        if f_name == "chi2":
            # no quadrature: the diagnostics name the weight of the closed form
            assert got.diagnostics == {"family": "ht", "f": "chi2", "g": "kmb"}
            return
        assert got.diagnostics["quad_error"] < 1e-8
        assert got.diagnostics["quad_evals"] > 0
        lo, hi = got.diagnostics["pencil_range"]
        assert lo < 1 < hi

    def test_rank_deficient_sigma_rejected(self, f_cat, rng):
        rho = qc.random_density(2, rng)
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.ht_divergence(f_cat["kl"].with_family("ht"), rho, sig)


_KL = qc.f_catalog()["kl"]

#: every public evaluator of a (rho, sigma) pair, as a call on the pair
PAIR_EVALUATORS = {
    "chi2_g": lambda r, s: qc.chi2_g(r, s, qc.g_catalog()["max"]),
    "chi2_max": qc.chi2_max,
    "hockey_stick": lambda r, s: qc.hockey_stick(r, s, 1.5),
    "ht_divergence": lambda r, s: qc.ht_divergence(_KL.with_family("ht"), r, s),
    "matsumoto_divergence":
        lambda r, s: qc.matsumoto_divergence(_KL.with_family("matsumoto"), r, s),
    "petz_divergence": lambda r, s: qc.petz_divergence(_KL.with_family("petz"), r, s),
    "reverse_pinsker_bound": lambda r, s: qc.reverse_pinsker_bound(_KL, r, s),
    "local_chi2_estimate": lambda r, s: qc.local_chi2_estimate(_KL.with_family("petz"), r, s),
}


class TestPairValidation:
    """Each public pair evaluator validates rho, then sigma, then requires a
    full-rank sigma, and names the argument an error concerns."""

    @pytest.mark.parametrize("entry", list(PAIR_EVALUATORS))
    def test_bad_pairs_raise_typed_errors(self, entry):
        fn = PAIR_EVALUATORS[entry]
        rng = np.random.default_rng(17)
        rho, sig = qc.random_density(2, rng).entries, qc.random_density(2, rng).entries
        skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
        with pytest.raises(qc.NotHermitian, match=r"^rho: "):
            fn(rho + skew, sig)
        with pytest.raises(qc.NotHermitian, match=r"^sigma: "):
            fn(rho, sig + skew)
        # rho is checked before sigma
        with pytest.raises(qc.NotHermitian, match=r"^rho: "):
            fn(rho + skew, sig + skew)
        with pytest.raises(qc.SingularReference, match="sigma must be full rank"):
            fn(rho, np.diag([1.0, 0.0]))

    @staticmethod
    def lone_pair(rho, sigma):
        """rho, then sigma, each validated alone and named in its error, then
        the dimension check: what _pair did before it stacked the pair."""
        states = []
        for x, who in ((rho, "rho"), (sigma, "sigma")):
            try:
                states.append(qc.validate_density(x))
            except qc.InputError as exc:
                raise type(exc)(f"{who}: {exc}") from exc
        r, s = states
        if r.dim != s.dim:
            raise qc.DimensionMismatch(f"rho is {r.dim}x{r.dim} but sigma is {s.dim}x{s.dim}")
        return r, s

    @staticmethod
    def valid_pairs():
        rng = np.random.default_rng(41)
        for d in (2, 3):
            for _ in range(4):
                yield qc.random_density(d, rng).entries, qc.random_density(d, rng).entries
            sig = qc.random_density(d, rng)
            yield qc.random_density(d, rng).entries, near_singular(sig, rng).entries
            # rho with a near-degenerate spectrum, and rank one
            v = qc.random_density(d, rng).eigenvectors
            lam = np.full(d, 1.0 / d) + np.r_[1e-12, -1e-12, 0.0][:d]
            yield (v * lam) @ v.conj().T, sig.entries
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            yield np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, sig.entries

    def test_stacked_pair_equals_lone_validation(self):
        for rho, sigma in self.valid_pairs():
            stacked, lone = divergences._pair(rho, sigma), self.lone_pair(rho, sigma)
            # a validated argument passes through as it is
            assert divergences._pair(lone[0], sigma)[0] is lone[0]
            assert divergences._pair(rho, lone[1])[1] is lone[1]
            for a, b in zip(stacked, lone):
                assert a.dim == b.dim and a.full_rank == b.full_rank
                for part in ("entries", "eigenvalues", "eigenvectors"):
                    assert (getattr(a, part) == getattr(b, part)).all(), part
                    assert not getattr(a, part).flags.writeable

    def test_stacked_grid_equals_lone_validation(self):
        rho, sigma = next(self.valid_pairs())
        mixes = [l * rho + (1.0 - l) * sigma for l in divergences.DEFAULT_LOCAL_GRID]
        for a, x in zip(_validate_states(mixes), mixes):
            b = qc.validate_density(x)
            assert (a.entries == b.entries).all() and (a.eigenvectors == b.eigenvectors).all()

    BAD = {
        "good": np.diag([0.7, 0.3]),
        "good3": np.diag([0.5, 0.3, 0.2]),
        "non-square": np.ones((2, 3)) / 2,
        "non-finite": np.array([[0.5, np.nan], [np.nan, 0.5]]),
        "1x1": np.array([[1.0]]),
        "non-Hermitian": np.array([[0.5, 0.3], [-0.3, 0.5]]),
        "not-psd": np.diag([1.5, -0.5]),
        "zero-trace": np.zeros((2, 2)),
    }

    @pytest.mark.parametrize("rho_kind", list(BAD))
    @pytest.mark.parametrize("sigma_kind", list(BAD))
    def test_stacked_pair_raises_what_lone_validation_raises(self, rho_kind, sigma_kind):
        rho, sigma = self.BAD[rho_kind], self.BAD[sigma_kind]
        try:
            expected = self.lone_pair(rho, sigma)
        except qc.InputError as exc:
            with pytest.raises(qc.InputError) as info:
                divergences._pair(rho, sigma)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            assert rho_kind == sigma_kind in ("good", "good3")
            assert divergences._pair(rho, sigma)[0].dim == expected[0].dim


class TestPetz:
    def test_quadratic_generator_equals_chi2_max(self, f_cat):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = qc.random_density(3, rng)
            sig = qc.random_density(3, rng)
            got = qc.petz_divergence(
                f_cat["chi2"].with_family("petz"), rho, sig
            ).value
            assert got == pytest.approx(
                qc.chi2_max(rho, sig).value, abs=1e-9
            )

    def test_non_operator_convex_generator_rejected(self, rng):
        # valid convex generator that is not flagged operator convex
        quartic = qc.fdivergence_spec(
            "quartic-mix",
            lambda x: (x - 1) ** 2 + (x - 1) ** 4,
            lambda x: 2 * (x - 1) + 4 * (x - 1) ** 3,
            lambda x: 2 + 12.0 * (x - 1) ** 2,
            lambda x: 24.0 * (x - 1),
        )
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        with pytest.raises(qc.NotOperatorConvex):
            qc.petz_divergence(quartic.with_family("petz"), rho, sig)
        # the generator is checked before the states
        skew = np.array([[0.5, 0.3], [-0.3, 0.5]])
        with pytest.raises(qc.NotOperatorConvex):
            qc.petz_divergence(quartic.with_family("petz"), skew, skew)


class TestMatsumoto:
    def test_rank_deficient_rho_allowed_when_f_finite_at_zero(self, f_cat):
        # classical check: p has a zero entry, q is faithful
        rho = qc.validate_density(np.diag([1.0, 0.0]))
        sig = qc.validate_density(np.diag([0.7, 0.3]))
        for spec in f_cat.values():
            got = qc.matsumoto_divergence(
                spec.with_family("matsumoto"), rho, sig
            ).value
            expect = classical_f_divergence(
                [1.0, 0.0], [0.7, 0.3], spec.f
            )
            assert got == pytest.approx(expect, abs=1e-10)

    def test_f_not_finite_on_the_pencil_spectrum_is_domain_error(self):
        # f(x) = x - 1 - log x has f(0) = inf, so a rank-one rho has no value;
        # fdivergence_spec rejects such an f, so the spec is built directly
        spec = REVERSE_KL.with_family("matsumoto")
        rho = qc.validate_density(np.diag([1.0, 0.0]))
        sig = qc.validate_density(np.diag([0.7, 0.3]))
        with pytest.raises(qc.DomainError, match=r"pencil spectrum \[0\.000e\+00, 1\.429e\+00\]"):
            qc.matsumoto_divergence(spec, rho, sig)

    def test_singular_sigma_rejected(self, f_cat, rng):
        rho = qc.random_density(2, rng)
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.matsumoto_divergence(
                f_cat["kl"].with_family("matsumoto"), rho, sig
            )

    def test_dominates_other_families(self, f_cat):
        rng = np.random.default_rng(77)
        for _ in range(6):
            rho = qc.random_density(2, rng)
            sig = qc.random_density(2, rng)
            for spec in f_cat.values():
                mats = qc.matsumoto_divergence(
                    spec.with_family("matsumoto"), rho, sig
                ).value
                for fam in ("ht", "petz"):
                    other = FAMILY_FN[fam](spec.with_family(fam), rho, sig).value
                    assert other <= mats + 1e-8


class TestEvaluateDispatcher:
    def test_routes_by_family(self, f_cat, golden_pair):
        rho, sig = golden_pair
        for fam, fn in FAMILY_FN.items():
            spec = f_cat["kl"].with_family(fam)
            assert qc.evaluate(spec, rho, sig).value == \
                fn(spec, rho, sig).value

    def test_requires_family(self, f_cat, golden_pair):
        rho, sig = golden_pair
        with pytest.raises(qc.InputError):
            qc.evaluate(f_cat["kl"], rho, sig)


class TestStackedKernels:
    # the kernels mark the rows they cannot evaluate NaN, under the caller's errstate
    @np.errstate(all="ignore")
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("f_name", ["kl", "hellinger"])
    @pytest.mark.parametrize("family", qc.FAMILIES)
    def test_mixed_reference_stack_gives_the_lone_values_and_gradients(self, f_cat, family,
                                                                       f_name, dim):
        # the search's call: a (2, k) stack of states against sigma and of
        # their images against E(sigma), one kernel call; a pure state has no
        # petz or ht value.  Under chi2's generator the kernel is a weight,
        # which the search evaluates on differences (TestChi2Oracle)
        spec = f_cat[f_name].with_family(family)
        rng = np.random.default_rng([dim, 5, len(f_name)])
        ch = qc.random_channel(dim, seed=3)
        sig = near_singular(qc.random_density(dim, rng), rng)
        rho = np.array([qc.random_density(dim, rng).entries for _ in range(6)]
                       + [qc.random_density(dim, rng, rank=1).entries])
        raw = np.stack([rho, ch.superop.apply(rho)])
        refs = [sig, qc.apply(ch, sig)]
        lam, phi, *_ = validate_stack(raw)
        values, grads = divergences._divergence_stacks(spec, lam, phi,
                                                       divergences._references(*refs))
        assert values.shape == raw.shape[:2] and grads.shape == raw.shape
        for g, s in enumerate(refs):
            for k in range(len(rho)):
                if family != "matsumoto" and not stack_full_rank(lam[g, k]):
                    assert np.isnan(values[g, k]) and np.isnan(grads[g, k]).all()
                    with pytest.raises(qc.SingularReference):
                        FAMILY_FN[family](spec, raw[g, k], s)
                    continue
                assert values[g, k] == FAMILY_FN[family](spec, raw[g, k], s).value, (g, k)
                one = divergences._divergence_stacks(
                    spec, lam[g, k:k + 1], phi[g, k:k + 1], divergences._reference(s))
                assert one[0][0] == values[g, k]
                np.testing.assert_array_equal(one[1][0], grads[g, k])
        assert np.isnan(values[0, -1]) == (family != "matsumoto")
        assert np.isfinite(values[1]).all()

    @np.errstate(all="ignore")
    def test_ht_stack_of_rank_deficient_states_is_all_nan(self, f_cat, rng):
        # sigma rides in place of each rho; at sigma = I/2 its pencil spectrum
        # is degenerate, so every panel has zero width and the quadrature
        # returns no gradient rider
        spec = f_cat["hellinger"].with_family("ht")
        sig = qc.validate_density(np.eye(2) / 2)
        raw = np.array([qc.random_density(2, rng, rank=1).entries for _ in range(3)])
        lam, phi, *_ = validate_stack(raw)
        values, grads = divergences._divergence_stacks(spec, lam, phi, divergences._reference(sig))
        assert values.shape == (3,) and grads.shape == (3, 2, 2)
        assert np.isnan(values).all() and np.isnan(grads).all()

    @np.errstate(all="ignore")
    def test_matsumoto_marks_only_the_row_where_f_is_not_finite(self, rng):
        spec = REVERSE_KL.with_family("matsumoto")
        sig = qc.validate_density(np.diag([0.7, 0.3]))
        raw = np.array([np.diag([1.0, 0.0]), qc.random_density(2, rng).entries])
        lam, phi, *_ = validate_stack(raw)
        values, grads = divergences._divergence_stacks(spec, lam, phi, divergences._reference(sig))
        assert np.isnan(values[0]) and np.isnan(grads[0]).all()
        assert values[1] == qc.matsumoto_divergence(spec, raw[1], sig).value
        assert np.isfinite(grads[1]).all()


class TestDataProcessing:
    def test_all_families_contract_under_channels(self, f_cat):
        rng = np.random.default_rng(123)
        channels = [qc.random_channel(2, seed=s) for s in (1, 2)] + \
                   [qc.amplitude_damping(0.4, 0.3)]
        for ch in channels:
            rho = qc.random_density(2, rng)
            sig = qc.random_density(2, rng)
            er, es = qc.apply(ch, rho), qc.apply(ch, sig)
            for spec in f_cat.values():
                for fam, fn in FAMILY_FN.items():
                    before = fn(spec.with_family(fam), rho, sig).value
                    after = fn(spec.with_family(fam), er, es).value
                    assert after <= before + 1e-8


class TestChi2:
    def test_eigenbasis_sum_equals_weighted_inner_product(self, g_cat):
        # independent oracles: chi2_max = Tr sigma^-1 X^2 and
        # chi2_kmb = int_0^inf Tr X (sigma+t)^-1 X (sigma+t)^-1 dt
        rng = np.random.default_rng(8)
        eye = np.eye(3)
        for _ in range(5):
            rho = qc.random_density(3, rng)
            sig = qc.random_density(3, rng)
            x = rho.entries - sig.entries

            def kmb_integrand(t):
                r = inv(sig.entries + t * eye)
                return float(np.trace(x @ r @ x @ r).real)

            expect = {
                "max": float(np.trace(inv(sig.entries) @ x @ x).real),
                "kmb": integrate.quad(kmb_integrand, 0.0, np.inf,
                                      epsabs=1e-13, epsrel=1e-12)[0],
            }
            assert set(expect) == set(g_cat)
            for name, g in g_cat.items():
                assert qc.chi2_g(rho, sig, g).value == \
                    pytest.approx(expect[name], rel=1e-10, abs=1e-12)

    def test_max_weight_equals_trace_formula(self, g_cat, rng):
        rho = qc.random_density(3, rng)
        sig = qc.random_density(3, rng)
        x = rho.entries - sig.entries
        expect = float(np.trace(
            np.linalg.inv(sig.entries) @ x @ x
        ).real)
        assert qc.chi2_max(rho, sig).value == pytest.approx(expect, abs=1e-10)
        assert qc.chi2_g(rho, sig, g_cat["max"]).value == \
            pytest.approx(expect, abs=1e-10)

    def test_gns_weight_gives_plain_inverse_form(self, rng):
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        x = rho.entries - sig.entries
        expect = float(np.trace(
            np.linalg.inv(sig.entries) @ x.conj().T @ x
        ).real)
        got = qc.chi2_g(rho, sig, qc.gns_weight()).value
        assert got == pytest.approx(expect, abs=1e-10)

    def test_ordering_against_max(self, g_cat):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            top = qc.chi2_max(rho, sig).value
            for g in g_cat.values():
                assert qc.chi2_g(rho, sig, g).value <= top + 1e-10

    def test_zero_iff_equal(self, g_cat, rng):
        sig = qc.random_density(2, rng)
        for g in g_cat.values():
            assert qc.chi2_g(sig, sig, g).value == pytest.approx(0.0, abs=1e-14)

    def test_classical_reduction(self, g_cat):
        # commuting pair: every g gives the classical chi-square
        rho = qc.validate_density(np.diag([0.6, 0.4]))
        sig = qc.validate_density(np.diag([0.5, 0.5]))
        expect = (0.6 - 0.5) ** 2 / 0.5 + (0.4 - 0.5) ** 2 / 0.5
        for g in list(g_cat.values()) + [qc.gns_weight()]:
            assert qc.chi2_g(rho, sig, g).value == \
                pytest.approx(expect, abs=1e-12)

    def test_singular_sigma_rejected(self, g_cat, rng):
        rho = qc.random_density(2, rng)
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.chi2_g(rho, sig, g_cat["max"])


class TestChi2Oracle:
    """Under f = chi2 each family is the chi2 form of its local weight:
    ht[chi2] = chi2_kmb and petz[chi2] = matsumoto[chi2] = chi2_max."""

    #: every family takes the chi2 form of its weight (divergences._kernel_spec),
    #: so ht is held to petz's closed-form level; matsumoto's bound keeps
    #: room for the rounding of order eps / mu_min of its sigma^(-1/2) kernel
    #: (0.74 eps / mu_min at most over these pairs)
    RTOL = {"ht": lambda mu_min: 1e-12, "petz": lambda mu_min: 1e-12,
            "matsumoto": lambda mu_min: 1e-12 + 2 * np.finfo(float).eps / mu_min}

    def test_each_family_is_the_chi2_form_of_its_weight(self, f_cat, g_cat):
        rng = np.random.default_rng(28)
        for k in range(60):
            d = 2 + k % 2
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            # sigma's smallest eigenvalue spread over [1e-5, 1e-1]
            mu = np.concatenate([[10 ** rng.uniform(-5, -1)], rng.dirichlet(np.ones(d - 1))])
            v = sig.eigenvectors
            sig = qc.validate_density((v * (mu / mu.sum())) @ v.conj().T)
            for fam, rtol in self.RTOL.items():
                exact = qc.chi2_g(rho, sig, g_cat["kmb" if fam == "ht" else "max"]).value
                value = qc.evaluate(f_cat["chi2"].with_family(fam), rho, sig).value
                assert value == pytest.approx(exact, rel=rtol(mu[0] / mu.sum())), (k, fam)

    def test_lone_evaluators_are_chi2_g_of_the_weight(self, f_cat, g_cat):
        # bit for bit, and each family keeps its typed errors: ht and petz
        # reject a rank-deficient rho, matsumoto admits it
        rng = np.random.default_rng(29)
        for d in (2, 3):
            rho, sig = qc.random_density(d, rng), qc.random_density(d, rng)
            pure = qc.random_density(d, rng, rank=1)
            for fam in qc.FAMILIES:
                spec = f_cat["chi2"].with_family(fam)
                g = g_cat["kmb" if fam == "ht" else "max"]
                assert divergences._kernel_spec(spec) is g
                for fn in (qc.evaluate, FAMILY_FN[fam]):
                    got = fn(spec, rho, sig)
                    assert got.value == qc.chi2_g(rho, sig, g).value, (d, fam)
                    assert got.diagnostics == {"family": fam, "f": "chi2", "g": g.name}
                if fam == "matsumoto":
                    assert qc.evaluate(spec, pure, sig).value == qc.chi2_g(pure, sig, g).value
                else:
                    with pytest.raises(qc.SingularReference, match="rho must be full rank"):
                        qc.evaluate(spec, pure, sig)

    def test_the_generator_decides_not_the_name(self, f_cat, g_cat, golden_pair):
        # chi2's generator under another name takes the closed form; a spec
        # named "chi2" on another function still integrates
        rho, sig = golden_pair
        chi2 = f_cat["chi2"]
        renamed = qc.fdivergence_spec("pearson", chi2.f, chi2.f1, chi2.f2, chi2.f3)
        assert qc.ht_divergence(renamed.with_family("ht"), rho, sig).value == \
            qc.chi2_g(rho, sig, g_cat["kmb"]).value
        named = qc.fdivergence_spec("chi2", lambda x: chi2.f(x), chi2.f1, chi2.f2, chi2.f3)
        integrated = qc.ht_divergence(named.with_family("ht"), rho, sig)
        assert integrated.diagnostics["quad_evals"] > 0
        assert integrated.value == ht_stack(chi2, rho.entries[None], sig).value[0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ht_at_a_nearly_singular_sigma(self, f_cat, g_cat, dim):
        # sigma's smallest eigenvalue down to 1e-9, where the chi2 quadrature
        # can exceed its interval budget: the public ht[chi2] raises no
        # QuadratureFailure, is chi2_kmb and stays below matsumoto[chi2]
        ht, mats = (f_cat["chi2"].with_family(fam) for fam in ("ht", "matsumoto"))
        rng = np.random.default_rng([32, dim])
        for trial in range(40):
            rho = qc.random_density(dim, rng)
            low = 10 ** rng.uniform(-9, -4)
            mu = np.concatenate([[low], (1 - low) * rng.dirichlet(np.ones(dim - 1))])
            v = qc.random_density(dim, rng).eigenvectors
            sig = qc.validate_density((v * mu) @ v.conj().T)
            assert 1e-9 <= sig.min_eigenvalue <= 1e-4, trial
            got = qc.ht_divergence(ht, rho, sig).value
            assert got == qc.chi2_g(rho, sig, g_cat["kmb"]).value, trial
            assert 0.0 <= got <= qc.matsumoto_divergence(mats, rho, sig).value, trial


class TestHockeyStick:
    def test_gamma_one_is_trace_distance(self, rng):
        rho = qc.random_density(3, rng)
        sig = qc.random_density(3, rng)
        assert qc.hockey_stick(rho, sig, 1.0) == pytest.approx(
            qc.trace_distance(rho.entries, sig.entries), abs=1e-12
        )

    def test_pinned_golden_values(self, golden_pair):
        rho, sig = golden_pair
        assert qc.hockey_stick(rho, sig, 1.0) == \
            pytest.approx(0.32787192621509986, abs=1e-12)
        assert qc.hockey_stick(rho, sig, 1.2) == \
            pytest.approx(0.24785054261852152, abs=1e-12)
        assert qc.hockey_stick(rho, sig, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_in_gamma(self, rng):
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        gammas = np.linspace(1.0, 3.0, 15)
        vals = [qc.hockey_stick(rho, sig, g) for g in gammas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_contracts_under_channels(self, rng):
        ch = qc.random_channel(2, seed=21)
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        for gamma in (1.0, 1.5, 2.5):
            assert qc.hockey_stick(qc.apply(ch, rho), qc.apply(ch, sig), gamma) \
                <= qc.hockey_stick(rho, sig, gamma) + 1e-10

    def test_gamma_below_one_rejected(self, rng):
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        with pytest.raises(qc.InputError):
            qc.hockey_stick(rho, sig, 0.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, rng, gamma):
        # NaN fails every comparison, so "gamma < 1" alone let it through
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        with pytest.raises(qc.InputError, match="finite"):
            qc.hockey_stick(rho, sig, gamma)

    def test_rank_deficient_rho_accepted(self):
        # tr(rho - gamma sigma)_+ is defined for every state rho
        rho = np.diag([1.0, 0.0])
        sig = np.eye(2) / 2
        assert qc.hockey_stick(rho, sig, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert qc.hockey_stick(rho, sig, 2.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(qc.SingularReference):
            qc.hockey_stick(sig, rho, 1.0)


class TestPinsker:
    def test_quadratic_lower_bound_quantum(self, f_cat):
        rng = np.random.default_rng(55)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            tv = qc.trace_distance(rho.entries, sig.entries)
            for spec in f_cat.values():
                floor = spec.pinsker_constant * (2 * tv) ** 2 / 4
                for fam, fn in FAMILY_FN.items():
                    val = fn(spec.with_family(fam), rho, sig).value
                    assert val >= floor - 1e-10, (spec.name, fam)

    def test_binary_classical_sweep(self, f_cat):
        # fine grid of binary distributions; C_f (2 TV)^2 <= D_f
        ps = np.linspace(0.02, 0.98, 25)
        qs = np.linspace(0.05, 0.95, 19)
        for spec in f_cat.values():
            c = spec.pinsker_constant
            for p in ps:
                for q in qs:
                    d_val = classical_f_divergence(
                        [p, 1 - p], [q, 1 - q], spec.f
                    )
                    tv2 = (abs(p - q) * 2) ** 2  # (l1 distance)^2
                    assert c * tv2 <= d_val + 1e-12


class TestReversePinsker:
    def test_equal_states(self, f_cat, rng):
        sig = qc.random_density(2, rng)
        bound, applicable = qc.reverse_pinsker_bound(f_cat["kl"], sig, sig)
        assert applicable
        assert bound == pytest.approx(0.0, abs=1e-9)

    def test_pinned_binary_recompute(self, f_cat):
        rho = qc.validate_density(np.diag([0.6, 0.4]))
        sig = qc.validate_density(np.diag([0.5, 0.5]))
        bound, applicable = qc.reverse_pinsker_bound(f_cat["kl"], rho, sig)
        f = f_cat["kl"].f
        expect = 0.1 * (f(0.8) / 0.2 + f(1.2) / 0.2)
        assert applicable
        assert bound == pytest.approx(expect, abs=1e-12)
        # with uniform q the two likelihood ratios are exactly m and M, so
        # the bound collapses to the classical KL value itself
        assert bound == pytest.approx(0.020135513550688862, abs=1e-12)

    def test_ht_family_respects_bound_on_applicable_pairs(self, f_cat):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 15:
            d = 2 + checked % 2
            rho = qc.random_density(d, rng)
            sig = qc.random_density(d, rng)
            bound, applicable = qc.reverse_pinsker_bound(f_cat["kl"], rho, sig)
            if not applicable:
                continue
            checked += 1
            for spec in f_cat.values():
                b, _ = qc.reverse_pinsker_bound(spec, rho, sig)
                val = qc.ht_divergence(spec.with_family("ht"), rho, sig).value
                assert val <= b + 1e-8

    def test_maximal_family_violates_bound_on_pinned_pair(self, f_cat,
                                                          golden_pair):
        """The trace-norm bound provably does NOT extend to the maximal
        divergence: pinned counterexample with a violation far above
        numerical noise.  (The analogous classical-model argument breaks
        because the optimal classical model's total variation exceeds the
        quantum trace distance.)"""
        rho, sig = golden_pair
        bound, applicable = qc.reverse_pinsker_bound(f_cat["kl"], rho, sig)
        assert applicable
        mats = qc.matsumoto_divergence(
            f_cat["kl"].with_family("matsumoto"), rho, sig
        ).value
        assert mats > bound + 5e-4

    def test_non_applicable_pair_flagged(self, f_cat):
        plus = np.full((2, 2), 0.5)
        sig = qc.validate_density(0.9 * plus + 0.05 * np.eye(2))
        rho = qc.validate_density(np.diag([0.95, 0.05]))
        _, applicable = qc.reverse_pinsker_bound(f_cat["kl"], rho, sig)
        assert not applicable

    def test_singular_sigma_rejected(self, f_cat, rng):
        rho = qc.random_density(2, rng)
        sig = qc.validate_density(np.diag([1.0, 0.0]))
        with pytest.raises(qc.SingularReference):
            qc.reverse_pinsker_bound(f_cat["kl"], rho, sig)


class TestEpsilonRegularize:
    def test_mixes_toward_maximally_mixed(self, rng):
        rho = qc.validate_density(np.diag([1.0, 0.0]))
        reg = qc.epsilon_regularize(rho, 0.1)
        np.testing.assert_allclose(
            reg.entries, 0.9 * rho.entries + 0.1 * np.eye(2) / 2, atol=1e-12
        )
        assert reg.full_rank

    def test_epsilon_range_enforced(self, rng):
        rho = qc.random_density(2, rng)
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(qc.InputError):
                qc.epsilon_regularize(rho, eps)


class TestLocalChi2Limits:
    def test_limits_match_family_weights(self, f_cat):
        rng = np.random.default_rng(12)
        rho = qc.random_density(2, rng)
        sig = qc.random_density(2, rng)
        for fname, spec in f_cat.items():
            scale = spec.f2(1.0) / 2
            for fam in qc.FAMILIES:
                s = spec.with_family(fam)
                limit, residual = qc.local_chi2_estimate(
                    lambda r, g: qc.evaluate(s, r, g).value, rho, sig
                )
                expect = scale * qc.chi2_g(
                    rho, sig, qc.local_weight(fam, spec)
                ).value
                assert limit == pytest.approx(expect, rel=2e-6), (fname, fam)
                assert residual < 1e-4

    @pytest.mark.parametrize("family", qc.FAMILIES)
    def test_family_spec_is_its_evaluate_callable(self, f_cat, golden_pair, family):
        rho, sig = golden_pair
        spec = f_cat["hellinger"].with_family(family)
        assert qc.local_chi2_estimate(spec, rho, sig) == \
            qc.local_chi2_estimate(lambda r, s: qc.evaluate(spec, r, s).value, rho, sig)

    def test_grid_validation(self, f_cat, golden_pair):
        rho, sig = golden_pair
        fn = lambda r, g: qc.chi2_max(r, g).value
        with pytest.raises(qc.InputError):
            qc.local_chi2_estimate(fn, rho, sig, lambda_grid=(0.3, 0.2, 0.1))
        with pytest.raises(qc.InputError):
            qc.local_chi2_estimate(fn, rho, sig,
                                   lambda_grid=(1.2, 0.3, 0.2, 0.1))
        # NaN passes the (0, 1) range comparisons; the error must name the grid
        with pytest.raises(qc.InputError, match="lambda_grid"):
            qc.local_chi2_estimate(fn, rho, sig, lambda_grid=[0.5, 0.4, 0.3, np.nan])
