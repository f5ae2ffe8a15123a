"""Channels: constructors, CPTP checks, fixed points, primitivity."""

import numpy as np
import pytest

import qcontract as qc
from qcontract.channels import SPECTRAL_TOL, _primitivity

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def completely_depolarizing(d=2):
    """E(rho) = I/d via the matrix-unit Kraus set."""
    kraus = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = 1 / np.sqrt(d)
            kraus.append(k)
    return qc.channel_from_kraus(kraus, label="replace-with-max-mixed")


class TestConstruction:
    def test_kraus_superop_choi_consistency(self, rng):
        ch = qc.random_channel(2, seed=3)
        rho = qc.random_density(2, rng)
        out_kraus = sum(k @ rho.entries @ k.conj().T for k in ch.kraus)
        np.testing.assert_allclose(ch(rho).entries, out_kraus, atol=1e-12)
        # Choi block (i,j) is E(|i><j|)
        choi = qc.choi_matrix(ch.superop)
        d = ch.dim
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                block = choi[i * d:(i + 1) * d, j * d:(j + 1) * d]
                np.testing.assert_allclose(
                    block, ch.superop.apply(unit), atol=1e-12
                )

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(qc.NotTracePreserving):
            qc.channel_from_kraus([0.5 * np.eye(2)])

    @pytest.mark.parametrize("make, error", [
        (lambda: qc.channel_from_kraus([np.ones((2, 3))]), qc.NotSquare),
        (lambda: qc.channel_from_kraus([np.eye(2), np.eye(3)]), qc.DimensionMismatch),
        (lambda: qc.channel_from_kraus([]), qc.InputError),
        (lambda: qc.channel_from_kraus([np.eye(1)]), qc.DimensionMismatch),
        (lambda: qc.embedded_classical(np.full((2, 3), 0.5)), qc.NotSquare),
        (lambda: qc.embedded_classical(np.array([[1.1, 0.0], [-0.1, 1.0]])),
         qc.NotStochastic),
        (lambda: qc.pauli_channel([0.5, 0.25, 0.25]), qc.NotProbability),
    ], ids=["kraus-non-square", "kraus-mixed-dims", "kraus-empty", "kraus-1x1",
            "classical-non-square", "classical-negative", "pauli-3-probs"])
    def test_bad_constructor_input_is_input_error(self, make, error):
        with pytest.raises(qc.InputError) as info:
            make()
        assert type(info.value) is error
        assert info.value.exit_code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_non_finite_kraus_entry_is_input_error(self, entry):
        # a NaN compares False, so it would pass the sum K^dag K test
        k = np.eye(2, dtype=complex)
        k[0, 1] = entry
        for make in (qc.channel_from_kraus, qc.kraus_to_superop):
            with pytest.raises(qc.QcontractError,
                               match="Kraus operator contains non-finite entries") as info:
                make([k, np.eye(2)])
            assert type(info.value) is qc.InputError

    def test_superop_is_the_kron_sum_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            d, count = 2 + trial % 2, 1 + trial % 16
            kraus = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
            kraus[rng.random(kraus.shape) < 0.3] = 0.0
            want = np.zeros((d * d, d * d), dtype=complex)
            for k in kraus:
                want += np.kron(k.conj(), k)
            assert qc.kraus_to_superop(list(kraus)).tobytes() == want.tobytes()

    def test_non_trace_preserving_superop_rejected(self):
        # 0.5 * id is completely positive; the Choi partial trace is I / 2
        with pytest.raises(qc.NotTracePreserving) as info:
            qc.channel_from_superop(0.5 * np.eye(4))
        assert info.value.exit_code == 2

    def test_non_completely_positive_superop_rejected(self):
        # the transpose map is positive but not completely positive
        transpose = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        with pytest.raises(qc.NotCompletelyPositive):
            qc.channel_from_superop(transpose)

    def test_apply_revalidates_output(self, rng):
        ch = qc.depolarizing(0.3)
        rho = qc.random_density(2, rng)
        out = qc.apply(ch, rho)
        assert isinstance(out, qc.DensityMatrix)
        assert abs(float(np.trace(out.entries).real) - 1.0) < 1e-12

    def test_adjoint_is_heisenberg_dual(self, rng):
        ch = qc.random_channel(3, seed=9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        adj = qc.channel_adjoint(ch)
        lhs = np.trace(a.conj().T @ ch.superop.apply(b))
        rhs = np.trace(adj.apply(a).conj().T @ b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("make", [
        lambda: qc.depolarizing(0.3),
        lambda: qc.pauli_channel([0.7, 0.1, 0.1, 0.1]),
        lambda: qc.embedded_classical(np.array([[0.7, 0.3], [0.3, 0.7]])),
        lambda: qc.amplitude_damping(0.3, 0.25),
        lambda: qc.random_channel(3, seed=4),
    ])
    def test_adjoint_unitality(self, make):
        ch = make()
        adj = qc.channel_adjoint(ch)
        np.testing.assert_allclose(
            adj.apply(np.eye(ch.dim)), np.eye(ch.dim), atol=1e-9
        )

    def test_power_matches_repeated_application(self, rng):
        ch = qc.random_channel(2, seed=1)
        rho = qc.random_density(2, rng)
        out = rho.entries
        for _ in range(3):
            out = ch.superop.apply(out)
        cubed = qc.channel_power(ch, 3)
        np.testing.assert_allclose(cubed.superop.apply(rho.entries), out,
                                   atol=1e-12)
        assert "^3" in cubed.label

    def test_power_requires_positive_exponent(self):
        with pytest.raises(qc.InputError):
            qc.channel_power(qc.depolarizing(0.5), 0)

    def test_powers_remain_cptp(self):
        ch = qc.random_channel(3, seed=12)
        p5 = qc.channel_power(ch, 5)
        # re-run the full CPTP verification on the power
        qc.channel_from_superop(p5.superop.matrix, label="p5")


class TestNamedChannels:
    def test_depolarizing_action(self, rng):
        p = 0.35
        ch = qc.depolarizing(p)
        rho = qc.random_density(2, rng)
        expect = (1 - p) * rho.entries + p * np.eye(2) / 2
        np.testing.assert_allclose(ch(rho).entries, expect, atol=1e-12)

    def test_depolarizing_qutrit(self, rng):
        ch = qc.depolarizing(0.5, dim=3)
        rho = qc.random_density(3, rng)
        expect = 0.5 * rho.entries + 0.5 * np.eye(3) / 3
        np.testing.assert_allclose(ch(rho).entries, expect, atol=1e-10)

    def test_depolarizing_parameter_range(self):
        with pytest.raises(qc.ParameterOutOfRange):
            qc.depolarizing(1.5)

    @pytest.mark.parametrize("make, error", [
        (lambda: qc.depolarizing(0.5, dim=0), qc.DimensionMismatch),
        (lambda: qc.depolarizing(0.5, dim=-2), qc.DimensionMismatch),
        (lambda: qc.depolarizing(0.5, dim=2.0), qc.InputError),
        (lambda: qc.random_channel(2, seed=-1), qc.InputError),
        (lambda: qc.random_channel(2.5), qc.InputError),
        (lambda: qc.random_channel(1), qc.DimensionMismatch),
        (lambda: qc.random_channel(2, env=0), qc.DimensionMismatch),
    ], ids=["depolarizing-dim-0", "depolarizing-dim-neg", "depolarizing-dim-float",
            "random-seed-neg", "random-dim-float", "random-dim-1", "random-env-0"])
    def test_bad_integer_argument_is_input_error(self, make, error):
        with pytest.raises(qc.InputError) as info:
            make()
        assert type(info.value) is error
        assert info.value.exit_code == 2

    def test_pauli_channel_action(self, rng):
        probs = [0.6, 0.2, 0.1, 0.1]
        ch = qc.pauli_channel(probs)
        rho = qc.random_density(2, rng).entries
        paulis = [np.eye(2), PAULI_X, PAULI_Z @ PAULI_X * 1j, PAULI_Z]
        expect = sum(p * s @ rho @ s.conj().T for p, s in zip(probs, paulis))
        np.testing.assert_allclose(ch.superop.apply(rho), expect, atol=1e-12)

    def test_pauli_rejects_non_probability(self):
        with pytest.raises(qc.NotProbability):
            qc.pauli_channel([0.5, 0.5, 0.5, -0.5])

    def test_embedded_classical_on_diagonals(self):
        w = np.array([[0.9, 0.2], [0.1, 0.8]])
        ch = qc.embedded_classical(w)
        p = np.array([0.3, 0.7])
        out = ch.superop.apply(np.diag(p))
        np.testing.assert_allclose(np.diag(out).real, w @ p, atol=1e-12)
        np.testing.assert_allclose(out - np.diag(np.diag(out)), 0, atol=1e-12)

    def test_embedded_classical_rejects_non_stochastic(self):
        with pytest.raises(qc.NotStochastic):
            qc.embedded_classical(np.array([[0.9, 0.3], [0.2, 0.7]]))

    def test_amplitude_damping_limit_is_identityish(self, rng):
        ch = qc.amplitude_damping(1e-12, 0.25)
        rho = qc.random_density(2, rng)
        np.testing.assert_allclose(ch(rho).entries, rho.entries, atol=1e-6)

    def test_amplitude_damping_fixed_point(self):
        ch = qc.amplitude_damping(0.3, 0.25)
        pi = qc.fixed_point(ch)
        np.testing.assert_allclose(pi.entries, np.diag([0.75, 0.25]),
                                   atol=1e-9)
        assert pi.full_rank

    def test_amplitude_damping_open_interval(self):
        for gamma, lam in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(qc.ParameterOutOfRange):
                qc.amplitude_damping(gamma, lam)

    def test_random_channel_reproducible_and_cptp(self):
        a = qc.random_channel(2, seed=7)
        b = qc.random_channel(2, seed=7)
        np.testing.assert_array_equal(a.superop.matrix, b.superop.matrix)
        qc.channel_from_superop(a.superop.matrix)  # re-verify CPTP


class TestFixedPoint:
    def test_unique_fixed_point_residual(self):
        for ch in (qc.depolarizing(0.4), qc.amplitude_damping(0.2, 0.3),
                   qc.random_channel(3, seed=2)):
            pi = qc.fixed_point(ch)
            assert qc.trace_distance(ch(pi).entries, pi.entries) <= 1e-8

    def test_degenerate_fixed_space_rejected(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        unitary = qc.channel_from_kraus([u], label="phase-flip-unitary")
        with pytest.raises(qc.DegenerateFixedSpace):
            qc.fixed_point(unitary)

    def test_completely_depolarizing_fixed_point(self):
        pi = qc.fixed_point(completely_depolarizing())
        np.testing.assert_allclose(pi.entries, np.eye(2) / 2, atol=1e-12)


class TestPrimitivity:
    def test_primitive_fixture(self):
        rep = qc.is_primitive(qc.depolarizing(0.5))
        assert rep.is_primitive
        assert rep.spectral_gap == pytest.approx(0.5, abs=1e-9)
        assert rep.fixed_point_min_eigenvalue == pytest.approx(0.5, abs=1e-9)
        assert rep.peripheral_count == 1
        assert rep.reasons == ()

    def test_unitary_not_primitive_with_reasons(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        rep = qc.is_primitive(qc.channel_from_kraus([u]))
        assert not rep.is_primitive
        assert rep.reasons

    def test_rank_deficient_fixed_point_not_primitive(self):
        # decaying amplitude damping analogue with a pure fixed point
        k1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
        k2 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        rep = qc.is_primitive(qc.channel_from_kraus([k1, k2]))
        assert not rep.is_primitive
        assert any("rank" in r for r in rep.reasons)

    @pytest.mark.parametrize("make", [
        lambda: qc.depolarizing(0.5),
        lambda: qc.embedded_classical(np.array([[0.7, 0.3], [0.3, 0.7]])),
        lambda: qc.amplitude_damping(0.3, 0.25),
        lambda: qc.pauli_channel([0.4, 0.3, 0.2, 0.1]),
        lambda: qc.random_channel(2, seed=1),
        lambda: qc.random_channel(3, seed=1),
        lambda: qc.channel_from_kraus([np.array([[0, 1], [1, 0]], dtype=complex)]),
        lambda: qc.channel_from_kraus([
            np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex),
            np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)]),
    ])
    def test_report_matches_separate_spectrum_and_fixed_point(self, make):
        # the report from one eig equals eigvals moduli plus a fixed_point call,
        # and its fixed point is fixed_point's bit for bit
        ch = make()
        rep = qc.is_primitive(ch)
        vals = np.linalg.eigvals(ch.superop.matrix)
        mods = np.sort(np.abs(vals))[::-1]
        assert rep.spectral_gap == float(1.0 - mods[1])
        assert rep.peripheral_count == int(np.sum(mods >= 1.0 - SPECTRAL_TOL))
        if np.sum(np.abs(vals - 1.0) <= SPECTRAL_TOL) == 1:
            pi = qc.fixed_point(ch)
            assert rep.fixed_point_min_eigenvalue == pi.min_eigenvalue
            # the experiment takes pi from the report's eigendecomposition
            assert _primitivity(ch)[1].entries.tobytes() == pi.entries.tobytes()
        else:
            assert np.isnan(rep.fixed_point_min_eigenvalue)

    def test_spectral_containment(self):
        for ch in (qc.random_channel(2, seed=5), qc.random_channel(3, seed=6),
                   qc.pauli_channel([0.4, 0.3, 0.2, 0.1])):
            eigs = np.linalg.eigvals(ch.superop.matrix)
            assert np.max(np.abs(eigs)) <= 1 + 1e-9


class TestEmpiricalConvergence:
    @pytest.mark.parametrize("make", [
        lambda: qc.depolarizing(0.5),
        lambda: qc.embedded_classical(np.array([[0.7, 0.3], [0.3, 0.7]])),
        lambda: qc.amplitude_damping(0.3, 0.25),
        lambda: qc.random_channel(2, env=4, seed=7),
    ])
    def test_uniform_convergence_over_state_sample(self, make):
        """Max deviation over a 100-state sample is eventually monotone and
        falls below 1e-6 by the spectral-gap prediction plus d^4 steps."""
        ch = make()
        rep = qc.is_primitive(ch)
        assert rep.is_primitive
        pi = qc.fixed_point(ch)
        d = ch.dim
        sample_rng = np.random.default_rng(31337)
        states = [
            qc.random_density(d, sample_rng, rank=1 + (i % d)).entries
            for i in range(100)
        ]
        n_star = d**4
        n_stop = int(np.ceil(np.log(1e-6) / np.log1p(-rep.spectral_gap))) + n_star
        devs = []
        for _ in range(n_stop):
            states = [ch.superop.apply(s) for s in states]
            devs.append(max(
                float(np.max(np.abs(np.linalg.eigvalsh(
                    0.5 * (s + s.conj().T) - pi.entries))))
                for s in states
            ))
        tail = devs[n_star - 1:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert devs[-1] < 1e-6


@pytest.mark.slow
def test_primitivity_agrees_with_choi_rank_iterate():
    """Cross-check the spectral primitivity test against the full-rank
    Choi criterion at power d^4 (slow path)."""
    cases = [
        (qc.depolarizing(0.5), True),
        (qc.amplitude_damping(0.3, 0.25), True),
        (qc.random_channel(3, seed=8), True),
        (qc.channel_from_kraus([np.array([[0, 1], [1, 0]], dtype=complex)]),
         False),
    ]
    for ch, expect in cases:
        d = ch.dim
        power = qc.channel_power(ch, d**4)
        choi = qc.choi_matrix(power.superop)
        full_rank = bool(np.min(np.linalg.eigvalsh(choi)) > 1e-10)
        assert qc.is_primitive(ch).is_primitive == expect
        assert full_rank == expect
