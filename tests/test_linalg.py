"""Operator-core: validation, vectorization, norms, superoperators, stacked
eigenvalues."""

from fractions import Fraction

import numpy as np
import pytest

import qcontract as qc
from qcontract.linalg import eigvalsh_stack, projector_stack


class TestValidateDensity:
    def test_accepts_valid_state_and_caches_eigensystem(self):
        rho = qc.validate_density(np.array([[0.7, 0.1], [0.1, 0.3]]))
        assert rho.dim == 2
        assert rho.full_rank
        assert abs(float(np.trace(rho.entries).real) - 1.0) < 1e-14
        v, mu = rho.eigenvectors, rho.eigenvalues
        assert np.all(np.diff(mu) >= 0)
        np.testing.assert_allclose((v * mu) @ v.conj().T, rho.entries, atol=1e-12)

    def test_idempotent_on_density_matrix(self):
        rho = qc.validate_density(np.diag([0.5, 0.5]))
        assert qc.validate_density(rho) is rho

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[0.6, 0.1 + 1e-12], [0.1, 0.4]])
        rho = qc.validate_density(a)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T)

    def test_rejects_large_asymmetry(self):
        a = np.array([[0.6, 0.2], [0.0, 0.4]])
        with pytest.raises(qc.NotHermitian):
            qc.validate_density(a)

    def test_clips_small_negative_eigenvalue(self):
        rho = qc.validate_density(np.diag([1.0 + 1e-12, -1e-12]))
        assert rho.min_eigenvalue >= 0.0
        assert not rho.full_rank

    def test_rejects_significant_negativity(self):
        with pytest.raises(qc.NotPositive):
            qc.validate_density(np.diag([1.1, -0.1]))

    def test_rejects_zero_trace(self):
        with pytest.raises(qc.TraceZero):
            qc.validate_density(np.zeros((2, 2)))

    def test_renormalizes_trace(self):
        rho = qc.validate_density(np.diag([0.6, 0.4]) * (1 + 5e-10))
        assert abs(float(np.trace(rho.entries).real) - 1.0) < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(qc.NotSquare):
            qc.validate_density(np.ones((2, 3)))

    def test_rejects_dimension_one(self):
        with pytest.raises(qc.DimensionMismatch):
            qc.validate_density(np.ones((1, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(qc.InputError):
            qc.validate_density(np.array([[np.nan, 0], [0, 1.0]]))

    def test_immutable(self):
        rho = qc.validate_density(np.diag([0.5, 0.5]))
        with pytest.raises(AttributeError):
            rho.dim = 3
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0


class TestVectorization:
    def test_round_trip(self, rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(qc.devectorize(qc.vectorize(x)), x)

    def test_column_stacking_order(self):
        x = np.array([[1, 3], [2, 4]], dtype=complex)
        np.testing.assert_allclose(qc.vectorize(x), [1, 2, 3, 4])

    def test_sandwich_kron_convention(self, rng):
        # vec(A X B) = (B^T kron A) vec(X)
        a, b, x = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(3))
        lhs = qc.vectorize(a @ x @ b)
        rhs = np.kron(b.T, a) @ qc.vectorize(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_devectorize_rejects_non_square_length(self):
        with pytest.raises(qc.DimensionMismatch):
            qc.devectorize(np.ones(5))


class TestNorms:
    def test_schatten_orders_on_known_matrix(self):
        x = np.diag([3.0, -4.0])
        assert qc.schatten_norm(x, 1) == pytest.approx(7.0)
        assert qc.schatten_norm(x, 2) == pytest.approx(5.0)
        assert qc.schatten_norm(x, np.inf) == pytest.approx(4.0)

    def test_unsupported_order(self):
        with pytest.raises(qc.UnsupportedOrder):
            qc.schatten_norm(np.eye(2), 3)

    def test_trace_distance_of_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert qc.trace_distance(a, b) == pytest.approx(1.0)

    def test_trace_distance_symmetric(self, rng):
        a = qc.random_density(3, rng).entries
        b = qc.random_density(3, rng).entries
        assert qc.trace_distance(a, b) == pytest.approx(qc.trace_distance(b, a))


class TestRandomStates:
    def test_reproducible(self):
        a = qc.random_density(3, np.random.default_rng(5))
        b = qc.random_density(3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_rank_control(self, rng):
        pure = qc.random_density(3, rng, rank=1)
        assert np.sum(pure.eigenvalues > 1e-12) == 1
        full = qc.random_density(3, rng)
        assert full.full_rank


@pytest.mark.parametrize("make, error", [
    (lambda: qc.validate_density("abc"), qc.InputError),
    (lambda: qc.validate_density([[1, 0], [0]]), qc.InputError),
    (lambda: qc.channel_from_kraus(["ab"]), qc.InputError),
    (lambda: qc.channel_from_superop(np.asarray(5.0)), qc.NotSquare),
    (lambda: qc.Superoperator("ab", 2), qc.InputError),
    (lambda: qc.devectorize("abc"), qc.InputError),
    (lambda: qc.hockey_stick(np.eye(2) / 2, np.eye(2) / 2, "x"), qc.InputError),
    (lambda: qc.hockey_stick(np.eye(2) / 2, np.eye(2) / 2, None), qc.InputError),
], ids=["density-string", "density-ragged", "kraus-string", "superop-0d",
        "superoperator-string", "devectorize-string", "hockey-gamma-string",
        "hockey-gamma-none"])
def test_malformed_array_like_is_a_typed_error(make, error):
    with pytest.raises(qc.QcontractError) as info:
        make()
    assert type(info.value) is error
    assert info.value.exit_code == 2


class TestSuperoperator:
    def test_apply_matches_matrix_action(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = qc.Superoperator(m, 2)
        x = rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            qc.vectorize(s.apply(x)), m @ qc.vectorize(x), atol=1e-12
        )

    def test_shape_must_match_dim(self):
        with pytest.raises(qc.DimensionMismatch, match="does not match dim 3") as info:
            qc.Superoperator(np.eye(4), 3)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_apply_on_stack_matches_each_matrix(self, dim, rng):
        x = rng.normal(size=(7, dim, dim)) + 1j * rng.normal(size=(7, dim, dim))
        for seed in range(4):
            s = qc.random_channel(dim, seed=seed).superop
            out = s.apply(x)
            assert out.shape == x.shape
            for xk, ok in zip(x, out):
                np.testing.assert_array_equal(ok, s.apply(xk))
                want = qc.devectorize(s.matrix @ qc.vectorize(xk), dim)
                np.testing.assert_array_equal(ok, want)

    def test_apply_rejects_non_finite_and_misfit_input(self):
        s = qc.random_channel(2, seed=1).superop
        for bad in (np.array([[np.nan, 0], [0, 1.0]]),
                    np.array([[[1.0, 0], [0, np.inf]]])):
            with pytest.raises(qc.InputError):
                s.apply(bad)
        with pytest.raises(qc.DimensionMismatch):
            s.apply(np.eye(3))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unchecked_apply_is_the_checked_one(self, dim, rng):
        # the search applies E and E* through _apply to (B, d, d) and
        # (2, B, d, d) stacks it built itself
        x = rng.normal(size=(2, 5, dim, dim)) + 1j * rng.normal(size=(2, 5, dim, dim))
        superop = qc.random_channel(dim, seed=dim).superop
        for s in (superop, superop.adjoint()):
            np.testing.assert_array_equal(s._apply(x[0]), s.apply(x[0]))
            np.testing.assert_array_equal(s._apply(x), np.stack([s.apply(x[0]), s.apply(x[1])]))

    def test_in_basis_is_the_map_on_rotated_matrix_units(self, rng):
        s = qc.random_channel(2, seed=2).superop
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mt = s.in_basis(v)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # E(V X V^dag) = V Y V^dag with vec(Y) = Mt vec(X)
        np.testing.assert_allclose(
            v.conj().T @ s.apply(v @ x @ v.conj().T) @ v,
            qc.devectorize(mt @ qc.vectorize(x)), atol=1e-12,
        )

    def test_in_basis_with_an_output_basis(self, rng):
        s = qc.random_channel(3, seed=2).superop
        v, w = (np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
                for _ in range(2))
        nt = s.in_basis(v, w)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # E(V X V^dag) = W Y W^dag with vec(Y) = Nt vec(X)
        np.testing.assert_allclose(
            w.conj().T @ s.apply(v @ x @ v.conj().T) @ w,
            qc.devectorize(nt @ qc.vectorize(x)), atol=1e-12,
        )
        np.testing.assert_array_equal(s.in_basis(v, v), s.in_basis(v))

    def test_adjoint_is_conjugate_transpose(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(qc.Superoperator(m, 2).adjoint().matrix, m.conj().T)


def hermitian_2x2(p, c, z) -> np.ndarray:
    """The (..., 2, 2) stack [[p, conj(z)], [z, c]]."""
    p, c, z = np.broadcast_arrays(*(np.asarray(v, complex) for v in (p, c, z)))
    return np.stack([np.stack([p, z.conj()], -1), np.stack([z, c], -1)], -2)


def qubit_stacks(rng) -> dict:
    """Seeded (n, 2, 2) Hermitian stacks of the kinds the ht integrand meets."""
    n = 200
    scale = 10.0 ** rng.uniform(-6, 6, n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    p, c = rng.normal(size=n), rng.normal(size=n)
    # rho - g sigma at g on sigma's pencil spectrum, against sigma with one
    # eigenvalue near 1e-9: one root of each is nearly 0, and the pencil
    # itself has a spread >= 1e8
    rho = np.array([qc.random_density(2, rng).entries for _ in range(n)])
    mu = np.stack([10.0 ** rng.uniform(-10, -9, n), np.ones(n)], 1)
    mu /= mu.sum(1, keepdims=True)
    v = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))[0]
    sig = (v * mu[:, None, :]) @ v.conj().swapaxes(1, 2)
    s_mh = (v / np.sqrt(mu)[:, None, :]) @ v.conj().swapaxes(1, 2)
    pencil = qc.hermitianize(s_mh @ rho @ s_mh)
    g = np.linalg.eigvalsh(pencil)[:, 0] * (1 + rng.uniform(-1e-6, 1e-6, n))
    return {
        "random": hermitian_2x2(p * scale, c * scale, z * scale),
        "near_degenerate": hermitian_2x2(p + 1e-13 * c, p, 1e-14 * z),
        "diagonal": hermitian_2x2(p * scale, c * scale, 0.0),
        "traceless": hermitian_2x2(p * scale, -p * scale, z * scale),
        "zero": np.zeros((3, 2, 2), complex),
        "pencil": pencil,
        "hockey_stick": rho - g[:, None, None] * sig,
        "real": hermitian_2x2(p, c, z.real).real,
    }


class TestEigvalshStack:
    @pytest.mark.parametrize("kind", ["random", "near_degenerate", "diagonal",
                                      "traceless", "zero", "pencil",
                                      "hockey_stick", "real"])
    def test_matches_lapack_at_d2(self, kind):
        a = qubit_stacks(np.random.default_rng(31))[kind]
        got, want = eigvalsh_stack(a), np.linalg.eigvalsh(a)
        assert got.shape == want.shape
        assert (np.diff(got, axis=-1) >= 0).all()
        bound = 4 * np.finfo(float).eps * np.abs(want).max(axis=-1)
        assert (np.abs(got - want).max(axis=-1) <= bound).all()
        if kind == "pencil":
            assert (want[:, 1] / want[:, 0]).min() >= 1e8

    def test_small_root_accurate_where_determinant_is_well_conditioned(self):
        # |z|^2 <= |p c| / 2 with p c < 0, so det = p c - |z|^2 has no
        # cancellation; the small root |det| / |big root| sits up to 1e10 below
        # the big one, and must keep its own relative accuracy
        rng = np.random.default_rng(32)
        n = 300
        p = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
        c = -np.sign(p) * np.abs(p) * 10.0 ** rng.uniform(-10, -2, n)
        z = np.sqrt(np.abs(p * c) / 2) * rng.uniform(0, 1, n) \
            * np.exp(2j * np.pi * rng.uniform(size=n))
        got = eigvalsh_stack(hermitian_2x2(p, c, z))
        first_big = np.abs(got[:, 0]) > np.abs(got[:, 1])
        big = np.where(first_big, got[:, 0], got[:, 1])
        small = np.where(first_big, got[:, 1], got[:, 0])
        for k in range(n):
            zr, zi = Fraction(z[k].real), Fraction(z[k].imag)
            det = float(Fraction(p[k]) * Fraction(c[k]) - zr * zr - zi * zi)
            assert small[k] == pytest.approx(det / big[k], rel=1e-12, abs=0.0), k

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (1, 0)])
    def test_nan_entry_gives_nan(self, where):
        a = qubit_stacks(np.random.default_rng(33))["random"][:5].copy()
        clean = eigvalsh_stack(a)
        a[(2, *where)] = np.nan
        got = eigvalsh_stack(a)
        assert np.isnan(got[2]).all()
        np.testing.assert_array_equal(np.delete(got, 2, 0), np.delete(clean, 2, 0))

    def test_batch_shapes_and_stack_independence(self):
        a = qubit_stacks(np.random.default_rng(34))["random"][:60].reshape(4, 15, 2, 2)
        got = eigvalsh_stack(a)
        assert got.shape == (4, 15, 2)
        np.testing.assert_array_equal(got.reshape(60, 2),
                                      eigvalsh_stack(a.reshape(60, 2, 2)))
        for idx in np.ndindex(4, 15):
            np.testing.assert_array_equal(got[idx], eigvalsh_stack(a[idx]))

    @pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (4, 5, 3, 3), (6, 4, 4)])
    def test_other_dimensions_are_lapack(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = a + a.conj().swapaxes(-1, -2)
        np.testing.assert_array_equal(eigvalsh_stack(a), np.linalg.eigvalsh(a))


#: every selection of the two ascending eigenvalues of a qubit matrix
_SELECTIONS = np.array([[True, False], [False, True], [True, True], [False, False]])


def eigh_projectors(a, select) -> np.ndarray:
    """sum_i select_i v_i v_i^dag from LAPACK's eigenvectors."""
    v = np.linalg.eigh(a)[1]
    return (v * select[..., None, :]) @ v.conj().swapaxes(-1, -2)


class TestProjectorStack:
    @pytest.mark.parametrize("kind", ["random", "diagonal", "traceless", "pencil",
                                      "hockey_stick", "real"])
    def test_closed_form_matches_eigh_at_d2(self, kind):
        a = qubit_stacks(np.random.default_rng(36))[kind]
        for sel in _SELECTIONS:
            select = np.broadcast_to(sel, a.shape[:-1])
            got = projector_stack(a, select)
            assert np.abs(got - eigh_projectors(a, select)).max() <= 1e-12, sel
            np.testing.assert_array_equal(got, got.conj().swapaxes(-1, -2))

    def test_closed_form_keeps_near_degenerate_projectors(self):
        # eigenvalue gaps 1e-13 below the eigenvalues: eigh of A itself loses
        # the projectors here (up to 1e-2 off), so the reference is eigh of
        # A - a_00 I, a shift that is exact for these entries (Sterbenz) and
        # leaves the eigenvectors as they are
        a = qubit_stacks(np.random.default_rng(37))["near_degenerate"]
        shifted = a - a[:, :1, :1].real * np.eye(2)
        assert (shifted[:, 0, 0] == 0).all()
        for sel in _SELECTIONS:
            select = np.broadcast_to(sel, a.shape[:-1])
            want = eigh_projectors(shifted, select)
            assert np.abs(projector_stack(a, select) - want).max() <= 1e-12, sel

    def test_degenerate_pair_is_selected_whole(self):
        a = np.array([np.zeros((2, 2)), 3.0 * np.eye(2)], complex)
        select = np.array([[True, True], [False, False]])
        np.testing.assert_array_equal(projector_stack(a, select),
                                      [np.eye(2), np.zeros((2, 2))])

    def test_batch_shapes_and_stack_independence(self):
        a = qubit_stacks(np.random.default_rng(38))["hockey_stick"][:60].reshape(4, 15, 2, 2)
        select = np.random.default_rng(39).random((4, 15, 2)) < 0.5
        got = projector_stack(a, select)
        assert got.shape == (4, 15, 2, 2)
        for idx in np.ndindex(4, 15):
            np.testing.assert_array_equal(got[idx], projector_stack(a[idx], select[idx]))

    @pytest.mark.parametrize("shape", [(7, 3, 3), (4, 5, 3, 3)])
    def test_other_dimensions_are_lapack(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = a + a.conj().swapaxes(-1, -2)
        select = rng.random(shape[:-1]) < 0.5
        got = projector_stack(a, select)
        np.testing.assert_array_equal(got, eigh_projectors(a, select))
        for idx in np.ndindex(*shape[:-2]):
            np.testing.assert_array_equal(got[idx], projector_stack(a[idx], select[idx]))
