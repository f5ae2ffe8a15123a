"""JSON round trips for matrices, states, and channel specs."""

import json

import numpy as np
import pytest

import qcontract as qc


class TestMatrix:
    def test_round_trip_complex(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = qc.matrix_from_json(qc.matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_entries_are_re_im_pairs(self):
        data = qc.matrix_to_json(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]

    def test_plain_numbers_read_as_real(self):
        m = qc.matrix_from_json([[1, 0.5], [0, 2]])
        np.testing.assert_array_equal(m, np.array([[1, 0.5], [0, 2]], dtype=complex))

    def test_mixed_entry_styles(self):
        m = qc.matrix_from_json([[1, [0, -1]], [[0, 1], 1]])
        np.testing.assert_array_equal(m, np.array([[1, -1j], [1j, 1]]))

    def test_rejects_ragged_rows(self):
        with pytest.raises(qc.InputError):
            qc.matrix_from_json([[1, 2], [3]])

    def test_rejects_empty_and_non_list(self):
        for bad in ([], [[]], "nope", 3, [1, 2]):
            with pytest.raises(qc.InputError):
                qc.matrix_from_json(bad)

    def test_rejects_bad_entry(self):
        with pytest.raises(qc.InputError):
            qc.matrix_from_json([[{"re": 1}]])
        with pytest.raises(qc.InputError):
            qc.matrix_from_json([[[1, 2, 3]]])


class TestState:
    def test_round_trip(self, rng):
        rho = qc.random_density(3, rng)
        back = qc.state_from_json(qc.state_to_json(rho))
        np.testing.assert_allclose(back.entries, rho.entries, atol=1e-12)

    def test_bare_matrix_accepted(self):
        rho = qc.state_from_json([[0.5, 0], [0, 0.5]])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2)

    def test_wrapped_matrix_accepted(self):
        rho = qc.state_from_json({"matrix": [[1, 0], [0, 0]]})
        assert rho.entries[0, 0] == pytest.approx(1.0)

    def test_missing_matrix_field(self):
        with pytest.raises(qc.InputError):
            qc.state_from_json({"rho": [[1]]})

    def test_invalid_density_propagates(self):
        with pytest.raises(qc.NotPositive):
            qc.state_from_json([[1.5, 0], [0, -0.5]])


class TestChannel:
    def test_kraus_round_trip(self):
        ch = qc.amplitude_damping(0.3, 0.25)
        spec = qc.channel_to_json(ch)
        assert spec["kind"] == "kraus"
        back = qc.channel_from_json(spec)
        np.testing.assert_allclose(back.superop.matrix, ch.superop.matrix, atol=1e-12)
        assert back.label == ch.label

    @pytest.mark.parametrize(
        "spec, builder",
        [
            ({"kind": "depolarizing", "p": 0.3}, lambda: qc.depolarizing(0.3)),
            (
                {"kind": "depolarizing", "p": 0.3, "dim": 3},
                lambda: qc.depolarizing(0.3, dim=3),
            ),
            (
                {"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1]},
                lambda: qc.pauli_channel([0.7, 0.1, 0.1, 0.1]),
            ),
            (
                {"kind": "embedded_classical", "matrix": [[0.7, 0.3], [0.3, 0.7]]},
                lambda: qc.embedded_classical(
                    np.array([[0.7, 0.3], [0.3, 0.7]])
                ),
            ),
            (
                {"kind": "amplitude_damping", "gamma": 0.3, "excitation": 0.25},
                lambda: qc.amplitude_damping(0.3, 0.25),
            ),
            (
                {"kind": "random", "dim": 2, "env": 4, "seed": 7},
                lambda: qc.random_channel(2, env=4, seed=7),
            ),
        ],
    )
    def test_named_kinds_match_builders(self, spec, builder):
        built = qc.channel_from_json(spec)
        np.testing.assert_allclose(built.superop.matrix, builder().superop.matrix, atol=1e-12)

    def test_random_defaults_seed_zero(self):
        a = qc.channel_from_json({"kind": "random", "dim": 2})
        b = qc.random_channel(2, seed=0)
        np.testing.assert_allclose(a.superop.matrix, b.superop.matrix, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(qc.InputError, match="unknown channel kind"):
            qc.channel_from_json({"kind": "teleport"})

    def test_missing_required_field(self):
        with pytest.raises(qc.InputError, match='requires field "p"'):
            qc.channel_from_json({"kind": "depolarizing"})
        with pytest.raises(qc.InputError, match='requires field "gamma"'):
            qc.channel_from_json({"kind": "amplitude_damping", "excitation": 0.1})

    def test_non_numeric_field(self):
        with pytest.raises(qc.InputError, match="must be a number"):
            qc.channel_from_json({"kind": "depolarizing", "p": "high"})

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "depolarizing", "p": 0.5, "dim": "x"}, "dim"),
        ({"kind": "depolarizing", "p": 0.5, "dim": 2.7}, "dim"),
        ({"kind": "depolarizing", "p": 0.5, "dim": 0}, "dim"),
        ({"kind": "random", "dim": True}, "dim"),
        ({"kind": "random", "dim": 2, "env": 1.5}, "env"),
        ({"kind": "random", "dim": 2, "seed": "a"}, "seed"),
        ({"kind": "random", "dim": 2, "seed": -1}, "seed"),
    ])
    def test_integer_fields_must_be_integers(self, spec, key):
        with pytest.raises(qc.InputError, match=f'"{key}" must be an integer'):
            qc.channel_from_json(spec)

    def test_integral_float_fields_accepted(self):
        a = qc.channel_from_json({"kind": "random", "dim": 2.0, "env": 4.0, "seed": 7.0})
        b = qc.random_channel(2, env=4, seed=7)
        np.testing.assert_array_equal(a.superop.matrix, b.superop.matrix)

    def test_non_object_spec(self):
        with pytest.raises(qc.InputError, match="JSON object"):
            qc.channel_from_json([[1, 0], [0, 1]])

    def test_complex_classical_matrix_rejected(self):
        with pytest.raises(qc.InputError, match="real"):
            qc.channel_from_json(
                {"kind": "embedded_classical", "matrix": [[[0.7, 0.1], [0.3, 0]], [[0.3, 0], [0.7, 0]]]}
            )

    def test_kraus_requires_operator_list(self):
        with pytest.raises(qc.InputError):
            qc.channel_from_json({"kind": "kraus", "operators": []})
        with pytest.raises(qc.InputError):
            qc.channel_from_json({"kind": "kraus"})

    def test_pauli_probs_must_be_a_list(self):
        with pytest.raises(qc.InputError, match='"probs" must be a list') as info:
            qc.channel_from_json({"kind": "pauli", "probs": 0.25})
        assert type(info.value) is qc.InputError
        assert info.value.exit_code == 2

    def test_bad_kraus_operators_propagate(self):
        # valid JSON but not trace preserving
        with pytest.raises(qc.NotTracePreserving):
            qc.channel_from_json(
                {"kind": "kraus", "operators": [[[1, 0], [0, 0.5]]]}
            )

    def test_channel_without_kraus_not_serializable(self):
        ch = qc.depolarizing(0.3)
        bare = qc.QuantumChannel(
            dim=2, superop=ch.superop, kraus=None, label="bare"
        )
        with pytest.raises(qc.InputError, match="no stored Kraus"):
            qc.channel_to_json(bare)


class TestLoadJsonArg:
    def test_inline_object(self):
        assert qc.load_json_arg('{"kind": "depolarizing", "p": 0.5}') == {
            "kind": "depolarizing",
            "p": 0.5,
        }

    def test_inline_array(self):
        assert qc.load_json_arg("[[1, 0], [0, 1]]") == [[1, 0], [0, 1]]

    def test_file_path(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"matrix": [[1, 0], [0, 0]]}))
        assert qc.load_json_arg(str(path)) == {"matrix": [[1, 0], [0, 0]]}

    def test_missing_file(self):
        with pytest.raises(qc.InputError, match="not found"):
            qc.load_json_arg("/nonexistent/state.json")

    def test_bad_inline_json(self):
        with pytest.raises(qc.InputError, match="inline JSON"):
            qc.load_json_arg('{"kind": oops}')

    def test_bad_file_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(qc.InputError, match="could not parse"):
            qc.load_json_arg(str(path))
