"""The public surface: each name is declared once, in its module's
``__all__``, and each malformed argument of a public call is a typed
:class:`QcontractError`."""

import importlib

import numpy as np
import pytest

import qcontract as qc

MODULES = ("catalog", "channels", "contraction", "divergences", "errors", "linalg",
           "quadrature", "serialize")

#: every name the package exported before its list was built from the modules',
#: less ExperimentOptions, ExperimentReport and report_payload, deleted since (the
#: experiment takes a VariationalOptions and returns its payload)
RELEASED = """
AllRestartsDegenerate CSV_SCHEMA_VERSION ConvergenceFailure DB_TOL DEFAULT_SEED
DegenerateFixedSpace DensityMatrix DimensionMismatch DivergenceValue DomainError
FAMILIES FDivergenceSpec InputError
NotCompletelyPositive NotHermitian NotOperatorConvex NotPositive NotPrimitive
NotProbability NotSquare NotStandardMonotone NotStochastic NotTracePreserving
NumericalError ParameterOutOfRange PreconditionError PrimitivityReport QcontractError
QuadratureFailure QuadratureResult QuantumChannel SdpiEstimate SingularReference
SpectralWeight Superoperator TraceZero TraceZeroEigenvector UnsupportedOrder
VariationalOptions __version__ amplitude_damping apply carlen_maas_check
channel_adjoint channel_from_json channel_from_kraus channel_from_superop
channel_power channel_to_json chi2_g chi2_max chi2_quadratic_form choi_matrix
contraction_experiment depolarizing detailed_balance_residual devectorize
embedded_classical epsilon_regularize evaluate f_catalog fdivergence_spec
fixed_point g_catalog gns_weight hermitianize hockey_stick ht_divergence
integrate_piecewise is_primitive kappa_for_petz kraus_to_superop load_json_arg
local_chi2_estimate local_weight matrix_from_json matrix_to_json
matsumoto_divergence omega pauli_channel petz_divergence random_channel
random_density random_hermitian report_csv reverse_pinsker_bound
schatten_norm sdpi_chi2 sdpi_submultiplicativity_check sdpi_variational
standard_monotone state_from_json state_to_json trace_distance validate_density
vectorize
""".split()


def test_package_exports_each_module_list_once():
    modules = [importlib.import_module(f"qcontract.{name}") for name in MODULES]
    joined = ["__version__"] + [name for m in modules for name in m.__all__]
    assert qc.__all__ == joined
    assert len(set(joined)) == len(joined)
    for m in modules:
        for name in m.__all__:
            assert getattr(qc, name) is getattr(m, name), (m.__name__, name)
    assert len(RELEASED) == 96
    assert not set(RELEASED) - set(qc.__all__)


_RNG = np.random.default_rng(5)
_RHO = qc.random_density(2, _RNG).entries
_SIGMA = qc.random_density(2, _RNG).entries
_PI = np.eye(2) / 2
_KL_PETZ = qc.f_catalog()["kl"].with_family("petz")

#: each call with one malformed scalar, sequence, spec or weight argument
MALFORMED = {
    "epsilon_regularize-string": lambda: qc.epsilon_regularize(_RHO, "x"),
    "epsilon_regularize-none": lambda: qc.epsilon_regularize(_RHO, None),
    "depolarizing-string": lambda: qc.depolarizing("x"),
    "depolarizing-none": lambda: qc.depolarizing(None),
    "depolarizing-bool": lambda: qc.depolarizing(True),
    "channel_from_json-bool": lambda: qc.channel_from_json({"kind": "depolarizing", "p": True}),
    "state_from_json-bool": lambda: qc.state_from_json([[True, 0], [0, False]]),
    "matrix_from_json-bool-pair": lambda: qc.matrix_from_json([[[0.5, False], 0], [0, 0.5]]),
    "amplitude_damping-string": lambda: qc.amplitude_damping("x", 0.2),
    "hockey_stick-bool": lambda: qc.hockey_stick(_RHO, _SIGMA, True),
    "random_density-string": lambda: qc.random_density("x", np.random.default_rng(0)),
    "pauli_channel-string": lambda: qc.pauli_channel("abcd"),
    "embedded_classical-string": lambda: qc.embedded_classical("x"),
    "lambda_grid-none": lambda: qc.local_chi2_estimate(_KL_PETZ, _RHO, _SIGMA,
                                                       lambda_grid=None),
    "lambda_grid-string": lambda: qc.local_chi2_estimate(_KL_PETZ, _RHO, _SIGMA,
                                                         lambda_grid="abcd"),
    "chi2_g-none": lambda: qc.chi2_g(_RHO, _SIGMA, None),
    "omega-none": lambda: qc.omega(_PI, None),
    "sdpi_chi2-none": lambda: qc.sdpi_chi2(qc.depolarizing(0.5), _PI, None),
    "detailed_balance_residual-none":
        lambda: qc.detailed_balance_residual(qc.depolarizing(0.5), _PI, None),
    "evaluate-none": lambda: qc.evaluate(None, _RHO, _SIGMA),
    "experiment-weight-none": lambda: qc.contraction_experiment(
        qc.depolarizing(0.5), [_KL_PETZ], [None], n_max=1),
}

_RHO3 = qc.random_density(3, _RNG).entries
_SPECS = {fam: qc.f_catalog()["kl"].with_family(fam) for fam in qc.FAMILIES}

#: each two-state call with a 2x2 rho and a 3x3 sigma
MISMATCHED = {
    "chi2_g-dims": lambda: qc.chi2_g(_RHO, _RHO3, qc.g_catalog()["max"]),
    "chi2_max-dims": lambda: qc.chi2_max(_RHO, _RHO3),
    "hockey_stick-dims": lambda: qc.hockey_stick(_RHO, _RHO3, 1.5),
    **{f"evaluate-{fam}-dims": lambda spec=spec: qc.evaluate(spec, _RHO, _RHO3)
       for fam, spec in _SPECS.items()},
    "reverse_pinsker_bound-dims": lambda: qc.reverse_pinsker_bound(_KL_PETZ, _RHO, _RHO3),
    "local_chi2_estimate-dims": lambda: qc.local_chi2_estimate(_KL_PETZ, _RHO, _RHO3),
    "trace_distance-dims": lambda: qc.trace_distance(_RHO, _RHO3),
    "chi2_quadratic_form-dims": lambda: qc.chi2_quadratic_form(
        np.eye(3), qc.validate_density(_RHO), qc.g_catalog()["max"]),
}


@pytest.mark.parametrize("call", [*MALFORMED, *MISMATCHED])
def test_malformed_argument_is_input_error(call):
    with pytest.raises(qc.QcontractError) as info:
        {**MALFORMED, **MISMATCHED}[call]()
    assert type(info.value) is (qc.DimensionMismatch if call in MISMATCHED else qc.InputError)
    assert info.value.exit_code == 2


#: each call with a malformed operator, matrix or spec, and its typed error
MALFORMED_OPERATOR = {
    "kraus_to_superop-empty": (lambda: qc.kraus_to_superop([]), qc.InputError),
    "kraus_to_superop-none": (lambda: qc.kraus_to_superop(None), qc.InputError),
    "kraus_to_superop-1d": (lambda: qc.kraus_to_superop([[1, 0]]), qc.NotSquare),
    "kraus_to_superop-string": (lambda: qc.kraus_to_superop(["ab"]), qc.InputError),
    "choi_matrix-3x3": (lambda: qc.choi_matrix(np.eye(3)), qc.NotSquare),
    "choi_matrix-string": (lambda: qc.choi_matrix("ab"), qc.InputError),
    "matrix_to_json-string": (lambda: qc.matrix_to_json("ab"), qc.InputError),
    "matrix_to_json-1d": (lambda: qc.matrix_to_json([1, 0]), qc.InputError),
    "kappa_for_petz-none": (lambda: qc.kappa_for_petz(None), qc.InputError),
    "reverse_pinsker_bound-none": (lambda: qc.reverse_pinsker_bound(None, _RHO, _SIGMA),
                                   qc.InputError),
}


@pytest.mark.parametrize("call", MALFORMED_OPERATOR)
def test_malformed_operator_is_typed_input_error(call):
    make, error = MALFORMED_OPERATOR[call]
    with pytest.raises(qc.QcontractError) as info:
        make()
    assert type(info.value) is error
    assert info.value.exit_code == 2

