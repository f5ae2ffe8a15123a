"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import qcontract as qc  # noqa: E402
from spans import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_on_synthetic_tree():
    # 0 root [0, 10]; 1 child [1, 4]; 2 child [3, 6] overlaps 1;
    # 3 grandchild [1.5, 2] under 1; 4 child [9, 12] runs past the root's end
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    # root: children cover [1, 6] and [9, 10] -> 6 of 10
    np.testing.assert_allclose(got, [4.0, 2.5, 3.0, 0.5, 3.0])


def test_self_times_of_nested_spans_add_up_to_the_root():
    start = [0.0, 1.0, 2.0, 5.0]
    end = [8.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    got = self_times(start, end, parent)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 2.0])
    assert got.sum() == pytest.approx(8.0)


def test_self_time_of_lone_span_is_its_duration():
    np.testing.assert_allclose(self_times([2.0], [5.0], [-1]), [3.0])


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert any(v is not before[k] for k, v in _bindings().items())
        root = tracer.open("bench.run")
        spec = qc.f_catalog()["kl"].with_family("ht")
        value = qc.evaluate(spec, np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).value
        tracer.close(root)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "traced_by") for v in after.values())
    metrics = layer_metrics(tracer)
    assert metrics["divergences.evaluate.calls.ht"] == 1
    assert metrics["quadrature.integrate_piecewise.calls"] == 2
    assert metrics["quadrature.nodes_per_ht_value"] > 0
    assert metrics["linalg.eig.calls"] > 0
    layer_total = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert layer_total == pytest.approx(tracer.end[root] - tracer.start[root])
    # the classical pair: ht[kl] is the classical KL divergence
    assert value == pytest.approx(0.7 * np.log(0.7 / 0.4) + 0.3 * np.log(0.3 / 0.6), rel=1e-8)


def _as_data(x):
    if isinstance(x, qc.QuantumChannel):
        return np.asarray(x.superop.matrix)
    if isinstance(x, (qc.FDivergenceSpec, qc.SpectralWeight)):
        return (type(x).__name__, x.name, getattr(x, "family", None))
    if isinstance(x, dict):
        return {k: _as_data(v) for k, v in x.items() if k != "out"}
    if isinstance(x, (list, tuple)):
        return [_as_data(v) for v in x]
    return x


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = _as_data(workload.setup(3, str(tmp_path)))
    again = _as_data(workload.setup(3, str(tmp_path)))
    other = _as_data(workload.setup(4, str(tmp_path)))
    assert _equal(first, again)
    assert not _equal(first, other)


def test_timings_weigh_every_key_the_same():
    from run import summarize

    # key 0 ran three times at 1 s a round, key 1 once at 3 s; two ops a round
    keys = [0, 0, 1, 0]
    times = [1.0, 1.0, 3.0, 1.0]
    ops = [[0.2, 0.8], [0.2, 0.8], [1.0, 2.0], [0.2, 0.8]]
    got = summarize(keys, times, ops)
    assert got["wall_s"] == pytest.approx(2.0)
    assert got["ops_per_s"] == pytest.approx(4 / 4.0)
    assert got["op_p50_s"] == pytest.approx(0.9)
