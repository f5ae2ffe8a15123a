"""Span tracing of qcontract from outside the library.

The tracer replaces the module-level names through which one layer calls
the next (``qcontract.contraction.evaluate``, ``numpy.linalg.eigh``, ...)
with wrappers that record a span per call: name, start, end and parent.
Spans are kept in flat arrays in memory and written out when the run
ends.  A layer's self time is its spans' duration minus the part of that
interval covered by child spans.

Wrappers record only while a span is open (the benchmark opens one
around the traced phase), so the benchmark's own oracle computations
outside that span are not attributed to any layer.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

# numpy.linalg functions that make an eigensolve or SVD; the library calls
# them by attribute (np.linalg.eigh), so patching numpy.linalg reaches them.
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd")


def _dim(x):
    dim = getattr(x, "dim", None)
    return dim if dim is not None else np.shape(x)[-1]


def _evaluate_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    return f"divergences.evaluate.{spec.family}.d{_dim(rho)}"


def _eig_after(tracer, args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    tracer.counts["linalg.eig.matrices"] += int(np.prod(shape[:-2], dtype=np.int64))


def _quad_after(tracer, args, kwargs, out):
    tracer.counts["quadrature.nodes"] += int(out.n_evals)


def _variational_after(tracer, args, kwargs, out):
    tracer.counts["contraction.restarts"] += int(out.restarts_used)
    tracer.counts["contraction.valid_restarts"] += int(out.diagnostics["valid_restarts"])


#: (module, attribute, span name, hook after the call).  A span name
#: starts with its layer; a name given as a callable is computed per call.
TARGETS = [
    # linalg: validation wherever a module binds it, plus every eigensolve
    *[(mod, "validate_density", "linalg.validate_density", None)
      for mod in ("qcontract", "qcontract.linalg", "qcontract.channels",
                  "qcontract.divergences", "qcontract.contraction", "qcontract.serialize")],
    *[("numpy.linalg", fn, f"linalg.eig.{fn}", _eig_after) for fn in EIG_FUNCTIONS],
    # quadrature
    ("qcontract.divergences", "integrate_piecewise", "quadrature.integrate_piecewise",
     _quad_after),
    # divergences
    *[(mod, "evaluate", _evaluate_name, None)
      for mod in ("qcontract", "qcontract.divergences", "qcontract.contraction",
                  "qcontract.cli")],
    *[(mod, "chi2_quadratic_form", "divergences.chi2_quadratic_form", None)
      for mod in ("qcontract", "qcontract.divergences", "qcontract.contraction")],
    ("qcontract", "chi2_g", "divergences.chi2_g", None),
    # channels
    *[(mod, "apply", "channels.apply", None)
      for mod in ("qcontract", "qcontract.channels", "qcontract.contraction")],
    *[(mod, "fixed_point", "channels.fixed_point", None)
      for mod in ("qcontract", "qcontract.channels", "qcontract.contraction", "qcontract.cli")],
    *[(mod, "is_primitive", "channels.is_primitive", None)
      for mod in ("qcontract", "qcontract.contraction")],
    ("qcontract.contraction", "channel_power", "channels.channel_power", None),
    *[(mod, "channel_from_kraus", "channels.channel_from_kraus", None)
      for mod in ("qcontract", "qcontract.channels", "qcontract.serialize")],
    # contraction
    *[(mod, "sdpi_variational", "contraction.sdpi_variational", _variational_after)
      for mod in ("qcontract", "qcontract.contraction", "qcontract.cli")],
    *[(mod, "sdpi_chi2", "contraction.sdpi_chi2", None)
      for mod in ("qcontract", "qcontract.contraction", "qcontract.cli")],
    *[(mod, "carlen_maas_check", "contraction.carlen_maas_check", None)
      for mod in ("qcontract", "qcontract.contraction", "qcontract.cli")],
    *[(mod, "detailed_balance_residual", "contraction.detailed_balance_residual", None)
      for mod in ("qcontract", "qcontract.contraction")],
    ("qcontract.contraction", "omega", "contraction.omega", None),
    ("qcontract.cli", "contraction_experiment", "contraction.contraction_experiment", None),
    # serialize
    ("qcontract.cli", "channel_from_json", "serialize.channel_from_json", None),
    ("qcontract.cli", "load_json_arg", "serialize.load_json_arg", None),
    # cli
    ("qcontract.cli", "main", "cli.main", None),
]

LAYERS = ("bench", "linalg", "quadrature", "divergences", "channels", "contraction",
          "serialize", "cli")


class Tracer:
    """Records spans in flat arrays; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        tracer = self
        fixed = None if callable(name) else self.intern(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(fixed if fixed is not None
                                  else tracer.intern(name(args, kwargs)))
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        wrapper.traced_by = self
        return wrapper

    def install(self, targets=TARGETS) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, after in targets:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        arr = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **arr)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if ".us_per_call" in name:
        return "us"
    if last.endswith("_s") or last.startswith("s_per_"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def self_times(start, end, parent) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's intervals
    (clipped to the span)."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent)
    covered = [0.0] * start.size
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    cur_parent, reach = -1, 0.0
    for c in order.tolist():
        p = par[c]
        lo, hi = max(s[c], s[p]), min(e[c], e[p])
        if p != cur_parent:
            cur_parent, reach = p, s[p]
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return end - start - np.array(covered)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counters."""
    arr = tracer.arrays()
    name_id = arr["name_id"]
    dur = arr["end"] - arr["start"]
    own = self_times(arr["start"], arr["end"], arr["parent"])

    def mask(prefix):
        hit = np.array([n == prefix or n.startswith(prefix + ".") for n in tracer.names]
                       + [False], dtype=bool)
        return hit[name_id]

    def calls(prefix):
        return int(mask(prefix).sum())

    def self_s(prefix):
        return float(own[mask(prefix)].sum())

    def us_per_call(prefix):
        m = mask(prefix)
        return float(dur[m].mean() * 1e6) if m.any() else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(layer)

    # contraction: the variational search
    sv = mask("contraction.sdpi_variational")
    n_sv = int(sv.sum())
    is_eval = mask("divergences.evaluate") | mask("divergences.chi2_quadratic_form")
    # spans are numbered in start order, so a parent is decided before its children
    under_sv = [False] * name_id.size
    sv_list = sv.tolist()
    for i, p in enumerate(arr["parent"].tolist()):
        if p >= 0 and (under_sv[p] or sv_list[p]):
            under_sv[i] = True
    under_sv = np.array(under_sv, dtype=bool)
    restarts = tracer.counts["contraction.restarts"]
    out["contraction.sdpi_variational.calls"] = n_sv
    out["contraction.sdpi_variational.self_s"] = float(own[sv].sum())
    out["contraction.evaluations_per_estimate"] = (
        float((is_eval & under_sv).sum()) / n_sv if n_sv else 0.0)
    out["contraction.s_per_restart"] = float(dur[sv].sum()) / restarts if restarts else 0.0
    out["contraction.valid_restart_frac"] = (
        tracer.counts["contraction.valid_restarts"] / restarts if restarts else 0.0)
    out["contraction.sdpi_chi2.us_per_call"] = us_per_call("contraction.sdpi_chi2")
    out["contraction.carlen_maas_check.us_per_call"] = us_per_call(
        "contraction.carlen_maas_check")

    # linalg
    out["linalg.validate_density.calls"] = calls("linalg.validate_density")
    out["linalg.validate_density.self_s"] = self_s("linalg.validate_density")
    n_eig = calls("linalg.eig")
    out["linalg.eig.calls"] = n_eig
    out["linalg.eig.matrices"] = tracer.counts["linalg.eig.matrices"]
    out["linalg.eig.matrices_per_call"] = (
        tracer.counts["linalg.eig.matrices"] / n_eig if n_eig else 0.0)
    out["linalg.eig.self_s"] = self_s("linalg.eig")

    # quadrature
    n_ht = calls("divergences.evaluate.ht")
    out["quadrature.integrate_piecewise.calls"] = calls("quadrature.integrate_piecewise")
    out["quadrature.integrate_piecewise.self_s"] = self_s("quadrature.integrate_piecewise")
    out["quadrature.nodes_per_ht_value"] = (
        tracer.counts["quadrature.nodes"] / n_ht if n_ht else 0.0)

    # divergences
    for fam in ("ht", "petz", "matsumoto"):
        out[f"divergences.evaluate.calls.{fam}"] = calls(f"divergences.evaluate.{fam}")
        for d in (2, 3):
            out[f"divergences.evaluate.us_per_call.{fam}.d{d}"] = us_per_call(
                f"divergences.evaluate.{fam}.d{d}")
    out["divergences.evaluate.self_s"] = self_s("divergences.evaluate")
    out["divergences.chi2_quadratic_form.calls"] = calls("divergences.chi2_quadratic_form")

    # channels
    out["channels.fixed_point.us_per_call"] = us_per_call("channels.fixed_point")
    out["channels.is_primitive.us_per_call"] = us_per_call("channels.is_primitive")
    out["channels.apply.calls"] = calls("channels.apply")
    out["channels.apply.self_s"] = self_s("channels.apply")

    # serialize, cli
    out["serialize.channel_from_json.us_per_call"] = us_per_call("serialize.channel_from_json")
    out["cli.main.self_s"] = self_s("cli.main")
    out["bench.trace.spans"] = int(name_id.size)
    return out
