"""The three benchmark workloads: seeded inputs, the ops they time, and the
checks their outputs must pass.

A workload turns a seed into inputs (``setup``), lists the ops of one
round (``rounds``), and judges the recorded outputs (``check``).  Only
public qcontract functions are called, always through the module
attribute (``qc.evaluate``, ``cli.main``) so that a tracer installed by
``spans.py`` sees every call.  Nothing here imports the tracer.

Ops return plain data that can be compared for equality: the traced run
and the determinism re-run compare these outputs exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import qcontract as qc
import qcontract.cli

HERE = os.path.dirname(os.path.abspath(__file__))

# --- shared input generators ------------------------------------------------


def random_kraus(rng: np.random.Generator, dim: int, env: int) -> list:
    """Kraus operators of a random channel: a Ginibre isometry C^d -> C^d x C^env
    orthonormalized by QR (generated here, independently of the library)."""
    g = rng.normal(size=(dim * env, dim)) + 1j * rng.normal(size=(dim * env, dim))
    q, _ = np.linalg.qr(g)
    return [q[e::env, :].copy() for e in range(env)]


def random_state(rng: np.random.Generator, dim: int, eigenvalues=None) -> np.ndarray:
    """Raw density-matrix entries with a Haar-random eigenbasis."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if eigenvalues is None:
        eigenvalues = rng.dirichlet(np.ones(dim)) * 0.8 + 0.2 / dim
    lam = np.asarray(eigenvalues, float)
    lam = lam / lam.sum()
    m = (u * lam) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def _logm_h(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.log(w)) @ v.conj().T


def _sqrtm_h(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def umegaki(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma), the oracle for ht[kl] and petz[kl]."""
    return float(np.trace(rho @ (_logm_h(rho) - _logm_h(sigma))).real)


def chi2_closed_form(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sigma^-1 rho^2 - 1: petz[chi2] = matsumoto[chi2] = chi2_g[max]."""
    return float(np.trace(np.linalg.solve(sigma, rho @ rho)).real) - 1.0


def hellinger_petz(rho: np.ndarray, sigma: np.ndarray) -> float:
    """2 - 2 Tr rho^1/2 sigma^1/2, the Petz divergence of (sqrt x - 1)^2."""
    return 2.0 - 2.0 * float(np.trace(_sqrtm_h(rho) @ _sqrtm_h(sigma)).real)


def _close(got, want, rtol, atol=1e-12) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


@dataclass
class Op:
    """One timed public call.  ``fn`` returns comparable plain data."""

    label: str
    fn: object


# --- experiment_qubit -------------------------------------------------------
#
# The CLI path users run end to end.  Inputs come from a fixed pool of
# seeded random qubit channels; the workload seed picks the order in which
# a run visits the pool.  The pool is small enough that a 30 s run visits
# every entry at least twice, so runs on different seeds time the same
# work and differ only in order (run.py averages per entry, so a run that
# visits one entry once more than another is not biased towards it).
# Every pool entry has its eta_f values at the commit that defined the
# benchmark recorded in reference_eta.json, so a later change that lowers
# a variational estimate is caught on any seed.  n_max = 1 and one restart
# keep one experiment near 3 s, so a run holds about ten.

EXPERIMENT_POOL = 4
EXPERIMENT_N_MAX = 1
EXPERIMENT_RESTARTS = 1
#: a recorded eta_f may fall by at most this much (criterion 5's lower slack)
ETA_FALL_TOL = 1e-2


def experiment_spec(index: int) -> dict:
    """JSON channel spec of pool entry ``index``: four random qubit Kraus ops."""
    rng = np.random.default_rng([0x51B1, index])
    kraus = random_kraus(rng, 2, 4)
    return {
        "kind": "kraus",
        "label": f"pool-{index}",
        "operators": [[[[float(z.real), float(z.imag)] for z in row] for row in k]
                      for k in kraus],
    }


def experiment_argv(index: int, spec_json: str, out_path: str) -> list:
    return [
        "experiment",
        "--channel", spec_json,
        "--f", "kl",
        "--g", "max", "--g", "kmb",
        "--family", "ht", "--family", "petz", "--family", "matsumoto",
        "--n-max", str(EXPERIMENT_N_MAX),
        "--restarts", str(EXPERIMENT_RESTARTS),
        "--seed", str(1000 + index),
        "--format", "json",
        "--out", out_path,
    ]


def run_experiment(index: int, spec_json: str, out_path: str) -> dict:
    """One CLI experiment; returns exit code, payload hash, eta_f and verdicts."""
    rc = qcontract.cli.main(experiment_argv(index, spec_json, out_path))
    if rc != 0:
        return {"index": index, "rc": rc}
    with open(out_path, encoding="utf-8") as fh:
        env = json.load(fh)
    os.remove(out_path)
    payload = env["payload"]
    verdicts = payload["verdicts"]
    return {
        "index": index,
        "rc": rc,
        "sha": env["payload_sha256"],
        "eta_f": {label: [row["eta_f"][label] for row in payload["rows"]]
                  for label in payload["family_labels"]},
        "rate_pass": verdicts["theorem_rate"]["pass"],
        "tightness_pass": verdicts["tightness"]["pass"],
    }


def load_reference_eta() -> dict:
    with open(os.path.join(HERE, "reference_eta.json"), encoding="utf-8") as fh:
        return json.load(fh)["eta_f"]


class ExperimentQubit:
    name = "experiment_qubit"
    cycle = EXPERIMENT_POOL

    def setup(self, seed: int, workdir: str) -> dict:
        order = np.random.default_rng([0xE1, seed]).permutation(EXPERIMENT_POOL)
        return {
            "pool": [(int(i), json.dumps(experiment_spec(int(i)))) for i in order],
            "out": os.path.join(workdir, "experiment.json"),
            "reference": load_reference_eta(),
        }

    def rounds(self, inputs: dict, k: int) -> list:
        index, spec_json = inputs["pool"][k % self.cycle]
        return [Op(f"experiment[{index}]",
                   lambda: run_experiment(index, spec_json, inputs["out"]))]

    def check(self, inputs: dict, label: str, out) -> str | None:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        if out["rate_pass"] is not True or out["tightness_pass"] is not True:
            return f"verdicts rate={out['rate_pass']} tightness={out['tightness_pass']}"
        ref = inputs["reference"][str(out["index"])]
        for fam, etas in out["eta_f"].items():
            for n, (eta, want) in enumerate(zip(etas, ref[fam]), start=1):
                if not 0.0 <= eta <= 1.0:
                    return f"{fam} eta_f(E^{n}) = {eta} outside [0, 1]"
                if eta < want - ETA_FALL_TOL:
                    return f"{fam} eta_f(E^{n}) = {eta:.6f} fell below recorded {want:.6f}"
        return None


# --- sdpi_qutrit ------------------------------------------------------------
#
# The variational search at d = 3 without quadrature: one gradient costs
# 2 * 2 * 9 = 36 ratio evaluations, so the optimizer's Python overhead and
# its small eigensolves dominate.  The FDivergenceSpec objectives go
# through validate_density and evaluate, the SpectralWeight objectives
# through chi2_quadratic_form only.  One op is one channel searched under
# all four objectives.  As in experiment_qubit, the channels come from a
# fixed pool of seeded random qutrit channels and the workload seed picks
# the order, so every seed times the same searches.  One restart of 100
# iterations: at 40 iterations the chi2 searches sometimes stop short of
# the exact constant by more than the 1e-2 slack, whatever the number of
# restarts.

SDPI_POOL = 4
SDPI_RESTARTS = 1
SDPI_MAX_ITERS = 100
#: a chi2 variational estimate may exceed the exact constant by rounding only
CHI2_ABOVE_TOL = 1e-9
#: and may fall short of it by criterion 5's slack
CHI2_BELOW_TOL = 1e-2


def sdpi_objectives() -> list:
    fc, gc = qc.f_catalog(), qc.g_catalog()
    return [
        ("petz[kl]", fc["kl"].with_family("petz")),
        ("matsumoto[kl]", fc["kl"].with_family("matsumoto")),
        ("chi2[max]", gc["max"]),
        ("chi2[kmb]", gc["kmb"]),
    ]


def sdpi_channel(index: int):
    """Pool entry ``index``: a random qutrit channel with three Kraus ops."""
    rng = np.random.default_rng([0x5D, index])
    return qc.channel_from_kraus(random_kraus(rng, 3, 3), label=f"qutrit-{index}")


def _search(obj, channel, pi, seed) -> dict:
    est = qc.sdpi_variational(
        obj, channel, pi,
        qc.VariationalOptions(restarts=SDPI_RESTARTS, max_iters=SDPI_MAX_ITERS, seed=seed),
    )
    return {"value": est.value, "valid_restarts": est.diagnostics["valid_restarts"]}


class SdpiQutrit:
    name = "sdpi_qutrit"
    cycle = SDPI_POOL

    def setup(self, seed: int, workdir: str) -> dict:
        order = np.random.default_rng([0x5D0, seed]).permutation(SDPI_POOL)
        channels = {}
        for i in order:
            ch = sdpi_channel(int(i))
            channels[int(i)] = (ch, qc.fixed_point(ch).entries)
        return {"order": [int(i) for i in order], "channels": channels,
                "objectives": sdpi_objectives()}

    def rounds(self, inputs: dict, k: int) -> list:
        c = inputs["order"][k % self.cycle]
        ch, pi = inputs["channels"][c]
        objectives = inputs["objectives"]
        return [Op(str(c), lambda: [_search(obj, ch, pi, (0x5D, c, j))
                                    for j, (_, obj) in enumerate(objectives)])]

    def check(self, inputs: dict, label: str, out) -> str | None:
        ch, pi = inputs["channels"][int(label)]
        for (obj_label, obj), res in zip(inputs["objectives"], out):
            value = res["value"]
            if not 0.0 <= value <= 1.0:
                return f"{obj_label}: eta = {value} outside [0, 1]"
            if res["valid_restarts"] < 1:
                return f"{obj_label}: no valid restart"
            if isinstance(obj, qc.SpectralWeight):
                exact = qc.sdpi_chi2(ch, pi, obj).value
                if value > exact + CHI2_ABOVE_TOL or value < exact - CHI2_BELOW_TOL:
                    return (f"{obj_label}: variational {value:.12f} does not bracket "
                            f"exact {exact:.12f}")
        return None


# --- library_calls ----------------------------------------------------------
#
# Single public calls on raw ndarray inputs, the way a library user makes
# them: per-call cost at the public boundary, no optimizer.  Pairs at
# d = 2 and 3 include near-singular (but full-rank) sigma and rho with a
# near-degenerate spectrum; the channels include depolarizing ones, whose
# chi-square constant is known exactly.

PAIRS_PER_DIM = 12
F_NAMES = ("kl", "chi2", "hellinger")
FAMILIES = ("ht", "petz", "matsumoto")


def library_pairs(rng: np.random.Generator, dim: int) -> list:
    pairs = []
    for i in range(PAIRS_PER_DIM):
        kind = ("generic", "generic", "generic", "near_singular_sigma",
                "near_singular_sigma", "near_degenerate_rho")[i % 6]
        rho = random_state(rng, dim)
        sigma = random_state(rng, dim)
        if kind == "near_singular_sigma":
            lam = np.concatenate([[10 ** rng.uniform(-4, -3)],
                                  rng.dirichlet(np.ones(dim - 1))])
            sigma = random_state(rng, dim, lam)
        elif kind == "near_degenerate_rho":
            a = rng.uniform(0.2, 0.8 / (dim - 1))
            lam = np.concatenate([[a, a * (1 + 1e-9)],
                                  np.full(dim - 2, (1 - 2 * a) / max(dim - 2, 1))])
            rho = random_state(rng, dim, lam)
        pairs.append((kind, rho, sigma))
    return pairs


def _value(x) -> float:
    return float(x.value)


def _primitive(channel) -> bool:
    return bool(qc.is_primitive(channel).is_primitive)


def _residuals(channel, pi) -> dict:
    return {k: float(v) for k, v in qc.carlen_maas_check(channel, pi).items()}


class LibraryCalls:
    name = "library_calls"
    cycle = 1

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([0x11B, seed])
        fc, gc = qc.f_catalog(), qc.g_catalog()
        pairs = library_pairs(rng, 2) + library_pairs(rng, 3)
        channels = []
        for dim in (2, 3):
            ch = qc.channel_from_kraus(random_kraus(rng, dim, dim * dim))
            channels.append(("random", None, ch))
            p = float(rng.uniform(0.1, 0.9))
            channels.append(("depolarizing", p, qc.depolarizing(p, dim=dim)))
        specs = {(fam, f): fc[f].with_family(fam) for fam in FAMILIES for f in F_NAMES}
        oracles = [{"kl": umegaki(r, s), "chi2": chi2_closed_form(r, s),
                    "hellinger": hellinger_petz(r, s)} for _, r, s in pairs]
        # fixed points for the channel calls: I/d for depolarizing, computed
        # once here for the random channels (the timed fixed_point call is
        # checked against the channel, not against this value)
        pis = [np.eye(ch.dim) / ch.dim if kind == "depolarizing"
               else np.array(qc.fixed_point(ch).entries) for kind, _, ch in channels]
        return {"pairs": pairs, "channels": channels, "pis": pis, "specs": specs,
                "g": gc, "oracles": oracles}

    def rounds(self, inputs: dict, k: int) -> list:
        ops = []
        for i, (_, rho, sigma) in enumerate(inputs["pairs"]):
            for (fam, f), spec in inputs["specs"].items():
                ops.append(Op(f"evaluate:{i}:{fam}:{f}",
                              lambda spec=spec, r=rho, s=sigma: _value(qc.evaluate(spec, r, s))))
            for gname, g in inputs["g"].items():
                ops.append(Op(f"chi2_g:{i}:{gname}",
                              lambda g=g, r=rho, s=sigma: _value(qc.chi2_g(r, s, g))))
        for c, ((_, _, ch), pi) in enumerate(zip(inputs["channels"], inputs["pis"])):
            ops.append(Op(f"fixed_point:{c}",
                          lambda ch=ch: np.array(qc.fixed_point(ch).entries).tolist()))
            ops.append(Op(f"is_primitive:{c}", lambda ch=ch: _primitive(ch)))
            for gname, g in inputs["g"].items():
                ops.append(Op(f"sdpi_chi2:{c}:{gname}",
                              lambda ch=ch, pi=pi, g=g: _value(qc.sdpi_chi2(ch, pi, g))))
            ops.append(Op(f"carlen_maas_check:{c}", lambda ch=ch, pi=pi: _residuals(ch, pi)))
        return ops

    def check(self, inputs: dict, label: str, out) -> str | None:
        kind, *rest = label.split(":")
        if kind == "evaluate":
            return self._check_evaluate(inputs, int(rest[0]), rest[1], rest[2], out)
        if kind == "chi2_g":
            i, gname = int(rest[0]), rest[1]
            want = inputs["oracles"][i]["chi2"]
            if gname == "max" and not _close(out, want, 1e-8):
                return f"chi2_g[max] = {out!r}, closed form {want!r}"
            if not (math.isfinite(out) and -1e-12 <= out <= want * (1 + 1e-8) + 1e-12):
                return f"chi2_g[{gname}] = {out!r} outside [0, chi2_max = {want!r}]"
            return None
        c = int(rest[0])
        ch_kind, p, ch = inputs["channels"][c]
        m = np.asarray(ch.superop.matrix)
        if kind == "fixed_point":
            pi = np.asarray(out, complex)
            image = (m @ pi.reshape(-1, order="F")).reshape(pi.shape, order="F")
            if abs(np.trace(pi) - 1) > 1e-10 or np.abs(image - pi).max() > 1e-8:
                return "fixed_point is not a trace-one fixed point"
            if np.linalg.eigvalsh(0.5 * (pi + pi.conj().T))[0] <= 0:
                return "fixed_point is not full rank"
            return None
        if kind == "is_primitive":
            return None if out is True else "channel reported not primitive"
        if kind == "sdpi_chi2":
            if not 0.0 <= out <= 1.0:
                return f"eta = {out!r} outside [0, 1]"
            if ch_kind == "depolarizing" and not _close(out, (1 - p) ** 2, 1e-10):
                return f"eta = {out!r}, depolarizing({p}) has (1-p)^2 = {(1 - p) ** 2!r}"
            return None
        if kind == "carlen_maas_check":
            if not all(math.isfinite(v) and v >= 0 for v in out.values()):
                return f"residuals {out} not finite and nonnegative"
            if ch_kind == "depolarizing" and max(out.values()) > 1e-9:
                return f"depolarizing channel residuals {out} exceed 1e-9"
            return None
        return f"unknown op {label}"

    @staticmethod
    def _check_evaluate(inputs, i, fam, f, out) -> str | None:
        if out is None or not math.isfinite(out) or out < -1e-12:
            return f"{fam}[{f}] = {out!r} is not a finite nonnegative value"
        oracle = inputs["oracles"][i]
        if f == "kl" and fam in ("ht", "petz") and not _close(out, oracle["kl"], 1e-7):
            return f"{fam}[kl] = {out!r}, Umegaki {oracle['kl']!r}"
        if f == "chi2" and fam in ("petz", "matsumoto") and not _close(out, oracle["chi2"], 1e-8):
            return f"{fam}[chi2] = {out!r}, closed form {oracle['chi2']!r}"
        if f == "hellinger" and fam == "petz" and not _close(out, oracle["hellinger"], 1e-8):
            return f"petz[hellinger] = {out!r}, closed form {oracle['hellinger']!r}"
        return None


WORKLOADS = {w.name: w for w in (ExperimentQubit(), SdpiQutrit(), LibraryCalls())}
