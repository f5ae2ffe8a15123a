"""qcontract command-line interface.

Subcommands: divergence, sdpi, db-check, experiment, catalog.  Each is one
entry of ``_COMMANDS``, which names the flags it reads, the function that
runs it, its CSV table and the lines that ``--format text`` prints around
that table; a subcommand accepts no other flag.
Every run emits a ReportEnvelope; the results payload is deterministic for
a given config (timestamps live outside the payload hash).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Callable

from . import __version__
from .catalog import FAMILIES, _label, f_catalog, g_catalog, gns_weight
from .channels import QuantumChannel, fixed_point
from .contraction import (
    CSV_SCHEMA_VERSION,
    DB_TOL,
    DEFAULT_SEED,
    EXPERIMENT_OPTIONS,
    VariationalOptions,
    _kernel_searches,
    carlen_maas_check,
    contraction_experiment,
    report_csv,
    sdpi_chi2,
    # not called here: the benchmark's tracer patches this name on this module
    sdpi_variational,  # noqa: F401
)
from .divergences import evaluate
from .errors import (
    DegenerateFixedSpace,
    InputError,
    NotPrimitive,
    QcontractError,
    TraceZeroEigenvector,
)
from .serialize import channel_from_json, load_json_arg, state_from_json

__all__ = ["main", "RunConfig", "ReportEnvelope"]


@dataclass(frozen=True)
class RunConfig:
    """Echoable run configuration; reproduces the run bit-identically.

    A field whose flag the command does not take keeps its default here.
    """

    command: str
    channel: str | None = None
    rho: str | None = None
    sigma: str | None = None
    f_names: tuple = ()
    g_names: tuple = ()
    families: tuple = ()
    n_max: int = 6
    seed: int = DEFAULT_SEED
    restarts: int = 32
    fmt: str = "text"
    out: str | None = None


@dataclass(frozen=True)
class ReportEnvelope:
    version: str
    config: RunConfig
    payload: dict
    payload_sha256: str
    diagnostics: dict
    timestamps: dict


def _build_envelope(config: RunConfig, payload: dict, diagnostics: dict,
                    started: str) -> ReportEnvelope:
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    finished = datetime.now(timezone.utc).isoformat()
    return ReportEnvelope(__version__, config, payload, digest, diagnostics,
                          {"started": started, "finished": finished})


def _load_channel(config: RunConfig) -> QuantumChannel:
    if not config.channel:
        raise InputError("--channel is required for this command")
    return channel_from_json(load_json_arg(config.channel, "channel spec"))


def _load_state(text: str | None, name: str):
    if not text:
        raise InputError(f"--{name} is required for this command")
    return state_from_json(load_json_arg(text, f"{name} state"))


def _reference_state(config: RunConfig, channel: QuantumChannel):
    """sigma from the config, or the channel's fixed point.

    A degenerate fixed space means there is no canonical reference, which
    the CLI reports as the channel not being primitive.
    """
    if config.sigma:
        return _load_state(config.sigma, "sigma"), "explicit"
    try:
        return fixed_point(channel), "fixed_point"
    except (DegenerateFixedSpace, TraceZeroEigenvector) as exc:
        raise NotPrimitive(
            f"no sigma given and the fixed point is not unique/faithful: {exc}"
        ) from exc


def _resolve(kind: str, names, catalog: dict) -> dict:
    """The named entries of a catalog of f, g or family names, each once, in
    order of first mention."""
    for name in names:
        if name not in catalog:
            raise InputError(
                f"unknown {kind} name {name!r}; available: {', '.join(sorted(catalog))}"
            )
    return {name: catalog[name] for name in names}


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _family_specs(config: RunConfig) -> dict:
    """The catalog spec of each --f under each --family, f-major, keyed by
    its label family[f]; the one place a command turns those flags into
    specs."""
    families = _resolve("family", config.families, dict.fromkeys(FAMILIES))
    specs = _resolve("f", config.f_names, f_catalog())
    if not families or not specs:
        raise InputError("need at least one --family and one --f")
    labeled = [spec.with_family(fam) for spec in specs.values() for fam in families]
    return {_label(spec): spec for spec in labeled}


def cmd_divergence(config: RunConfig) -> tuple:
    rho = _load_state(config.rho, "rho")
    sigma = _load_state(config.sigma, "sigma")
    records = []
    for spec in _family_specs(config).values():
        result = evaluate(spec, rho, sigma)
        records.append({"family": spec.family, "f_name": spec.name, "value": result.value,
                        "diagnostics": result.diagnostics})
    return {"results": records}, {}


def _divergence_csv(payload: dict) -> str:
    return _csv(
        [["family", "f_name", "value"]]
        + [[rec["family"], rec["f_name"], f"{rec['value']:.12g}"]
           for rec in payload["results"]]
    )


def cmd_sdpi(config: RunConfig) -> tuple:
    channel = _load_channel(config)
    sigma, sigma_source = _reference_state(config, channel)
    gs = _resolve("g", config.g_names, g_catalog())
    records, summary = [], {"searches": {}, "shared_searches": {}, "stacked_calls": 0}
    for gname, g in gs.items():
        est = sdpi_chi2(channel, sigma, g)
        records.append({
            "family": "chi2", "g_name": gname, "value": est.value, "method": est.method,
            "diagnostics": {"top_singular_value": est.top_eigenvalue_check,
                            "top_overlap": est.diagnostics["top_overlap"]},
        })
    if config.families:
        specs = _family_specs(config)
        opts = VariationalOptions(restarts=config.restarts, seed=config.seed)
        estimates, summary = _kernel_searches(specs, channel, sigma, lambda idx: opts)
        for label, spec in specs.items():
            est = estimates[label]
            records.append({
                "family": spec.family, "f_name": spec.name, "value": est.value,
                "method": est.method,
                "diagnostics": {"restarts_used": est.restarts_used,
                                "valid_restarts": est.diagnostics.get("valid_restarts")},
            })
    return {"channel": channel.label, "sigma_source": sigma_source, "results": records}, summary


def _sigma_head(payload: dict) -> list:
    return [f"channel: {payload['channel']}  (sigma: {payload['sigma_source']})"]


def _sdpi_csv(payload: dict) -> str:
    return _csv(
        [["family", "name", "method", "value"]]
        + [[rec["family"], rec.get("g_name") or rec.get("f_name", ""), rec["method"],
            f"{rec['value']:.12g}"]
           for rec in payload["results"]]
    )


def cmd_db_check(config: RunConfig) -> tuple:
    channel = _load_channel(config)
    sigma, sigma_source = _reference_state(config, channel)
    residuals = carlen_maas_check(channel, sigma)
    worst = max(residuals.values())
    verdict = "PASS" if worst <= DB_TOL else "FAIL"
    return {
        "channel": channel.label,
        "sigma_source": sigma_source,
        "residuals": residuals,
        "max_residual": worst,
        "tolerance": DB_TOL,
        "verdict": verdict,
        "gns_implies_all": residuals["gns"] <= DB_TOL,
    }, {}


def _db_check_csv(payload: dict) -> str:
    return _csv(
        [["g_name", "residual"]]
        + [[name, f"{value:.12g}"] for name, value in payload["residuals"].items()]
        + [["verdict", payload["verdict"]]]
    )


def _db_check_tail(payload: dict) -> list:
    return [f"verdict: {payload['verdict']}  "
            f"(max residual {payload['max_residual']:.12g}, tol {payload['tolerance']:g})"]


def cmd_experiment(config: RunConfig) -> tuple:
    channel = _load_channel(config)
    families = list(_family_specs(config).values())
    gs = list(_resolve("g", config.g_names, g_catalog()).values())
    opts = replace(EXPERIMENT_OPTIONS, restarts=config.restarts, seed=config.seed)
    payload, diagnostics = contraction_experiment(channel, families, gs, config.n_max, opts)
    payload["csv"] = report_csv(payload)
    return payload, diagnostics


def _experiment_csv(payload: dict) -> str:
    return payload["csv"]


def _experiment_head(payload: dict) -> list:
    return [f"channel: {payload['channel']}  dim={payload['dim']}",
            f"n_max={payload['n_max']}  n0={payload['n0']}  csv_schema={payload['csv_schema']}"]


def _experiment_tail(payload: dict) -> list:
    rate = payload["verdicts"]["theorem_rate"]
    tight = payload["verdicts"]["tightness"]
    rate_word = "PASS" if rate["pass"] else "FAIL"
    if rate.get("vacuous"):
        rate_word += " (vacuous: convergence radius not reached)"
    return [
        f"verdict rate-bound: {rate_word}",
        f"verdict tightness: {'PASS' if tight['pass'] else 'FAIL'}",
        *(f"  {label}: db_residual={entry['db_residual']:.3e} -> {entry['pass']}"
          for label, entry in tight["per_family"].items()),
    ]


def cmd_catalog(config: RunConfig) -> tuple:
    fs = dict(sorted(f_catalog().items()))
    gns = gns_weight()
    gs = {**dict(sorted(g_catalog().items())), gns.name: gns}
    f_records = [{"name": name, "operator_convex": spec.operator_convex,
                  "pinsker_constant": spec.pinsker_constant}
                 for name, spec in fs.items() if name in (config.f_names or fs)]
    # the catalog weights are standard monotone; gns, the one other, is g = 1
    g_records = [{"name": name, "standard_monotone": g.standard_monotone,
                  "symmetry_convention": "g(1/x) = x g(x)" if g.standard_monotone
                  else "unweighted (g = 1)"}
                 for name, g in gs.items() if name in (config.g_names or gs)]
    return {"f": f_records, "g": g_records, "families": list(FAMILIES)}, {}


def _catalog_csv(payload: dict) -> str:
    return _csv(
        [["kind", "name", "flag", "detail"]]
        + [["f", rec["name"], f"operator_convex={rec['operator_convex']}",
            f"pinsker_constant={rec['pinsker_constant']}"] for rec in payload["f"]]
        + [["g", rec["name"], f"standard_monotone={rec['standard_monotone']}",
            f"symmetry_convention={rec['symmetry_convention']}"] for rec in payload["g"]]
    )


def _catalog_tail(payload: dict) -> list:
    return [f"families: {', '.join(payload['families'])}"]


#: argparse settings of every flag a command may read; dest is its RunConfig field
_FLAGS = {
    "channel": {"dest": "channel", "help": "channel spec: JSON file path or inline JSON"},
    "rho": {"dest": "rho", "help": "state: JSON file path or inline JSON"},
    "sigma": {"dest": "sigma", "help": "reference state: JSON file path or inline JSON"},
    "f": {"dest": "f_names", "action": "append", "metavar": "NAME",
          "help": "f-divergence generator name (repeatable)"},
    "g": {"dest": "g_names", "action": "append", "metavar": "NAME",
          "help": "spectral weight name (repeatable)"},
    "family": {"dest": "families", "action": "append", "metavar": "NAME",
               "help": "divergence family: ht, petz, matsumoto (repeatable)"},
    "n-max": {"dest": "n_max", "type": int, "help": "largest channel power (1..32)"},
    "seed": {"dest": "seed", "type": int,
             "help": "seed for variational restarts"},
    "restarts": {"dest": "restarts", "type": int,
                 "help": "variational restarts per estimate"},
}


@dataclass(frozen=True)
class _Command:
    """One subcommand.  ``flags`` maps each flag it reads to the value used
    when the flag is not given: None keeps the RunConfig default.  ``run``
    returns the payload and the diagnostics it adds to the envelope
    (outside the payload hash): the summary of its variational searches
    that ``contraction._kernel_searches`` returns, as is for ``sdpi``, and
    for ``experiment`` the payload and diagnostics that
    ``contraction_experiment`` returns, the summaries folded over the
    channel powers.  ``csv`` renders the payload as one CSV table;
    ``--format text`` prints the ``head`` lines, that table and the
    ``tail`` lines.  ``family_only`` names the flags the command reads only
    when --family is given; any of them without it is an InputError."""

    help: str
    flags: dict
    run: Callable[[RunConfig], tuple]
    csv: Callable[[dict], str]
    head: Callable[[dict], list] = lambda payload: []
    tail: Callable[[dict], list] = lambda payload: []
    family_only: tuple = ()


_COMMANDS = {
    "divergence": _Command(
        "evaluate f-divergence families on a pair of states",
        {"rho": None, "sigma": None, "f": ("kl",), "family": FAMILIES},
        cmd_divergence, _divergence_csv,
    ),
    "sdpi": _Command(
        "exact chi-square and variational SDPI constants of a channel",
        {"channel": None, "sigma": None, "f": ("kl",), "g": tuple(sorted(g_catalog())),
         "family": None, "seed": None, "restarts": None},
        cmd_sdpi, _sdpi_csv, _sigma_head,
        family_only=("f", "seed", "restarts"),
    ),
    "db-check": _Command(
        "detailed-balance residuals per weight function",
        {"channel": None, "sigma": None},
        cmd_db_check, _db_check_csv, _sigma_head, _db_check_tail,
    ),
    "experiment": _Command(
        "contraction-rate experiment over channel powers, at the fixed point",
        {"channel": None, "f": ("kl",), "g": tuple(sorted(g_catalog())), "family": FAMILIES,
         "n-max": None, "seed": None, "restarts": None},
        cmd_experiment, _experiment_csv, _experiment_head, _experiment_tail,
    ),
    "catalog": _Command(
        "list shipped f generators and weight functions",
        {"f": None, "g": None},
        cmd_catalog, _catalog_csv, tail=_catalog_tail,
    ),
}


def _emit(envelope: ReportEnvelope, config: RunConfig) -> None:
    command = _COMMANDS[config.command]
    if config.fmt == "json":
        text = json.dumps({**vars(envelope), "config": asdict(envelope.config)},
                          indent=2, sort_keys=True) + "\n"
    elif config.fmt == "csv":
        text = command.csv(envelope.payload)
    else:
        payload = envelope.payload
        text = "\n".join([*command.head(payload), command.csv(payload).rstrip("\n"),
                          *command.tail(payload)]) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontract",
        description=(
            "Quantum f-divergences, chi-square SDPI constants, detailed-balance "
            "checks, and contraction-rate experiments for finite-dimensional "
            "channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       dest="fmt", help="output format")
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = _COMMANDS[args.command]
    unread = [f"--{flag}" for flag in command.family_only
              if getattr(args, _FLAGS[flag]["dest"]) is not None]
    if unread and not args.families:
        raise InputError(
            f"{args.command} reads {', '.join(unread)} only together with --family"
        )
    values = {}
    for flag, default in command.flags.items():
        field = _FLAGS[flag]["dest"]
        value = getattr(args, field)
        value = default if value is None else value
        if value is not None:
            values[field] = tuple(value) if isinstance(value, list) else value
    config = RunConfig(command=args.command, fmt=args.fmt, out=args.out, **values)
    if not 1 <= config.n_max <= 32:
        raise InputError(f"--n-max must be in [1, 32], got {config.n_max}")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        config = _config_from_args(args)
        payload, search = _COMMANDS[args.command].run(config)
        diagnostics = {"db_tolerance": DB_TOL, "csv_schema": CSV_SCHEMA_VERSION,
                       **search}
        envelope = _build_envelope(config, payload, diagnostics, started)
        _emit(envelope, config)
        return 0
    except QcontractError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
