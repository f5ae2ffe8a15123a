"""qcontract command-line interface.

Subcommands: divergence, sdpi, db-check, experiment, catalog.  Every run
emits a ReportEnvelope; the results payload is deterministic for a given
config (timestamps live outside the payload hash).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalog import FAMILIES, f_catalog, g_catalog, gns_weight
from .channels import QuantumChannel, fixed_point
from .contraction import (
    CSV_SCHEMA_VERSION,
    DB_TOL,
    ExperimentOptions,
    VariationalOptions,
    carlen_maas_check,
    contraction_experiment,
    report_csv,
    report_payload,
    sdpi_chi2,
    sdpi_variational,
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


DEFAULT_SEED = 1729

__all__ = ["main", "RunConfig", "ReportEnvelope", "DEFAULT_SEED"]


@dataclass(frozen=True)
class RunConfig:
    """Echoable run configuration; reproduces the run bit-identically."""

    command: str
    channel: str | None
    rho: str | None
    sigma: str | None
    f_names: tuple
    g_names: tuple
    families: tuple
    n_max: int
    seed: int
    restarts: int
    fmt: str
    out: str | None


@dataclass(frozen=True)
class ReportEnvelope:
    version: str
    config: RunConfig
    payload: dict
    payload_sha256: str
    diagnostics: dict
    timestamps: dict


def _jsonsafe(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonsafe(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _build_envelope(config: RunConfig, payload: dict, diagnostics: dict,
                    started: str) -> ReportEnvelope:
    payload = _jsonsafe(payload)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return ReportEnvelope(
        version=__version__,
        config=config,
        payload=payload,
        payload_sha256=digest,
        diagnostics=_jsonsafe(diagnostics),
        timestamps={
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
        },
    )


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


def _resolve_f(names) -> dict:
    cat = f_catalog()
    out = {}
    for name in names:
        if name not in cat:
            raise InputError(
                f"unknown f name {name!r}; available: {', '.join(sorted(cat))}"
            )
        out[name] = cat[name]
    return out


def _resolve_g(names) -> dict:
    cat = g_catalog()
    out = {}
    for name in names:
        if name not in cat:
            raise InputError(
                f"unknown g name {name!r}; available: {', '.join(sorted(cat))}"
            )
        out[name] = cat[name]
    return out


def _check_families(families):
    for fam in families:
        if fam not in FAMILIES:
            raise InputError(
                f"unknown family {fam!r}; available: {', '.join(FAMILIES)}"
            )


def cmd_divergence(config: RunConfig) -> dict:
    rho = _load_state(config.rho, "rho")
    sigma = _load_state(config.sigma, "sigma")
    _check_families(config.families)
    specs = _resolve_f(config.f_names)
    if not config.families or not specs:
        raise InputError("need at least one --family and one --f")
    records = []
    for fname, spec in specs.items():
        for fam in config.families:
            result = evaluate(spec.with_family(fam), rho, sigma)
            records.append(
                {
                    "family": fam,
                    "f_name": fname,
                    "value": result.value,
                    "diagnostics": result.diagnostics,
                }
            )
    return {"results": records}


def cmd_sdpi(config: RunConfig) -> dict:
    channel = _load_channel(config)
    sigma, sigma_source = _reference_state(config, channel)
    gs = _resolve_g(config.g_names)
    records = []
    for gname, g in gs.items():
        est = sdpi_chi2(channel, sigma, g)
        records.append(
            {
                "family": "chi2",
                "g_name": gname,
                "value": est.value,
                "method": est.method,
                "diagnostics": {
                    "top_singular_value": est.top_eigenvalue_check,
                    **{
                        k: v
                        for k, v in est.diagnostics.items()
                        if k in ("fixed_point_error", "top_overlap", "warning")
                    },
                },
            }
        )
    if config.families:
        _check_families(config.families)
        specs = _resolve_f(config.f_names)
        opts = VariationalOptions(restarts=config.restarts, seed=config.seed)
        for fname, spec in specs.items():
            for fam in config.families:
                est = sdpi_variational(spec.with_family(fam), channel, sigma, opts)
                records.append(
                    {
                        "family": fam,
                        "f_name": fname,
                        "value": est.value,
                        "method": est.method,
                        "diagnostics": {
                            "restarts_used": est.restarts_used,
                            "valid_restarts": est.diagnostics.get("valid_restarts"),
                        },
                    }
                )
    return {
        "channel": channel.label,
        "sigma_source": sigma_source,
        "results": records,
    }


def cmd_db_check(config: RunConfig) -> dict:
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
    }


def cmd_experiment(config: RunConfig) -> dict:
    channel = _load_channel(config)
    _check_families(config.families)
    specs = _resolve_f(config.f_names)
    if not config.families or not specs:
        raise InputError("need at least one --family and one --f")
    families = [
        spec.with_family(fam) for spec in specs.values() for fam in config.families
    ]
    gs = list(_resolve_g(config.g_names).values())
    opts = ExperimentOptions(restarts=config.restarts, seed=config.seed)
    report = contraction_experiment(
        channel, families, gs, n_max=config.n_max, opts=opts
    )
    payload = report_payload(report)
    payload["csv"] = report_csv(report)
    return payload


def cmd_catalog(config: RunConfig) -> dict:
    f_filter = set(config.f_names) if config.f_names else None
    g_filter = set(config.g_names) if config.g_names else None
    f_records = [
        {
            "name": name,
            "operator_convex": spec.operator_convex,
            "pinsker_constant": spec.pinsker_constant,
        }
        for name, spec in sorted(f_catalog().items())
        if f_filter is None or name in f_filter
    ]
    g_records = [
        {
            "name": name,
            "standard_monotone": g.standard_monotone,
            "symmetry_convention": "g(1/x) = x g(x)",
        }
        for name, g in sorted(g_catalog().items())
        if g_filter is None or name in g_filter
    ]
    gns = gns_weight()
    if g_filter is None or gns.name in g_filter:
        g_records.append(
            {
                "name": gns.name,
                "standard_monotone": False,
                "symmetry_convention": "unweighted (g = 1)",
            }
        )
    return {"f": f_records, "g": g_records, "families": list(FAMILIES)}


_COMMANDS = {
    "divergence": cmd_divergence,
    "sdpi": cmd_sdpi,
    "db-check": cmd_db_check,
    "experiment": cmd_experiment,
    "catalog": cmd_catalog,
}


def _render_text(command: str, payload: dict) -> str:
    lines = []
    if command == "divergence":
        lines.append(f"{'family':<12}{'f':<12}{'value':>20}")
        for rec in payload["results"]:
            lines.append(
                f"{rec['family']:<12}{rec['f_name']:<12}{rec['value']:>20.12g}"
            )
    elif command == "sdpi":
        lines.append(f"channel: {payload['channel']}  (sigma: {payload['sigma_source']})")
        lines.append(f"{'kind':<12}{'name':<14}{'method':<16}{'eta':>18}")
        for rec in payload["results"]:
            name = rec.get("g_name") or f"{rec['family']}[{rec['f_name']}]"
            kind = "chi2_g" if "g_name" in rec else "f-divergence"
            lines.append(
                f"{kind:<12}{name:<14}{rec['method']:<16}{rec['value']:>18.12g}"
            )
    elif command == "db-check":
        lines.append(f"channel: {payload['channel']}  (sigma: {payload['sigma_source']})")
        for name, value in payload["residuals"].items():
            lines.append(f"  residual[{name}] = {value:.12g}")
        lines.append(
            f"verdict: {payload['verdict']}  "
            f"(max residual {payload['max_residual']:.12g}, tol {payload['tolerance']:g})"
        )
    elif command == "experiment":
        lines.append(f"channel: {payload['channel']}  dim={payload['dim']}")
        lines.append(
            f"n_max={payload['n_max']}  n0={payload['n0']}  "
            f"csv_schema={payload['csv_schema']}"
        )
        lines.append(payload["csv"].rstrip("\n"))
        rate = payload["verdicts"]["theorem_rate"]
        tight = payload["verdicts"]["tightness"]
        rate_word = "PASS" if rate["pass"] else "FAIL"
        if rate.get("vacuous"):
            rate_word += " (vacuous: convergence radius not reached)"
        lines.append(f"verdict rate-bound: {rate_word}")
        lines.append(f"verdict tightness: {'PASS' if tight['pass'] else 'FAIL'}")
        for label, entry in tight["per_family"].items():
            lines.append(
                f"  {label}: db_residual={entry['db_residual']:.3e} -> {entry['pass']}"
            )
    elif command == "catalog":
        lines.append("f-divergence generators:")
        for rec in payload["f"]:
            lines.append(
                f"  {rec['name']:<12} operator_convex={rec['operator_convex']} "
                f"pinsker_constant={rec['pinsker_constant']}"
            )
        lines.append("spectral weight functions:")
        for rec in payload["g"]:
            lines.append(
                f"  {rec['name']:<12} standard_monotone={rec['standard_monotone']} "
                f"({rec['symmetry_convention']})"
            )
        lines.append(f"families: {', '.join(payload['families'])}")
    return "\n".join(lines) + "\n"


def _render_csv(command: str, payload: dict) -> str:
    if command == "experiment":
        return payload["csv"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "divergence":
        writer.writerow(["family", "f_name", "value"])
        for rec in payload["results"]:
            writer.writerow([rec["family"], rec["f_name"], f"{rec['value']:.12g}"])
    elif command == "sdpi":
        writer.writerow(["family", "name", "method", "value"])
        for rec in payload["results"]:
            name = rec.get("g_name") or rec.get("f_name", "")
            writer.writerow(
                [rec["family"], name, rec["method"], f"{rec['value']:.12g}"]
            )
    elif command == "db-check":
        writer.writerow(["g_name", "residual"])
        for name, value in payload["residuals"].items():
            writer.writerow([name, f"{value:.12g}"])
        writer.writerow(["verdict", payload["verdict"]])
    elif command == "catalog":
        writer.writerow(["kind", "name", "flag"])
        for rec in payload["f"]:
            writer.writerow(["f", rec["name"], f"operator_convex={rec['operator_convex']}"])
        for rec in payload["g"]:
            writer.writerow(["g", rec["name"], f"standard_monotone={rec['standard_monotone']}"])
    return buf.getvalue()


def _emit(envelope: ReportEnvelope, config: RunConfig) -> None:
    if config.fmt == "json":
        text = json.dumps(asdict(envelope), indent=2, sort_keys=True) + "\n"
    elif config.fmt == "csv":
        text = _render_csv(config.command, envelope.payload)
    else:
        text = _render_text(config.command, envelope.payload)
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
    for name, helptext in (
        ("divergence", "evaluate f-divergence families on a pair of states"),
        ("sdpi", "exact chi-square and variational SDPI constants of a channel"),
        ("db-check", "detailed-balance residuals per weight function"),
        ("experiment", "contraction-rate experiment over channel powers"),
        ("catalog", "list shipped f generators and weight functions"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--channel", help="channel spec: JSON file path or inline JSON")
        p.add_argument("--rho", help="state: JSON file path or inline JSON")
        p.add_argument("--sigma", help="reference state: JSON file path or inline JSON")
        p.add_argument("--f", action="append", default=None, metavar="NAME",
                       help="f-divergence generator name (repeatable)")
        p.add_argument("--g", action="append", default=None, metavar="NAME",
                       help="spectral weight name (repeatable)")
        p.add_argument("--family", action="append", default=None, metavar="NAME",
                       help="divergence family: ht, petz, matsumoto (repeatable)")
        p.add_argument("--n-max", type=int, default=6, dest="n_max",
                       help="largest channel power for experiments (1..32)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for variational restarts and sampling")
        p.add_argument("--restarts", type=int, default=32,
                       help="variational restarts per estimate")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       dest="fmt", help="output format")
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if not 1 <= args.n_max <= 32:
        raise InputError(f"--n-max must be in [1, 32], got {args.n_max}")
    if args.restarts < 1:
        raise InputError(f"--restarts must be >= 1, got {args.restarts}")
    defaults = {
        "divergence": {"f": ("kl",), "family": FAMILIES, "g": ()},
        "sdpi": {"f": ("kl",), "family": (), "g": tuple(sorted(g_catalog()))},
        "db-check": {"f": (), "family": (), "g": ()},
        "experiment": {"f": ("kl",), "family": FAMILIES,
                       "g": tuple(sorted(g_catalog()))},
        "catalog": {"f": None, "family": (), "g": None},
    }[args.command]

    def pick(value, default):
        return tuple(value) if value is not None else (
            tuple(default) if default is not None else ()
        )

    return RunConfig(
        command=args.command,
        channel=args.channel,
        rho=args.rho,
        sigma=args.sigma,
        f_names=pick(args.f, defaults["f"]),
        g_names=pick(args.g, defaults["g"]),
        families=pick(args.family, defaults["family"]),
        n_max=args.n_max,
        seed=args.seed,
        restarts=args.restarts,
        fmt=args.fmt,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        config = _config_from_args(args)
        payload = _COMMANDS[args.command](config)
        diagnostics = {"db_tolerance": DB_TOL, "csv_schema": CSV_SCHEMA_VERSION}
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
