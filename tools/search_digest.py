"""Print every variational SDPI search of the benchmark pools and of the
default CLI experiments, with its value, ratio calls, iterations and stop
reasons, and the output of every public call of the ``library_calls``
benchmark, as one JSON document; or compare two such documents.

Usage, from the repository root:

    python3 tools/search_digest.py [--tree DIR] [--sections a,b] > digest.json
    python3 tools/search_digest.py --compare before.json after.json

``--tree`` names the checkout whose ``src/`` and ``perfbench/`` are
imported (default: this one), so the same script digests another commit
extracted with ``git archive``.  The sections are:

* ``sdpi_qutrit`` and ``experiment_qubit``: one round over the whole pool
  of the benchmark workload of that name, made by the workload's own
  ``setup`` and ``rounds`` (``perfbench/workloads.py``, imported as is);
* ``cli``: ``qcontract experiment`` at its defaults (kl under ht, petz and
  matsumoto, g max and kmb, n_max 6, 32 restarts) on depolarizing(0.5),
  random_channel(2, seed=1) and random_channel(3, seed=1), the last taking
  about 5-10 s on a 2-core x86 host, and with chi2 under ht, petz and
  matsumoto (g max, n_max 3) on random_channel(3, seed=1), whose searches
  run on the chi-square forms of the families' weights; then
  ``qcontract sdpi`` on
  random_channel(3, seed=1) (kl under ht, petz and matsumoto, g max,
  4 restarts) and on random_channel(2, seed=1) (hellinger and chi2 under
  ht, g max, 4 restarts), the one run whose searches go through the ht
  quadrature, and on random_channel(3, seed=1) at the explicit sigma
  diag(0.5, 0.3, 0.2), which that channel does not fix (chi2 under petz,
  g max, 4 restarts);
* ``library_calls``: one round of that benchmark workload's single public
  calls (evaluate, chi2_g, fixed_point, is_primitive, sdpi_chi2,
  carlen_maas_check), made the same way, each recorded with its label and
  its output as a flat list of numbers (real parts, then imaginary parts).

A search is recorded once, with its own diagnostics, at the wave entry
``contraction._sdpi_searches``, which every search runs through.  ``--compare``
pairs the searches of two digests by (channel, objective, occurrence),
lists those only one side ran as ``dropped`` or ``added``, and prints,
per section, the ratio calls on both sides, the capped (``max_iters``)
restarts, how many paired searches ended higher, lower or equal, and the
largest relative moves of the values; for ``library_calls`` it pairs the
calls by label and prints how many outputs are equal bit for bit and the
largest relative move of any number.

The ``cli`` and ``experiment_qubit`` sections also record each
experiment payload's eta_f per family label and n under ``eta_f``, and
``--compare`` prints, per label, how many values are equal and the
largest relative move: this bounds a label whose value comes from
another label's search, which no search digest shows.

The digest also records the wall seconds of each ``cli`` fixture run under
``cli_wall_s``, outside the sections, so no comparison of values reads them;
``--compare`` prints them side by side, which makes a pair of digests of
two trees a paired timing of the CLI runs.  Under ``payloads`` it
records, per ``cli`` and ``experiment_qubit`` section, each envelope the
CLI built: its command, channel and payload SHA-256, and for an
experiment its ``n0`` and the ``sample_max_dev`` of each row.
``--compare`` lists them per run as ``<section>_payloads``: whether the
hashes are equal, n0 on both sides and the largest relative move of
``sample_max_dev``, which bounds a declared move of those fields.

``--compare`` opens with ``identical``, the verdict for a change meant to
move nothing: true only when both digests hold the same sections, no
search is dropped or added, every paired search has the same value and
ratio calls, and every eta_f, library_calls output and payload hash is
equal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTIONS = ("sdpi_qutrit", "experiment_qubit", "cli", "library_calls")
#: depolarizing(0.5), random_channel(2, seed=1) and random_channel(3, seed=1)
CLI_FIXTURES = (
    {"kind": "depolarizing", "p": 0.5},
    {"kind": "random", "dim": 2, "seed": 1},
    {"kind": "random", "dim": 3, "seed": 1},
)
FAMILIES = ["--family", "ht", "--family", "petz", "--family", "matsumoto"]
KL_FAMILIES = ["--f", "kl", *FAMILIES]
#: the ``qcontract experiment`` runs of the ``cli`` section: kl at the
#: defaults on each CLI fixture, then chi2 under every family on the qutrit one
EXPERIMENT_FIXTURES = tuple((spec, [*KL_FAMILIES, "--g", "max", "--g", "kmb"])
                            for spec in CLI_FIXTURES) + (
    ({"kind": "random", "dim": 3, "seed": 1},
     [*FAMILIES, "--f", "chi2", "--g", "max", "--n-max", "3"]),
)
#: the ``qcontract sdpi`` runs of the ``cli`` section, after the experiments
SDPI_FIXTURES = (
    ({"kind": "random", "dim": 3, "seed": 1}, [*KL_FAMILIES, "--g", "max", "--restarts", "4"]),
    ({"kind": "random", "dim": 2, "seed": 1},
     ["--family", "ht", "--f", "hellinger", "--f", "chi2", "--g", "max", "--restarts", "4"]),
    # the exact chi2_max constant at a sigma the channel does not fix, beside
    # the petz[chi2] search that bounds it
    ({"kind": "random", "dim": 3, "seed": 1},
     ["--sigma", "[[0.5,0,0],[0,0.3,0],[0,0,0.2]]", "--family", "petz", "--f", "chi2",
      "--g", "max", "--restarts", "4"]),
)


def _wrap(module, name: str, record):
    """Replace ``module.name`` by a function that calls it and passes its
    arguments and result to ``record``.  Returns a function that undoes
    the wrapping."""
    inner = getattr(module, name)

    def traced(*args):
        out = inner(*args)
        record(*args, out)
        return out

    setattr(module, name, traced)
    return lambda: setattr(module, name, inner)


def _record(contraction, log: list):
    """Wrap ``contraction._sdpi_searches``, the entry of every search, so
    that each search appends its digest, with the search counters, to
    ``log``.  Returns a function that undoes the wrapping."""
    def record(channel, sigma, searches, estimates):
        for est in estimates:
            diag = est.diagnostics
            log.append({
                "channel": channel.label,
                "objective": diag["objective"],
                "value": est.value,
                "raw_best": diag["raw_best"],
                "iterations": diag["restart_iterations"],
                "stops": diag["restart_stops"],
                **{key: diag[key] for key in contraction.COUNTERS},
            })

    return _wrap(contraction, "_sdpi_searches", record)


def _record_payloads(cli, log: list):
    """Wrap ``cli._build_envelope``, which hashes every payload the CLI
    emits, so that each envelope appends its command, channel and payload
    hash, and for an experiment its n0 and sample_max_dev, to ``log``.
    Returns a function that undoes the wrapping."""
    def record(config, payload, diagnostics, started, envelope):
        rows = envelope.payload.get("rows", [])
        log.append({"command": config.command, "channel": envelope.payload["channel"],
                    "payload_sha256": envelope.payload_sha256,
                    "n0": envelope.payload.get("n0"),
                    "sample_max_dev": [row["sample_max_dev"] for row in rows]})

    return _wrap(cli, "_build_envelope", record)


def _pool(workloads, name: str, workdir: str) -> list:
    """One round over the whole pool of a benchmark workload; returns the
    label and output of each op."""
    work = workloads.WORKLOADS[name]
    inputs = work.setup(1, workdir)
    outputs = []
    for k in range(work.cycle):
        for op in work.rounds(inputs, k):
            out = op.fn()
            problem = work.check(inputs, op.label, out)
            if problem:
                raise SystemExit(f"{name} {op.label}: {problem}")
            outputs.append((op.label, out))
    return outputs


def _numbers(out) -> list:
    """The numbers of an op's output (a dict's values in order), as the
    real parts and then the imaginary parts."""
    x = np.asarray(list(out.values()) if isinstance(out, dict) else out, complex).ravel()
    return np.concatenate([x.real, x.imag]).tolist()


def _cli(cli, workdir: str) -> tuple:
    """Run the ``experiment`` fixtures, then the ``sdpi`` fixtures; returns
    the wall seconds of each run and the eta_f of each experiment payload,
    per label and n."""
    out = os.path.join(workdir, "payload.json")
    runs = ([("experiment", *run) for run in EXPERIMENT_FIXTURES]
            + [("sdpi", *run) for run in SDPI_FIXTURES])
    walls, etas = [], []
    for command, spec, args in runs:
        argv = [command, "--channel", json.dumps(spec), *args, "--format", "json", "--out", out]
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"qcontract {command} failed on {spec}")
        walls.append({"command": command, "channel": spec,
                      "wall_s": time.perf_counter() - start})
        with open(out, encoding="utf-8") as fh:
            envelope = json.load(fh)
        payload = envelope["payload"]
        if command == "experiment":
            etas.append({"channel": payload["channel"],
                         "eta_f": {label: [row["eta_f"][label] for row in payload["rows"]]
                                   for label in payload["family_labels"]}})
    return walls, etas


def digest(tree: str, sections) -> dict:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import qcontract.cli as cli
    import qcontract.contraction as contraction
    import workloads

    result = {"tree": os.path.abspath(tree), "counters": list(contraction.COUNTERS),
              "sections": {}, "eta_f": {}, "payloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for section in sections:
            log, payloads = [], []
            undos = [_record(contraction, log)]
            if section in ("cli", "experiment_qubit"):
                result["payloads"][section] = payloads
                undos.append(_record_payloads(cli, payloads))
            try:
                if section == "cli":
                    result["cli_wall_s"], result["eta_f"][section] = _cli(cli, workdir)
                elif section == "library_calls":
                    log = [{"label": label, "output": _numbers(out)}
                           for label, out in _pool(workloads, section, workdir)]
                else:
                    outputs = _pool(workloads, section, workdir)
                    if section == "experiment_qubit":
                        result["eta_f"][section] = [{"channel": label, "eta_f": out["eta_f"]}
                                                    for label, out in outputs]
            finally:
                for undo in undos:
                    undo()
            result["sections"][section] = log
    return result


def _capped(log) -> int:
    return sum(stops.count("max_iters") for stops in (s["stops"] for s in log))


def _rel_move(a: float, b: float) -> float:
    """The move from a to b relative to a, or absolute when a is 0."""
    return (b - a) / abs(a) if a else b - a


def _compare_outputs(old: list, new: list) -> dict:
    """How many ``library_calls`` outputs are equal, and the largest move."""
    if [a["label"] for a in old] != [b["label"] for b in new] or any(
            len(a["output"]) != len(b["output"]) for a, b in zip(old, new)):
        raise SystemExit("library_calls: the two digests hold different calls")
    moves = [max(abs(m) for m in map(_rel_move, a["output"], b["output"]))
             for a, b in zip(old, new)]
    return {"calls": len(old),
            "equal_outputs": sum(a["output"] == b["output"] for a, b in zip(old, new)),
            "max_rel_move": max(moves)}


def _keyed(log) -> dict:
    """The searches of a log keyed by (channel, objective, occurrence): the
    k-th search of an objective on a channel pairs with the k-th on the
    other side, whatever other searches either side ran."""
    seen, keyed = Counter(), {}
    for s in log:
        pair = (s["channel"], s["objective"])
        keyed[(*pair, seen[pair])] = s
        seen[pair] += 1
    return keyed


def _one_side(keyed: dict, keys) -> list:
    return [{"channel": k[0], "objective": k[1], "occurrence": k[2],
             "calls": keyed[k]["ratio_calls"]} for k in keys]


def _compare_searches(old: list, new: list) -> dict:
    """Calls, capped restarts and value moves of the searches both sides
    ran; the searches only one side ran are listed as ``dropped`` (before
    only) or ``added`` (after only)."""
    a_keyed, b_keyed = _keyed(old), _keyed(new)
    both = [k for k in a_keyed if k in b_keyed]
    pairs = [(a_keyed[k], b_keyed[k]) for k in both]
    moves = [_rel_move(a["value"], b["value"]) for a, b in pairs]
    return {
        "searches": [len(old), len(new)],
        "paired": len(pairs),
        "same_value_and_calls": sum(a["value"] == b["value"] and a["ratio_calls"] == b["ratio_calls"]
                                    for a, b in pairs),
        "dropped": _one_side(a_keyed, [k for k in a_keyed if k not in b_keyed]),
        "added": _one_side(b_keyed, [k for k in b_keyed if k not in a_keyed]),
        "ratio_calls": [sum(s["ratio_calls"] for s in old),
                        sum(s["ratio_calls"] for s in new)],
        "searches_with_fewer_calls": sum(b["ratio_calls"] < a["ratio_calls"] for a, b in pairs),
        "capped_restarts": [_capped(old), _capped(new)],
        "higher_lower_equal": [sum(m > 0 for m in moves), sum(m < 0 for m in moves),
                               sum(m == 0 for m in moves)],
        "max_rel_rise": max(moves, default=0.0),
        "max_rel_fall": min(moves, default=0.0),
        "moves": [{"channel": k[0], "objective": k[1], "occurrence": k[2],
                   "stops": [a["stops"].count("max_iters"), b["stops"].count("max_iters")],
                   "calls": [a["ratio_calls"], b["ratio_calls"]], "rel_move": m}
                  for k, (a, b), m in zip(both, pairs, moves)],
    }


def _compare_eta(old: list, new: list) -> dict:
    """Per family label, over every channel and n both payload lists hold:
    how many eta_f values are equal bit for bit and the largest relative
    move, so a label whose value comes from another label's search is
    bounded too."""
    after = {(p["channel"], label): etas for p in new for label, etas in p["eta_f"].items()}
    report = {}
    for p in old:
        for label, etas in p["eta_f"].items():
            entry = report.setdefault(label, {"values": 0, "equal": 0, "max_abs_rel_move": 0.0})
            for a, b in zip(etas, after.get((p["channel"], label), [])):
                entry["values"] += 1
                entry["equal"] += a == b
                entry["max_abs_rel_move"] = max(entry["max_abs_rel_move"],
                                                abs(_rel_move(a, b)))
    return report


def _compare_payloads(old: list, new: list) -> list:
    """Per CLI run, in order: whether the payload hashes are equal, n0 on
    both sides and the largest relative move of sample_max_dev."""
    return [{"command": a["command"], "channel": a["channel"],
             "payload_sha256_equal": a["payload_sha256"] == b["payload_sha256"],
             "n0": [a["n0"], b["n0"]],
             "sample_max_dev_max_rel_move": max(
                 map(abs, map(_rel_move, a["sample_max_dev"], b["sample_max_dev"])),
                 default=0.0)}
            for a, b in zip(old, new)]


def _identical(before: dict, after: dict, report: dict) -> bool:
    """Whether ``after`` is ``before`` bit for bit: the same sections, no
    search dropped or added, every paired search with the same value and
    ratio calls, and every library_calls output, eta_f value and payload
    hash equal."""
    if before["sections"].keys() != after["sections"].keys():
        return False
    for section in before["sections"]:
        entry = report[section]
        if section == "library_calls":
            same = entry["equal_outputs"] == entry["calls"]
        else:
            same = (not entry["dropped"] and not entry["added"]
                    and entry["same_value_and_calls"] == entry["paired"])
        if not same:
            return False
    def hashes(digest: dict) -> dict:
        return {section: [p["payload_sha256"] for p in runs]
                for section, runs in digest.get("payloads", {}).items()}

    return before.get("eta_f") == after.get("eta_f") and hashes(before) == hashes(after)


def compare(before: dict, after: dict) -> dict:
    """Whether ``after`` is ``before`` bit for bit (``identical``, see
    :func:`_identical`); per section: calls, capped restarts and value
    moves from ``before`` to ``after``; for ``library_calls``, equal outputs
    and the largest move; the eta_f moves per family label of the ``cli``
    and ``experiment_qubit`` payloads; the wall seconds of each ``cli``
    fixture run on both sides; and per CLI run of the ``cli`` and
    ``experiment_qubit`` sections, its payload hash, n0 and sample_max_dev
    moves (:func:`_compare_payloads`)."""
    report = {}
    if "cli_wall_s" in before and "cli_wall_s" in after:
        report["cli_wall_s"] = [{"command": a.get("command"), "channel": a["channel"],
                                 "wall_s": [a["wall_s"], b["wall_s"]]}
                                for a, b in zip(before["cli_wall_s"], after["cli_wall_s"])]
    for section, old in before["sections"].items():
        new = after["sections"].get(section)
        if new is None:
            continue
        if section == "library_calls":
            report[section] = _compare_outputs(old, new)
        else:
            report[section] = _compare_searches(old, new)
    for section, old in before.get("eta_f", {}).items():
        new = after.get("eta_f", {}).get(section)
        if new is not None:
            report[f"{section}_eta_f"] = _compare_eta(old, new)
    for section, old in before.get("payloads", {}).items():
        new = after.get("payloads", {}).get(section)
        if new is not None:
            report[f"{section}_payloads"] = _compare_payloads(old, new)
    return {"identical": _identical(before, after, report), **report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT,
                        help="checkout whose src/ and perfbench/ are digested")
    parser.add_argument("--sections", default=",".join(SECTIONS),
                        help=f"comma-separated subset of {', '.join(SECTIONS)}")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two digests instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        with open(args.compare[0], encoding="utf-8") as a, \
                open(args.compare[1], encoding="utf-8") as b:
            out = compare(json.load(a), json.load(b))
    else:
        sections = [s for s in args.sections.split(",") if s]
        unknown = set(sections) - set(SECTIONS)
        if unknown:
            parser.error(f"unknown sections {sorted(unknown)}")
        out = digest(args.tree, sections)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
