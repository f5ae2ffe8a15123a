"""Run the benchmark on a parent commit and on the working tree in
alternating pairs, and write the results as one BENCH_<tag>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --tag search_batch \
        --workload sdpi_qutrit --seeds 1-10 [--trace-seed 11]

Each side runs from its own temporary directory: the parent is extracted
with ``git archive``, and the working tree (with uncommitted edits) is
copied file by file from ``git ls-files``.  So both sides hold only
tracked files, nothing is written under the repository's ``perfbench/``,
and the repository's git metadata is not touched.  For each workload and
seed, the benchmark's command (``perfbench/run.py``) runs once per side
with ``--trace 0`` and the run length ``run_seconds`` of BENCHMARK.json:
an odd seed runs the parent first, an even seed the change first, so a
drift of the host's speed does not favour one side.  ``--trace-seed``
adds one traced run (``--trace 1``) per side and workload.

The output has the schema of the committed BENCH_*.json files: ``what``,
``command``, ``parent_commit``, ``sides`` (every result record, per side)
and ``summary``.  Per workload, the summary gives each end-to-end metric's
median, quartiles and count on both sides and ``change_wins``, the number
of seeds on which the change was better (direction from BENCHMARK.json),
plus the failed-op totals; a traced workload ``W`` gets ``W_trace`` with
the per-layer metrics of both traced runs.  Each metric also states the
acceptance rule of a performance change:

* ``gain_rule``: the change was better on at least nine tenths of the
  seeds, and its median is better than the parent's by more than the
  parent's interquartile range, so a gain may be claimed;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's relative ``bound`` in BENCHMARK.json, so it is
  no regression.

The default ten seeds are the fewest pairs the rule counts on.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract_commit(rev: str, dest: str) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_working_tree(dest: str) -> None:
    """Copy every tracked file of the working tree, as it is on disk, into ``dest``."""
    for rel in git("ls-files", "-z").decode().split("\0"):
        src = os.path.join(ROOT, rel)
        if rel and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(command: list, seconds: str, tree: str, workload: str, seed: int,
             trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree}:\n{proc.stderr[-2000:]}")
    path = os.path.join(tree, "perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def acceptance(parent: dict, change: dict, wins: int, n: int, direction: str,
               bound: float) -> dict:
    """The gain rule and the regression bound on one metric's quartiles."""
    sign = 1.0 if direction == "lower" else -1.0
    # positive when the change is better
    gain = sign * (parent["median"] - change["median"])
    return {"gain_rule": bool(wins >= 0.9 * n and gain > parent["q3"] - parent["q1"]),
            "within_bound": bool(-gain <= bound * abs(parent["median"]))}


def summarize(sides: dict, better: dict, bounds: dict) -> dict:
    summary = {}
    workloads = dict.fromkeys(r["workload"] for r in sides["parent"])
    for w in workloads:
        runs = {side: {r["seed"]: r for r in recs if r["workload"] == w and r["trace"] == 0}
                for side, recs in sides.items()}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        entry = {}
        for name, direction in better.items():
            vals = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds]
                    for side in runs}
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            entry[name] = {side: quartiles(v) for side, v in vals.items()}
            entry[name]["change_wins"] = f"{wins}/{len(seeds)}"
            entry[name].update(acceptance(entry[name]["parent"], entry[name]["change"], wins,
                                          len(seeds), direction, bounds[name]))
        entry["failed"] = {side: sum(runs[side][s]["failed"] for s in seeds) for side in runs}
        summary[w] = entry
        traced = {side: [r for r in recs if r["workload"] == w and r["trace"] == 1]
                  for side, recs in sides.items()}
        if traced["parent"] and traced["change"]:
            summary[f"{w}_trace"] = {
                side: {k: m["value"] for k, m in recs[0]["metrics"].items()}
                for side, recs in traced.items()}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,7")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--workdir", default=None,
                        help="where the two temporary trees go (default: system temp)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    command, seconds = bench["command"], f"{bench['run_seconds']:g}"
    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        commit = extract_commit(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        jobs = [(w, s, 0) for w in args.workload for s in parse_seeds(args.seeds)]
        if args.trace_seed is not None:
            jobs += [(w, args.trace_seed, 1) for w in args.workload]
        for w, seed, trace in jobs:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                rec = run_once(command, seconds, trees[side], w, seed, trace)
                sides[side].append(rec)
                print(f"{w} seed {seed} trace {trace} {side}: "
                      f"{json.dumps({k: round(m['value'], 6) for k, m in rec['metrics'].items() if k in better})}",
                      flush=True)

    out = {
        "what": ("perfbench runs of the parent commit and of the change, same machine, "
                 "alternating order per seed (odd seed: parent first)"),
        "command": " ".join(command + ["--workload W --seed N --seconds", seconds,
                                       "--trace T"]),
        "parent_commit": commit,
        "sides": sides,
        "summary": summarize(sides, better, bounds),
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
