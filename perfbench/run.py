"""qcontract benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload library_calls --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for why each exists): experiment_qubit,
sdpi_qutrit, library_calls.  All are closed-loop with one caller: this
process makes one call at a time on one thread.

Before timing, round 0 runs once untimed: it warms the library's lazy
imports and caches, and its outputs are the reference for the
determinism check.  A run keeps going past --seconds until it has
visited every input of the workload's cycle, and the timings are
averaged per input first, so that every seed weighs the same work.
BLAS runs on one thread: the benchmark has one caller, and idle BLAS
threads spinning on a small shared host only add noise.

The host's speed drifts by up to 2x over minutes, so every timing that
is an end-to-end metric (norm_wall_s, norm_op_p50_ms, norm_ops_per_s and
setup_s) is scaled to a reference host speed by a calibration kernel
timed between rounds (calibrate.py).  The raw timings (wall_s, op_p50_ms,
ops_per_s, and set-up in plain seconds) are printed and recorded beside
them.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
runs the same ops twice, first untraced and then traced, checks that both
give the same outputs, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit and the machine it ran on.  A copy of the result
(and, when traced, the spans) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

# before numpy is imported, here and in the set-up probes that inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from calibrate import CAL_EVERY_S, CAL_REF_S, Calibration  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

#: set-up is measured this many times, in fresh interpreters, and the median kept
SETUP_SAMPLES = 7

# Set-up as a fresh process pays it: import the library and the workload
# module, then generate the inputs.  Prints the elapsed seconds and then
# the calibration kernel's time in the same process.
SETUP_PROBE = """
import sys, tempfile, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qcontract
from workloads import WORKLOADS
with tempfile.TemporaryDirectory(dir=sys.argv[5]) as tmp:
    WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), tmp)
elapsed = time.perf_counter() - t0
from calibrate import Calibration
cal = Calibration()
cal.sample()
print(elapsed, cal.chunk_s())
"""


def fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def blas_info() -> dict:
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes

    info = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def environment() -> dict:
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_info(),
        "machine": platform.machine(),
        "QCONTRACT_THREADS": os.environ.get("QCONTRACT_THREADS"),
    }


def measure_setup(workload: str, seed: int) -> list:
    env = {k: v for k, v in os.environ.items() if k != "QCONTRACT_THREADS"}
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, BENCH_DIR, workload, str(seed), RESULTS],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        elapsed, chunk = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append((elapsed, chunk))
    return samples


def summarize(keys, round_times, op_latencies) -> dict:
    """wall_s, op_p50_s and ops_per_s of rounds.

    Every key weighs the same, however often it ran: wall_s is the mean
    over keys of each key's mean round time, ops_per_s the ops of one pass
    over the keys divided by that pass's time, and op_p50_s the median over
    distinct ops of each op's median latency.  Round times are averaged,
    not medianed: the host switches between speeds, and a median over
    rounds drawn from both jumps between them where the mean moves smoothly.
    """
    times: dict[int, list] = {}
    ops: dict[int, list] = {}
    for key, t, lat in zip(keys, round_times, op_latencies):
        times.setdefault(key, []).append(t)
        ops.setdefault(key, []).append(lat)
    pass_time = sum(statistics.fmean(t) for t in times.values())
    typical = [np.median(np.array(visits), axis=0) for visits in ops.values()]
    return {
        "wall_s": pass_time / len(times),
        "op_p50_s": float(np.median(np.concatenate(typical))),
        "ops_per_s": sum(len(t) for t in typical) / pass_time,
    }


class Phase:
    """Runs rounds of a workload's ops and records latency and outputs.

    Round k runs the workload's inputs number k % cycle.  The outputs of
    each distinct round are kept once; a repeat that gives different
    outputs is recorded as nondeterministic, so memory stays flat however
    many rounds fit in the run.
    """

    def __init__(self, workload, inputs, cal: Calibration | None = None):
        self.workload = workload
        self.inputs = inputs
        self.cal = cal
        self.op_latency = array("d")
        self.round_time = array("d")
        self.round_key = array("l")
        self.round_ops: list[array] = []  # op latencies of each round
        self.outputs: dict[int, list] = {}  # round key -> [(label, output, error)]
        self.runs: dict[int, int] = {}  # round key -> times run
        self.nondeterministic: list[str] = []
        self.elapsed = 0.0

    def run_round(self, k: int) -> None:
        perf = time.perf_counter
        outs = []
        latency = array("d")
        t_round = perf()
        for op in self.workload.rounds(self.inputs, k):
            t0 = perf()
            try:
                out, err = op.fn(), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency.append(perf() - t0)
            outs.append((op.label, out, err))
        key = k % self.workload.cycle
        self.round_time.append(perf() - t_round)
        self.round_key.append(key)
        self.round_ops.append(latency)
        self.op_latency.extend(latency)
        if key in self.outputs:
            self.nondeterministic += [a[0] for a, b in zip(outs, self.outputs[key]) if a != b]
        else:
            self.outputs[key] = outs
        self.runs[key] = self.runs.get(key, 0) + 1

    def run_for(self, seconds: float) -> None:
        """Rounds until ``seconds`` have passed and every key has been run,
        sampling the calibration kernel every CAL_EVERY_S between rounds
        and once after the last."""
        perf = time.perf_counter
        t0 = perf()
        last_cal = -CAL_EVERY_S
        k = 0
        while perf() - t0 < seconds or k < self.workload.cycle:
            if perf() - last_cal >= CAL_EVERY_S:
                self.cal.sample()
                last_cal = perf()
            self.run_round(k)
            k += 1
        self.cal.sample()
        self.elapsed = perf() - t0

    def run_rounds(self, n: int) -> None:
        t0 = time.perf_counter()
        for k in range(n):
            self.run_round(k)
        self.elapsed = time.perf_counter() - t0

    def raw(self) -> dict:
        """Timings in plain seconds."""
        return summarize(self.round_key, self.round_time, self.round_ops)

    def failures(self) -> list:
        """(label, reason, times run) of each op that raised, returned NaN or
        failed its correctness check."""
        failed = []
        for key, outs in self.outputs.items():
            for label, out, err in outs:
                reason = err if err is not None else self.workload.check(self.inputs, label, out)
                if reason is not None:
                    failed.append((label, reason, self.runs[key]))
        return failed


def end_to_end(phase: Phase, setup_samples: list) -> dict:
    """The end-to-end metrics: timings at the reference host speed."""
    # read before the statistics below allocate their arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = phase.raw()
    factor = phase.cal.factor()
    return {
        "setup_s": (statistics.median(t * CAL_REF_S / c for t, c in setup_samples), "s"),
        "norm_wall_s": (raw["wall_s"] * factor, "s"),
        "norm_op_p50_ms": (raw["op_p50_s"] * factor * 1e3, "ms"),
        "norm_ops_per_s": (raw["ops_per_s"] / factor, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def tail_latency(phase: Phase) -> dict | None:
    """p99 op latency, reported only where at least ten ops lie beyond it.

    The search workloads make about a dozen ops in a run, too few for a
    p99, so it is printed and recorded but is not an end-to-end metric.
    """
    if len(phase.op_latency) < 1000:
        return None
    return {"op_p99_ms": statistics.quantiles(phase.op_latency, n=100)[98] * 1e3,
            "ops": len(phase.op_latency)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qcontract", "__init__.py")):
        fail(f"no qcontract sources under {SRC}; run from a full checkout")
    # the thread pool is opt-in through this variable; measure the serial path
    os.environ.pop("QCONTRACT_THREADS", None)
    os.makedirs(RESULTS, exist_ok=True)

    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup_samples = measure_setup(args.workload, args.seed)

    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        inputs = workload.setup(args.seed, workdir)
        # warm-up, untimed; its outputs are the determinism reference
        warm = Phase(workload, inputs)
        warm.run_round(0)
        phase = Phase(workload, inputs, Calibration())
        tracer = None
        if args.trace == 0:
            phase.run_for(args.seconds)
            values = end_to_end(phase, setup_samples)
            phases = [phase]
        else:
            from spans import Tracer, layer_metrics, unit_of

            phase.run_for(args.seconds / 2)
            traced = Phase(workload, inputs)
            tracer = Tracer()
            tracer.install()
            try:
                root = tracer.open("bench.run")
                traced.run_rounds(len(phase.round_time))
                tracer.close(root)
            finally:
                tracer.uninstall()
            phases = [phase, traced]
            layers = layer_metrics(tracer)
            wall_plain = phase.raw()["wall_s"]
            wall_traced = traced.raw()["wall_s"]
            layers["bench.trace.untraced_wall_s"] = wall_plain
            layers["bench.trace.traced_wall_s"] = wall_traced
            layers["bench.trace.overhead_s"] = wall_traced - wall_plain
            layers["bench.host.cal_chunk_s"] = phase.cal.chunk_s()
            layers["bench.trace.accounted_frac"] = (
                sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
                / traced.elapsed)
            values = {k: (v, unit_of(k)) for k, v in layers.items()}

        notes = []
        if args.trace and traced.outputs != phase.outputs:
            notes.append("traced outputs differ from untraced outputs")
        # determinism: the timed rounds must repeat the warm-up's outputs
        notes += [f"op {a[0]} gave a different output when repeated"
                  for a, b in zip(warm.outputs[0], phase.outputs[0]) if a != b]
        for p in phases:
            notes += [f"op {label} gave a different output when repeated"
                      for label in p.nondeterministic]
        failures = [f for p in phases for f in p.failures()]

    attempted = sum(len(p.op_latency) for p in phases)
    failed = sum(times for _, _, times in failures)
    result = {
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "raw": phase.raw(),
              "round_times_s": list(phase.round_time),
              "cal_moments_s": list(phase.cal.moments),
              "setup_samples_s": setup_samples, "tail": tail_latency(phase),
              "failed_ops_frac": failed / attempted,
              "failures": failures[:20], "notes": notes, **result}
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for label, reason, times in failures[:20]:
        print(f"# FAILED {label} (x{times}): {reason}")
    for note in notes:
        print(f"# FAILED {note}")
    print(f"failed_ops_frac = {record['failed_ops_frac']:.6g}  "
          f"({failed} of {attempted} ops)")
    setup_raw = statistics.median(t for t, _ in setup_samples)
    print(f"host: calibration kernel {phase.cal.chunk_s() * 1e3:.4g} ms "
          f"(reference {CAL_REF_S * 1e3:g} ms); set-up {setup_raw:.4g} s raw")
    raw = phase.raw()
    print(f"wall_s = {raw['wall_s']:.6g} s  op_p50_ms = {raw['op_p50_s'] * 1e3:.6g} ms  "
          f"ops_per_s = {raw['ops_per_s']:.6g} 1/s  (raw, untraced)")
    if record["tail"] is not None:
        print(f"op_p99_ms = {record['tail']['op_p99_ms']:.6g} ms  "
              f"(raw, untraced, over {record['tail']['ops']} ops)")
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
