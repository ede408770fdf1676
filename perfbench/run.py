"""crlab benchmark: end-to-end and per-layer metrics of the paper's ensemble runs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a checkout; the workers import crlab from ./src.
Workloads: invariance-wn16, invariance-eig4, cauchy-hol64, concentration
(see workloads.py).  A run starts fresh worker processes one after another
(worker.py): an untraced run two that only set up, then one that sets up
and drives the workload through ``crlab.cli.run`` for T seconds; a traced
run only the last.  Every output is checked against reference.json
(checks.py).

--trace 0 prints the end-to-end metrics:
  samples_per_s  ensemble samples through to a checked output per second,
                 the median over the run's invocations
  setup_s        fresh process to ready (import, tensor cache, warm-up),
                 the median of three processes
  peak_rss_mb    peak resident memory of the workload's process
--trace 1 prints the per-layer metrics of tracer.py and the tracing
overhead.  Both print error_rate, the failed share of attempted
invocations, and end with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTDIR = os.path.join(ROOT, ".perfbench")  # per-run outputs and span files
SETUP_PROCESSES = 3  # the workload's own process and two set-up-only ones
BUDGET_S = 170.0     # a run must end within 180 s


# the metrics of a traced run, by name, with their units
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _) in tracer.METRICS.items()},
    "trace.untraced_samples_per_s": "1/s",
    "trace.traced_samples_per_s": "1/s",
    "trace.overhead_pct": "%",
    "error_rate": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(workload, seed, seconds, trace, workdir, n, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--workdir", workdir]
    if n is not None:
        cmd += ["--n", str(n)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the {BUDGET_S:g} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(workload, seed, seconds, trace, n=None):
    """One benchmark run; returns (result line, human-readable lines)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "crlab", "cli.py")):
        raise BenchError(f"no crlab sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(OUTDIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probes = [] if trace else [
            worker(workload, seed, seconds, trace, workdir, n, True, deadline)
            for _ in range(SETUP_PROCESSES - 1)
        ]
        main = worker(workload, seed, seconds, trace, workdir, n, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = probes + [main]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    error_rate = failed / attempted
    prov = main["provenance"]["workload"]
    lines = [f"workload {workload}: n={prov['n']} per invocation "
             f"(paper n={prov['paper_n']}, scale {prov['scale']:g}), seed {seed}",
             "provenance " + json.dumps(main["provenance"], sort_keys=True)]
    lines += [f"FAILED {p}" for r in runs for p in r["problems"]]
    metrics = {}
    if trace:
        metrics.update(main["layers"])
        plain = statistics.median(main["untraced"]) if main["untraced"] else 0.0
        traced = statistics.median(main["traced"]) if main["traced"] else 0.0
        metrics["trace.untraced_samples_per_s"] = {"value": plain, "unit": "1/s"}
        metrics["trace.traced_samples_per_s"] = {"value": traced, "unit": "1/s"}
        overhead = (plain / traced - 1.0) * 100.0 if traced > 0 else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        metrics["error_rate"] = {"value": error_rate, "unit": "fraction"}
        lines.append(f"spans written to {main['spans']}")
        if main["missing"]:
            lines.append("missing (hook absent, reported as 0): " + ", ".join(main["missing"]))
    else:
        rates = [samples / secs for samples, secs in main["timings"]]
        setups = [r["setup_s"] for r in runs]
        if not failed:
            metrics["samples_per_s"] = {"value": statistics.median(rates), "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
        q1, q3 = quartiles(rates) if rates else (0.0, 0.0)
        lines.append(f"samples_per_s over {len(rates)} invocations "
                     f"({sum(s for s, _ in main['timings'])} samples): "
                     f"quartiles {q1:.4g} .. {q3:.4g}")
        lines.append("setup_s of each process: " + ", ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if not trace:
        lines.append(f"{'error_rate':34s} {error_rate:.6g} fraction "
                     f"({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    correct = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result, lines = bench(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
