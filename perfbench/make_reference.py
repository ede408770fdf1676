"""Regenerate reference.json, the outputs the correctness gate compares to.

    python3 perfbench/make_reference.py

Runs every workload through ``crlab.cli.run`` at its benchmark n and its
warm-up n, for the default seed 0 and the held-out seed 1, from sample
index 0, and the concentration study once more at POPULATION_N for the
population medians.  Regenerate only when a workload's definition changes,
from a commit whose outputs are trusted (Tier-1 green), and review the diff.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
POPULATION_N = 512


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in WORKLOADS.values():
            tensor = None
            if workload.tensor is not None:
                family, cutoff = workload.tensor
                tensor = os.path.join(tmp, "tensor.bin")
                code, _, msg = worker.invoke(["tensor", "--family", family, "--n",
                                              str(cutoff), "--out", tensor])
                if code != 0:
                    raise SystemExit(f"{workload.name}: tensor build failed: {msg}")
            entry = reference[workload.name] = {}
            runs = [(n, seed) for n in sorted({workload.n, workload.warmup_n}) for seed in SEEDS]
            if workload.subcommand[0] == "concentration":
                runs.append((POPULATION_N, 0))
            for n, seed in runs:
                out = os.path.join(tmp, "out.json")
                code, _, msg = worker.invoke(workload.argv(n, seed, 0, out, tensor))
                if code != 0:
                    raise SystemExit(f"{workload.name} n={n} seed={seed}: {msg}")
                with open(out, "r", encoding="utf-8") as fh:
                    summary = checks.summarize(workload, json.load(fh))
                if n == POPULATION_N:
                    entry["population"] = {"n": n, "seed": seed, "medians": summary["medians"]}
                else:
                    entry.setdefault(f"n={n}", {})[f"seed={seed}"] = summary
                print(f"{workload.name} n={n} seed={seed}: ok", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
