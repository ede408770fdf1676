"""Correctness gate: each invocation's output against committed references.

``reference.json`` holds, per workload, the checked values of the output for
the default seed 0 and the held-out seed 1, at the benchmark's n and at the
warm-up n.  When an invocation matches one of those (n, seed) pairs from
sample index 0, its values must agree to RTOL.  Every other invocation is
held to the study's own verdicts and, for the Cauchy and concentration
studies, to reference values within their statistical spread: the Cauchy
means to the seed-0 means, the concentration medians to the medians of a
large seed-0 sample (``population``).

RTOL allows reordered floating-point sums and the different adaptive step
sequences they can cause (the flow is integrated to rel-tol 1e-10), and
still catches a wrong or uniformly rescaled flow, which moves the checked
means at the 1e-3 level or more.
"""

import json
import math
import os

RTOL = 1e-7
ATOL = 1e-9
# seed-to-seed agreement: Cauchy means within this many combined standard
# errors; concentration medians within this relative band of the population
# medians (a median of 16 samples has a relative standard error of about
# 2.3%, so the band is over 6 standard errors)
CAUCHY_SIGMAS = 6.0
CONCENTRATION_REL = 0.15

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path=REFERENCE_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def summarize(workload, doc):
    """The reference-comparable values of one output document."""
    kind = workload.subcommand[0]
    if kind == "invariance":
        return {
            "verdict": doc["verdict"],
            "hamiltonian_pass": doc["hamiltonian_check"]["pass"],
            "n_samples": doc["n_samples"],
            "mean_initial": [row["mean_initial"] for row in doc["observables"]],
            "mean_final": [row["mean_final"] for row in doc["observables"]],
        }
    if kind == "cauchy":
        return {
            "monotone_beyond_2se": doc["monotone_beyond_2se"],
            "slope_negative": doc["slope"] < 0.0,
            "n_samples": doc["n_samples"],
            "means": doc["means"],
            "stderrs": doc["stderrs"],
            "slope": doc["slope"],
        }
    return {
        "medians_within_band": doc["medians_within_band"],
        "out_of_band_non_increasing": doc["out_of_band_non_increasing"],
        "n_samples": doc["n_samples"],
        "medians": [doc["per_level"][str(level)]["median"] for level in doc["levels"]],
    }


# values every passing output has, whatever the seed
_VERDICTS = {
    "invariance": {"verdict": "PASS", "hamiltonian_pass": True},
    "cauchy": {"monotone_beyond_2se": True, "slope_negative": True},
    "concentration": {"medians_within_band": True, "out_of_band_non_increasing": True},
}


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _mismatches(got, want, key=""):
    if isinstance(want, dict):
        return [m for k in want for m in _mismatches(got.get(k), want[k], f"{key}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{key}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{key}[{i}]")]
    if isinstance(want, bool) or isinstance(want, str) or isinstance(got, bool):
        return [] if got == want else [f"{key}: {got!r} != {want!r}"]
    if not isinstance(got, (int, float)) or not _close(got, want):
        return [f"{key}: {got!r} != {want!r} (rtol {RTOL:g})"]
    return []


def _statistical(kind, got, entry, n):
    problems = []
    if kind == "cauchy":
        ref = entry.get(f"n={n}", {}).get("seed=0")
        if ref is None:
            return [f"no seed-0 reference at n={n}"]
        for j, (m, s, m0, s0) in enumerate(zip(got["means"], got["stderrs"],
                                              ref["means"], ref["stderrs"])):
            if abs(m - m0) > CAUCHY_SIGMAS * math.hypot(s, s0):
                problems.append(f"means[{j}]: {m!r} is over {CAUCHY_SIGMAS:g} "
                                f"standard errors from the seed-0 {m0!r}")
    elif kind == "concentration":
        for j, (m, m0) in enumerate(zip(got["medians"], entry["population"]["medians"])):
            if abs(m - m0) > CONCENTRATION_REL * m0:
                problems.append(f"medians[{j}]: {m!r} is over {CONCENTRATION_REL:.0%} "
                                f"from the population median {m0!r}")
    return problems


def check(workload, reference, exit_code, doc, n, seed, start):
    """Problems with one invocation's output; an empty list means correct.

    start is the invocation's first sample index; exact references exist
    for index 0 only.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if doc is None:
        return ["no output document"]
    kind = workload.subcommand[0]
    try:
        got = summarize(workload, doc)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
    problems = _mismatches(got, {**_VERDICTS[kind], "n_samples": n})
    entry = reference[workload.name]
    exact = entry.get(f"n={n}", {}).get(f"seed={seed}") if start == 0 else None
    if exact is not None:
        problems += _mismatches(got, exact)
    else:
        problems += _statistical(kind, got, entry, n)
    return problems
