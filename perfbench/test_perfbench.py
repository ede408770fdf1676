"""Smoke tests of the benchmark: every workload at its warm-up n.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced, with a zero time budget
(one timed invocation each), from the checkout this file sits in.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# layers whose spans each workload must produce
LAYERS = {
    "invariance-wn16": {"coupling", "kernels", "dynamics", "measures", "invariance_lab", "cli"},
    "invariance-eig4": {"coupling", "kernels", "dynamics", "measures", "invariance_lab", "cli"},
    "cauchy-hol64": {"coupling", "kernels", "measures", "invariance_lab", "cli"},
    "concentration": {"invariance_lab", "cli"},
}


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run(name):
    result, lines = run.bench(name, seed=0, seconds=0.0, trace=0, n=WORKLOADS[name].warmup_n)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run(name):
    result, _ = run.bench(name, seed=0, seconds=0.0, trace=1, n=WORKLOADS[name].warmup_n)
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER_UNITS
    assert result["metrics"]["error_rate"]["value"] == 0
    path = os.path.join(run.OUTDIR, tracer.spans_name(name, 0))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)
    assert {s.split(".", 1)[0] for s in spans["name"]} >= LAYERS[name]
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) == len(spans["name"])


def test_missing_hook_is_reported_not_fatal(monkeypatch, capsys):
    monkeypatch.setitem(tracer.HOOKS, "kernels.pairing_apply", ("crlab.kernels", "no_such_function"))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["kernels.pairing_apply"]
    assert "no_such_function is missing" in capsys.readouterr().err
    layers, missing = tracer.layer_metrics(t, [], [])
    assert set(missing) == {"kernels.pairing_calls", "kernels.pairing_s"}
    assert set(layers) == set(tracer.METRICS)


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark it fails without a result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "concentration",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
