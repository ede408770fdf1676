"""One benchmark process: set up, then run one workload's invocations.

run.py starts this script as a fresh process and reads the JSON object it
prints as its last line.  Set-up is importing crlab, building and saving the
workload's tensor cache with ``crlab tensor``, and one warm-up invocation
at the warm-up n and seed 0, whose output must match the committed
reference.  Then, for --seconds:

  --trace 0  invocations k = 0, 1, ... of the workload at its n, each
             checked; the per-invocation wall times give the end-to-end
             throughput.
  --trace 1  the first invocation repeated, alternately untraced and
             traced; the traced ones give the per-layer metrics, the pairs
             the tracing overhead.  Set-up is traced too.

With --setup-only it stops after set-up.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def invoke(argv):
    """Run ``crlab.cli.run(argv)``; returns (exit code, seconds, messages).

    An exception escaping crlab is a failed invocation, not a crash of the
    benchmark: its traceback becomes the message and the exit code is None.
    """
    import crlab.cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = crlab.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported as a failed invocation
            traceback.print_exc(file=sink)
            code = None
    return code, time.perf_counter() - start, sink.getvalue()


def read_output(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def output_bytes(path):
    files = (path, f"{path}.config.json", f"{path}.meta.json")
    return sum(os.path.getsize(f) for f in files if os.path.exists(f))


class Run:
    """Invocations of one workload, each checked against the reference."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.out = os.path.join(workdir, "output.json")
        self.tensor_path = None
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self):
        import crlab.cli  # noqa: F401 - the import is part of set-up

        if self.workload.tensor is not None:
            family, cutoff = self.workload.tensor
            self.tensor_path = os.path.join(self.workdir, "tensor.bin")
            self.attempted += 1
            code, _, msg = invoke(["tensor", "--family", family, "--n", str(cutoff),
                                   "--out", self.tensor_path])
            if code != 0:
                self._fail("tensor", [f"exit code {code}: {msg.strip()}"])
        self.invoke(self.workload.warmup_n, 0, 0)

    def invoke(self, n, seed, index):
        """One checked invocation; returns (ok, seconds)."""
        argv = self.workload.argv(n, seed, index, self.out, self.tensor_path)
        if os.path.exists(self.out):
            os.remove(self.out)
        code, seconds, msg = invoke(argv)
        start = index * n if argv[0] == "invariance" else 0
        problems = checks.check(self.workload, self.reference, code,
                                read_output(self.out), n, seed, start)
        if code is None:
            problems.append(msg.strip().splitlines()[-1] if msg.strip() else "exception")
        self.attempted += 1
        if problems:
            self._fail(" ".join(argv), problems)
        return not problems, seconds

    def _fail(self, what, problems):
        self.failed += 1
        self.problems.append(f"{what}: {'; '.join(problems[:5])}")


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's own .git, if it has one."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(gitdir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, n):
    import platform

    import numpy
    import scipy

    import crlab

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from crlab.kernels import backend_name
        backend = backend_name()
    except ImportError:
        backend = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "crlab": getattr(crlab, "__version__", None),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "kernel_backend": backend,
        "git_commit": git_commit(),
        "workload": {
            "name": workload.name,
            "n": n,
            "paper_n": workload.paper_n,
            "scale": n / workload.paper_n,
            "warmup_n": workload.warmup_n,
        },
    }


def measure(run, n, seed, seconds):
    """End-to-end invocations until the time is up; (samples, seconds) of each."""
    per = n * run.workload.levels
    timings = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        ok, elapsed = run.invoke(n, seed, index)
        if ok:
            timings.append((per, elapsed))
        index += 1
    return timings


def measure_traced(run, n, seed, seconds, tracer, spans_path):
    """Untraced and traced invocations in turn, of the same inputs."""
    per = n * run.workload.levels
    plain, traced, ranges, sizes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) == 0 or time.perf_counter() < deadline:
        ok, elapsed = run.invoke(n, seed, 0)
        if ok:
            plain.append(per / elapsed)
        tracer.install()
        lo = len(tracer)
        ok, elapsed = run.invoke(n, seed, 0)
        tracer.uninstall()
        if ok:
            traced.append(per / elapsed)
            ranges.append((lo, len(tracer)))
            sizes.append(output_bytes(run.out))
    tracer.write(spans_path)
    layers, missing = tracing.layer_metrics(tracer, ranges, sizes)
    return layers, missing, plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="samples per invocation")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    n = args.n or workload.n
    run = Run(workload, args.workdir)
    tracer = None
    if args.trace:
        import crlab  # noqa: F401 - hooks attach to loaded modules
        tracer = tracing.Tracer()
        tracer.install()
    run.setup()
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": time.monotonic() - args.spawned_at}

    if not args.setup_only:
        result["provenance"] = provenance(workload, n)
        if args.trace:
            spans_path = os.path.join(os.path.dirname(args.workdir),
                                      tracing.spans_name(workload.name, args.seed))
            layers, missing, plain, traced = measure_traced(
                run, n, args.seed, args.seconds, tracer, spans_path)
            result.update(layers=layers, missing=missing, untraced=plain,
                          traced=traced, spans=os.path.relpath(spans_path, ROOT))
        else:
            result["timings"] = measure(run, n, args.seed, args.seconds)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
