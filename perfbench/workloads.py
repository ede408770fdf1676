"""The benchmark's workloads: one crlab subcommand each, at reduced n.

Every workload is driven through the public ``crlab.cli.run(argv)`` entry
point, the path users take, so the benchmark keeps working while the
package's internal API changes.  No ``--threads`` flag is passed: all load
comes from one process.

Sample counts are reduced from the paper's n.  ``n`` is the count of one
timed invocation and ``warmup_n`` the count of the warm-up invocation that
ends set-up (and of the smoke tests).  Both stay fixed on both sides of any
comparison; change them only in a change of their own, together with
``reference.json``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: tuple      # crlab argv before the per-invocation flags
    n: int                 # samples per timed invocation
    paper_n: int           # the paper's sample count for this study
    warmup_n: int          # samples of the warm-up invocation
    output_flag: str       # flag naming the primary output file
    tensor: tuple = None   # (family label, cutoff) cached at set-up and passed as --tensor
    levels: int = 1        # ensembles per invocation (concentration draws n per level)

    def argv(self, n, seed, index, out, tensor_path=None):
        """crlab argv of invocation ``index`` (0-based) of a run.

        Invariance runs draw fresh samples each invocation through
        --start-index, so a run averages over many trajectories; the other
        studies cost the same whatever their samples, and repeat --seed.
        """
        argv = list(self.subcommand) + ["--samples", str(n), "--seed", str(seed)]
        if self.subcommand[0] == "invariance":
            argv += ["--start-index", str(index * n)]
        if tensor_path is not None:
            argv += ["--tensor", tensor_path]
        return argv + [self.output_flag, out]


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 5: long, uneven trajectories; 74% kernels, 23% integrator
        Workload(
            name="invariance-wn16",
            subcommand=("invariance", "--measure", "white-noise", "--cutoff", "16", "--t", "1"),
            n=40, paper_n=10_000, warmup_n=4, output_flag="--report",
            tensor=("hol", 16),
        ),
        # criterion 7: ~50 rhs calls per trajectory, bound by per-call overhead;
        # not holomorphic, calibrated against the quadrature oracle
        Workload(
            name="invariance-eig4",
            subcommand=("invariance", "--measure", "eigenspace", "--cutoff", "4", "--t", "1"),
            n=500, paper_n=5_000, warmup_n=20, output_flag="--report",
            tensor=("eigenspace(4)", 4),
        ),
        # criterion 8: large-N contraction throughput, no integrator; the
        # subcommand builds its own tensor (it takes no --tensor)
        Workload(
            name="cauchy-hol64",
            subcommand=("cauchy", "--cutoff", "64", "--m-values", "4,8,16,32", "--sigma", "1.5"),
            n=100, paper_n=1_000, warmup_n=50, output_flag="--out",
        ),
        # criterion 9: FFT-bound sup-norm study; no tensor, kernel or integrator.
        # The doubled-grid resolution check is off: at level 128 it raises
        # GridResolutionError (exit 3) for most seeds (34 of seeds 0-39; seed 0
        # passes), so with it on the workload fails on most seeds.  Turn it
        # back on, with a new reference.json, once the level-128 grid is fixed.
        Workload(
            name="concentration",
            subcommand=("concentration", "--levels", "16,32,64,128", "--no-resolution-check"),
            n=16, paper_n=1_000, warmup_n=4, output_flag="--out", levels=4,
        ),
    )
}
