"""Statistical experiments on the truncated flows.

invariance_test evolves an ensemble drawn from a candidate invariant
measure and compares observable marginals before and after: per-observable
z-scores on means plus two-sample Kolmogorov-Smirnov tests with a
Bonferroni correction.  The flow runs the truncation MeasureSpec.projector
declares for the measure's kind (sharp for white noise and the eigenspace
measure, smooth for Gibbs and the free Gaussian) on a tensor of the
measure's family and cutoff; any other tensor is rejected up front, since
a PASS would then be evidence about the wrong theorem.

recurrence_experiment watches single eigenspace orbits return near their
initial data, cauchy_study measures the decay of E||T_N(u) - T_M(u)||^2
in M under white noise, and concentration_study tracks the normalized
sup/L2 ratio of eigenspace samples across levels.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import coupling, measures
from .basis import HOLOMORPHIC, eigenspace, sup_norms
from .dynamics import FlowKernel, IntegratorConfig

__all__ = [
    "ConfigError",
    "ObservableSet",
    "EnsembleReport",
    "invariance_test",
    "recurrence_experiment",
    "cauchy_study",
    "concentration_study",
]

SCHEMA_VERSION = 1

Z_MAX = 4.0
KS_ALPHA = 1e-3
DRIFT_TOL = 1e-6
CALIBRATION_TOL = 1e-6
_SIGMA = 1.5  # the standard observable set's negative Sobolev norm is H^{-_SIGMA}


class ConfigError(ValueError):
    """A spec/tensor combination that answers no meaningful question."""


class ObservableSet:
    """Named functionals evaluated column-wise over a sample matrix.

    The standard set is every per-mode action |c_n|^2, Re c_n and Im c_n,
    plus mass, energy, the (truncation-folded) quartic form, and the
    H^{-3/2} norm: enough marginals to catch sign, scaling, and
    normalization bugs in either the sampler or the flow.
    """

    def __init__(self, names, evaluate):
        self.names = list(names)
        self._evaluate = evaluate

    def __len__(self):
        return len(self.names)

    def evaluate(self, coeffs):
        """coeffs (n_samples, n_modes) complex -> (n_samples, n_observables)."""
        table = self._evaluate(np.asarray(coeffs, dtype=np.complex128))
        if table.shape != (len(coeffs), len(self.names)):
            raise RuntimeError("observable table shape mismatch")
        return table

    @classmethod
    def standard(cls, kernel):
        n_modes = kernel.n_modes
        lam = np.asarray(kernel.eigenvalues, dtype=np.float64)
        names = (
            [f"action_{n}" for n in range(n_modes)]
            + [f"re_{n}" for n in range(n_modes)]
            + [f"im_{n}" for n in range(n_modes)]
            + ["mass", "energy", "hamiltonian", f"h_minus_{_SIGMA:g}"]
        )

        def evaluate(coeffs):
            actions = coeffs.real ** 2 + coeffs.imag ** 2
            ham = kernel.hamiltonians(coeffs)
            cols = [
                actions,
                coeffs.real,
                coeffs.imag,
                actions.sum(axis=1)[:, None],
                (actions @ lam)[:, None],
                ham[:, None],
                np.sqrt(actions @ lam ** -_SIGMA)[:, None],
            ]
            return np.hstack(cols)

        return cls(names, evaluate)


@dataclass
class EnsembleReport:
    """Invariance test result: per-observable statistics plus the sample
    tables they came from (row i of both tables is the sample with stream
    index start_index + i, so every row is reproducible in isolation)."""

    schema_version: int
    spec: dict
    flow: dict
    n_samples: int
    start_index: int
    thresholds: dict
    observables: list
    hamiltonian_check: dict
    verdict: str
    observable_names: list = field(default_factory=list)
    table_initial: np.ndarray = None
    table_final: np.ndarray = None

    def to_json(self, include_tables=True):
        """Deterministic JSON text; byte-identical for identical inputs."""
        doc = {
            "schema_version": self.schema_version,
            "spec": self.spec,
            "flow": self.flow,
            "n_samples": self.n_samples,
            "start_index": self.start_index,
            "thresholds": self.thresholds,
            "observables": self.observables,
            "hamiltonian_check": self.hamiltonian_check,
            "verdict": self.verdict,
        }
        if include_tables:
            doc["observable_names"] = self.observable_names
            doc["table_initial"] = [[float(v) for v in row] for row in self.table_initial]
            doc["table_final"] = [[float(v) for v in row] for row in self.table_final]
        return json.dumps(doc, indent=2, sort_keys=True)


def _check_consistency(spec, tensor):
    if tensor.family != spec.family:
        raise ConfigError(
            f"measure family {spec.family.label} does not match tensor family "
            f"{tensor.family.label}"
        )
    if spec.cutoff != tensor.cutoff:
        raise ConfigError(f"cutoffs disagree: measure {spec.cutoff}, tensor {tensor.cutoff}")


def invariance_test(spec, tensor, t, n_samples, config=None, start_index=0):
    """Evolve an ensemble from the measure under its matched truncation
    spec.projector and test that observable marginals are unchanged.
    Returns an EnsembleReport whose verdict is PASS when every |z| < 4 and
    every Bonferroni-adjusted KS p-value exceeds 0.001.

    The report also carries a two-part cross-check of the Hamiltonian: the
    worst per-sample relative drift along the flow (an integrator/flow
    consistency bound) and the worst relative deviation of stored tensor
    weights from independently recomputed reference values (a calibration
    bound).  A uniformly rescaled tensor passes invariance, since that only
    rescales time, but fails calibration; the check is what separates
    "invariant" from "correct".
    """
    _check_consistency(spec, tensor)
    if not math.isfinite(t):
        raise ConfigError("evolution time must be finite")
    if n_samples < 2:
        raise ConfigError("need at least 2 samples")
    config = config or IntegratorConfig()
    proj = spec.projector
    kernel = FlowKernel(tensor, proj)
    observables = ObservableSet.standard(kernel)

    c0 = measures.sample_ensemble(spec, n_samples, tensor=tensor, start_index=start_index)
    c1 = np.empty_like(c0)
    for i in range(n_samples):
        c1[i] = kernel.evolve(c0[i], t, config)

    t0 = observables.evaluate(c0)
    t1 = observables.evaluate(c1)

    # imported here, not at the top: scipy.stats is about half of crlab's
    # cold import, and no other verdict or subcommand needs it
    from scipy import stats

    m = len(observables)
    rows = []
    worst_z = 0.0
    worst_p = 1.0
    for j, name in enumerate(observables.names):
        a, b = t0[:, j], t1[:, j]
        mean0, mean1 = float(a.mean()), float(b.mean())
        se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n_samples)
        z = (mean1 - mean0) / se if se > 0 else 0.0
        if se > 0 or mean0 != mean1:
            # asymptotic p: the exact path falls over on the heavy ties
            # paired conserved columns produce, and n is never tiny here
            ks = stats.ks_2samp(a, b, method="asymp")
            ks_stat, ks_p = float(ks.statistic), float(ks.pvalue)
        else:
            ks_stat, ks_p = 0.0, 1.0  # identical constant columns
        ks_p_adj = min(1.0, ks_p * m)
        rows.append({
            "name": name,
            "mean_initial": mean0,
            "mean_final": mean1,
            "z": float(z),
            "ks_stat": ks_stat,
            "ks_p": ks_p,
            "ks_p_adjusted": ks_p_adj,
        })
        worst_z = max(worst_z, abs(z))
        worst_p = min(worst_p, ks_p_adj)

    ham = observables.names.index("hamiltonian")
    h0, h1 = t0[:, ham], t1[:, ham]
    scale = np.maximum(np.abs(h0), np.finfo(float).tiny)
    drift = float(np.max(np.abs(h1 - h0) / scale))
    ref_rows, ref_vals = coupling.reference_weights(tensor)
    stored = tensor.weights[ref_rows]
    calib = float(np.max(np.abs(stored - ref_vals) / np.maximum(np.abs(ref_vals), 1e-300)))
    ham_check = {
        "max_relative_drift": drift,
        "drift_tolerance": DRIFT_TOL,
        "calibration_error": calib,
        "calibration_tolerance": CALIBRATION_TOL,
        "pass": bool(drift < DRIFT_TOL and calib < CALIBRATION_TOL),
    }

    verdict = "PASS" if (worst_z < Z_MAX and worst_p > KS_ALPHA) else "FAIL"
    flow = {
        "family": tensor.family.label,
        "cutoff": tensor.cutoff,
        "projector": proj.kind,
        "t": float(t),
        "integrator": {"rel_tol": config.rel_tol, "abs_tol": config.abs_tol},
        "tensor_entries": len(tensor),
        "tensor_constant": tensor.constant,
    }
    return EnsembleReport(
        schema_version=SCHEMA_VERSION,
        spec=spec.to_dict(),
        flow=flow,
        n_samples=int(n_samples),
        start_index=int(start_index),
        thresholds={"z_max": Z_MAX, "ks_alpha": KS_ALPHA},
        observables=rows,
        hamiltonian_check=ham_check,
        verdict=verdict,
        observable_names=observables.names,
        table_initial=t0,
        table_final=t1,
    )


def recurrence_experiment(level, t_max, dt, n_samples, theta=0.1, seed=0):
    """Watch eigenspace orbits come back: for each sample from the level-N
    eigenspace measure, record d(t) = ||c(t) - c(0)||_2 on a dt-spaced time
    grid and its running minimum.

    theta is a relative threshold: a sample "recurs" at the first grid time
    with d(t) < theta * ||c(0)||_2.  The flow preserves a finite measure, so
    recurrence of almost every orbit is guaranteed eventually; how fast is
    not quantified, which is why theta and t_max are parameters rather than
    a verdict.  Cost scales with level as the eigenspace tensor does, so
    keep level <= 4 for long horizons.
    """
    if level < 0:
        raise ConfigError("level must be >= 0")
    if not (t_max > 0 and 0 < dt <= t_max):
        raise ConfigError("need 0 < dt <= t_max")
    if theta <= 0:
        raise ConfigError("theta must be positive")
    family = eigenspace(level)
    spec = measures.MeasureSpec("eigenspace", family, level, seed=seed)
    kernel = FlowKernel(coupling.build_tensor(family, level), spec.projector)

    n_steps = int(math.ceil(t_max / dt - 1e-9))
    times = dt * np.arange(1, n_steps + 1)
    c0 = measures.sample_ensemble(spec, n_samples)
    distances = np.empty((n_samples, n_steps))
    for i in range(n_samples):
        c = c0[i]
        for k in range(n_steps):
            c = kernel.evolve(c, dt)
            distances[i, k] = float(np.linalg.norm(c - c0[i]))

    running_min = np.minimum.accumulate(distances, axis=1)
    norms0 = np.linalg.norm(c0, axis=1)
    below = distances < theta * norms0[:, None]
    recurrence_time = np.full(n_samples, np.nan)
    return_time = np.full(n_samples, np.nan)
    for i in range(n_samples):
        hits = np.nonzero(below[i])[0]
        if len(hits):
            recurrence_time[i] = times[hits[0]]
        # a stricter reading: back below theta after having left the ball
        departed = np.nonzero(~below[i])[0]
        if len(departed):
            back = np.nonzero(below[i] & (times > times[departed[0]]))[0]
            if len(back):
                return_time[i] = times[back[0]]
    fraction = float(np.mean(~np.isnan(recurrence_time)))
    return {
        "level": int(level),
        "theta": float(theta),
        "t_max": float(times[-1]),
        "times": times,
        "distances": distances,
        "running_min": running_min,
        "initial_norms": norms0,
        "recurrence_time": recurrence_time,
        "fraction_recurred": fraction,
        "return_time": return_time,
        "fraction_returned": float(np.mean(~np.isnan(return_time))),
        "max_distance": distances.max(axis=1),
    }


def cauchy_study(sigma, cutoff, m_values, n_samples, seed=0):
    """Monte Carlo E || T_N(u) - T_M(u) ||^2 in H^{-sigma} under white noise.

    T_M masks the input to modes <= M, applies the full trilinear
    contraction, and masks the output to modes <= M again; T_N is the
    unmasked contraction at the working cutoff N.  T_M never reads or writes
    a mode above M, so it runs as the flow at cutoff M on the first M+1
    modes.  Returns per-M means with standard errors, the fitted log-log
    slope in M, and whether successive means decrease by more than twice
    their combined standard errors.
    """
    if not sigma > 1:
        raise ConfigError("sigma must exceed 1")
    if n_samples < 2:
        raise ConfigError("samples: standard errors need at least 2 samples")
    m_values = sorted(int(m) for m in m_values)
    if not m_values or m_values[-1] > cutoff or m_values[0] < 0:
        raise ConfigError("need masks 0 <= M <= cutoff")
    if len(set(m_values)) < len(m_values):
        raise ConfigError(f"m_values: duplicate masks in {m_values}")
    spec = measures.MeasureSpec("white-noise", HOLOMORPHIC, cutoff, seed=seed)
    kernel = FlowKernel(coupling.build_tensor(HOLOMORPHIC, cutoff), spec.projector)
    lam = np.asarray(kernel.eigenvalues, dtype=np.float64)
    sob = lam ** (-float(sigma))

    c = measures.sample_ensemble(spec, n_samples)
    full = kernel.contraction(c)
    sq = np.empty((len(m_values), n_samples))
    for i, m in enumerate(m_values):
        truncated = FlowKernel(coupling.build_tensor(HOLOMORPHIC, m), replace(spec, cutoff=m).projector)
        diff = full.copy()
        diff[:, :m + 1] -= truncated.contraction(c[:, :m + 1])
        sq[i] = np.sum(sob * (diff.real ** 2 + diff.imag ** 2), axis=-1)
    sq = sq.T  # a transposed view: a C-ordered (n, masks) copy rounds the means differently

    means = sq.mean(axis=0)
    stderrs = sq.std(axis=0, ddof=1) / math.sqrt(n_samples)
    gaps = means[:-1] - means[1:]
    gap_scale = 2.0 * np.sqrt(stderrs[:-1] ** 2 + stderrs[1:] ** 2)
    monotone = bool(np.all(gaps > gap_scale))
    # M = cutoff makes the difference exactly zero, M = 0 has no log; keep both out of the fit
    pos = (means > 0) & (np.asarray(m_values) > 0)
    if int(pos.sum()) > 1:
        slope = float(np.polyfit(np.log(np.asarray(m_values)[pos]), np.log(means[pos]), 1)[0])
    else:
        slope = 0.0
    return {
        "sigma": float(sigma),
        "cutoff": int(cutoff),
        "m_values": m_values,
        "means": means,
        "stderrs": stderrs,
        "slope": slope,
        "monotone_beyond_2se": monotone,
        "n_samples": int(n_samples),
    }


def concentration_study(levels, n_samples, seed=0, n_radial=None, n_theta=None,
                        check_resolution=True):
    """Distribution of the normalized sup/L2 ratio across eigenspace levels.

    For each level N, draws n_samples states from the eigenspace measure in
    its rotation-adapted basis (the measure's law does not depend on the
    orthonormal basis used), computes r = ||u||_inf / ||u||_2 with
    basis.sup_norms (the resolution check runs at the top level only), and
    normalizes by the expected profile: r_N = r / (N^{-1/2} (log N)^{1/2}).

    Returns per-level quantiles of r_N, a band verdict (all medians inside
    the factor-2 band centered at their geometric mean), and per-level
    out-of-band sample fractions, which should not increase with N.
    """
    levels = [int(N) for N in levels]
    if len(levels) < 2:
        raise ConfigError("levels: the band verdict compares at least 2 levels")
    if any(N < 2 for N in levels):
        raise ConfigError("normalization needs levels >= 2 (log N > 0)")

    per_level = {}
    ratio_rows = []
    for N in levels:
        # the modulus keeps seed + N inside the 64-bit seed range
        spec = measures.MeasureSpec("eigenspace", eigenspace(N), N, seed=(seed + N) % 2 ** 64)
        coeffs = measures.sample_ensemble(spec, n_samples)
        sups = sup_norms(spec.family, coeffs, n_radial, n_theta,
                         check=check_resolution and N == max(levels))
        norm_factor = math.sqrt(math.log(N)) / math.sqrt(N)
        # one norm per row: an axis-wise norm rounds differently
        ratios = sups / np.array([np.linalg.norm(g) for g in coeffs]) / norm_factor
        q05, q50, q95 = np.quantile(ratios, [0.05, 0.50, 0.95])
        per_level[N] = {
            "q05": float(q05),
            "median": float(q50),
            "q95": float(q95),
            "ratios": ratios,
        }
        ratio_rows.append(ratios)

    medians = np.array([per_level[N]["median"] for N in levels])
    center = float(np.exp(np.mean(np.log(medians))))
    band = (center / math.sqrt(2.0), center * math.sqrt(2.0))
    within = bool(np.all((medians >= band[0]) & (medians <= band[1])))
    out_frac = [
        float(np.mean((rows < band[0]) | (rows > band[1]))) for rows in ratio_rows
    ]
    return {
        "levels": levels,
        "per_level": per_level,
        "band": band,
        "band_center": center,
        "medians_within_band": within,
        "out_of_band_fraction": out_frac,
        "out_of_band_non_increasing": bool(
            np.all(np.diff(np.asarray(out_frac)) <= 1e-12)
        ),
        "n_samples": int(n_samples),
    }
