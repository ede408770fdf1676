"""Random initial data: Gaussian ensembles and Gibbs measures.

Four measures on truncated coefficient vectors, each built from i.i.d.
standard complex Gaussians g_n (density 1/pi e^{-|z|^2}, E|g_n|^2 = 1):

  eigenspace      c_k = g_k / sqrt(N+1)       on the level-N eigenspace
  gaussian-free   c_n = g_n / sqrt(lambda_n)  the free-field Gaussian
  white-noise     c_n = g_n                   modewise unit variance
  gibbs           density C_beta e^{-beta H(u)} against gaussian-free

The Gibbs sampler is exact rejection: H >= 0 and beta >= 0 make
e^{-beta H} a valid acceptance probability.  An independence-Metropolis
chain with the same proposal is provided for parameter ranges where the
rejection rate collapses.

Every sample is drawn from its own counter-based stream keyed by
(seed, sample index), so ensembles are reproducible under any execution
order, batch split or start index.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .basis import family_from_label, sup_norms
from .dynamics import CoefficientState, FlowKernel, Projector, spacetime_l4

__all__ = [
    "KINDS",
    "FUNCTIONALS",
    "MeasureSpec",
    "spec_from_dict",
    "GibbsStallError",
    "sample_ensemble",
    "sample_gibbs_metropolis",
    "tail_study",
]

KINDS = ("eigenspace", "gaussian-free", "gibbs", "white-noise")

# The one truncation each measure is matched to.  The smooth profile vanishes
# on an eigenspace (every mode sits at the cutoff), so the eigenspace measure
# goes with the sharp flow, as white noise does; the Gibbs weight (gaussian-
# free is its beta = 0 case) is the smooth-projected quartic form.
_MATCHED_TRUNCATION = {"eigenspace": "sharp", "gaussian-free": "smooth",
                       "gibbs": "smooth", "white-noise": "sharp"}

# consecutive rejections declaring the acceptance rate (< 1e-4) collapsed
_STALL_WINDOW = 10_000


class GibbsStallError(RuntimeError):
    """Raised when Gibbs rejection sampling stalls; use the Metropolis fallback."""


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure to draw from, on which truncated family.

    beta is meaningful for kind "gibbs" only and must be zero elsewhere.
    White noise is restricted to the holomorphic family, where the truncated
    flows are known to preserve it; experimental=True lifts the restriction
    to the radial chain without any invariance claim attached.
    """

    kind: str
    family: object
    cutoff: int
    beta: float = 0.0
    seed: int = 0
    experimental: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}; options: {KINDS}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and >= 0")
        if self.beta != 0.0 and self.kind != "gibbs":
            raise ValueError("beta is a gibbs parameter; other kinds require beta = 0")
        if not (-(2 ** 63) <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        fam = self.family.kind
        if self.kind == "eigenspace":
            if fam != "eigenspace":
                raise ValueError("the eigenspace measure lives on an eigenspace family")
            if self.family.level != self.cutoff:
                raise ValueError("eigenspace measure cutoff must equal the family level")
        elif fam == "eigenspace":
            raise ValueError(f"measure kind {self.kind!r} needs a holomorphic or radial family")
        if self.kind == "white-noise" and fam != "holomorphic" and not self.experimental:
            raise ValueError(
                "white noise is supported on the holomorphic family; pass "
                "experimental=True to sample it on other chains without "
                "invariance claims"
            )

    @property
    def n_modes(self):
        return self.cutoff + 1

    @property
    def projector(self):
        """The truncation whose flow this measure is matched to."""
        return Projector(_MATCHED_TRUNCATION[self.kind], self.cutoff)

    def to_dict(self):
        return {
            "kind": self.kind,
            "family": self.family.label,
            "cutoff": self.cutoff,
            "beta": self.beta,
            "seed": int(self.seed),
            "experimental": self.experimental,
        }


def spec_from_dict(data):
    return MeasureSpec(
        kind=data["kind"],
        family=family_from_label(data["family"]),
        cutoff=int(data["cutoff"]),
        beta=float(data.get("beta", 0.0)),
        seed=int(data.get("seed", 0)),
        experimental=bool(data.get("experimental", False)),
    )


def _stream(seed, index):
    """Counter-based per-sample stream: disjoint by construction."""
    key = np.array([int(seed) % 2 ** 64, int(index) % 2 ** 64], dtype=np.uint64)
    return Generator(Philox(key=key))


def _complex_gaussians(rng, n):
    z = rng.standard_normal(2 * n)
    return (z[:n] + 1j * z[n:]) / math.sqrt(2.0)


def _base_scale(spec):
    """Per-mode multiplier taking unit Gaussians to the base measure."""
    if spec.kind == "eigenspace":
        return np.full(spec.n_modes, 1.0 / math.sqrt(spec.n_modes))
    if spec.kind == "white-noise":
        return np.ones(spec.n_modes)
    lam = np.asarray(spec.family.eigenvalue(np.arange(spec.n_modes)), dtype=np.float64)
    return 1.0 / np.sqrt(lam)


def _gibbs_weight(spec, tensor):
    """The kernel of the Gibbs weight e^{-beta H}, with H the quartic form
    projected by the measure's matched (smooth) truncation, validated."""
    if tensor is None:
        raise ValueError("gibbs sampling needs the coupling tensor")
    if tensor.family != spec.family or tensor.cutoff != spec.cutoff:
        raise ValueError("gibbs tensor must match the measure's family and cutoff")
    return FlowKernel(tensor, spec.projector)


def _draw_gibbs(spec, index, kernel, scale):
    rng = _stream(spec.seed, index)
    rejects = 0
    while True:
        c = scale * _complex_gaussians(rng, spec.n_modes)
        if rng.random() < math.exp(-spec.beta * kernel.hamiltonian(c)):
            return c
        rejects += 1
        if rejects >= _STALL_WINDOW:
            raise GibbsStallError(
                f"gibbs rejection stalled: {rejects} consecutive rejections "
                f"(acceptance < {1.0 / _STALL_WINDOW:g}) at beta={spec.beta}; "
                "use sample_gibbs_metropolis for this parameter range"
            )


def sample_ensemble(spec, count, tensor=None, start_index=0):
    """count draws as a complex matrix, row i from stream start_index + i."""
    if count <= 0:
        raise ValueError("count must be positive")
    scale = _base_scale(spec)
    kernel = _gibbs_weight(spec, tensor) if spec.kind == "gibbs" else None
    out = np.empty((count, spec.n_modes), dtype=np.complex128)
    for i in range(count):
        if kernel is not None:
            out[i] = _draw_gibbs(spec, start_index + i, kernel, scale)
        else:
            rng = _stream(spec.seed, start_index + i)
            out[i] = scale * _complex_gaussians(rng, spec.n_modes)
    return out


def sample_gibbs_metropolis(spec, count, tensor, burn_in=200, thin=5):
    """Independence-Metropolis fallback for large beta.

    Proposes fresh gaussian-free draws and accepts with
    min(1, e^{-beta (H(y) - H(x))}).  Returns a (count, n_modes) matrix of
    correlated (thinned) chain states; unlike rejection sampling the output
    is exact only in the chain's long-run limit.
    """
    if spec.kind != "gibbs":
        raise ValueError("metropolis sampler is for gibbs specs")
    kernel = _gibbs_weight(spec, tensor)
    scale = _base_scale(spec)
    rng = _stream(spec.seed, 2 ** 63)  # outside the per-sample index range
    x = scale * _complex_gaussians(rng, spec.n_modes)
    hx = kernel.hamiltonian(x)
    out = np.empty((count, spec.n_modes), dtype=np.complex128)
    kept = 0
    step = 0
    while kept < count:
        y = scale * _complex_gaussians(rng, spec.n_modes)
        hy = kernel.hamiltonian(y)
        if math.log(rng.random()) < -spec.beta * (hy - hx):
            x, hx = y, hy
        step += 1
        if step > burn_in and (step - burn_in) % thin == 0:
            out[kept] = x
            kept += 1
    return out


FUNCTIONALS = ("spacetime-L4", "sup-over-grid", "L2")


def _functional_values(spec, coeffs, functional):
    if functional == "L2":
        return np.sqrt(np.sum(coeffs.real ** 2 + coeffs.imag ** 2, axis=1))
    if functional == "sup-over-grid":
        return sup_norms(spec.family, coeffs)
    return np.array([spacetime_l4(CoefficientState(spec.family, c)) for c in coeffs])


def tail_study(spec, functional, lambdas=None, n_samples=2000, tensor=None,
               min_tail_hits=20):
    """Empirical log-survival curve of a norm functional, with a sub-Gaussian
    fit.

    Draws n_samples states, evaluates the functional (one of "spacetime-L4",
    "sup-over-grid", "L2"; sup-over-grid is basis.sup_norms, whose
    doubled-grid check runs on the first three samples), and tabulates
    log P(value > lambda) on the given
    thresholds (default: 12 levels spanning the median to the quantile with
    min_tail_hits expected hits).  Returns a dict with the curve and a
    hit-count-weighted linear fit of log P against lambda^2; a clearly
    negative slope is the sub-Gaussian signature.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"functional must be one of {FUNCTIONALS}")
    if lambdas is not None and len(lambdas) == 0:
        raise ValueError("lambdas: need at least one threshold")
    coeffs = sample_ensemble(spec, n_samples, tensor)
    values = _functional_values(spec, coeffs, functional)

    if lambdas is None:
        lo = float(np.quantile(values, 0.5))
        hi = float(np.quantile(values, max(0.0, 1.0 - min_tail_hits / n_samples)))
        if not hi > lo:
            raise ValueError(
                "insufficient tail mass: degenerate functional values between the "
                f"median and the quantile with {min_tail_hits} expected hits; add "
                "samples (--samples), give thresholds (--lambdas) or lower --min-tail-hits"
            )
        lambdas = np.linspace(lo, hi, 12)
    lambdas = np.asarray(lambdas, dtype=np.float64)

    hits = np.array([(values > lam).sum() for lam in lambdas])
    if hits.min() < min_tail_hits:
        raise ValueError(
            f"insufficient tail mass: top threshold has {int(hits.min())} hits "
            f"< {min_tail_hits}; lower the thresholds or add samples"
        )
    logp = np.log(hits / n_samples)

    # weighted least squares of log P = a + b lambda^2, weights = hit counts
    x = lambdas ** 2
    w = hits.astype(np.float64)
    wm_x = np.average(x, weights=w)
    wm_y = np.average(logp, weights=w)
    cov = np.average((x - wm_x) * (logp - wm_y), weights=w)
    var = np.average((x - wm_x) ** 2, weights=w)
    slope = cov / var
    intercept = wm_y - slope * wm_x
    resid = logp - (intercept + slope * x)
    ss_res = np.average(resid ** 2, weights=w)
    ss_tot = np.average((logp - wm_y) ** 2, weights=w)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    return {
        "functional": functional,
        "n_samples": int(n_samples),
        "lambdas": lambdas,
        "hits": hits,
        "log_survival": logp,
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": float(r2),
        "values": values,
    }
