"""Truncated flows of the resonant system.

The flow on spectral coefficients is i dc_n/dt = sum_{n1+n2-n3=n}
w(n1,n2,n3,n) c_{n1} c_{n2} conj(c_{n3}), truncated either sharply (all
stored modes kept as-is) or smoothly (every mode damped by a cutoff profile
chi(lambda_n/lambda_N), folded into the interaction weights so the truncated
system is itself the Hamiltonian flow of the projected quartic form).  The
flow conserves mass sum |c_n|^2, energy sum lambda_n |c_n|^2, and the quartic
form itself; the integrator monitors all three rather than enforcing them.

The one integrator is the embedded adaptive Dormand-Prince 5(4) pair, at
rel-tol 1e-10 by default, which resolves finite-time flows far below the
statistical resolution of the ensemble experiments.  Time reversal
integrates with a negative span; nothing is conjugated.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import kernels
from .basis import (
    BasisFamily,
    build_laguerre_rule,
    build_quadrature,
    family_from_label,
    laguerre_weighted,
)
from .coupling import _hermite_product_table

__all__ = [
    "CoefficientState",
    "IntegratorConfig",
    "Projector",
    "cutoff_profile",
    "FlowKernel",
    "NumericalError",
    "EvolveResult",
    "ConservationLog",
    "evolve",
    "spacetime_l4",
    "state_to_dict",
    "state_from_dict",
]


class NumericalError(RuntimeError):
    """The integrator or the quartic form broke down numerically: step-size
    underflow, a non-finite state, or an imaginary quartic-form residual
    beyond rounding."""


@dataclass
class CoefficientState:
    """Spectral coefficients c_0..c_N of one family at one time.

    A value type: operations return new states and never mutate their inputs.
    """

    family: BasisFamily
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coefficients must form a nonempty 1D vector")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite coefficient")
        if self.family.kind == "eigenspace" and len(c) != self.family.level + 1:
            raise ValueError(
                f"eigenspace({self.family.level}) states have exactly "
                f"{self.family.level + 1} coefficients"
            )
        self.coeffs = c
        self.time = float(self.time)

    @property
    def cutoff(self):
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of the adaptive Dormand-Prince 5(4) step control."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


def cutoff_profile(x):
    """Smooth cutoff chi: 1 on [-1/2, 1/2], 0 outside (-1, 1), quintic
    smoothstep between, so chi is C^2 and monotone on each side."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    s = np.clip(2.0 * (x - 0.5), 0.0, 1.0)
    out = 1.0 - s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Projector:
    """Sharp or smooth spectral truncation at a cutoff mode.

    Sharp keeps every stored mode untouched (the identity on states that
    already live below the cutoff).  Smooth multiplies mode n by
    chi(lambda_n / lambda_cutoff); the top mode sits at ratio 1 where chi
    vanishes, so it is frozen by the projected flow.
    """

    kind: str
    cutoff: int

    def __post_init__(self):
        if self.kind not in ("sharp", "smooth"):
            raise ValueError(f"unknown projector kind {self.kind!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")

    def weights(self, family):
        """Per-mode multipliers for modes 0..cutoff."""
        n = np.arange(self.cutoff + 1)
        if self.kind == "sharp":
            return np.ones(self.cutoff + 1)
        ratio = family.eigenvalue(n) / family.eigenvalue(self.cutoff)
        return cutoff_profile(ratio)


def _real_quartic(values):
    """Real part of quartic-form values, which are real by pair-exchange
    symmetry; an imaginary residual beyond rounding means a broken tensor."""
    values = np.asarray(values)
    bad = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(values.real))
    if np.any(bad):
        raise NumericalError(f"quartic form imaginary residual {values.imag[bad][0]:.3e}")
    return values.real


def _require_match(state, tensor, proj):
    if state.family != tensor.family:
        raise ValueError(
            f"state family {state.family.label} does not match tensor {tensor.family.label}"
        )
    if state.cutoff != tensor.cutoff:
        raise ValueError(
            f"state has {state.cutoff + 1} modes, tensor cutoff is {tensor.cutoff}"
        )
    if proj.cutoff != tensor.cutoff:
        raise ValueError("projector cutoff does not match the tensor")


class FlowKernel:
    """One projected flow, prepared for repeated evaluation.

    Holds the contraction plan with the projector's profile folded into the
    weights, so rhs() and the conserved quartic form are single kernel calls,
    for one coefficient vector or a whole ensemble matrix.  Build once per
    (tensor, projector) and reuse across an ensemble; everything here is
    read-only after construction.
    """

    def __init__(self, tensor, projector):
        if projector.cutoff != tensor.cutoff:
            raise ValueError("projector cutoff does not match the tensor")
        self.n_modes = tensor.cutoff + 1
        chi = None if projector.kind == "sharp" else projector.weights(tensor.family)
        self.plan = kernels.build_plan(tensor, chi)
        self.eigenvalues = np.asarray(tensor.family.eigenvalue(np.arange(self.n_modes)))

    def contraction(self, c):
        """The projected trilinear sum of a vector, or of each row of a matrix."""
        return kernels.rhs_apply(self.plan, c)

    def rhs(self, c):
        """-i times the projected trilinear sum."""
        return -1j * self.contraction(c)

    def hamiltonian(self, c):
        """The projected quartic form (the flow's conserved Hamiltonian),
        sum conj(c_n) contraction(c)_n."""
        return float(_real_quartic(np.vdot(c, self.contraction(c))))

    def hamiltonians(self, coeffs):
        """The projected quartic form of every row of a (rows, n_modes) matrix."""
        c = np.asarray(coeffs, dtype=np.complex128)
        return _real_quartic(np.sum(np.conj(c) * self.contraction(c), axis=1))

    def conserved(self, c, f):
        """(mass, energy, hamiltonian) triple for the log; H = vdot(c, i f)
        reads the quartic form off f = rhs(c), which the integrator holds."""
        actions = c.real ** 2 + c.imag ** 2
        ham = float(_real_quartic(np.vdot(c, 1j * f)))
        return float(actions.sum()), float(self.eigenvalues @ actions), ham

    def evolve(self, coeffs, span, config=None, observer=None):
        """Integrate the coefficient vector over a time span (either sign).

        observer(t, c, f) is called at t=0 and after every accepted step,
        with f = rhs(c).  Returns the final coefficient vector (a new array).
        """
        config = config or IntegratorConfig()
        c = np.array(coeffs, dtype=np.complex128)
        if span == 0.0:
            if observer is not None:
                observer(0.0, c, self.rhs(c))
            return c
        if not math.isfinite(span):
            raise ValueError("time span must be finite")
        return _dopri5(self.rhs, c, span, config, observer)


# Dormand-Prince 5(4) tableau.  Row i of _DP_A gives stage i + 1 from stages
# 0..i; its last row is b, so the seventh stage is f(c_new) (first same as
# last).  _DP_E is b - bhat, the weights of the embedded error estimate.
# Coefficients are stored as columns, which broadcast against the stages.
_DP_A = np.array([
    [0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
])[:, :, None]
_DP_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
                  22.0 / 525.0, -1.0 / 40.0])[:, None]


def _combine(column, stages):
    """sum_j column[j] stages[j] over the first len(column) stages, added in
    stage order on the float64 view: no BLAS call, so the bits depend on
    neither the BLAS kernel nor the alignment."""
    terms = column * stages[:len(column)].view(np.float64)
    return np.add.reduce(terms, axis=0).view(np.complex128)


def _error_norm(delta, c0, c1, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(c0), np.abs(c1))
    return float(np.sqrt(np.mean((np.abs(delta) / scale) ** 2)))


def _initial_step(fun, c0, f0, direction, rel_tol, abs_tol, remaining):
    """Standard curvature-probing choice of the first trial step."""
    scale = abs_tol + rel_tol * np.abs(c0)
    d0 = math.sqrt(float(np.mean((np.abs(c0) / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((np.abs(f0) / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:  # d1 overflowed although f0 is finite
        raise NumericalError("step size underflow at t=0")
    f1 = fun(c0 + h0 * direction * f0)
    d2 = math.sqrt(float(np.mean((np.abs(f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, remaining)


def _dopri5(fun, c, span, config, observer):
    t = 0.0
    t_end = span
    direction = 1.0 if span > 0 else -1.0
    stages = np.empty((7, c.size), dtype=np.complex128)
    stages[0] = fun(c)
    if not np.all(np.isfinite(stages[0].view(np.float64))):
        raise NumericalError("state became non-finite: the right-hand side overflows at t=0")
    if observer is not None:
        observer(t, c, stages[0].copy())
    h = _initial_step(fun, c, stages[0], direction, config.rel_tol, config.abs_tol, abs(span))
    rejected = False
    while (t_end - t) * direction > 0:
        h = min(h, abs(t_end - t))
        if h < 16 * np.finfo(float).eps * max(abs(t), abs(t_end)) or h == 0.0:
            raise NumericalError(f"step size underflow at t={t:.6g}")
        hs = h * direction
        for i, row in enumerate(_DP_A):
            c_new = c + hs * _combine(row[:i + 1], stages)
            stages[i + 1] = fun(c_new)
        if not np.all(np.isfinite(c_new.view(np.float64))):
            raise NumericalError(f"state became non-finite during step at t={t:.6g}")
        delta = hs * _combine(_DP_E, stages)
        err = _error_norm(delta, c, c_new, config.rel_tol, config.abs_tol)
        if err <= 1.0:
            t = t_end if abs(t_end - t) <= h * (1 + 1e-12) else t + hs
            c = c_new
            stages[0] = stages[6]
            if observer is not None:
                observer(t, c, stages[0].copy())
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
            if rejected:
                factor = min(factor, 1.0)
            rejected = False
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
            rejected = True
        h *= factor
    return c


@dataclass
class ConservationLog:
    """Mass, energy, and quartic-form values at accepted integrator steps.

    The quartic form logged is the one the flow actually conserves: the
    projector's profile is folded in, so with a smooth truncation this is
    the projected Hamiltonian.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    hamiltonian: np.ndarray

    def relative_drift(self):
        """Max |q(t) - q(0)| / max(|q(0)|, tiny) per conserved quantity."""
        out = {}
        for name in ("mass", "energy", "hamiltonian"):
            q = getattr(self, name)
            ref = max(abs(float(q[0])), np.finfo(float).tiny)
            out[name] = float(np.max(np.abs(q - q[0])) / ref)
        return out


@dataclass
class EvolveResult:
    state: CoefficientState
    log: ConservationLog
    snapshots: list = field(default_factory=list)


def evolve(state, tensor, proj, t, config=None, checkpoints=None):
    """Integrate the truncated flow over a time span t (either sign).

    Returns an EvolveResult: the state at state.time + t, a ConservationLog
    sampled at every accepted step, and, when checkpoints (offsets from the
    start, sorted, within [0, t] or [t, 0]) are given, the state snapshot at
    each checkpoint (hit exactly by clipping steps, not interpolated).
    """
    _require_match(state, tensor, proj)
    if not math.isfinite(t):
        raise ValueError("time span must be finite")
    config = config or IntegratorConfig()
    kernel = FlowKernel(tensor, proj)

    cps = [] if checkpoints is None else [float(s) for s in checkpoints]
    if any(not math.isfinite(s) for s in cps):
        raise ValueError("checkpoints must be finite")
    sign = 1.0 if t >= 0 else -1.0
    if sorted(cps, key=lambda s: sign * s) != cps:
        raise ValueError("checkpoints must be sorted along the direction of t")
    if cps and (min(cps) < min(0.0, t) or max(cps) > max(0.0, t)):
        raise ValueError("checkpoints must lie between 0 and t")
    # stop offsets ending at t; the first len(cps) of them are checkpoints
    stops = cps if cps and cps[-1] == t else cps + [t]

    rows = []  # (time, mass, energy, hamiltonian)
    reached = 0.0

    def observe(local_t, c, f):
        if rows and local_t == 0.0:
            return  # a segment's start repeats the previous segment's end
        rows.append((state.time + reached + local_t, *kernel.conserved(c, f)))

    snapshots = []
    c = state.coeffs
    for stop in stops:
        c = kernel.evolve(c, stop - reached, config, observer=observe)
        reached = stop
        if len(snapshots) < len(cps):
            snapshots.append(CoefficientState(state.family, c.copy(), state.time + reached))

    final = CoefficientState(state.family, c, state.time + t)
    log = ConservationLog(*(np.asarray(column) for column in zip(*rows)))
    return EvolveResult(final, log, snapshots)


def _spacetime_l4_hol(coeffs):
    # pi b_m = sum_{j+k=m} c_j c_k (m! / (j! k! 2^m))^{1/2}, an anti-diagonal
    # sum whose weights, square roots of binomial probabilities, are <= 1
    j, k = np.indices((len(coeffs), len(coeffs)))
    m = j + k
    log_fact = gammaln(np.arange(2 * len(coeffs) - 1) + 1.0)
    weight = np.exp(0.5 * (log_fact[m] - log_fact[j] - log_fact[k] - m * math.log(2.0)))
    terms = (np.outer(coeffs, coeffs) * weight).ravel()
    b = np.bincount(m.ravel(), terms.real) + 1j * np.bincount(m.ravel(), terms.imag)
    return (0.25 * float(np.sum(b.real ** 2 + b.imag ** 2))) ** 0.25


def _spacetime_l4_radial(coeffs):
    N = len(coeffs) - 1
    # |sum a_n psi_n(u)|^4 e^{-2u} against the fold: degree 4N needs 2N+1 nodes
    rule = build_laguerre_rule(2 * N + 5, scale=2.0)
    psi = laguerre_weighted(np.arange(N + 1), 0, rule.nodes)
    M = 4 * N + 1
    tau = -math.pi / 4.0 + (np.arange(M) + 0.5) * (math.pi / 2.0) / M
    # lambda_n = 4n + 2; the common e^{-2 i tau} phase drops inside |.|
    phases = np.exp(-4j * np.outer(tau, np.arange(N + 1)))
    F = (phases * coeffs) @ psi
    per_tau = (F.real ** 2 + F.imag ** 2) ** 2 @ rule.weights
    return (0.5 * float(per_tau.mean())) ** 0.25


def _spacetime_l4_eigenspace(family, coeffs):
    N = family.level
    table = _hermite_product_table(N, build_quadrature(2 * N + 5, scale=2.0))
    F = (coeffs[:, None] * table).T @ table[::-1]
    total = float(np.sum((F.real ** 2 + F.imag ** 2) ** 2))
    return ((math.pi / 2.0) * total) ** 0.25


def spacetime_l4(state):
    """L^4 norm of the linear flow over one period window:
    (int_{-pi/4}^{pi/4} int |e^{-i tau H} u|^4 dx dtau)^{1/4}.

    Evaluated exactly per family: the holomorphic chain reduces to a
    diagonal sum over the squared coefficient convolution (all interactions
    share one phase), the radial chain to a uniform tau average that a
    finite exponential sum makes exact, and an eigenspace carries a single
    global phase so only the spatial quartic integral remains.
    """
    kind = state.family.kind
    if kind == "holomorphic":
        return _spacetime_l4_hol(state.coeffs)
    if kind == "radial":
        return _spacetime_l4_radial(state.coeffs)
    return _spacetime_l4_eigenspace(state.family, state.coeffs)


def state_to_dict(state):
    """JSON-ready dict: {family, time, coeffs: [[re, im], ...]}."""
    return {
        "family": state.family.label,
        "time": state.time,
        "coeffs": [[float(c.real), float(c.imag)] for c in state.coeffs],
    }


def state_from_dict(data):
    coeffs = np.array([complex(re, im) for re, im in data["coeffs"]], dtype=np.complex128)
    return CoefficientState(family_from_label(data["family"]), coeffs, float(data.get("time", 0.0)))
