"""Eigenfunctions of the 2D quantum harmonic oscillator and their numerics.

Everything downstream is spectral with respect to H = -Laplacian + |x|^2 on
L^2(R^2).  Three orthonormal families are supported, each indexed by a single
integer n:

* ``holomorphic``: phi_n(x) = (pi n!)^(-1/2) (x1 + i x2)^n e^(-|x|^2/2),
  eigenvalue 2n + 2 (the lowest Landau level / Bargmann-Fock chain);
* ``radial``: phi_n(x) = pi^(-1/2) L_n(|x|^2) e^(-|x|^2/2) with L_n the
  Laguerre polynomial, eigenvalue 4n + 2;
* ``eigenspace(N)``: the full eigenspace E_N with eigenvalue 2N + 2,
  spanned by h_k(x1) h_{N-k}(x2) for k = 0..N, where h_k are the
  L^2(R)-normalized 1D Hermite functions.

Evaluation never forms factorials or raw Hermite polynomials: the 1D
Hermite functions and every radial profile (the holomorphic and radial
chains, and an eigenspace read in polar form) come from one normalized
three-term recurrence seeded in log form.  lp_norm uses closed forms where
they exist and otherwise one Gauss-Legendre rule between the zeros of the
integrand.  sup_norms, the sup norm of whole fields, reads every family as
an angular Fourier series on one polar grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, xlogy

__all__ = [
    "BasisFamily",
    "HOLOMORPHIC",
    "RADIAL",
    "eigenspace",
    "family_from_label",
    "QuadratureRule",
    "GridResolutionError",
    "build_quadrature",
    "build_laguerre_rule",
    "hermite_functions",
    "laguerre_weighted",
    "eval_basis",
    "lp_norm",
    "norm_decay_study",
    "sup_norms",
]

# Log of the smallest normal float64: chain seeds below it run on mantissas
# with a separate power-of-two exponent.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LN2 = math.log(2.0)
# exponent-carrying mantissas are scaled down past 2^600, far enough below
# overflow for one more recurrence step at any argument in use
_RESCALE_BITS = 600
# |f|^p is integrated out to this far past the turning point of f, where it
# has fallen below e^{-80} of its peak
_TAIL = 8.0
# Newton steps for the Hermite sup; five reach rounding for every k <= 2000
_NEWTON_STEPS = 8


class GridResolutionError(ValueError):
    """A grid or rule failed its self-check."""


@dataclass(frozen=True)
class BasisFamily:
    """One of the three eigenfunction chains.

    ``kind`` is "holomorphic", "radial", or "eigenspace"; ``level`` is the
    eigenspace level N and must be None for the other two kinds.
    """

    kind: str
    level: int | None = None

    def __post_init__(self):
        if self.kind not in ("holomorphic", "radial", "eigenspace"):
            raise ValueError(f"unknown basis family kind {self.kind!r}")
        if self.kind == "eigenspace":
            if self.level is None or self.level < 0:
                raise ValueError("eigenspace family needs a level N >= 0")
        elif self.level is not None:
            raise ValueError(f"{self.kind} family takes no level")

    def eigenvalue(self, n):
        """Eigenvalue of H for mode index n (vectorized over n)."""
        n = np.asarray(n, dtype=float)
        if np.any(n < 0):
            raise ValueError("mode index must be >= 0")
        if self.kind == "holomorphic":
            lam = 2.0 * n + 2.0
        elif self.kind == "radial":
            lam = 4.0 * n + 2.0
        else:
            if np.any(n > self.level):
                raise ValueError(f"eigenspace level {self.level} has modes 0..{self.level}")
            lam = np.full_like(n, 2.0 * self.level + 2.0)
        return float(lam) if lam.ndim == 0 else lam

    @property
    def label(self):
        if self.kind == "eigenspace":
            return f"eigenspace({self.level})"
        return self.kind


HOLOMORPHIC = BasisFamily("holomorphic")
RADIAL = BasisFamily("radial")


def eigenspace(level):
    return BasisFamily("eigenspace", level)


def family_from_label(label):
    """Inverse of BasisFamily.label, accepting short aliases."""
    label = label.strip().lower()
    if label in ("holomorphic", "hol"):
        return HOLOMORPHIC
    if label in ("radial", "rad"):
        return RADIAL
    if label.startswith("eigenspace(") and label.endswith(")"):
        return eigenspace(int(label[len("eigenspace("):-1]))
    raise ValueError(f"cannot parse basis family {label!r}")


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights with sum(w f(x)) = int f(x) e^(-scale x^2) dx.

    Exact for polynomials f of degree <= 2 len(nodes) - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    scale: float

    def __len__(self):
        return len(self.nodes)

    def require_degree(self, degree):
        """Raise unless the rule integrates polynomials of ``degree`` exactly."""
        need = degree // 2 + 1
        if len(self) < need:
            raise ValueError(
                f"quadrature rule has {len(self)} nodes, integrand of degree "
                f"{degree} needs at least {need}"
            )


def build_quadrature(n_nodes, scale=1.0):
    """Gauss rule of n_nodes nodes for the weight e^(-scale x^2), scale > 0,
    on the real line: exact through degree 2 n_nodes - 1.

    The nodes are the zeros of H_n, the eigenvalues of its Jacobi matrix
    polished by one Newton step.  The weights are the Christoffel form
    w_i = e^(-x_i^2) / sum_{k<n} h_k(x_i)^2, summed along one run of the
    Hermite recurrence, so each holds its relative accuracy out to the
    outermost node, at any n.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not (scale > 0) or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    x = _hermite_zeros(n_nodes)
    # Newton on h_n, h_n' = sqrt(2n) h_{n-1} - x h_n: the outer eigenvalues are
    # off by up to 2e-13, which makes a 9e-12 weight error at 300 nodes
    h = hermite_functions([n_nodes - 1, n_nodes], x)
    x = x - h[1] / (math.sqrt(2.0 * n_nodes) * h[0] - x * h[1])
    total = _christoffel_sum(x, -0.25 * math.log(math.pi) - 0.5 * x * x, _hermite_step)
    root = math.sqrt(scale)
    return QuadratureRule(nodes=x / root, weights=np.exp(-x * x) / (total * root),
                          scale=float(scale))


def build_laguerre_rule(n_nodes, scale=1.0):
    """Gauss rule on [0, inf) in folded form: sum(w g(u)) = int g(u) du,
    exact whenever g(u) = P(u) e^(-scale u) with deg P <= 2 n_nodes - 1.

    The weights carry the e^(-scale u) factor by the Christoffel form
    w_i e^(v_i) = 1 / sum_{k<n} psi_k(v_i)^2 with psi_k = L_k e^(-u/2),
    summed along one run of the recurrence: every weight is a normal float,
    accurate to rounding, even where the raw Gauss-Laguerre weights
    underflow.  Callers must therefore hand in integrands that already carry
    their own exponential decay, e.g. psi_n(u)^p.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not (scale > 0) or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    v = _laguerre_zeros(n_nodes)
    total = _christoffel_sum(v, -0.5 * v, _laguerre_step(0))
    return QuadratureRule(nodes=v / scale, weights=1.0 / (total * scale), scale=float(scale))


def _christoffel_sum(nodes, log_seed, step):
    """sum_{k<n} psi_k(x_i)^2 at the n zeros x_i of psi_n, by one run of the
    chain: the reciprocal of the Christoffel function, whose value there is
    the Gauss weight in the chain's own normalization."""
    total = np.zeros_like(nodes)
    for idx, _, psi in _chain(nodes, log_seed, step, len(nodes) - 1):
        total[idx] += psi * psi
    return total


def _laguerre_zeros(n):
    """Zeros of L_n, the eigenvalues of its Jacobi matrix (none for n = 0)."""
    if n == 0:
        return np.zeros(0)
    return eigh_tridiagonal(2.0 * np.arange(n) + 1.0, np.arange(1.0, n), eigvals_only=True)


def _hermite_zeros(k):
    """Zeros of h_k, the eigenvalues of its Jacobi matrix (none for k = 0)."""
    if k == 0:
        return np.zeros(0)
    return eigh_tridiagonal(np.zeros(k), np.sqrt(np.arange(1, k) / 2.0), eigvals_only=True)


# ---------------------------------------------------------------------------
# orthonormal chains

def _chain(x, log_seed, step, top):
    """Yield (idx, k, psi_k(x[idx])) for k = 0..top, where psi_0 = e^log_seed
    and psi_{k+1} = a_k psi_k - b_k psi_{k-1} with (a_k, b_k) = step(k, x[idx]).

    The recurrence is normalized, so every value it yields is bounded.  Points
    whose seed is a normal float run it directly.  The others run on mantissas
    of psi * 2^exponent with an integer exponent per point, which takes the
    powers of two before they can overflow; so large arguments neither
    underflow at the seed nor overflow on the way, and values below float64
    range come out subnormal or 0.
    """
    far = (log_seed < _LOG_TINY) & (log_seed > -np.inf)
    shift = np.floor(log_seed[far] / _LN2).astype(np.int64)
    mantissa = np.exp(log_seed[far] - shift * _LN2)
    for idx, psi, exponent in ((np.flatnonzero(~far), np.exp(log_seed[~far]), None),
                               (np.flatnonzero(far), mantissa, shift)):
        if idx.size == 0:
            continue
        pts = x[idx]
        prev = np.zeros_like(pts)
        yield idx, 0, psi if exponent is None else np.ldexp(psi, exponent)
        for k in range(top):
            a, b = step(k, pts)
            psi, prev = a * psi - b * prev, psi
            if exponent is not None:
                big = np.abs(psi) > 2.0 ** _RESCALE_BITS
                if np.any(big):
                    psi[big] = np.ldexp(psi[big], -_RESCALE_BITS)
                    prev[big] = np.ldexp(prev[big], -_RESCALE_BITS)
                    exponent[big] += _RESCALE_BITS
            yield idx, k + 1, psi if exponent is None else np.ldexp(psi, exponent)


def _chain_rows(orders, x, log_seed, step):
    """The chain's values at the given orders, one row per order."""
    out = np.empty((orders.size, x.size))
    for idx, k, psi in _chain(x, log_seed, step, int(orders.max())):
        at_k = np.flatnonzero(orders == k)
        if at_k.size:
            out[np.ix_(at_k, idx)] = psi
    return out


def _laguerre_step(alpha):
    def step(k, u):
        a = (2 * k + 1 + alpha - u) / math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        return a, math.sqrt(k * (k + alpha) / ((k + 1.0) * (k + 1.0 + alpha)))
    return step


def _hermite_step(k, x):
    return x * math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))


def hermite_functions(k, x):
    """Normalized 1D Hermite functions h_{k_j}(x), one row per order k_j.

    h_k(x) = (2^k k! sqrt(pi))^{-1/2} H_k(x) e^{-x^2/2} is orthonormal in
    L^2(R).  The result has shape (rows, len(x)) and is valid at every finite
    x.  All rows come from one run of the normalized recurrence
    h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}, seeded at
    h_0 = pi^{-1/4} e^{-x^2/2} in log form, on the same chain as
    laguerre_weighted.
    """
    k = np.atleast_1d(np.asarray(k, dtype=np.int64))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite evaluation point")
    if np.any(k < 0):
        raise ValueError("Hermite order must be >= 0")
    return _chain_rows(k, x, -0.25 * math.log(math.pi) - 0.5 * x * x, _hermite_step)


def laguerre_weighted(m, alpha, u):
    """Orthonormal Laguerre functions psi_{m_j}^{(alpha_j)}(u), one row per j.

    psi_m^{(a)}(u) = sqrt(m!/(m+a)!) u^{a/2} L_m^{(a)}(u) e^{-u/2} is
    orthonormal in L^2(du) for each a; with a = 0 it is L_m(u) e^{-u/2}.
    Orders m and alpha are broadcast against each other; the result has shape
    (rows, len(u)) and is valid for every u >= 0.  All rows of one alpha come
    from one run of the normalized recurrence, seeded at psi_0^{(a)} in log
    form.
    """
    m, alpha = np.broadcast_arrays(np.atleast_1d(np.asarray(m, dtype=np.int64)),
                                   np.atleast_1d(np.asarray(alpha, dtype=np.int64)))
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any(u < 0):
        raise ValueError("Laguerre argument must be >= 0")
    if np.any(m < 0) or np.any(alpha < 0):
        raise ValueError("Laguerre orders must be >= 0")
    out = np.empty((m.size, u.size))
    with np.errstate(divide="ignore"):
        logu = np.log(u)
    for a in np.unique(alpha).tolist():
        rows = np.flatnonzero(alpha == a)
        log_seed = -0.5 * u if a == 0 else 0.5 * (a * logu - u - gammaln(a + 1.0))
        out[rows] = _chain_rows(m[rows], u, log_seed, _laguerre_step(a))
    return out


# ---------------------------------------------------------------------------
# 2D evaluation

def eval_basis(family, n, x1, x2):
    """Evaluate the n-th basis function of ``family`` at points (x1, x2).

    x1, x2 are broadcast against each other; the result is complex128 (the
    holomorphic chain is genuinely complex, the others real-valued).
    """
    if n < 0:
        raise ValueError("mode index must be >= 0")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x1, x2 = np.broadcast_arrays(x1, x2)
    scalar = x1.ndim == 0
    x1, x2 = np.atleast_1d(x1), np.atleast_1d(x2)
    if family.kind in ("holomorphic", "radial"):
        # phi_n = psi_m^{(l)}(r^2) e^{i l theta} / sqrt(pi) with (l, m) = (n, 0) or (0, n)
        ell, m = (n, 0) if family.kind == "holomorphic" else (0, n)
        r2 = (x1 * x1 + x2 * x2).ravel()
        psi = laguerre_weighted(m, ell, r2)[0].reshape(x1.shape) / math.sqrt(math.pi)
        out = psi * np.exp(1j * ell * np.arctan2(x2, x1))
    else:
        if n > family.level:
            raise ValueError(f"eigenspace({family.level}) has modes 0..{family.level}")
        h1 = hermite_functions(n, x1.ravel())[0].reshape(x1.shape)
        h2 = hermite_functions(family.level - n, x2.ravel())[0].reshape(x2.shape)
        out = (h1 * h2).astype(complex)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# L^p norms

def _between_zeros(integrand, zeros, end, points):
    """int_0^end of integrand = |f|^p (times a smooth weight) by a
    Gauss-Legendre rule of ``points`` nodes on each interval between
    consecutive zeros of f (ascending, below end), where |f|^p is one arch,
    and on intervals at most 0.5 wide from the last zero to end."""
    edges = np.concatenate(([0.0], zeros[zeros > 0.0]))
    tail = np.linspace(edges[-1], end, math.ceil(2.0 * (end - edges[-1])) + 1)
    edges = np.concatenate((edges, tail[1:]))
    t, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * t
    return float(np.sum(half[:, None] * w * integrand(x.ravel()).reshape(x.shape)))


def _hermite_sup(k):
    """sup |h_k|.  By Sonin-Polya the maxima of |h_k| grow toward the
    turning point sqrt(2k+1), so the sup sits at the largest critical point,
    found by Newton's method on h_k' = sqrt(2k) h_{k-1} - x h_k, with
    h_k'' = (x^2 - 2k - 1) h_k, from halfway between the largest zero and the
    turning point."""
    if k == 0:
        return math.pi ** -0.25
    x = 0.5 * (_hermite_zeros(k)[-1] + math.sqrt(2 * k + 1))
    for _ in range(_NEWTON_STEPS):
        h_prev, h = hermite_functions([k - 1, k], x)[:, 0]
        x -= (math.sqrt(2.0 * k) * h_prev - x * h) / ((x * x - 2 * k - 1) * h)
    return abs(float(hermite_functions(k, x)[0, 0]))


def lp_norm(family, n, p):
    """L^p(R^2) norm of the n-th basis function, for p in [2, inf].

    Holomorphic norms and the radial sup (1/sqrt(pi), at the origin) are
    closed forms, and an eigenspace sup is the product of two 1D sups
    (_hermite_sup).  Every other norm integrates |f|^p between the zeros of
    f (_between_zeros): the radial profile psi_n(r^2), or each 1D Hermite
    factor of an eigenspace mode on x >= 0, doubled.  That integral runs with
    16 and 32 points per interval, which must agree to 1e-3 relative or
    GridResolutionError is raised.
    """
    if not p >= 2:
        raise ValueError("p must be in [2, inf]")
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if family.kind == "eigenspace" and not 0 <= n <= family.level:
        raise ValueError(f"eigenspace({family.level}) has modes 0..{family.level}")

    if family.kind == "holomorphic":
        # |phi_n| = r^n e^{-r^2/2} / sqrt(pi n!) peaks at r^2 = n, and
        # int |phi_n|^p = pi^{1-p/2} (n!)^{-p/2} (2/p)^{np/2+1} Gamma(np/2+1)
        if p == math.inf:
            return math.exp(0.5 * (xlogy(n, n) - n - math.log(math.pi) - gammaln(n + 1.0)))
        log_integral = ((1.0 - 0.5 * p) * math.log(math.pi) - 0.5 * p * gammaln(n + 1.0)
                        + (0.5 * n * p + 1.0) * math.log(2.0 / p) + gammaln(0.5 * n * p + 1.0))
        return math.exp(log_integral / p)
    if p == math.inf:
        if family.kind == "radial":
            return 1.0 / math.sqrt(math.pi)
        return _hermite_sup(n) * _hermite_sup(family.level - n)

    # (integrand, zeros, turning point) per 1D factor
    if family.kind == "radial":
        # int |phi_n|^p dx = pi^{1-p/2} int_0^inf |psi_n(r^2)|^p 2r dr
        def radial(r):
            return 2.0 * r * np.abs(laguerre_weighted(n, 0, r * r)[0]) ** p
        factors = [(radial, np.sqrt(_laguerre_zeros(n)), math.sqrt(4.0 * n + 2.0))]
        constant = math.pi ** (1.0 - 0.5 * p)
    else:
        # |h_k|^p is even: twice its integral over x >= 0, once per axis
        def hermite(k):
            return lambda x: np.abs(hermite_functions(k, x)[0]) ** p
        factors = [(hermite(k), _hermite_zeros(k), math.sqrt(2.0 * k + 1.0))
                   for k in (n, family.level - n)]
        constant = 4.0

    def compute(points):
        integral = constant
        for integrand, zeros, turning in factors:
            integral *= _between_zeros(integrand, zeros, turning + _TAIL, points)
        return integral ** (1.0 / p)

    base, fine = compute(16), compute(32)
    rel = abs(base - fine) / max(abs(fine), 1e-300)
    if rel > 1e-3:
        raise GridResolutionError(
            f"L^{p} norm self-check failed for {family.label} n={n}: "
            f"{base!r} with 16 points per interval vs {fine!r} with 32 (rel {rel:.2e})"
        )
    return fine


def norm_decay_study(family, p, n_values, log_correction=False):
    """Fit the large-n decay of the basis L^p norms.

    Least squares of log ||phi_n||_p against log n, optionally with a
    log log n term for norms that carry a logarithmic correction on top of
    the power law.  Returns the fitted exponent (the log n coefficient),
    the log-correction coefficient (None unless requested), the design
    r-squared, and the norms themselves.
    """
    n_values = [int(n) for n in n_values]
    if len(n_values) < (3 if log_correction else 2) or min(n_values) < 2:
        raise ValueError("need at least 2 (3 with log correction) indices, all >= 2")
    norms = np.array([lp_norm(family, n, p) for n in n_values])
    logn = np.log(np.asarray(n_values, dtype=float))
    y = np.log(norms)
    cols = [np.ones_like(logn), logn]
    if log_correction:
        cols.append(np.log(logn))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {
        "family": family.label,
        "p": p,
        "n_values": n_values,
        "norms": norms,
        "exponent": float(coef[1]),
        "log_coeff": float(coef[2]) if log_correction else None,
        "r2": r2,
    }


# ---------------------------------------------------------------------------
# sup norms on a polar grid
#
# Every family's field is an angular Fourier series
# u(r, theta) = sum_j g_j R_j(r) e^{i l_j theta}: holomorphic mode n is the
# harmonic l = n, radial mode n is l = 0, and an eigenspace E_N is read in
# its rotation-adapted basis, l = -N, -N+2, ..., N.  The harmonics of E_N
# share the parity of N, so |u|^2 is pi-periodic and the field is built on
# half the angles; every field is built radii by angles, with its FFT along
# the contiguous angular axis.

def _harmonics(family, n_modes):
    """The angular harmonic l_j and the Laguerre order m_j of each
    coefficient row j, whose radial profile is psi_{m_j}^{(|l_j|)}(r^2)."""
    j = np.arange(n_modes)
    if family.kind == "holomorphic":
        return j, np.zeros_like(j)
    if family.kind == "radial":
        return np.zeros_like(j), j
    ells = -family.level + 2 * j
    return ells, (family.level - np.abs(ells)) // 2


def _angular_radial_table(ells, orders, r):
    """Radial profiles R_j(r) = psi_{m_j}^{(|l_j|)}(r^2) / sqrt(pi), one
    column per coefficient, one row per radius r."""
    u = np.asarray(r, dtype=np.float64) ** 2
    return np.ascontiguousarray(laguerre_weighted(orders, np.abs(ells), u).T) / math.sqrt(math.pi)


def _polar_resolution(family, ells, n_radial=None, n_theta=None):
    """(r_max, n_radial, n_theta) from the top eigenvalue and the largest
    |l|: 12 radial points per local oscillation and 8 angular points per
    top harmonic (one angular row for a rotation-invariant field), unless
    explicit counts are given."""
    lam = float(np.max(family.eigenvalue(np.arange(len(ells)))))
    ell_max = int(np.max(np.abs(ells)))
    r_max = 1.2 * math.sqrt(2.0 * lam) + 2.0
    if n_radial is None:
        n_radial = max(400, int(12.0 * r_max * math.sqrt(lam) / math.pi))
    if n_theta is None:
        n_theta = max(256, 8 * (ell_max + 1)) if ell_max else 1
    if n_theta < 2 * ell_max + 1:
        raise ValueError("n_theta must be at least twice the largest harmonic plus one")
    return r_max, int(n_radial), int(n_theta)


def _angular_fold(ells, n_theta):
    """(steps, n_cols) with l_j = l_0 + f steps_j and n_cols = n_theta / f,
    where f is the gcd of n_theta and every l_j - l_0.  On the grid
    theta_k = 2 pi k / n_theta, |u|^2 then has period n_cols in k: f = 2 on
    an eigenspace (its harmonics share the parity of N), f = 1 on the
    holomorphic chain, and a field of one harmonic, or a radial one, has a
    single angular column."""
    fold = math.gcd(n_theta, *(ells - ells[0]).tolist())
    return (ells - ells[0]) // fold, n_theta // fold


def _polar_field(g, steps, table, n_cols):
    """u e^{-i l_0 theta} at the table's radii (rows) and the first n_cols
    angles theta_k = 2 pi k / n_theta (columns), by one in-place inverse FFT
    along the contiguous angular axis.  Harmonics are distinct modulo
    n_theta unless all are equal, which leaves one column."""
    if n_cols == 1:
        # one real matrix product on the (re, im) pairs of g
        return (table @ g.view(np.float64).reshape(-1, 2)).view(np.complex128)
    spectrum = np.zeros((table.shape[0], n_cols), dtype=np.complex128)
    spectrum[:, steps] = table * g
    return np.fft.ifft(spectrum, axis=1, norm="forward", out=spectrum)


def _parabola_vertex(y0, y1, y2):
    """Vertex height of the parabola through three equally spaced values
    where it opens downward; the middle value otherwise."""
    denom = y0 - 2.0 * y1 + y2
    return y1 - 0.125 * (y0 - y2) ** 2 / denom if denom < 0 else y1


def _refine_peak(modulus, r_idx, t_idx):
    """Parabolic refinement of a grid maximum of |u|^2, one axis at a time,
    from the grid values of |u|; the angular axis wraps around its period."""
    n_r, n_t = modulus.shape
    ring = modulus[r_idx, [(t_idx - 1) % n_t, t_idx, (t_idx + 1) % n_t]] ** 2
    peak = max(ring[1], _parabola_vertex(*ring))
    if 0 < r_idx < n_r - 1:
        peak = max(peak, _parabola_vertex(*modulus[r_idx - 1:r_idx + 2, t_idx] ** 2))
    return float(peak)


def _sup_of_sample(g, steps, table, n_cols):
    """sup |u| over the polar grid, with the peak refined."""
    modulus = np.abs(_polar_field(g, steps, table, n_cols))
    r_idx, t_idx = np.unravel_index(int(np.argmax(modulus)), modulus.shape)
    return math.sqrt(_refine_peak(modulus, r_idx, t_idx))


def sup_norms(family, coeffs, n_radial=None, n_theta=None, check=True):
    """sup |u| of the field of each row of a (rows, n_modes) coefficient matrix.

    The field is built on a polar grid that includes r = 0, by one FFT over
    theta per row on the angles of one period of |u|^2, and the grid maximum
    of |u|^2 is refined by a parabola along each axis.  An eigenspace row is read as coefficients in the
    rotation-adapted basis, whose fields differ from the Hermite-product
    ones but whose Gaussian measures agree.  With check=True the first three
    rows are recomputed on the doubled grid and must agree to 0.1%, or
    GridResolutionError is raised.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    ells, orders = _harmonics(family, coeffs.shape[1])
    r_max, n_r, n_t = _polar_resolution(family, ells, n_radial, n_theta)
    table = _angular_radial_table(ells, orders, np.linspace(0.0, r_max, n_r))
    steps, n_cols = _angular_fold(ells, n_t)
    if check:
        table_fine = _angular_radial_table(ells, orders, np.linspace(0.0, r_max, 2 * n_r))
        steps_fine, n_cols_fine = _angular_fold(ells, 2 * n_t)
        for g in coeffs[:3]:
            coarse = _sup_of_sample(g, steps, table, n_cols)
            fine = _sup_of_sample(g, steps_fine, table_fine, n_cols_fine)
            if abs(coarse - fine) > 1e-3 * fine:
                raise GridResolutionError(
                    f"sup-norm grid too coarse for {family.label} at cutoff "
                    f"{len(ells) - 1}: {coarse!r} vs {fine!r} at doubled resolution"
                )
    return np.array([_sup_of_sample(g, steps, table, n_cols) for g in coeffs])
