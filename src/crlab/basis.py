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

Evaluation never forms factorials or raw Hermite polynomials: the 1D chain
uses the normalized three-term recurrence, and every radial profile (the
holomorphic and radial chains, and an eigenspace read in polar form) comes
from one normalized Laguerre recurrence, laguerre_weighted.  The
Gaussian envelope is kept separate wherever quadrature needs the polynomial
part alone.  sup_norms, the sup norm of whole fields, reads every family as
an angular Fourier series on one polar grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

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
    "eval_hermite_1d",
    "hermite_polyparts",
    "laguerre_weighted",
    "eval_basis",
    "lp_norm",
    "norm_decay_study",
    "sup_norms",
]

# Log of the smallest normal float64: envelopes below it are combined with
# their polynomial part in log space.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LN2 = math.log(2.0)
# exponent-carrying Laguerre mantissas are scaled down past 2^600, far enough
# below overflow for one more recurrence step at any argument in use
_RESCALE_BITS = 600


class GridResolutionError(ValueError):
    """A grid or rule failed its doubled-resolution self-check."""


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
    """Gauss rule for the weight e^(-scale x^2) on the real line.

    Parameters
    ----------
    n_nodes : int
        Number of nodes; the rule is exact through degree 2 n_nodes - 1.
    scale : float
        Gaussian scale s in the weight e^(-s x^2); must be > 0.

    Returns
    -------
    QuadratureRule
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not (scale > 0) or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    if n_nodes <= 160:
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
    else:
        # Golub-Welsch on the Hermite Jacobi matrix; stays accurate where
        # hermgauss's Newton polish degrades for very large rules.
        off = np.sqrt(np.arange(1, n_nodes) / 2.0)
        x, vec = eigh_tridiagonal(np.zeros(n_nodes), off)
        w = math.sqrt(math.pi) * vec[0] ** 2
    root = math.sqrt(scale)
    return QuadratureRule(nodes=x / root, weights=w / root, scale=float(scale))


def build_laguerre_rule(n_nodes, scale=1.0):
    """Gauss rule on [0, inf) in folded form: sum(w g(u)) = int g(u) du,
    exact whenever g(u) = P(u) e^(-scale u) with deg P <= 2 n_nodes - 1.

    The e^(-scale u) factor is folded into the weights via the identity
    w_i e^(v_i) = v_i / ((n+1) psi_{n+1}(v_i))^2 with psi_k = L_k e^(-v/2),
    which keeps every weight a normal float even for rules with thousands of
    nodes (the raw Gauss-Laguerre weights underflow there).  Callers must
    therefore hand in integrands that already carry their own exponential
    decay, e.g. psi_n(u)^p.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not (scale > 0) or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    diag = 2.0 * np.arange(n_nodes) + 1.0
    off = np.arange(1.0, n_nodes)
    if n_nodes == 1:
        v = np.array([1.0])
    else:
        v = eigh_tridiagonal(diag, off, eigvals_only=True)
    psi = laguerre_weighted(n_nodes + 1, 0, v)[0]
    wfold = v / ((n_nodes + 1) * psi) ** 2
    return QuadratureRule(nodes=v / scale, weights=wfold / scale, scale=float(scale))


# ---------------------------------------------------------------------------
# 1D building blocks

def eval_hermite_1d(n, x):
    """Normalized 1D Hermite function h_n(x), vectorized over x.

    Uses the stable normalized recurrence
    h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}
    on the envelope-free values h_k e^(x^2/2) with exponent tracking, so the
    result is correct wherever it is representable and 0 where the true
    value underflows.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite evaluation point")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    v0 = np.full(x.shape, math.pi ** -0.25)
    logscale = np.zeros_like(x)
    if n == 0:
        vn = v0
    else:
        v1 = math.sqrt(2.0) * x * v0
        for k in range(1, n):
            v0, v1 = v1, x * math.sqrt(2.0 / (k + 1)) * v1 - math.sqrt(k / (k + 1.0)) * v0
            big = np.abs(v1) > 1e250
            if np.any(big):
                v0[big] *= 1e-250
                v1[big] *= 1e-250
                logscale[big] += 250.0 * math.log(10.0)
        vn = v1
    logenv = logscale - 0.5 * x * x
    with np.errstate(under="ignore"):
        out = np.where(logenv > _LOG_TINY + 40.0, vn * np.exp(np.minimum(logenv, 0.0)), 0.0)
        # points whose combined magnitude sits between tiny and the cutoff
        mag = np.log(np.abs(vn) + 1e-300) + logenv
        edge = (logenv <= _LOG_TINY + 40.0) & (mag > _LOG_TINY)
        if np.any(edge):
            out[edge] = np.sign(vn[edge]) * np.exp(mag[edge])
    return float(out[0]) if scalar else out


def hermite_polyparts(n_max, x):
    """Envelope-free Hermite values h_k(x) e^(x^2/2) for k = 0..n_max.

    Returns an array of shape (n_max+1, len(x)).  Only valid while the
    envelope-free values stay inside float64 range (x^2/2 < ~600); quadrature
    nodes used in this package always satisfy that by construction.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x * x > 1200.0):
        raise ValueError("evaluation points too far out for envelope-free values")
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi ** -0.25
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = x * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def _laguerre_chain(alpha, u, psi, max_order, exponent=None):
    """Yield psi_k^{(alpha)}(u) for k = 0..max_order from psi = psi_0^{(alpha)}(u),
    by the normalized recurrence, whose every value is bounded.  Given an
    integer exponent per point, the chain runs on mantissas of psi * 2^exponent
    and moves powers of two into the exponent before they can overflow."""
    prev = np.zeros_like(u)
    yield psi
    for k in range(max_order):
        a = (2 * k + 1 + alpha - u) / math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        b = math.sqrt(k * (k + alpha) / ((k + 1.0) * (k + 1.0 + alpha)))
        psi, prev = a * psi - b * prev, psi
        if exponent is not None:
            big = np.abs(psi) > 2.0 ** _RESCALE_BITS
            if np.any(big):
                psi[big] = np.ldexp(psi[big], -_RESCALE_BITS)
                prev[big] = np.ldexp(prev[big], -_RESCALE_BITS)
                exponent[big] += _RESCALE_BITS
        yield psi


def laguerre_weighted(m, alpha, u):
    """Orthonormal Laguerre functions psi_{m_j}^{(alpha_j)}(u), one row per j.

    psi_m^{(a)}(u) = sqrt(m!/(m+a)!) u^{a/2} L_m^{(a)}(u) e^{-u/2} is
    orthonormal in L^2(du) for each a; with a = 0 it is L_m(u) e^{-u/2}.
    Orders m and alpha are broadcast against each other; the result has shape
    (rows, len(u)) and is valid for every u >= 0.

    All rows of one alpha come from one run of the normalized recurrence,
    seeded at psi_0^{(a)} in log form.  Only points whose seed is not a
    normal float carry a separate power-of-two exponent through the
    recurrence, so large arguments neither underflow at the seed nor overflow
    on the way; values below float64 range come out subnormal or 0.
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
        orders = m[rows]
        log_seed = -0.5 * u if a == 0 else 0.5 * (a * logu - u - gammaln(a + 1.0))
        with np.errstate(under="ignore"):
            seed = np.exp(log_seed)
        far = (log_seed < _LOG_TINY) & (log_seed > -np.inf)
        shift = np.floor(log_seed[far] / _LN2).astype(np.int64)
        mantissa = np.exp(log_seed[far] - shift * _LN2)
        for idx, psi0, exponent in ((np.flatnonzero(~far), seed[~far], None),
                                    (np.flatnonzero(far), mantissa, shift)):
            if idx.size == 0:
                continue
            for k, psi in enumerate(_laguerre_chain(a, u[idx], psi0, int(orders.max()), exponent)):
                at_k = rows[orders == k]
                if at_k.size:
                    out[np.ix_(at_k, idx)] = psi if exponent is None else np.ldexp(psi, exponent)
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
        h1 = eval_hermite_1d(n, x1.ravel()).reshape(x1.shape)
        h2 = eval_hermite_1d(family.level - n, x2.ravel()).reshape(x2.shape)
        out = (h1 * h2).astype(complex)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# L^p norms

def _simpson(values, dx):
    # composite Simpson over an odd number of uniformly spaced points
    n = values.shape[-1]
    if n % 2 == 0:
        raise ValueError("Simpson needs an odd point count")
    coeff = np.ones(n)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    return float(np.sum(values * coeff, axis=-1) * dx / 3.0)


def _hol_lp_finite(n, p, npts):
    # |phi_n|(r) = exp(n log r - r^2/2 - C) with C = (lgamma(n+1) + log pi)/2;
    # the integrand is a single smooth bump, integrated in shifted log form.
    C = 0.5 * (gammaln(n + 1) + math.log(math.pi))
    rmax = 1.2 * math.sqrt(2.0 * (2.0 * n + 2.0)) + 4.0
    r = np.linspace(0.0, rmax, npts | 1)
    if n == 0:
        lg = p * (-0.5 * r * r - C)
    else:
        logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        lg = p * (n * logr - 0.5 * r * r - C)
    m = float(np.max(lg))
    with np.errstate(under="ignore"):
        body = np.exp(np.maximum(lg - m, -745.0)) * r
    # ||phi||_p = e^(m/p) (2 pi int e^(lg - m) r dr)^(1/p); keeping the shift
    # inside the root avoids under/overflow for extreme (n, p)
    integral = 2.0 * math.pi * _simpson(body, r[1] - r[0])
    return math.exp(m / p) * integral ** (1.0 / p)


def _lp_1d_hermite(k, p, npts):
    # int |h_k(x)|^p dx by composite Simpson
    lam = 2 * k + 1
    xmax = 1.2 * math.sqrt(2.0 * lam) + 4.0
    x = np.linspace(-xmax, xmax, npts | 1)
    vals = np.abs(eval_hermite_1d(k, x)) ** p
    return _simpson(vals, x[1] - x[0])


def _parabola_vertex(y0, y1, y2):
    """Vertex height of the parabola through three equally spaced values
    where it opens downward; the middle value otherwise."""
    denom = y0 - 2.0 * y1 + y2
    return y1 - 0.125 * (y0 - y2) ** 2 / denom if denom < 0 else y1


def _sup_refined(values, xs):
    # grid max plus parabolic refinement through the bracketing triple
    i = int(np.argmax(values))
    if 0 < i < len(xs) - 1:
        return float(max(_parabola_vertex(*values[i - 1:i + 2]), values[i]))
    return float(values[i])


def _radial_lp_even(n, p, extra_nodes=0):
    # int |phi|^p = pi^(1-p/2) int_0^inf psi_n(u)^p du and psi_n^p is exactly
    # a degree-pn polynomial times e^(-(p/2)u): the folded Laguerre rule is exact.
    s = p / 2.0
    n_nodes = (p * n) // 2 + 1 + extra_nodes
    rule = build_laguerre_rule(n_nodes, scale=s)
    psi = laguerre_weighted(n, 0, rule.nodes)[0]
    integral = float(np.sum(rule.weights * psi ** p))
    return (math.pi ** (1.0 - p / 2.0) * integral) ** (1.0 / p)


def lp_norm(family, n, p, npoints=2048):
    """Numerical L^p(R^2) norm of the n-th basis function.

    Parameters
    ----------
    family : BasisFamily
    n : int
        Mode index.
    p : float or math.inf
        Exponent in [2, inf]; p = inf is the sup over a refined grid.
    npoints : int
        Base resolution for composite quadrature.  A second computation at
        doubled resolution (or an enlarged Gauss rule) always runs; the two
        must agree to 1e-3 relative or GridResolutionError is raised.

    Notes
    -----
    Every integrand here reduces to 1D: holomorphic and radial moduli are
    radially symmetric, and eigenspace basis functions factor across axes.
    """
    if p != math.inf and p < 2:
        raise ValueError("p must be in [2, inf]")
    if n < 0:
        raise ValueError("mode index must be >= 0")
    if family.kind == "eigenspace" and not 0 <= n <= family.level:
        raise ValueError(f"eigenspace({family.level}) has modes 0..{family.level}")

    radial_exact = (
        family.kind == "radial"
        and p != math.inf
        and float(p).is_integer()
        and int(p) % 2 == 0
    )

    def compute(npts, extra_nodes):
        if radial_exact:
            return _radial_lp_even(n, int(p), extra_nodes)
        if family.kind != "eigenspace" and p == math.inf:
            rmax = 1.2 * math.sqrt(2.0 * family.eigenvalue(n)) + 4.0
            r = np.linspace(0.0, rmax, npts)
            vals = np.abs(eval_basis(family, n, r, np.zeros_like(r)))
            return _sup_refined(vals, r)
        if family.kind == "holomorphic":
            return _hol_lp_finite(n, p, npts)
        if family.kind == "radial":
            umax = 4.0 * n * 1.15 + 30.0
            u = np.linspace(0.0, umax, npts | 1)
            psi = laguerre_weighted(n, 0, u)[0]
            integral = math.pi ** (1.0 - p / 2.0) * _simpson(np.abs(psi) ** p, u[1] - u[0])
            return integral ** (1.0 / p)
        k, m = n, family.level - n
        if p == math.inf:
            sup = 1.0
            for kk in (k, m):
                xmax = 1.2 * math.sqrt(2.0 * (2 * kk + 1)) + 4.0
                x = np.linspace(0.0, xmax, npts)  # |h_k| is even in x
                sup *= _sup_refined(np.abs(eval_hermite_1d(kk, x)), x)
            return sup
        return (_lp_1d_hermite(k, p, npts) * _lp_1d_hermite(m, p, npts)) ** (1.0 / p)

    base = compute(npoints, 0)
    fine = compute(2 * npoints, 24)
    ref = max(abs(fine), 1e-300)
    rel = abs(base - fine) / ref
    if rel > 1e-3:
        raise GridResolutionError(
            f"L^{p} norm self-check failed for {family.label} n={n}: "
            f"{base!r} vs {fine!r} at doubled resolution (rel {rel:.2e}); "
            f"increase npoints"
        )
    return fine


def norm_decay_study(family, p, n_values, log_correction=False, npoints=2048):
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
    norms = np.array([lp_norm(family, n, p, npoints=npoints) for n in n_values])
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
# its rotation-adapted basis, l = -N, -N+2, ..., N.

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
    """Radial profiles R_j(r) = psi_{m_j}^{(|l_j|)}(r^2) / sqrt(pi), one row
    per coefficient, on the radii r."""
    u = np.asarray(r, dtype=np.float64) ** 2
    return laguerre_weighted(orders, np.abs(ells), u) / math.sqrt(math.pi)


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


def _polar_field(g, ells, table, n_theta):
    """u at theta_k = 2 pi k / n_theta (rows) and the table's radii (columns)."""
    spectrum = np.zeros((n_theta, table.shape[1]), dtype=np.complex128)
    for j, ell in enumerate(ells.tolist()):
        spectrum[ell % n_theta] += g[j] * table[j]
    return np.fft.ifft(spectrum, axis=0) * n_theta


def _refine_peak(p, t_idx, r_idx):
    """Parabolic refinement of a grid maximum of |u|^2, one axis at a time."""
    n_t, n_r = p.shape
    peak = max(p[t_idx, r_idx], _parabola_vertex(
        p[(t_idx - 1) % n_t, r_idx], p[t_idx, r_idx], p[(t_idx + 1) % n_t, r_idx]))
    if 0 < r_idx < n_r - 1:
        peak = max(peak, _parabola_vertex(*p[t_idx, r_idx - 1:r_idx + 2]))
    return peak


def _sup_of_sample(g, ells, table, n_theta):
    """sup |u| over the polar grid, with the peak refined."""
    field = _polar_field(g, ells, table, n_theta)
    p = field.real ** 2 + field.imag ** 2
    t_idx, r_idx = np.unravel_index(int(np.argmax(p)), p.shape)
    return math.sqrt(_refine_peak(p, t_idx, r_idx))


def sup_norms(family, coeffs, n_radial=None, n_theta=None, check=True):
    """sup |u| of the field of each row of a (rows, n_modes) coefficient matrix.

    The field is built on a polar grid that includes r = 0, by one FFT over
    theta per row, and the grid maximum of |u|^2 is refined by a parabola
    along each axis.  An eigenspace row is read as coefficients in the
    rotation-adapted basis, whose fields differ from the Hermite-product
    ones but whose Gaussian measures agree.  With check=True the first three
    rows are recomputed on the doubled grid and must agree to 0.1%, or
    GridResolutionError is raised.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    ells, orders = _harmonics(family, coeffs.shape[1])
    r_max, n_r, n_t = _polar_resolution(family, ells, n_radial, n_theta)
    table = _angular_radial_table(ells, orders, np.linspace(0.0, r_max, n_r))
    if check:
        table_fine = _angular_radial_table(ells, orders, np.linspace(0.0, r_max, 2 * n_r))
        for g in coeffs[:3]:
            coarse = _sup_of_sample(g, ells, table, n_t)
            fine = _sup_of_sample(g, ells, table_fine, 2 * n_t)
            if abs(coarse - fine) > 1e-3 * fine:
                raise GridResolutionError(
                    f"sup-norm grid too coarse for {family.label} at cutoff "
                    f"{len(ells) - 1}: {coarse!r} vs {fine!r} at doubled resolution"
                )
    return np.array([_sup_of_sample(g, ells, table, n_t) for g in coeffs])
