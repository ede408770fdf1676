"""Basis families, pointwise evaluation, and L^p norms."""

import math

import numpy as np
import pytest
from scipy import special

from crlab.basis import (
    _LOG_TINY,
    HOLOMORPHIC,
    RADIAL,
    build_laguerre_rule,
    build_quadrature,
    eigenspace,
    eval_basis,
    family_from_label,
    hermite_functions,
    laguerre_weighted,
    lp_norm,
    norm_decay_study,
)


def test_family_labels_round_trip():
    for fam in (HOLOMORPHIC, RADIAL, eigenspace(3)):
        assert family_from_label(fam.label) == fam
    assert family_from_label("hol") == HOLOMORPHIC
    assert family_from_label("rad") == RADIAL
    with pytest.raises(ValueError):
        family_from_label("fourier")


def test_hermite_functions_match_scipy():
    # h_k = H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi))
    k = np.arange(121)
    log_norm = -0.5 * (k * math.log(2.0) + special.gammaln(k + 1.0) + 0.5 * math.log(math.pi))
    x = np.linspace(-5.0, 5.0, 101)
    ref = special.eval_hermite(k[:, None], x) * np.exp(log_norm[:, None] - 0.5 * x * x)
    assert np.max(np.abs(hermite_functions(k, x) - ref)) <= 1e-12
    # in log form past every zero, out to x^2 > 1200, where e^{-x^2/2} is far
    # below the smallest normal float but h_k, k >= 60, is not
    k, log_norm = k[60:], log_norm[60:]
    x = np.array([-40.0, -36.0, 35.0, 38.5, 40.0])
    table = hermite_functions(k, x)
    h = special.eval_hermite(k[:, None], x)
    log_ref = np.log(np.abs(h)) + log_norm[:, None] - 0.5 * x * x
    assert np.all(log_ref > -700.0)
    assert np.all(np.sign(table) == np.sign(h))
    assert np.max(np.abs(np.log(np.abs(table)) - log_ref)) <= 1e-12


def test_hermite_orthonormality_by_quadrature():
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    table = hermite_functions(np.arange(9), nodes)
    gram = (table * weights * np.exp(nodes ** 2)) @ table.T
    assert np.allclose(gram, np.eye(9), atol=1e-12)


@pytest.mark.parametrize("n", [160, 161, 300])
def test_hermite_weights_match_mpmath_across_sizes(n):
    # w_i = 2^{n-1} n! sqrt(pi) / (n^2 H_{n-1}(x_i)^2) at 60 digits on 25
    # nodes, the two outermost included, where the weights are smallest
    mpmath = pytest.importorskip("mpmath")
    rule = build_quadrature(n)
    with mpmath.workdps(60):
        scale = 2 ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / n ** 2
        for i in np.unique(np.linspace(0, n - 1, 25).round().astype(int)):
            exact = scale / mpmath.hermite(n - 1, mpmath.mpf(float(rule.nodes[i]))) ** 2
            assert abs(mpmath.mpf(float(rule.weights[i])) / exact - 1) <= 1e-11


def test_laguerre_weighted_orthonormality():
    # int_0^inf psi_j^{(a)} psi_k^{(a)} du = delta_jk; psi_j psi_k is u^a times
    # a polynomial of degree j + k times e^{-u}, which the 40-node rule integrates
    rule = build_laguerre_rule(40)
    for a in (0, 3, 10):
        table = laguerre_weighted(np.arange(11), a, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.allclose(gram, np.eye(11), atol=1e-12)


def test_laguerre_weighted_matches_scipy():
    m, a = (grid.ravel() for grid in np.meshgrid(np.arange(41), np.arange(41)))
    u = np.linspace(0.0, 200.0, 401)
    table = laguerre_weighted(m, a, u)
    log_norm = (0.5 * (special.gammaln(m + 1.0) - special.gammaln(m + a + 1.0))[:, None]
                + 0.5 * special.xlogy(a[:, None], u) - 0.5 * u)
    ref = special.eval_genlaguerre(m[:, None], a[:, None], u) * np.exp(log_norm)
    assert np.max(np.abs(table - ref)) <= 1e-12


def test_laguerre_weighted_orthonormality_beyond_normal_seeds():
    # a 2000-node rule reaches u ~ 8000, where e^{-u/2} is far below the
    # smallest normal float: those nodes run the exponent-carrying recurrence
    rule = build_laguerre_rule(2000)
    assert np.count_nonzero(-0.5 * rule.nodes < _LOG_TINY) > 900
    orders = np.array([0, 1, 7, 500, 1333, 1999])
    table = laguerre_weighted(orders, 0, rule.nodes)
    gram = (table * rule.weights) @ table.T
    assert np.allclose(gram, np.eye(len(orders)), atol=1e-12)
    # the rule's weights come from the same routine, so a wrong exponent that
    # scales every far value alike would cancel above; across the point where
    # the seed leaves float range the values must continue smoothly instead
    u = -2.0 * _LOG_TINY + 1e-4 * np.arange(-4, 5)
    table = laguerre_weighted([400, 1000, 2000], 0, u)
    assert np.max(np.abs(np.diff(table, 3, axis=1))) <= 1e-11 * np.max(np.abs(table))


def test_eval_basis_ground_state_agrees_across_families():
    x = np.linspace(-2.0, 2.0, 9)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ref = np.exp(-(xx ** 2 + yy ** 2) / 2.0) / math.sqrt(math.pi)
    for fam in (HOLOMORPHIC, RADIAL, eigenspace(0)):
        vals = eval_basis(fam, 0, xx, yy)
        assert np.allclose(vals, ref, atol=1e-13)


def test_eval_basis_holomorphic_angular_phase():
    # phi_n^hol carries the e^{i n theta} angular factor
    r, n = 1.3, 4
    theta = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    vals = eval_basis(HOLOMORPHIC, n, r * np.cos(theta), r * np.sin(theta))
    rotated = vals * np.exp(-1j * n * theta)
    assert np.allclose(rotated, rotated[0], atol=1e-12)
    assert abs(vals[0]) > 0


def test_lp_norms_ground_state_anchors():
    for fam in (HOLOMORPHIC, RADIAL, eigenspace(0)):
        assert lp_norm(fam, 0, 2) == pytest.approx(1.0, abs=1e-9)
        assert lp_norm(fam, 0, 4) == pytest.approx((2.0 * math.pi) ** -0.25, abs=1e-9)
        assert lp_norm(fam, 0, math.inf) == pytest.approx(math.pi ** -0.5, abs=1e-9)


def test_lp_norm_unit_mass_higher_modes():
    for fam in (HOLOMORPHIC, RADIAL, eigenspace(5)):
        n = 5 if fam.label.startswith("eigenspace") else 7
        assert lp_norm(fam, n, 2) == pytest.approx(1.0, abs=1e-8)


def test_lp_norm_mpmath_anchors():
    # 30-digit values: the radial one by mpmath.quad between the zeros of
    # L_16, the holomorphic ones from the Gamma-function closed forms
    assert lp_norm(RADIAL, 16, 3) == pytest.approx(0.450072855986203200829, rel=1e-13)
    assert lp_norm(HOLOMORPHIC, 7, 3) == pytest.approx(0.561588960477496800282, rel=1e-13)
    assert lp_norm(HOLOMORPHIC, 64, math.inf) == pytest.approx(0.125907720575295921219, rel=1e-13)


def test_radial_l4_matches_exact_laguerre_rule():
    # psi_n^p is a degree-pn polynomial times e^{-(p/2)u}: the folded rule of
    # pn/2 + 1 nodes at scale p/2 integrates it exactly
    n, p = 64, 4
    rule = build_laguerre_rule(p * n // 2 + 1, scale=p / 2)
    psi = laguerre_weighted(n, 0, rule.nodes)[0]
    exact = (math.pi ** (1 - p / 2) * np.sum(rule.weights * psi ** p)) ** (1 / p)
    assert lp_norm(RADIAL, n, p) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("k", [5, 64])
def test_eigenspace_l4_factor_matches_exact_hermite_rule(k):
    # mode k of eigenspace(k) is h_k(x1) h_0(x2), and int h_0^4 = (2 pi)^{-1/2};
    # h_k^4 e^{2x^2} has degree 4k, which 2k + 1 scale-2 Gauss nodes integrate
    rule = build_quadrature(2 * k + 1, 2.0)
    poly = special.eval_hermite(k, rule.nodes) / math.sqrt(
        2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
    exact = np.sum(rule.weights * poly ** 4) / math.sqrt(2.0 * math.pi)
    assert lp_norm(eigenspace(k), k, 4) ** 4 == pytest.approx(exact, rel=1e-13)


def test_lp_norm_sup_closed_forms():
    # the eigenspace sup is found by Newton's method; a fine grid reads at most it
    x = np.linspace(0.0, 8.0, 80001)
    grid = np.abs(hermite_functions([3, 9], x)).max(axis=1)
    sup = lp_norm(eigenspace(12), 3, math.inf)
    assert grid.prod() <= sup <= grid.prod() * (1.0 + 1e-8)
    assert lp_norm(RADIAL, 40, math.inf) == pytest.approx(math.pi ** -0.5, rel=1e-15)


def test_lp_norm_rejects_p_below_two_and_nan():
    for p in (1.5, float("nan")):
        with pytest.raises(ValueError):
            lp_norm(HOLOMORPHIC, 4, p)


def test_norm_decay_study_exponent():
    out = norm_decay_study(HOLOMORPHIC, math.inf, [16, 32, 64, 128])
    assert out["exponent"] == pytest.approx(-0.25, abs=0.02)
    assert out["r2"] > 0.999
    assert out["log_coeff"] is None
    assert len(out["norms"]) == 4


def test_norm_decay_study_log_correction_term():
    out = norm_decay_study(RADIAL, 4, [16, 32, 64, 128], log_correction=True)
    assert out["log_coeff"] is not None
    assert out["exponent"] == pytest.approx(-0.25, abs=0.06)


def test_norm_decay_study_rejects_short_input():
    with pytest.raises(ValueError):
        norm_decay_study(HOLOMORPHIC, 2, [8])
    with pytest.raises(ValueError):
        norm_decay_study(HOLOMORPHIC, 2, [8, 16], log_correction=True)
