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
    eigenspace,
    eval_basis,
    family_from_label,
    hermite_polyparts,
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


def test_hermite_polyparts_matches_scipy():
    x = np.linspace(-5.0, 5.0, 101)
    table = hermite_polyparts(6, x)
    for n in range(7):
        # envelope-free part: H_n(x) / sqrt(2^n n! sqrt(pi))
        ref = special.eval_hermite(n, x) / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        assert np.allclose(table[n], ref, rtol=1e-12, atol=1e-12)


def test_hermite_orthonormality_by_quadrature():
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    table = hermite_polyparts(8, nodes)
    gram = (table * weights) @ table.T
    assert np.allclose(gram, np.eye(9), atol=1e-12)


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
    # at this size the rule's folded weights at its smallest nodes are accurate
    # to ~1e-7 relative only, which puts the gram ~1e-9 off the identity
    assert np.allclose(gram, np.eye(len(orders)), atol=1e-8)
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


def test_radial_l4_exact_path_matches_grid():
    # even p on the radial chain integrates the Laguerre form exactly
    exact = lp_norm(RADIAL, 6, 4)
    grid = lp_norm(RADIAL, 6, 4, npoints=4096)
    assert exact == pytest.approx(grid, rel=1e-6)


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
