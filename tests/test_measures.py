"""Measure samplers: determinism, moments, Gibbs reweighting, tails."""

import math

import numpy as np
import pytest
from scipy import stats

from crlab.basis import (
    HOLOMORPHIC,
    RADIAL,
    _angular_fold,
    _angular_radial_table,
    _harmonics,
    _polar_field,
    _polar_resolution,
    eigenspace,
    eval_basis,
    sup_norms,
)
from crlab.coupling import build_tensor
from crlab.measures import (
    GibbsStallError,
    MeasureSpec,
    sample_ensemble,
    sample_gibbs_metropolis,
    spec_from_dict,
    tail_study,
)


def test_spec_validation():
    MeasureSpec("white-noise", HOLOMORPHIC, 8)
    with pytest.raises(ValueError):
        MeasureSpec("bogus", HOLOMORPHIC, 8)
    with pytest.raises(ValueError):
        MeasureSpec("white-noise", RADIAL, 8)  # unproven without experimental
    MeasureSpec("white-noise", RADIAL, 8, experimental=True)
    with pytest.raises(ValueError):
        MeasureSpec("eigenspace", HOLOMORPHIC, 8)
    with pytest.raises(ValueError):
        MeasureSpec("eigenspace", eigenspace(4), 5)
    with pytest.raises(ValueError):
        MeasureSpec("gibbs", HOLOMORPHIC, 8, beta=-1.0)


def test_spec_dict_round_trip():
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 6, beta=0.7, seed=11)
    back = spec_from_dict(spec.to_dict())
    assert back == spec


def test_sampling_is_deterministic_and_indexed():
    spec = MeasureSpec("gaussian-free", HOLOMORPHIC, 6, seed=5)
    ensemble = sample_ensemble(spec, 8)
    again = sample_ensemble(spec, 8)
    assert np.array_equal(ensemble, again)
    for k in (0, 3, 7):
        assert np.array_equal(sample_ensemble(spec, 1, start_index=k)[0], ensemble[k])
    shifted = sample_ensemble(spec, 4, start_index=2)
    assert np.array_equal(shifted, ensemble[2:6])


def test_white_noise_moments():
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 16, seed=2)
    c = sample_ensemble(spec, 4000)
    action = (np.abs(c) ** 2).mean(axis=0)
    assert np.max(np.abs(action - 1.0)) < 0.06
    assert abs(c.mean()) < 0.05


def test_gaussian_free_matches_inverse_eigenvalue():
    spec = MeasureSpec("gaussian-free", HOLOMORPHIC, 12, seed=4)
    c = sample_ensemble(spec, 4000)
    lam = np.array([HOLOMORPHIC.eigenvalue(n) for n in range(13)])
    action = (np.abs(c) ** 2).mean(axis=0)
    assert np.max(np.abs(action * lam - 1.0)) < 0.08


def test_eigenspace_normalization():
    spec = MeasureSpec("eigenspace", eigenspace(9), 9, seed=1)
    c = sample_ensemble(spec, 4000)
    assert c.shape == (4000, 10)
    total = (np.abs(c) ** 2).sum(axis=1)
    assert total.mean() == pytest.approx(1.0, abs=0.05)


def test_gibbs_beta_zero_equals_gaussian_free():
    tensor = build_tensor(HOLOMORPHIC, 6)
    free = sample_ensemble(MeasureSpec("gaussian-free", HOLOMORPHIC, 6, seed=9), 16)
    gibbs = sample_ensemble(MeasureSpec("gibbs", HOLOMORPHIC, 6, beta=0.0, seed=9), 16,
                            tensor=tensor)
    assert np.array_equal(free, gibbs)


def test_gibbs_single_mode_density():
    # N=1 with the matched smooth projector: chi keeps mode 0 whole and
    # freezes mode 1, so the weight is beta (pi/8) |c_0|^4 and s = |c_0|^2
    # has density proportional to exp(-2 s - beta (pi/8) s^2); chi-square GOF
    beta = 2.0
    tensor = build_tensor(HOLOMORPHIC, 1)
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 1, beta=beta, seed=20)
    c = sample_ensemble(spec, 6000, tensor=tensor)
    s = np.abs(c[:, 0]) ** 2

    grid = np.linspace(0.0, s.max() * 1.2, 4001)
    dens = np.exp(-2.0 * grid - beta * (math.pi / 8.0) * grid ** 2)
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    edges = np.quantile(s, np.linspace(0.0, 1.0, 13)[1:-1])
    counts, _ = np.histogram(s, bins=np.concatenate(([0.0], edges, [np.inf])))
    probs = np.diff(np.concatenate(([0.0], np.interp(edges, grid, cdf), [1.0])))
    chi2 = float(np.sum((counts - len(s) * probs) ** 2 / (len(s) * probs)))
    p = float(stats.chi2.sf(chi2, len(counts) - 1))
    assert p > 0.01


def test_gibbs_downweights_large_hamiltonian():
    tensor = build_tensor(HOLOMORPHIC, 8)
    free = sample_ensemble(MeasureSpec("gaussian-free", HOLOMORPHIC, 8, seed=6), 3000)
    gibbs = sample_ensemble(MeasureSpec("gibbs", HOLOMORPHIC, 8, beta=3.0, seed=6), 3000,
                            tensor=tensor)
    assert (np.abs(gibbs) ** 2).sum(axis=1).mean() < (np.abs(free) ** 2).sum(axis=1).mean()


def test_gibbs_stall_suggests_metropolis():
    tensor = build_tensor(HOLOMORPHIC, 4)
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 4, beta=1e12, seed=0)
    with pytest.raises(GibbsStallError, match="metropolis"):
        sample_ensemble(spec, 1, tensor=tensor)


def test_metropolis_matches_rejection_moments():
    tensor = build_tensor(HOLOMORPHIC, 4)
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 4, beta=1.0, seed=13)
    exact = sample_ensemble(spec, 3000, tensor=tensor)
    chain = sample_gibbs_metropolis(spec, 3000, tensor)
    assert chain.shape == exact.shape
    a = (np.abs(exact) ** 2).sum(axis=1)
    b = (np.abs(chain) ** 2).sum(axis=1)
    se = math.hypot(a.std(ddof=1) / math.sqrt(len(a)), b.std(ddof=1) / math.sqrt(len(b)))
    assert abs(a.mean() - b.mean()) < 4.0 * se
    again = sample_gibbs_metropolis(spec, 3000, tensor)
    assert np.array_equal(chain, again)


def test_tail_study_matches_gamma_survival():
    # white noise: ||c||_2^2 is a sum of N+1 unit exponentials
    cutoff = 7
    spec = MeasureSpec("white-noise", HOLOMORPHIC, cutoff, seed=8)
    out = tail_study(spec, "L2", n_samples=6000)
    lam = np.asarray(out["lambdas"])
    emp = np.exp(out["log_survival"])
    exact = stats.gamma.sf(lam ** 2, cutoff + 1)
    se = np.sqrt(exact * (1.0 - exact) / 6000)
    assert np.all(np.abs(emp - exact) < 5.0 * se)
    assert out["slope"] < 0.0
    assert out["r2"] > 0.9


def test_tail_study_spacetime_functional():
    spec = MeasureSpec("gaussian-free", HOLOMORPHIC, 16, seed=3)
    out = tail_study(spec, "spacetime-L4", n_samples=2500)
    assert out["slope"] < 0.0
    assert out["r2"] > 0.9
    assert np.all(np.asarray(out["hits"]) >= 20)


@pytest.mark.parametrize("family", [HOLOMORPHIC, RADIAL])
def test_tail_sup_over_grid_is_the_refined_polar_sup(family):
    # radial fields often peak at the origin, which the polar grid holds
    spec = MeasureSpec("gaussian-free", family, 32, seed=3)
    values = tail_study(spec, "sup-over-grid", n_samples=8, min_tail_hits=1)["values"]
    coeffs = sample_ensemble(spec, 8)
    u0 = np.abs([sum(c * eval_basis(family, n, 0.0, 0.0) for n, c in enumerate(row))
                 for row in coeffs])
    assert np.all(values >= u0 * (1.0 - 1e-12))
    ells, orders = _harmonics(family, 33)
    r_max, n_r, n_t = _polar_resolution(family, ells)
    # a rotation-invariant field needs one angular row
    assert (n_r, n_t) == ((489, 264) if family == HOLOMORPHIC else (929, 1))
    fine = sup_norms(family, coeffs, n_radial=4 * n_r, n_theta=4 * n_t, check=False)
    assert np.all(np.abs(values - fine) <= 1e-3 * fine)
    # the engine's field against the basis functions at every 4th grid point;
    # both fields have l_0 = 0 and one angular period, so no fold or phase
    r = np.linspace(0.0, r_max, n_r)
    steps, n_cols = _angular_fold(ells, n_t)
    assert n_cols == n_t
    field = _polar_field(coeffs[0], steps, _angular_radial_table(ells, orders, r), n_cols)
    rr, th = np.meshgrid(r[::4], 2.0 * math.pi * np.arange(0, n_t, 4) / n_t, indexing="ij")
    x1, x2 = rr * np.cos(th), rr * np.sin(th)
    exact = sum(c * eval_basis(family, n, x1, x2) for n, c in enumerate(coeffs[0]))
    assert np.max(np.abs(field[::4, ::4] - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("level,n_theta,fold", [(8, None, 2), (9, None, 2), (9, 45, 1)])
def test_folded_eigenspace_field_is_the_direct_angular_sum(level, n_theta, fold):
    # E_N's harmonics l = -N, -N+2, ..., N share the parity of N, so |u|^2 is
    # pi-periodic and the engine builds u e^{-i l_0 theta} on n_theta / 2
    # angles; an odd n_theta does not fold
    family = eigenspace(level)
    g = sample_ensemble(MeasureSpec("eigenspace", family, level, seed=5), 1)[0]
    ells, orders = _harmonics(family, level + 1)
    r_max, n_r, n_t = _polar_resolution(family, ells, n_theta=n_theta)
    table = _angular_radial_table(ells, orders, np.linspace(0.0, r_max, n_r))
    steps, n_cols = _angular_fold(ells, n_t)
    assert n_cols * fold == n_t
    theta = 2.0 * math.pi * np.arange(n_t) / n_t
    exact = sum(g[j] * np.outer(table[:, j], np.exp(1j * ell * theta))
                for j, ell in enumerate(ells.tolist()))
    field = np.tile(_polar_field(g, steps, table, n_cols), (1, fold))
    assert np.max(np.abs(field * np.exp(1j * ells[0] * theta) - exact)) <= 1e-12 * np.max(np.abs(exact))
    if fold == 2:
        half = np.abs(exact[:, n_t // 2:]) - np.abs(exact[:, :n_t // 2])
        assert np.max(np.abs(half)) <= 1e-12 * np.max(np.abs(exact))


def test_tail_study_rejects_unknown_functional():
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 4, seed=0)
    with pytest.raises(ValueError):
        tail_study(spec, "L7", n_samples=100)
