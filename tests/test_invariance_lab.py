"""Invariance harness, recurrence, Cauchy decay, and sup concentration."""

import json

import numpy as np
import pytest

from crlab.basis import HOLOMORPHIC, eigenspace
from crlab.coupling import build_tensor
from crlab.dynamics import FlowKernel, Projector
from crlab.invariance_lab import (
    ConfigError,
    ObservableSet,
    cauchy_study,
    concentration_study,
    invariance_test,
    recurrence_experiment,
)
from crlab.measures import MeasureSpec


def test_observable_set_names_and_shape():
    tensor = build_tensor(HOLOMORPHIC, 3)
    kernel = FlowKernel(tensor, Projector("sharp", 3))
    obs = ObservableSet.standard(kernel)
    assert "action_0" in obs.names
    assert "mass" in obs.names and "hamiltonian" in obs.names
    assert obs.names[-1] == "h_minus_1.5"
    rng = np.random.default_rng(0)
    c = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    table = obs.evaluate(c)
    assert table.shape == (5, len(obs))
    assert np.allclose(table[:, obs.names.index("mass")], (np.abs(c) ** 2).sum(axis=1))


def test_zero_time_is_exactly_invariant():
    tensor = build_tensor(HOLOMORPHIC, 6)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 6, seed=1)
    report = invariance_test(spec, tensor, 0.0, 60)
    assert report.verdict == "PASS"
    for row in report.observables:
        assert row["z"] == 0.0
        assert row["ks_p_adjusted"] == 1.0
    assert np.array_equal(report.table_initial, report.table_final)


def test_eigenspace_invariance_small_run():
    level = 3
    tensor = build_tensor(eigenspace(level), level)
    spec = MeasureSpec("eigenspace", eigenspace(level), level, seed=7)
    report = invariance_test(spec, tensor, 0.8, 400)
    assert report.verdict == "PASS"
    assert report.hamiltonian_check["pass"]
    assert report.n_samples == 400


def test_gibbs_invariance_small_run():
    tensor = build_tensor(HOLOMORPHIC, 6)
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 6, beta=1.0, seed=3)
    report = invariance_test(spec, tensor, 1.0, 400)
    assert report.verdict == "PASS"
    assert report.hamiltonian_check["pass"]


def test_zeroed_tensor_passes_harness_but_fails_calibration():
    # identity flow is trivially invariant; the calibration cross-check is
    # what catches a silently broken tensor
    tensor = build_tensor(HOLOMORPHIC, 6).rescaled(0.0)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 6, seed=2)
    report = invariance_test(spec, tensor, 1.0, 200)
    assert report.verdict == "PASS"
    assert not report.hamiltonian_check["pass"]
    assert report.hamiltonian_check["calibration_error"] == pytest.approx(1.0)


def test_rescaled_tensor_is_time_change_not_invariance_break():
    tensor = build_tensor(HOLOMORPHIC, 6).rescaled(1.1)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 6, seed=2)
    report = invariance_test(spec, tensor, 1.0, 200)
    assert report.verdict == "PASS"
    assert report.hamiltonian_check["max_relative_drift"] < 1e-6
    assert report.hamiltonian_check["calibration_error"] == pytest.approx(0.1, rel=1e-6)
    assert not report.hamiltonian_check["pass"]


def test_consistency_errors():
    tensor = build_tensor(HOLOMORPHIC, 6)
    wn = MeasureSpec("white-noise", HOLOMORPHIC, 5, seed=0)
    with pytest.raises(ConfigError):
        invariance_test(wn, tensor, 1.0, 10)  # cutoff 6 tensor
    eig = MeasureSpec("eigenspace", eigenspace(6), 6, seed=0)
    with pytest.raises(ConfigError):
        invariance_test(eig, tensor, 1.0, 10)  # hol tensor


def test_report_json_is_deterministic():
    tensor = build_tensor(HOLOMORPHIC, 4)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 4, seed=5)
    a = invariance_test(spec, tensor, 0.5, 50)
    b = invariance_test(spec, tensor, 0.5, 50)
    assert a.to_json() == b.to_json()
    slim = json.loads(a.to_json(include_tables=False))
    assert "table_initial" not in slim
    full = json.loads(a.to_json())
    assert len(full["table_initial"]) == 50
    assert full["schema_version"] == 1


def test_start_index_shifts_sample_rows():
    tensor = build_tensor(HOLOMORPHIC, 4)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 4, seed=5)
    base = invariance_test(spec, tensor, 0.5, 8)
    tail = invariance_test(spec, tensor, 0.5, 3, start_index=5)
    assert np.allclose(tail.table_initial, base.table_initial[5:8])
    assert np.allclose(tail.table_final, base.table_final[5:8])


def test_invariance_shards_are_bitwise_identical():
    # a run split into start-index shards reproduces every table row exactly
    tensor = build_tensor(HOLOMORPHIC, 5)
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 5, seed=9)
    whole = invariance_test(spec, tensor, 0.5, 40)
    head = invariance_test(spec, tensor, 0.5, 17, start_index=0)
    tail = invariance_test(spec, tensor, 0.5, 23, start_index=17)
    for name in ("table_initial", "table_final"):
        parts = np.vstack([getattr(head, name), getattr(tail, name)])
        assert np.array_equal(getattr(whole, name), parts)


def test_recurrence_single_mode_returns_exactly():
    # one-mode orbit is a circle: the running minimum must close up
    out = recurrence_experiment(0, 80.0, 0.2, 6, theta=0.5, seed=4)
    assert out["fraction_recurred"] == 1.0
    assert np.all(np.asarray(out["running_min"])[:, -1] <= 0.5 * np.asarray(out["initial_norms"]))


def test_recurrence_level_two_orbits_come_back():
    out = recurrence_experiment(2, 150.0, 0.5, 15, theta=0.4, seed=0)
    assert out["fraction_recurred"] >= 0.8
    # returns only count after the orbit has first left the ball
    assert 0.0 <= out["fraction_returned"] <= out["fraction_recurred"]
    assert out["fraction_returned"] >= 0.25
    assert np.all(np.asarray(out["max_distance"]) > 0.0)


def test_recurrence_rejects_bad_level():
    with pytest.raises(ConfigError):
        recurrence_experiment(-1, 10.0, 1.0, 2)


def test_cauchy_decay_small_case():
    out = cauchy_study(1.5, 16, [2, 4, 8], 150, seed=1)
    assert out["slope"] < 0.0
    assert out["monotone_beyond_2se"]
    assert len(out["means"]) == 3
    assert np.all(np.asarray(out["means"]) > 0.0)


def test_cauchy_full_mask_is_exact_zero():
    out = cauchy_study(1.5, 12, [4, 12], 60, seed=2)
    assert out["means"][-1] == 0.0


def test_cauchy_zero_mask_stays_out_of_the_fit():
    out = cauchy_study(1.5, 16, [0, 4, 8], 40)
    assert np.isfinite(out["slope"]) and out["slope"] < 0.0


def test_cauchy_rejects_bad_sigma_and_masks():
    with pytest.raises(ConfigError):
        cauchy_study(1.0, 8, [2, 4], 10)
    with pytest.raises(ConfigError):
        cauchy_study(1.5, 8, [2, 16], 10)


def test_concentration_structure_and_determinism():
    out = concentration_study([3, 5], 40, seed=6)
    assert out["levels"] == [3, 5]
    for N in (3, 5):
        stats_n = out["per_level"][N]
        assert stats_n["q05"] <= stats_n["median"] <= stats_n["q95"]
        assert len(stats_n["ratios"]) == 40
    assert len(out["out_of_band_fraction"]) == 2
    assert all(0.0 <= f <= 1.0 for f in out["out_of_band_fraction"])
    again = concentration_study([3, 5], 40, seed=6)
    assert np.array_equal(out["per_level"][5]["ratios"], again["per_level"][5]["ratios"])


def test_concentration_rejects_degenerate_levels():
    # log N must be positive, and the band verdict needs two levels to compare
    for levels in ([1, 4], [], [4]):
        with pytest.raises(ConfigError):
            concentration_study(levels, 10)
