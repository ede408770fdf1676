"""Acceptance checklist: twelve quantitative criteria, one line each.

Each test prints its verdict line to the live terminal (bypassing capture)
so a full run reads as a checklist, then asserts.  Tolerances and sizes are
part of the contract; do not loosen them to make a run pass.
"""

import math

import numpy as np
import pytest

from crlab.basis import HOLOMORPHIC, RADIAL, eigenspace, norm_decay_study
from crlab.coupling import alpha_hol, build_tensor, proportionality_constant
from crlab.dynamics import (
    CoefficientState,
    IntegratorConfig,
    Projector,
    evolve,
)
from crlab.invariance_lab import (
    cauchy_study,
    concentration_study,
    invariance_test,
)
from crlab.measures import MeasureSpec, tail_study


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {name:<24} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def hol16():
    return build_tensor(HOLOMORPHIC, 16)


@pytest.fixture(scope="module")
def hol32():
    return build_tensor(HOLOMORPHIC, 32)


def test_criterion_01_coefficient_correctness(capsys):
    tol = 1e-14
    errs = []
    errs.append(abs(alpha_hol(0, 0, 0, 0) - math.pi / 8.0))
    errs.append(abs(alpha_hol(1, 1, 1, 1) - math.pi / 16.0))

    max_idx = 20
    worst_sym = 0.0
    worst_offres = 0.0
    for n1 in range(max_idx + 1):
        for n2 in range(max_idx + 1):
            for n3 in range(max_idx + 1):
                n4 = n1 + n2 - n3
                if 0 <= n4 <= max_idx:
                    base = alpha_hol(n1, n2, n3, n4)
                    for other in (
                        alpha_hol(n2, n1, n3, n4),
                        alpha_hol(n1, n2, n4, n3),
                        alpha_hol(n3, n4, n1, n2),
                    ):
                        worst_sym = max(worst_sym, abs(other - base))
                # off-resonance representatives sharing this triple
                for n4_bad in (n4 - 1, n4 + 2):
                    if 0 <= n4_bad <= max_idx and n4_bad != n1 + n2 - n3:
                        worst_offres = max(worst_offres, abs(alpha_hol(n1, n2, n3, n4_bad)))

    ok = max(errs) <= tol and worst_sym <= tol and worst_offres == 0.0
    report(capsys, 1, "coefficient correctness", ok,
           f"anchor err {max(errs):.2e}, symmetry err {worst_sym:.2e}, "
           f"off-resonance max {worst_offres:.1e}")


def test_criterion_02_oracle_proportionality(capsys):
    constant, spread, count = proportionality_constant(10)
    ok = spread < 1e-6
    report(capsys, 2, "oracle proportionality", ok,
           f"constant {constant:.12g}, spread {spread:.2e} over {count} quadruples")


def test_criterion_03_conservation(capsys, hol32):
    rng = np.random.default_rng(32)
    c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    c /= np.linalg.norm(c)
    state = CoefficientState(HOLOMORPHIC, c)
    config = IntegratorConfig(rel_tol=1e-10)
    result = evolve(state, hol32, Projector("sharp", 32), 100.0, config)
    drift = result.log.relative_drift()
    worst = max(drift.values())
    ok = worst < 1e-8
    report(capsys, 3, "conservation", ok,
           f"N=32 t=100 drifts mass {drift['mass']:.1e}, energy {drift['energy']:.1e}, "
           f"quartic {drift['hamiltonian']:.1e}")


def test_criterion_04_closed_form_anchor(capsys):
    # the match tolerance is pinned at 1e-10, so run the integrator tighter
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

    t0 = build_tensor(HOLOMORPHIC, 0)
    state = CoefficientState(HOLOMORPHIC, np.array([1.0 + 0.0j]))
    out = evolve(state, t0, Projector("sharp", 0), 10.0, config).state
    phase_err = abs(out.coeffs[0] - np.exp(-1j * (math.pi / 8.0) * 10.0))

    t1 = build_tensor(HOLOMORPHIC, 1)
    c = np.array([0.9 + 0.2j, -0.4 + 0.7j])
    two = CoefficientState(HOLOMORPHIC, c.copy())
    out2 = evolve(two, t1, Projector("sharp", 1), 10.0, config).state
    moduli_err = float(np.max(np.abs(np.abs(out2.coeffs) - np.abs(c))))

    ok = phase_err < 1e-10 and moduli_err < 1e-10
    report(capsys, 4, "closed-form anchor", ok,
           f"single-mode phase err {phase_err:.2e}, two-mode moduli err {moduli_err:.2e}")


def run_invariance(spec, tensor, t, n):
    rep = invariance_test(spec, tensor, t, n)
    worst_z = max(abs(row["z"]) for row in rep.observables)
    worst_p = min(row["ks_p_adjusted"] for row in rep.observables)
    return rep, worst_z, worst_p


def test_criterion_05_white_noise_invariance(capsys, hol16):
    spec = MeasureSpec("white-noise", HOLOMORPHIC, 16, seed=1)
    rep, worst_z, worst_p = run_invariance(spec, hol16, 1.0, 10_000)
    ok = rep.verdict == "PASS" and rep.hamiltonian_check["pass"]
    report(capsys, 5, "white-noise invariance", ok,
           f"N=16 t=1 n=10^4 max|z| {worst_z:.2f}, min adj p {worst_p:.3g}")


def test_criterion_06_gibbs_invariance(capsys, hol16):
    spec = MeasureSpec("gibbs", HOLOMORPHIC, 16, beta=1.0, seed=1)
    rep, worst_z, worst_p = run_invariance(spec, hol16, 1.0, 10_000)
    ok = rep.verdict == "PASS" and rep.hamiltonian_check["pass"]
    report(capsys, 6, "gibbs invariance", ok,
           f"N=16 beta=1 t=1 n=10^4 max|z| {worst_z:.2f}, min adj p {worst_p:.3g}")


def test_criterion_07_eigenspace_invariance(capsys):
    tensor = build_tensor(eigenspace(4), 4)
    spec = MeasureSpec("eigenspace", eigenspace(4), 4, seed=1)
    rep, worst_z, worst_p = run_invariance(spec, tensor, 1.0, 5_000)
    ok = rep.verdict == "PASS" and rep.hamiltonian_check["pass"]
    report(capsys, 7, "eigenspace invariance", ok,
           f"E_4 t=1 n=5000 max|z| {worst_z:.2f}, min adj p {worst_p:.3g}")


def test_criterion_08_cauchy_decay(capsys):
    out = cauchy_study(1.5, 64, [4, 8, 16, 32], 1_000, seed=0)
    ok = out["monotone_beyond_2se"] and out["slope"] < 0.0
    means = ", ".join(f"{m:.3f}" for m in out["means"])
    report(capsys, 8, "cauchy decay", ok,
           f"sigma=1.5 N=64 means [{means}], slope {out['slope']:.2f}")


def test_criterion_09_concentration(capsys):
    out = concentration_study([16, 32, 64, 128], 1_000, seed=0)
    ok = out["medians_within_band"] and out["out_of_band_non_increasing"]
    medians = ", ".join(f"{out['per_level'][N]['median']:.4f}" for N in out["levels"])
    report(capsys, 9, "sup concentration", ok,
           f"medians [{medians}] in x2 band, out-of-band "
           f"{['%.3f' % f for f in out['out_of_band_fraction']]}")


def test_criterion_10_hermite_decay(capsys):
    ns = [64, 128, 256, 512, 1024]
    hol = norm_decay_study(HOLOMORPHIC, math.inf, ns)
    rad = norm_decay_study(RADIAL, 4, ns, log_correction=True)
    ok = (abs(hol["exponent"] + 0.25) <= 0.05
          and abs(rad["exponent"] + 0.25) <= 0.05
          and rad["log_coeff"] > 0.0)
    report(capsys, 10, "hermite decay", ok,
           f"hol Linf exponent {hol['exponent']:.4f}, radial L4 exponent "
           f"{rad['exponent']:.4f} log coeff {rad['log_coeff']:.3f}")


def test_criterion_11_tail_bounds(capsys, hol32):
    spec = MeasureSpec("gaussian-free", HOLOMORPHIC, 32, seed=2026)
    out = tail_study(spec, "spacetime-L4", n_samples=10_000)
    ok = out["slope"] < 0.0 and out["r2"] > 0.9
    report(capsys, 11, "tail bounds", ok,
           f"N=32 n=10^4 slope {out['slope']:.2f} per lambda^2, R^2 {out['r2']:.4f}")


def test_criterion_12_reversibility_determinism(capsys, hol16):
    rng = np.random.default_rng(12)
    c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    c /= np.linalg.norm(c)
    state = CoefficientState(HOLOMORPHIC, c)
    proj = Projector("sharp", 16)
    fwd = evolve(state, hol16, proj, 5.0).state
    back = evolve(fwd, hol16, proj, -5.0).state
    rt_err = float(np.linalg.norm(back.coeffs - state.coeffs))

    spec = MeasureSpec("white-noise", HOLOMORPHIC, 16, seed=5)
    a = invariance_test(spec, hol16, 1.0, 300)
    b = invariance_test(spec, hol16, 1.0, 300)
    identical = a.to_json() == b.to_json()

    ok = rt_err < 1e-8 and identical
    report(capsys, 12, "reversibility+determinism", ok,
           f"round trip {rt_err:.2e}, byte-identical reports {identical}")
