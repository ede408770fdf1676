"""Flow integration, conserved quantities, projectors, and space-time norms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln

from crlab import dynamics, kernels
from crlab.basis import HOLOMORPHIC, RADIAL, eigenspace
from crlab.coupling import CouplingTensor, alpha_hol, build_tensor
from crlab.dynamics import (
    CoefficientState,
    FlowKernel,
    IntegratorConfig,
    NumericalError,
    Projector,
    cutoff_profile,
    evolve,
    spacetime_l4,
    state_from_dict,
    state_to_dict,
)


def random_state(family, cutoff, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    c *= scale / np.linalg.norm(c)
    return CoefficientState(family, c)


def test_state_validation():
    c = np.zeros(5, dtype=np.complex128)
    state = CoefficientState(HOLOMORPHIC, c)
    assert state.cutoff == 4
    with pytest.raises(ValueError):
        CoefficientState(eigenspace(3), c)  # needs exactly level+1 modes
    with pytest.raises(ValueError):
        CoefficientState(HOLOMORPHIC, np.array([np.nan + 0j]))


def test_cutoff_profile_shape():
    assert cutoff_profile(0.0) == 1.0
    assert cutoff_profile(0.5) == 1.0
    assert cutoff_profile(1.0) == 0.0
    x = np.linspace(0.5, 1.0, 101)
    vals = cutoff_profile(x)
    assert np.all(np.diff(vals) <= 1e-12)
    assert cutoff_profile(0.75) == pytest.approx(0.5)


def test_projector_kinds():
    sharp = Projector("sharp", 8)
    w = sharp.weights(HOLOMORPHIC)
    assert np.array_equal(w, np.ones(9))
    smooth = Projector("smooth", 8)
    ws = smooth.weights(HOLOMORPHIC)
    assert ws[0] == 1.0 and ws[-1] == 0.0
    with pytest.raises(ValueError):
        Projector("boxcar", 8)


def test_single_mode_phase_rotation():
    # |c_0|=1 on mode 0: c_0(t) = e^{-i w t} c_0(0) with w = pi/8
    tensor = build_tensor(HOLOMORPHIC, 0)
    state = CoefficientState(HOLOMORPHIC, np.array([1.0 + 0.0j]))
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    out = evolve(state, tensor, Projector("sharp", 0), 3.0, config).state
    expected = np.exp(-1j * (math.pi / 8.0) * 3.0)
    assert abs(out.coeffs[0] - expected) < 1e-10


def test_two_mode_moduli_frozen():
    # the cutoff-1 truncation leaves no resonant exchange channel
    tensor = build_tensor(HOLOMORPHIC, 1)
    c = np.array([0.8 + 0.1j, -0.3 + 0.55j])
    state = CoefficientState(HOLOMORPHIC, c.copy())
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    out = evolve(state, tensor, Projector("sharp", 1), 10.0, config).state
    assert np.max(np.abs(np.abs(out.coeffs) - np.abs(c))) < 1e-10


def test_conserved_quantities_on_random_data():
    tensor = build_tensor(HOLOMORPHIC, 8)
    state = random_state(HOLOMORPHIC, 8, seed=4)
    result = evolve(state, tensor, Projector("sharp", 8), 5.0)
    drift = result.log.relative_drift()
    assert drift["mass"] < 1e-9
    assert drift["energy"] < 1e-9
    assert drift["hamiltonian"] < 1e-9


def test_smooth_projector_conserves_folded_hamiltonian():
    tensor = build_tensor(HOLOMORPHIC, 10)
    proj = Projector("smooth", 10)
    state = random_state(HOLOMORPHIC, 10, seed=6)
    result = evolve(state, tensor, proj, 4.0)
    drift = result.log.relative_drift()
    assert drift["hamiltonian"] < 1e-8
    # top mode is frozen by chi(1) = 0
    assert result.state.coeffs[-1] == pytest.approx(state.coeffs[-1], abs=1e-13)


def manifold_profile(a, b, p, cutoff):
    """d_n = b p^n + a n p^(n-1) = p^(n-1) (b p + a n) for n = 0..cutoff."""
    n = np.arange(cutoff + 1)
    return b * p ** n + a * n * p ** (n - 1.0)


def worst_manifold_residual(result, scale, p):
    """Worst relative distance of the snapshots from the manifold
    c_n = scale_n d_n, each refitted from its first three modes: b = d_0, p
    solves b p^2 - 2 d_1 p + d_2 = 0 and a = d_1 - b p.  Of the two roots the
    one nearest the previous p is taken; one fit at late times can pick the
    wrong one."""
    worst = 0.0
    for snap in result.snapshots:
        d = snap.coeffs[:3] / scale[:3]
        b = d[0]
        p = min(np.roots([b, -2.0 * d[1], d[2]]), key=lambda root: abs(root - p))
        c_pred = scale * manifold_profile(d[1] - b * p, b, p, len(scale) - 1)
        worst = max(worst, np.linalg.norm(snap.coeffs - c_pred) / np.linalg.norm(snap.coeffs))
    return worst


def test_lowest_landau_level_manifold_is_invariant():
    # The cubic lowest-Landau-level equation keeps the 3-dim manifold
    # u = (b + a z) e^(p z - |z|^2/2) invariant (Gerard-Germain-Thomann),
    # whose coefficients are c_n = sqrt(pi) d_n / sqrt(n!).  At N=32 the
    # truncated tail is negligible, so every mode must follow the fit.
    cutoff = 32
    a, b, p = 0.3 + 0.1j, 0.8, 0.5 + 0.2j
    scale = math.sqrt(math.pi) * np.exp(-0.5 * gammaln(np.arange(cutoff + 1) + 1.0))
    state = CoefficientState(HOLOMORPHIC, scale * manifold_profile(a, b, p, cutoff))
    result = evolve(state, build_tensor(HOLOMORPHIC, cutoff), Projector("sharp", cutoff),
                    10.0, checkpoints=0.25 * np.arange(1, 41))
    moved = np.linalg.norm(result.state.coeffs - state.coeffs) / np.linalg.norm(state.coeffs)
    assert moved > 0.5  # the anchor is not a near-stationary state
    assert worst_manifold_residual(result, scale, p) < 1e-10


def test_radial_manifold_is_invariant():
    # The radial flow keeps c_n = (b + a n) p^n = p^(n-1) (b p + (a p) n)
    # invariant (the ansatz Biasi-Bizon-Craps-Evnin report for the
    # isotropic-trap resonant system), so the holomorphic fit applies with
    # c_n = d_n.  The residual tracks the truncation and reads about 1.3e-11
    # at N=48, t <= 10; scaling the weights of the block n1 + n2 = 2 by
    # 1 + 1e-8 lifts it to 1.8e-8.
    cutoff = 48
    a, b, p = 0.3 + 0.1j, 0.8, 0.5 + 0.2j
    scale = np.ones(cutoff + 1)
    state = CoefficientState(RADIAL, manifold_profile(a * p, b, p, cutoff))
    result = evolve(state, build_tensor(RADIAL, cutoff), Projector("sharp", cutoff),
                    10.0, checkpoints=0.25 * np.arange(1, 41))
    moved = np.linalg.norm(result.state.coeffs - state.coeffs) / np.linalg.norm(state.coeffs)
    assert moved > 0.5
    assert worst_manifold_residual(result, scale, p) < 1e-10


# derandomized and bounded like the contraction properties in test_kernels
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@pytest.mark.parametrize("family,cutoff,kind", [
    (HOLOMORPHIC, 7, "sharp"), (RADIAL, 6, "smooth"), (eigenspace(4), 4, "sharp")])
@PROPERTY
@given(data=st.data())
def test_every_accepted_step_conserves_mass_and_energy(family, cutoff, kind, data):
    kernel = FlowKernel(build_tensor(family, cutoff), Projector(kind, cutoff))
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    c = data.draw(arrays(np.complex128, cutoff + 1, elements=coefficient))
    rows = []
    kernel.evolve(c, 1.0, observer=lambda t, now, f: rows.append(kernel.conserved(now, f)[:2]))
    assert len(rows) >= 2
    first = np.array(rows[0])
    drift = np.abs(np.array(rows) - first) / np.maximum(first, np.finfo(float).tiny)
    assert np.max(drift) < 1e-9


def test_integrator_config_holds_only_tolerances():
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["rel_tol", "abs_tol"]
    for bad in ({"rel_tol": 0.0}, {"abs_tol": -1e-12}):
        with pytest.raises(ValueError, match="tolerances"):
            IntegratorConfig(**bad)


def test_forward_backward_round_trip():
    tensor = build_tensor(HOLOMORPHIC, 8)
    proj = Projector("sharp", 8)
    state = random_state(HOLOMORPHIC, 8, seed=9)
    fwd = evolve(state, tensor, proj, 3.0).state
    back = evolve(fwd, tensor, proj, -3.0).state
    assert np.linalg.norm(back.coeffs - state.coeffs) < 1e-9
    assert back.time == pytest.approx(0.0, abs=1e-14)


def test_checkpoints_and_zero_span():
    tensor = build_tensor(HOLOMORPHIC, 4)
    proj = Projector("sharp", 4)
    state = random_state(HOLOMORPHIC, 4, seed=2)
    result = evolve(state, tensor, proj, 1.0, checkpoints=[0.0, 0.5, 1.0])
    assert [s.time for s in result.snapshots] == [0.0, 0.5, 1.0]
    assert np.array_equal(result.snapshots[0].coeffs, state.coeffs)
    frozen = evolve(state, tensor, proj, 0.0).state
    assert np.array_equal(frozen.coeffs, state.coeffs)
    with pytest.raises(ValueError):
        evolve(state, tensor, proj, 1.0, checkpoints=[0.5, 0.25])
    with pytest.raises(ValueError):
        evolve(state, tensor, proj, 1.0, checkpoints=[2.0])


@pytest.mark.parametrize("t", [1.5, -1.5])
def test_checkpoint_log_has_one_row_per_time(t):
    tensor = build_tensor(HOLOMORPHIC, 5)
    proj = Projector("sharp", 5)
    state = CoefficientState(HOLOMORPHIC, random_state(HOLOMORPHIC, 5, seed=4).coeffs, time=2.0)
    # a checkpoint at 0 and a repeated one; t / 3 = 0.5 keeps every stop time exact
    checkpoints = [0.0, t / 3, t / 3, 2 * t / 3]
    result = evolve(state, tensor, proj, t, checkpoints=checkpoints)
    log = result.log
    assert log.times[0] == state.time and log.times[-1] == state.time + t
    # strictly monotone: no row is repeated where two segments join
    assert np.all(np.sign(t) * np.diff(log.times) > 0)
    for stop in checkpoints[1:]:
        assert np.count_nonzero(log.times == state.time + stop) == 1
    assert len(log.mass) == len(log.energy) == len(log.hamiltonian) == len(log.times)
    assert [s.time for s in result.snapshots] == [state.time + s for s in checkpoints]
    assert np.array_equal(result.snapshots[0].coeffs, evolve(state, tensor, proj, 0.0).state.coeffs)
    direct = evolve(state, tensor, proj, checkpoints[1]).state
    assert np.array_equal(result.snapshots[1].coeffs, direct.coeffs)
    assert np.array_equal(result.snapshots[2].coeffs, direct.coeffs)


def test_rhs_is_minus_i_contraction():
    tensor = build_tensor(HOLOMORPHIC, 5)
    proj = Projector("sharp", 5)
    state = random_state(HOLOMORPHIC, 5, seed=1)
    kernel = FlowKernel(tensor, proj)
    assert np.allclose(kernel.rhs(state.coeffs), -1j * kernel.contraction(state.coeffs))


def test_scalar_functionals_match_kernel():
    tensor = build_tensor(HOLOMORPHIC, 6)
    state = random_state(HOLOMORPHIC, 6, seed=3)
    c = state.coeffs
    kernel = FlowKernel(tensor, Projector("sharp", 6))
    m, e, h = kernel.conserved(c, kernel.rhs(c))
    # the quartic form summed directly over every ordered resonant quadruple
    n1, n2, n3 = (grid.ravel() for grid in np.meshgrid(*3 * [np.arange(7)], indexing="ij"))
    n4 = n1 + n2 - n3
    keep = (n4 >= 0) & (n4 <= 6)
    n1, n2, n3, n4 = n1[keep], n2[keep], n3[keep], n4[keep]
    quartic = np.sum(alpha_hol(n1, n2, n3, n4) * c[n1] * c[n2] * np.conj(c[n3] * c[n4]))
    assert m == pytest.approx(np.sum(np.abs(c) ** 2), rel=1e-14)
    lam = HOLOMORPHIC.eigenvalue(np.arange(7))
    assert e == pytest.approx(np.sum(lam * np.abs(c) ** 2), rel=1e-14)
    assert h == pytest.approx(quartic.real, rel=1e-13)
    assert abs(quartic.imag) <= 1e-13 * abs(quartic.real)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
def test_conservation_log_costs_no_extra_contractions(monkeypatch, kind):
    # the log reads each state's quartic form off the integrator's first stage
    tensor = build_tensor(HOLOMORPHIC, 16)
    proj = Projector(kind, 16)
    state = random_state(HOLOMORPHIC, 16, seed=5)
    calls = []
    apply = kernels.rhs_apply
    monkeypatch.setattr(kernels, "rhs_apply", lambda plan, c: calls.append(1) or apply(plan, c))
    FlowKernel(tensor, proj).evolve(state.coeffs, 5.0)
    bare = len(calls)
    result = evolve(state, tensor, proj, 5.0)
    assert len(calls) - bare == bare
    assert len(result.log.times) > 2
    kernel = FlowKernel(tensor, proj)
    assert result.log.hamiltonian[0] == kernel.hamiltonian(state.coeffs)
    assert result.log.hamiltonian[-1] == kernel.hamiltonian(result.state.coeffs)


def test_spacetime_l4_ground_state_anchor():
    # ||phi_0||_{L^4 L^4}^4 over one tau period = (pi/2) * 1/(2 pi) = 1/4
    target = 0.25 ** 0.25
    for family in (HOLOMORPHIC, RADIAL, eigenspace(0)):
        state = CoefficientState(family, np.array([1.0 + 0j]))
        assert spacetime_l4(state) == pytest.approx(target, rel=1e-12)


def test_spacetime_l4_holomorphic_matches_convolution_and_has_no_size_limit():
    # the coefficient convolution of a_n = c_n / sqrt(pi n!), which underflows
    # past 150 modes, is the reference where it holds
    def by_convolution(c):
        n = np.arange(len(c), dtype=np.float64)
        a = c * np.exp(-0.5 * (math.log(math.pi) + gammaln(n + 1.0)))
        b = np.convolve(a, a)
        m = np.arange(len(b), dtype=np.float64)
        bt = b * np.exp(0.5 * (gammaln(m + 1.0) - m * math.log(2.0)))
        return ((math.pi ** 2 / 4.0) * float(np.sum(np.abs(bt) ** 2))) ** 0.25

    for cutoff in (32, 149):
        state = random_state(HOLOMORPHIC, cutoff, seed=cutoff)
        assert spacetime_l4(state) == pytest.approx(by_convolution(state.coeffs), rel=1e-13)
    short = random_state(HOLOMORPHIC, 100, seed=3)
    padded = CoefficientState(HOLOMORPHIC, np.concatenate((short.coeffs, np.zeros(100))))
    assert spacetime_l4(padded) == pytest.approx(spacetime_l4(short), rel=1e-13)


def test_spacetime_l4_families_agree_on_shared_mode():
    # phi_0 + phi_k^hol with k=1 equals the same field as eigenspace(1) mode,
    # so only scaling invariance is cheap to check: norm is 1-homogeneous
    state = random_state(RADIAL, 4, seed=11)
    doubled = CoefficientState(RADIAL, 2.0 * state.coeffs)
    assert spacetime_l4(doubled) == pytest.approx(2.0 * spacetime_l4(state), rel=1e-12)


def test_state_dict_round_trip():
    state = random_state(HOLOMORPHIC, 4, seed=12)
    doc = state_to_dict(state)
    back = state_from_dict(doc)
    assert back.family == state.family
    assert back.time == state.time
    assert np.array_equal(back.coeffs, state.coeffs)


def test_evolve_rejects_mismatched_shapes():
    tensor = build_tensor(HOLOMORPHIC, 4)
    state = random_state(HOLOMORPHIC, 6, seed=0)
    with pytest.raises(ValueError):
        evolve(state, tensor, Projector("sharp", 4), 1.0)
    with pytest.raises(ValueError):
        evolve(random_state(HOLOMORPHIC, 4), tensor, Projector("sharp", 6), 1.0)


def test_step_size_underflow_is_numerical_error():
    # dc/dt = c^2 from c = 1 blows up at t = 1: the steps shrink to nothing
    with pytest.raises(NumericalError, match="underflow"):
        dynamics._dopri5(lambda c: c * c, np.array([1.0 + 0.0j]), 2.0, IntegratorConfig(), None)
    # a finite first rhs so large that its scaled norm, and so the first
    # trial step, is out of range
    kernel = FlowKernel(build_tensor(HOLOMORPHIC, 3), Projector("sharp", 3))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="underflow at t=0"):
            kernel.evolve(np.full(4, 1e80 + 0j), 1.0)


def test_non_finite_state_is_numerical_error():
    tensor = build_tensor(HOLOMORPHIC, 3)
    kernel = FlowKernel(tensor, Projector("sharp", 3))
    # the cubic term overflows at this amplitude
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            kernel.evolve(np.full(4, 1e120 + 0j), 1.0)


def test_overflowing_first_rhs_is_numerical_error():
    kernel = FlowKernel(build_tensor(HOLOMORPHIC, 3), Projector("sharp", 3))
    calls = []

    def fun(c):
        calls.append(c)
        return kernel.rhs(c)

    # the cubic term of the initial state overflows: no trial step may run
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="t=0"):
            dynamics._dopri5(fun, np.full(4, 1e200 + 0j), 1.0, IntegratorConfig(), None)
    assert len(calls) == 1


def test_quartic_residual_is_numerical_error():
    tensor = build_tensor(HOLOMORPHIC, 3)
    # scale one side of every pair exchange: the quartic form turns complex
    weights = tensor.weights.copy()
    weights[tensor.indices[:, 0] < tensor.indices[:, 2]] *= 1.5
    broken = CouplingTensor(tensor.family, tensor.cutoff, tensor.indices, weights, tensor.constant)
    state = CoefficientState(HOLOMORPHIC, np.array([1.0, 1j, 0.5, -0.3 + 0.2j]))
    with pytest.raises(NumericalError, match="imaginary residual"):
        FlowKernel(broken, Projector("sharp", 3)).hamiltonian(state.coeffs)
