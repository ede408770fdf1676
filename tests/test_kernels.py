"""Contraction kernels against a brute-force reference."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

import crlab
from crlab.basis import HOLOMORPHIC, RADIAL, eigenspace
from crlab.coupling import alpha_hol, build_tensor
from crlab.dynamics import FlowKernel, Projector, _real_quartic
from crlab.invariance_lab import cauchy_study
from crlab.kernels import BLOCK_ROWS, build_plan, rhs_apply
from crlab.measures import MeasureSpec, sample_ensemble


def brute_rhs(c, cutoff, weight):
    out = np.zeros(cutoff + 1, dtype=np.complex128)
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1):
            for n3 in range(cutoff + 1):
                n = n1 + n2 - n3
                if 0 <= n <= cutoff:
                    out[n] += weight(n1, n2, n3, n) * c[n1] * c[n2] * np.conj(c[n3])
    return out


def brute_quartic(c, cutoff, weight):
    total = 0.0 + 0.0j
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1):
            for n3 in range(cutoff + 1):
                n4 = n1 + n2 - n3
                if 0 <= n4 <= cutoff:
                    total += weight(n1, n2, n3, n4) * c[n1] * c[n2] * np.conj(c[n3]) * np.conj(c[n4])
    return total


def coo_weight(tensor):
    """Weight of any ordered quadruple, looked up in the COO tensor."""
    table = {tuple(int(k) for k in row): float(w) for row, w in zip(tensor.indices, tensor.weights)}

    def weight(n1, n2, n3, n4):
        return table.get(tuple(sorted((n1, n2))) + tuple(sorted((n3, n4))), 0.0)

    return weight


def brute_eigenspace_rhs(c, tensor):
    # no convolution constraint inside one eigenspace: sum over all stored
    # quadruples, with both index pairs unordered
    n = tensor.cutoff + 1
    weight = coo_weight(tensor)
    out = np.zeros(n, dtype=np.complex128)
    for n1 in range(n):
        for n2 in range(n):
            for n3 in range(n):
                for n4 in range(n):
                    out[n4] += weight(n1, n2, n3, n4) * c[n1] * c[n2] * np.conj(c[n3])
    return out


def random_state(cutoff, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    return np.ascontiguousarray(c, dtype=np.complex128)


def random_rows(rows, cutoff, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cutoff + 1)) + 1j * rng.standard_normal((rows, cutoff + 1))


def brute_projected_rhs(c, tensor, proj):
    """The projected contraction of one vector, from the closed form on the
    holomorphic chain and from the COO tensor elsewhere."""
    if tensor.family.kind == "eigenspace":
        return brute_eigenspace_rhs(c, tensor)
    chi = proj.weights(tensor.family)
    weight = alpha_hol if tensor.family == HOLOMORPHIC else coo_weight(tensor)
    return chi * brute_rhs(chi * c, tensor.cutoff, weight)


FLOWS = [
    (HOLOMORPHIC, 7, "sharp"),
    (RADIAL, 6, "smooth"),
    # two pairs of one parity block can share an output mode
    (eigenspace(4), 4, "sharp"),
]


@pytest.mark.parametrize("family,cutoff,kind", FLOWS)
def test_rhs_matches_brute_force(family, cutoff, kind):
    tensor = build_tensor(family, cutoff)
    proj = Projector(kind, cutoff)
    plan = build_plan(tensor, None if kind == "sharp" else proj.weights(family))
    c = random_state(cutoff, seed=3)
    got = rhs_apply(plan, c)
    assert np.allclose(got, brute_projected_rhs(c, tensor, proj), rtol=1e-12, atol=1e-12)


def test_hamiltonian_matches_brute_force():
    cutoff = 6
    tensor = build_tensor(HOLOMORPHIC, cutoff)
    kernel = FlowKernel(tensor, Projector("sharp", cutoff))
    c = random_state(cutoff, seed=5)
    want = brute_quartic(c, cutoff, alpha_hol)
    rows = np.vstack([c, random_rows(2, cutoff, seed=6)])
    for got in (kernel.hamiltonian(c), kernel.hamiltonians(rows)[0]):
        assert abs(got - want) < 1e-11 * abs(want)
    for value in (np.vdot(c, kernel.contraction(c)), np.vdot(c, kernel.contraction(rows)[0])):
        assert abs(value.imag) < 1e-12 * abs(value.real)


def test_mode_weights_scale_inputs_and_outputs():
    cutoff = 5
    tensor = build_tensor(HOLOMORPHIC, cutoff)
    chi = np.linspace(1.0, 0.25, cutoff + 1)
    plan = build_plan(tensor, mode_weights=chi)
    c = random_state(cutoff, seed=1)
    got = rhs_apply(plan, c)
    want = chi * brute_rhs(chi * c, cutoff, alpha_hol)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_eigenspace_plan_contracts():
    tensor = build_tensor(eigenspace(3), 3)
    plan = build_plan(tensor)
    c = random_state(3, seed=2)
    got = rhs_apply(plan, c)
    assert np.allclose(got, brute_eigenspace_rhs(c, tensor), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("family,cutoff,kind", FLOWS)
def test_batched_contraction_matches_brute_force(family, cutoff, kind):
    tensor = build_tensor(family, cutoff)
    proj = Projector(kind, cutoff)
    kernel = FlowKernel(tensor, proj)
    rows = random_rows(BLOCK_ROWS + 3, cutoff, seed=4)  # a full chunk and a padded one
    got = kernel.contraction(rows)
    assert got.shape == rows.shape
    for c, g in zip(rows, got):
        assert np.allclose(g, brute_projected_rhs(c, tensor, proj), rtol=1e-12, atol=1e-12)


def test_batched_rows_bitwise_independent_of_batch():
    # at this size BLAS rounds a lone unpadded row differently (it does not at 16)
    tensor = build_tensor(HOLOMORPHIC, 32)
    kernel = FlowKernel(tensor, Projector("sharp", 32))
    full = random_rows(BLOCK_ROWS, 32, seed=7)
    row = full[5]
    alone = kernel.contraction(row[None])[0]
    in_chunk = kernel.contraction(full)[5]
    other = random_rows(2 * BLOCK_ROWS + 9, 32, seed=8)
    other[BLOCK_ROWS + 40] = row
    elsewhere = kernel.contraction(other)[BLOCK_ROWS + 40]
    assert np.array_equal(alone, in_chunk)
    assert np.array_equal(alone, elsewhere)
    assert kernel.hamiltonians(row[None])[0] == kernel.hamiltonians(other)[BLOCK_ROWS + 40]


def test_cauchy_study_matches_per_row_loop():
    cutoff, m_values, n = 12, [2, 4, 8], 70
    got = cauchy_study(1.5, cutoff, m_values, n, seed=3)
    tensor = build_tensor(HOLOMORPHIC, cutoff)
    kernel = FlowKernel(tensor, Projector("sharp", cutoff))
    sob = np.asarray(kernel.eigenvalues, dtype=np.float64) ** -1.5
    c = sample_ensemble(MeasureSpec("white-noise", HOLOMORPHIC, cutoff, seed=3), n)
    modes = np.arange(cutoff + 1)
    sq = np.empty((n, len(m_values)))
    for i in range(n):
        full = kernel.contraction(c[i])
        for j, m in enumerate(m_values):
            keep = modes <= m
            diff = full - np.where(keep, kernel.contraction(np.where(keep, c[i], 0.0)), 0.0)
            sq[i, j] = np.sum(sob * np.abs(diff) ** 2)
    assert np.allclose(got["means"], sq.mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(got["stderrs"], sq.std(axis=0, ddof=1) / np.sqrt(n), rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [0, 1, 5, 12, 24])
def test_own_cutoff_contraction_equals_masked_full_cutoff(m):
    # the truncation T_M of cauchy_study: the flow at cutoff M on the first
    # M+1 modes is the full-cutoff contraction of the masked input on modes <= M
    cutoff, n = 24, 70
    c = sample_ensemble(MeasureSpec("white-noise", HOLOMORPHIC, cutoff, seed=4), n)
    full = FlowKernel(build_tensor(HOLOMORPHIC, cutoff), Projector("sharp", cutoff))
    own = FlowKernel(build_tensor(HOLOMORPHIC, m), Projector("sharp", m))
    masked = full.contraction(np.where(np.arange(cutoff + 1) <= m, c, 0.0))
    got = own.contraction(c[:, :m + 1])
    assert np.abs(got - masked[:, :m + 1]).max() <= 1e-14 * np.abs(masked).max()


@pytest.mark.parametrize("family,cutoff", [(HOLOMORPHIC, 9), (RADIAL, 7), (eigenspace(4), 4)])
def test_plan_blocks_and_weight_hold_every_tensor_entry(family, cutoff):
    # a chi that zeroes the top mode leaves zeros inside the dense blocks,
    # which the CSR drops and the blocks keep
    tensor = build_tensor(family, cutoff)
    chi = np.linspace(1.0, 0.5, cutoff + 1)
    chi[-1] = 0.0
    plan = build_plan(tensor, chi)

    idx = tensor.indices
    weights = tensor.weights * chi[idx[:, 0]] * chi[idx[:, 1]] * chi[idx[:, 2]] * chi[idx[:, 3]]
    pair = {(a, b): k for k, (a, b) in enumerate(zip(plan.pair_a.tolist(), plan.pair_b.tolist()))}
    want = np.zeros((len(pair), len(pair)))
    for (n1, n2, n3, n4), w in zip(idx.tolist(), weights):
        want[pair[n3, n4], pair[n1, n2]] = (1.0 + (n1 < n2)) * w
    assert np.any(weights == 0.0)

    full = sparse.csr_array(sparse.block_diag([wt for _, _, wt in plan.blocks], format="csr"))
    assert np.array_equal(full.toarray(), want)
    full.eliminate_zeros()
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(plan.weight, field), getattr(full, field)), field


def test_rhs_bitwise_deterministic():
    tensor = build_tensor(HOLOMORPHIC, 10)
    plan = build_plan(tensor)
    c = random_state(10, seed=9)
    a = rhs_apply(plan, c)
    b = rhs_apply(plan, c)
    assert np.array_equal(a, b)


# Contracts one 64-row matrix per family (hol N=16 and E_4) and writes the bits.
_BLAS_PROBE = """
import sys
import numpy as np
from crlab.basis import HOLOMORPHIC, eigenspace
from crlab.coupling import build_tensor
from crlab.kernels import BLOCK_ROWS, build_plan, rhs_apply
rng = np.random.default_rng(5)
for family, cutoff in ((HOLOMORPHIC, 16), (eigenspace(4), 4)):
    shape = (BLOCK_ROWS, cutoff + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sys.stdout.buffer.write(rhs_apply(build_plan(build_tensor(family, cutoff)), c).tobytes())
"""


def test_matrix_contraction_bits_independent_of_blas_threads():
    src = str(Path(crlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert len(outputs[0]) == BLOCK_ROWS * (17 + 5) * 16
    assert outputs[0] == outputs[1]


@functools.cache
def flow_kernel(family, cutoff, kind):
    return FlowKernel(build_tensor(family, cutoff), Projector(kind, cutoff))


def draw_state(data, cutoff):
    coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return data.draw(arrays(np.complex128, cutoff + 1, elements=coefficient))


# derandomized and bounded, so the examples and the suite's run time are fixed
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@pytest.mark.parametrize("family,cutoff,kind", FLOWS)
@PROPERTY
@given(data=st.data())
def test_vector_contraction_equals_matrix_row(family, cutoff, kind, data):
    kernel = flow_kernel(family, cutoff, kind)
    c = draw_state(data, cutoff)
    row = kernel.contraction(c[None])[0]
    assert np.max(np.abs(kernel.contraction(c) - row)) <= 1e-13 * np.max(np.abs(row))


@pytest.mark.parametrize("family,cutoff,kind", FLOWS)
@PROPERTY
@given(data=st.data(), theta=st.floats(0.0, 2.0 * np.pi))
def test_contraction_commutes_with_phase_rotation(family, cutoff, kind, data, theta):
    kernel = flow_kernel(family, cutoff, kind)
    c = draw_state(data, cutoff)
    phase = np.exp(1j * theta)
    want = phase * kernel.contraction(c)
    assert np.max(np.abs(kernel.contraction(phase * c) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("family,cutoff,kind", FLOWS)
@PROPERTY
@given(data=st.data())
def test_quartic_form_is_real(family, cutoff, kind, data):
    kernel = flow_kernel(family, cutoff, kind)
    c = draw_state(data, cutoff)
    # raises NumericalError on an imaginary residual beyond rounding
    _real_quartic([np.vdot(c, kernel.contraction(c)), np.vdot(c, kernel.contraction(c[None])[0])])
