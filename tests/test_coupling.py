"""Closed-form couplings, the quadrature oracle, and the tensor cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from crlab.basis import (
    HOLOMORPHIC,
    RADIAL,
    GridResolutionError,
    QuadratureRule,
    eigenspace,
    laguerre_weighted,
    lp_norm,
)
from crlab.coupling import (
    CouplingTensor,
    alpha_hol,
    build_tensor,
    load_tensor,
    oracle_coupling,
    oracle_rule,
    proportionality_constant,
    reference_weights,
)


def _lemma_sum_check(n, K):
    """Partial sum sum_{k=n}^{K} 2^{-k} C(k, n) through log-binomials.

    The full series equals 2 for every n >= 0, and the partial sums increase
    towards it, so 2 - value bounds the truncation tail.  This is the
    combinatorial identity behind summability of the coupling weights along
    the resonance diagonals.
    """
    n = int(n)
    K = int(K)
    if not 0 <= n <= K:
        raise ValueError("need 0 <= n <= K")
    k = np.arange(n, K + 1, dtype=np.float64)
    logs = gammaln(k + 1.0) - gammaln(n + 1.0) - gammaln(k - n + 1.0) - k * math.log(2.0)
    return float(np.exp(logs).sum())


def _scaled_falling_factorial(L, p):
    """L! / (2^L (L-p)!) via log-gamma.

    For p <= sqrt(L) this stays below a fixed multiple of 2^{-L/2}: the
    falling factorial grows like L^p = e^{sqrt(L) log L}, slower than the
    half-exponential 2^{L/2} recovered from the prefactor.
    """
    L = int(L)
    p = int(p)
    if p < 0 or p > L:
        raise ValueError("need 0 <= p <= L")
    return math.exp(gammaln(L + 1.0) - gammaln(L - p + 1.0) - L * math.log(2.0))


def test_alpha_hol_anchors():
    assert alpha_hol(0, 0, 0, 0) == pytest.approx(math.pi / 8.0, abs=1e-14)
    assert alpha_hol(1, 1, 1, 1) == pytest.approx(math.pi / 16.0, abs=1e-14)


def test_alpha_hol_off_resonance_is_zero():
    assert alpha_hol(1, 2, 3, 1) == 0.0
    assert alpha_hol(0, 0, 1, 0) == 0.0


def test_alpha_hol_index_symmetries():
    quads = [(2, 5, 3, 4), (0, 7, 2, 5), (1, 1, 0, 2)]
    for n1, n2, n3, n4 in quads:
        base = alpha_hol(n1, n2, n3, n4)
        assert base > 0
        assert alpha_hol(n2, n1, n3, n4) == pytest.approx(base, rel=1e-14)
        assert alpha_hol(n1, n2, n4, n3) == pytest.approx(base, rel=1e-14)
        assert alpha_hol(n3, n4, n1, n2) == pytest.approx(base, rel=1e-14)


@pytest.mark.parametrize("quad", [(0.5, 0.5, 0.5, 0.5), (1, 2.5, 1.5, 2), (np.nan, 0, 0, 0),
                                  (np.inf, 0, 0, 0), (-1, 1, 0, 0)])
def test_alpha_hol_rejects_non_integer_and_negative_indices(quad):
    with pytest.raises(ValueError, match="integers|>= 0"):
        alpha_hol(*quad)


def test_alpha_hol_accepts_integral_floats():
    assert alpha_hol(1.0, 2.0, 3.0, 0.0) == alpha_hol(1, 2, 3, 0)


def test_scaled_falling_factorial_small_cases():
    # (L)_p / 2^L style helper used by the closed form; spot-check by brute force
    assert _scaled_falling_factorial(4, 0) == pytest.approx(1.0 / 2.0 ** 4)
    assert _scaled_falling_factorial(4, 2) == pytest.approx(4.0 * 3.0 / 2.0 ** 4)


def test_lemma_sum_check_converges_to_two():
    # partial sums of sum_k 2^{-k} C(k,n) increase towards 2
    for n in (0, 2, 5):
        small = _lemma_sum_check(n, n + 4)
        large = _lemma_sum_check(n, n + 60)
        assert small < large < 2.0 + 1e-12
        assert large == pytest.approx(2.0, abs=1e-6)


def test_oracle_matches_closed_form_constant():
    constant, spread, count = proportionality_constant(6)
    assert spread < 1e-6
    assert count > 10
    assert constant == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("level", [75, 76])
def test_eigenspace_oracle_matches_exact_l4_norm(level):
    # a mode paired with itself is 2 pi (pi/2) int |phi_k|^4 = pi^2 ||phi_k||_4^4;
    # at level 76 the oracle's rule has 161 nodes
    family = eigenspace(level)
    for k in (0, level // 3, level):
        exact = math.pi ** 2 * lp_norm(family, k, 4) ** 4
        assert oracle_coupling(family, k, k, k, k) == pytest.approx(exact, rel=1e-12)


def test_holomorphic_oracle_on_a_161_node_rule_matches_closed_form():
    constant = proportionality_constant(4)[0]
    value = oracle_coupling(HOLOMORPHIC, 0, 65, 23, 42, oracle_rule(HOLOMORPHIC, 76))
    assert value == pytest.approx(alpha_hol(0, 65, 23, 42) * constant, rel=1e-10)


def test_oracle_rule_failure_is_grid_resolution_error():
    # shifted nodes break the rule's symmetry: int z e^{-2|x|^2} reads 1e-2 i
    rule = oracle_rule(HOLOMORPHIC, 4)
    shifted = QuadratureRule(rule.nodes + 0.01, rule.weights, rule.scale)
    with pytest.raises(GridResolutionError, match="imaginary residual"):
        oracle_coupling(HOLOMORPHIC, 1, 0, 0, 0, shifted)


def test_oracle_coupling_radial_symmetry():
    rule = oracle_rule(RADIAL, 6)
    a = oracle_coupling(RADIAL, 1, 2, 1, 2, rule)
    b = oracle_coupling(RADIAL, 2, 1, 2, 1, rule)
    assert a == pytest.approx(b, rel=1e-10)
    assert a != 0.0


def test_build_tensor_validates_and_round_trips(tmp_path):
    tensor = build_tensor(HOLOMORPHIC, 6)
    tensor.validate()
    path = tmp_path / "t6.bin"
    tensor.save(path)
    back = load_tensor(path)
    assert back.family == tensor.family
    assert back.cutoff == tensor.cutoff
    assert np.array_equal(back.indices, tensor.indices)
    assert np.array_equal(back.weights, tensor.weights)
    assert back.constant == tensor.constant


def test_load_tensor_rejects_corruption(tmp_path):
    tensor = build_tensor(HOLOMORPHIC, 4)
    path = tmp_path / "t4.bin"
    tensor.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_tensor(path)


CACHE_TENSORS = [(HOLOMORPHIC, 6), (RADIAL, 4), (eigenspace(3), 3)]
CACHE_PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


@pytest.fixture(scope="module", params=CACHE_TENSORS, ids=lambda ft: ft[0].label)
def cache(request, tmp_path_factory):
    """A tensor, a scratch path, and the bytes of the tensor's saved cache."""
    family, cutoff = request.param
    tensor = build_tensor(family, cutoff)
    folder = tmp_path_factory.mktemp("cache")
    tensor.save(folder / "tensor.bin")
    return tensor, folder / "scratch.bin", (folder / "tensor.bin").read_bytes()


@CACHE_PROPERTY
@given(data=st.data())
def test_cache_round_trip_is_bitwise(cache, data):
    tensor, path, _ = cache
    finite = st.floats(1e-300, 1e300)
    weights = np.array(data.draw(st.lists(finite, min_size=len(tensor), max_size=len(tensor))))
    original = CouplingTensor(tensor.family, tensor.cutoff, tensor.indices, weights,
                              data.draw(finite))
    original.save(path)
    back = load_tensor(path)
    assert (back.family, back.cutoff) == (original.family, original.cutoff)
    assert np.array_equal(back.indices, original.indices)
    assert back.weights.tobytes() == original.weights.tobytes()
    assert back.constant == original.constant
    blob = path.read_bytes()
    back.save(path)
    assert path.read_bytes() == blob


@CACHE_PROPERTY
@given(data=st.data())
def test_cache_truncation_is_rejected(cache, data):
    _, path, blob = cache
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(ValueError):
        load_tensor(path)


@CACHE_PROPERTY
@given(data=st.data())
def test_cache_byte_flip_is_rejected(cache, data):
    _, path, blob = cache
    corrupt = bytearray(blob)
    corrupt[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(corrupt))
    with pytest.raises(ValueError):
        load_tensor(path)


def test_tensor_weights_match_closed_form():
    tensor = build_tensor(HOLOMORPHIC, 10)
    rows, ref = reference_weights(tensor)
    assert np.allclose(tensor.weights[rows], ref, rtol=1e-9)


def test_reference_weights_flags_rescaling():
    tensor = build_tensor(HOLOMORPHIC, 8).rescaled(1.1)
    rows, ref = reference_weights(tensor)
    rel = np.abs(tensor.weights[rows] - ref) / np.abs(ref)
    assert rel.min() > 0.09


def test_eigenspace_tensor_is_real_positive_diagonalish():
    tensor = build_tensor(eigenspace(3), 3)
    tensor.validate()
    assert len(tensor) > 0
    assert np.all(np.isfinite(tensor.weights))
    # self-interaction entries exist for every mode
    idx = tensor.indices
    for k in range(4):
        assert ((idx == k).all(axis=1)).any()


def _brute_chain_entries(N):
    """Every quadruple with n1 <= n2, n3 <= n4, n1 + n2 = n3 + n4 and all
    indices <= N, sorted."""
    quads = [(n1, n2, n3, n1 + n2 - n3)
             for n1 in range(N + 1) for n2 in range(n1, N + 1) for n3 in range(N + 1)
             if n3 <= n1 + n2 - n3 <= N]
    return sorted(quads)


@pytest.mark.parametrize("N", range(13))
def test_chain_tensor_order_and_weights_match_brute_force(N):
    hol = build_tensor(HOLOMORPHIC, N)
    rad = build_tensor(RADIAL, N)
    expected = _brute_chain_entries(N)
    assert hol.indices.tolist() == [list(q) for q in expected]
    assert rad.indices.tolist() == [list(q) for q in expected]
    assert np.array_equal(hol.weights, [alpha_hol(*q) for q in expected])
    # radial: the quadrature gram of each block S, pairs in ascending first index
    rule = oracle_rule(RADIAL, N)
    psi = laguerre_weighted(np.arange(N + 1), 0, rule.nodes)
    ref = []
    for n1, n2, n3, n4 in expected:
        a = np.arange(max(0, n1 + n2 - N), (n1 + n2) // 2 + 1)
        prod = psi[a] * psi[n1 + n2 - a]
        gram = (prod * rule.weights) @ prod.T
        ref.append(gram[n1 - a[0], n3 - a[0]] * math.pi / rad.constant)
    assert np.allclose(rad.weights, ref, rtol=1e-13, atol=1e-15 * np.abs(ref).max())


def test_radial_tensor_builds_and_validates():
    tensor = build_tensor(RADIAL, 6)
    tensor.validate()
    assert tensor.cutoff == 6
    assert len(tensor) > 0
