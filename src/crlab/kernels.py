"""Contraction plans for the truncated flows.

The single hot operation of the whole package is the trilinear contraction
behind every right-hand-side evaluation.  It comes in two forms that compute
the same sums:

- one coefficient vector: sparse accumulation rows, O(entries) per call,
  scatter-added through bincount.
- a (rows, n_modes) matrix: dense resonance blocks contracted by GEMM over
  fixed-height chunks of rows.  Every stored entry couples two canonical
  pairs of one block (equal n1 + n2 on the chains, equal parity of n1 + n2
  on an eigenspace), so the tensor is block-diagonal over pairs.

A ContractionPlan holds both: the flat accumulation rows and the blocks,
with every per-mode cutoff factor folded into their weights.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Rows per block contraction.  Every GEMM has this fixed shape, padded with
# zero rows, so a row's result is bitwise the same whatever the batch it came
# in and whatever its slot: BLAS gives no such guarantee across shapes.
BLOCK_ROWS = 64


@dataclass
class ContractionPlan:
    """Flat accumulation rows and resonance blocks of one projected flow.

    Right-hand-side rows: out <- w * c[in1] * c[in2] * conj(c[conj]), where w
    already carries the input-pair multiplicity and the four cutoff-profile
    factors of the stored entry.  The within-pair symmetry of the tensor is
    unfolded: an entry with n3 < n4 appears twice, once per output mode.

    Blocks: the canonical pairs (pair_a[p], pair_b[p]), a <= b, ordered so
    that each resonance block is a contiguous range lo:hi.  blocks holds
    (lo, hi, wt) with wt[q, p] = m_p * w(p, q) over the block's pairs: the
    transposed weight matrix with the input-pair multiplicity m_p and the
    cutoff factors folded in.  to_b and to_a are (n_modes, pairs) 0/1
    matrices sending pair q's terms to output mode b_q and, for a_q < b_q,
    to a_q.
    """

    n_modes: int
    in1: np.ndarray
    in2: np.ndarray
    conj: np.ndarray
    out: np.ndarray
    w: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    blocks: tuple
    to_b: sparse.csr_array
    to_a: sparse.csr_array

    def __len__(self):
        return len(self.w)


def _resonance_blocks(family, n, idx, weights):
    """Pairs, dense transposed block weights and output sums of build_plan."""
    code_in = idx[:, 0] * n + idx[:, 1]
    code_out = idx[:, 2] * n + idx[:, 3]
    codes = np.unique(np.concatenate([code_in, code_out]))
    a, b = np.divmod(codes, n)
    key = a + b if family.kind != "eigenspace" else (a + b) % 2
    order = np.argsort(key, kind="stable")
    codes, a, b, key = codes[order], a[order], b[order], key[order]

    pos = np.empty(n * n, dtype=np.int64)
    pos[codes] = np.arange(len(codes))
    first = np.concatenate([[True], key[1:] != key[:-1]])
    block_of = np.cumsum(first) - 1
    bounds = np.append(np.flatnonzero(first), len(codes))
    sizes = np.diff(bounds)
    offsets = np.concatenate([[0], np.cumsum(sizes * sizes)])

    p, q = pos[code_in], pos[code_out]
    blk = block_of[p]
    if np.any(blk != block_of[q]):
        raise ValueError("a tensor entry couples two resonance blocks")
    flat = np.zeros(offsets[-1])
    m = 1.0 + (a < b)
    flat[offsets[blk] + (q - bounds[blk]) * sizes[blk] + (p - bounds[blk])] = m[p] * weights
    blocks = tuple(
        (int(lo), int(hi), flat[offsets[k]:offsets[k + 1]].reshape(hi - lo, hi - lo))
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    )

    # pair q sends U_q conj(c_a) to mode b and, when a < b, U_q conj(c_b) to
    # mode a.  Distinct pairs of one eigenspace block share output modes, so
    # the terms are summed per mode by sparse 0/1 matrices
    pairs = np.arange(len(codes))
    asym = a < b
    to_b = sparse.csr_array((np.ones(len(codes)), (b, pairs)), shape=(n, len(codes)))
    to_a = sparse.csr_array((np.ones(int(asym.sum())), (a[asym], pairs[asym])), shape=(n, len(codes)))
    return a, b, blocks, to_b, to_a


def build_plan(tensor, mode_weights=None):
    """Unfold a CouplingTensor into a ContractionPlan.

    mode_weights: per-mode multipliers chi_n (length cutoff+1) folded into
    every row and block as chi_{n1} chi_{n2} chi_{n3} chi_{n4}; None keeps
    the stored weights bitwise untouched (a sharp projector on matching data
    is a no-op by construction).  Accumulation rows whose folded weight is
    exactly zero are dropped, so fully cut-off modes never enter the inner
    loops; rows are sorted by output mode.
    """
    n_modes = tensor.cutoff + 1
    idx = tensor.indices.astype(np.int64)
    weights = tensor.weights
    if mode_weights is not None:
        chi = np.asarray(mode_weights, dtype=np.float64)
        if chi.shape != (n_modes,):
            raise ValueError("mode_weights length must be cutoff + 1")
        weights = weights * chi[idx[:, 0]] * chi[idx[:, 1]] * chi[idx[:, 2]] * chi[idx[:, 3]]
    pair_a, pair_b, blocks, to_b, to_a = _resonance_blocks(tensor.family, n_modes, idx, weights)
    m12 = 1.0 + (idx[:, 0] < idx[:, 1])
    swap = idx[:, 2] < idx[:, 3]

    in1 = np.concatenate([idx[:, 0], idx[swap, 0]])
    in2 = np.concatenate([idx[:, 1], idx[swap, 1]])
    cj = np.concatenate([idx[:, 2], idx[swap, 3]])
    out = np.concatenate([idx[:, 3], idx[swap, 2]])
    w = np.concatenate([m12 * weights, m12[swap] * weights[swap]])

    live = w != 0.0
    in1, in2, cj, out, w = in1[live], in2[live], cj[live], out[live], w[live]
    perm = np.lexsort((in1, in2, cj, out))

    u32 = np.uint32
    return ContractionPlan(
        n_modes=n_modes,
        in1=np.ascontiguousarray(in1[perm], dtype=u32),
        in2=np.ascontiguousarray(in2[perm], dtype=u32),
        conj=np.ascontiguousarray(cj[perm], dtype=u32),
        out=np.ascontiguousarray(out[perm], dtype=u32),
        w=np.ascontiguousarray(w[perm], dtype=np.float64),
        pair_a=pair_a,
        pair_b=pair_b,
        blocks=blocks,
        to_b=to_b,
        to_a=to_a,
    )


def _contract_chunk(plan, chunk):
    """Block contraction of a (n_modes, BLOCK_ROWS) chunk, one row per column."""
    v = chunk[plan.pair_a]
    v *= chunk[plan.pair_b]
    u = np.empty_like(v)
    # each GEMM acts on the real (pairs, 2 * BLOCK_ROWS) view, re and im interleaved
    for lo, hi, wt in plan.blocks:
        np.matmul(wt, v[lo:hi].view(np.float64), out=u[lo:hi].view(np.float64))
    out = np.zeros((plan.n_modes, 2 * BLOCK_ROWS))
    for pairs, to_modes in ((plan.pair_a, plan.to_b), (plan.pair_b, plan.to_a)):
        # v's buffer holds each term in turn; "clip" skips take's bounds
        # buffer (pair indices are valid by construction)
        np.take(chunk, pairs, axis=0, out=v, mode="clip")
        np.conjugate(v, out=v)
        v *= u
        out += to_modes @ v.view(np.float64)
    return out.view(np.complex128)


def _rhs_blocks(plan, c, out):
    chunk = np.empty((plan.n_modes, BLOCK_ROWS), dtype=np.complex128)
    for lo in range(0, len(c), BLOCK_ROWS):
        n = min(BLOCK_ROWS, len(c) - lo)
        chunk[:, :n] = c[lo:lo + n].T
        chunk[:, n:] = 0.0
        out[lo:lo + n] = _contract_chunk(plan, chunk)[:, :n].T
    return out


def _rhs_core(w, i1, i2, ic, io, c, out):
    """Accumulate out[io] += w * c[i1] * c[i2] * conj(c[ic]) over all rows."""
    terms = w * (c[i1] * c[i2] * np.conj(c[ic]))
    idx = np.asarray(io, dtype=np.intp)
    out += np.bincount(idx, weights=terms.real, minlength=len(out))
    out += 1j * np.bincount(idx, weights=terms.imag, minlength=len(out))
    return out


def rhs_apply(plan, c, out=None):
    """Trilinear contraction sum_{n1+n2-n3=n} w c_{n1} c_{n2} conj(c_{n3}).

    Returns the plain sum; dynamics multiplies by -i.  c is either one
    contiguous complex128 vector of length plan.n_modes, contracted by the
    accumulation rows, or a (rows, n_modes) matrix, contracted row by row
    through the resonance blocks; each row's result is bitwise independent
    of the other rows and of their number.
    """
    if c.ndim == 2:
        if c.shape[1] != plan.n_modes:
            raise ValueError(f"rows have {c.shape[1]} modes, the plan {plan.n_modes}")
        if out is None:
            out = np.empty(c.shape, dtype=np.complex128)
        return _rhs_blocks(plan, c, out)
    if out is None:
        out = np.zeros(plan.n_modes, dtype=np.complex128)
    else:
        out[:] = 0.0
    _rhs_core(plan.w, plan.in1, plan.in2, plan.conj, plan.out, c, out)
    return out
