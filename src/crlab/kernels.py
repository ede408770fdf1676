"""Contraction plans for the truncated flows.

The single hot operation of the whole package is the trilinear contraction
behind every right-hand-side evaluation.  Every stored entry couples two
canonical pairs of one resonance block (equal n1 + n2 on the chains, equal
parity of n1 + n2 on an eigenspace), so the tensor is block-diagonal over
pairs.  A ContractionPlan holds that one representation, dense block weights
with every per-mode cutoff factor folded in, and applies it in two shapes
that compute the same sums:

- one coefficient vector: the blocks as one block-diagonal sparse matrix,
  scattered to the output modes through bincount.
- a (rows, n_modes) matrix: each block by GEMM over fixed-height chunks of
  rows.
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
    """Resonance blocks of one projected flow.

    The canonical pairs (pair_a[p], pair_b[p]), a <= b, are ordered so that
    each resonance block is a contiguous range lo:hi.  blocks holds
    (lo, hi, wt) with wt[q, p] = m_p * w(p, q) over the block's pairs: the
    transposed weight matrix with the input-pair multiplicity m_p and the
    cutoff factors folded in.  weight is the same blocks as one
    block-diagonal CSR matrix over all pairs.

    Pair q sends U_q conj(c_a) to output mode b and, when a_q < b_q,
    U_q conj(c_b) to mode a.  Distinct pairs of one eigenspace block share
    output modes, so the terms are summed per mode: for a matrix by the
    (n_modes, pairs) 0/1 matrices to_b and to_a, for one vector by term j
    adding U[term_pair[j]] conj(c[term_conj[j]]) to the real and imaginary
    part of its mode, entries term_slot[2j] and term_slot[2j + 1] of the
    output's real view.
    """

    n_modes: int
    pair_a: np.ndarray
    pair_b: np.ndarray
    blocks: tuple
    weight: sparse.csr_array
    to_b: sparse.csr_array
    to_a: sparse.csr_array
    term_pair: np.ndarray
    term_conj: np.ndarray
    term_slot: np.ndarray

    def __len__(self):
        """The number of stored block weights."""
        return self.weight.nnz


def build_plan(tensor, mode_weights=None):
    """Group a CouplingTensor into the resonance blocks of a ContractionPlan.

    mode_weights: per-mode multipliers chi_n (length cutoff+1) folded into
    every block weight as chi_{n1} chi_{n2} chi_{n3} chi_{n4}; None keeps
    the stored weights bitwise untouched (a sharp projector on matching data
    is a no-op by construction).
    """
    n = tensor.cutoff + 1
    idx = tensor.indices.astype(np.int64)
    weights = tensor.weights
    if mode_weights is not None:
        chi = np.asarray(mode_weights, dtype=np.float64)
        if chi.shape != (n,):
            raise ValueError("mode_weights length must be cutoff + 1")
        weights = weights * chi[idx[:, 0]] * chi[idx[:, 1]] * chi[idx[:, 2]] * chi[idx[:, 3]]

    code_in = idx[:, 0] * n + idx[:, 1]
    code_out = idx[:, 2] * n + idx[:, 3]
    present = np.zeros(n * n, dtype=bool)
    present[code_in] = present[code_out] = True
    codes = np.flatnonzero(present)
    a, b = np.divmod(codes, n)
    key = a + b if tensor.family.kind != "eigenspace" else (a + b) % 2
    order = np.argsort(key, kind="stable")
    codes, a, b, key = codes[order], a[order], b[order], key[order]

    pos = np.empty(n * n, dtype=np.int64)
    pos[codes] = np.arange(len(codes))
    first = np.concatenate([[True], key[1:] != key[:-1]])
    block_of = np.cumsum(first) - 1
    bounds = np.append(np.flatnonzero(first), len(codes))
    # flat holds the blocks in turn, each row-major, so the rows of all blocks
    # (one per output pair q) run through it in order; (q, p) is at shift[q] + p
    row_len = np.diff(bounds)[block_of]
    row_start = np.concatenate([[0], np.cumsum(row_len)])
    shift = row_start[:-1] - bounds[block_of]

    p, q = pos[code_in], pos[code_out]
    if np.any(block_of[p] != block_of[q]):
        raise ValueError("a tensor entry couples two resonance blocks")
    flat = np.zeros(row_start[-1])
    m = 1.0 + (a < b)
    flat[shift[q] + p] = m[p] * weights
    blocks = tuple(
        (lo, hi, flat[row_start[lo]:row_start[hi]].reshape(hi - lo, hi - lo))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    )

    # the same blocks as one block-diagonal CSR without their zeros; flat[nz]
    # is a copy, so the block views stay untouched
    nz = flat != 0
    col = np.arange(len(flat)) - np.repeat(shift, row_len)
    itype = sparse.get_index_dtype(maxval=len(flat))  # int32 where it fits, as scipy picks
    indptr = np.append(0, np.cumsum(nz))[row_start].astype(itype)
    weight = sparse.csr_array((flat[nz], col[nz].astype(itype), indptr), shape=(len(codes),) * 2)
    pairs = np.arange(len(codes))
    asym = a < b
    return ContractionPlan(
        n_modes=n,
        pair_a=a,
        pair_b=b,
        blocks=blocks,
        weight=weight,
        to_b=sparse.csr_array((np.ones(len(codes)), (b, pairs)), shape=(n, len(codes))),
        to_a=sparse.csr_array((np.ones(int(asym.sum())), (a[asym], pairs[asym])), shape=(n, len(codes))),
        term_pair=np.concatenate([pairs, pairs[asym]]),
        term_conj=np.concatenate([a, b[asym]]),
        term_slot=(2 * np.concatenate([b, a[asym]])[:, None] + [0, 1]).ravel(),
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


def _rhs_blocks(plan, c):
    out = np.empty(c.shape, dtype=np.complex128)
    chunk = np.empty((plan.n_modes, BLOCK_ROWS), dtype=np.complex128)
    for lo in range(0, len(c), BLOCK_ROWS):
        n = min(BLOCK_ROWS, len(c) - lo)
        chunk[:, :n] = c[lo:lo + n].T
        chunk[:, n:] = 0.0
        out[lo:lo + n] = _contract_chunk(plan, chunk)[:, :n].T
    return out


def _rhs_vector(plan, c):
    v = c[plan.pair_a] * c[plan.pair_b]
    # the sparse product and the per-mode sums act on real views, re and im
    # side by side
    u = (plan.weight @ v.view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0]
    terms = u[plan.term_pair] * np.conj(c[plan.term_conj])
    out = np.bincount(plan.term_slot, weights=terms.view(np.float64), minlength=2 * plan.n_modes)
    return out.view(np.complex128)


def rhs_apply(plan, c):
    """Trilinear contraction sum_{n1+n2-n3=n} w c_{n1} c_{n2} conj(c_{n3}).

    Returns the plain sum; dynamics multiplies by -i.  c is either one
    complex128 vector of length plan.n_modes or a (rows, n_modes) matrix,
    contracted in fixed-height chunks of rows; each row's result is bitwise
    independent of the other rows and of their number.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim == 2:
        if c.shape[1] != plan.n_modes:
            raise ValueError(f"rows have {c.shape[1]} modes, the plan {plan.n_modes}")
        return _rhs_blocks(plan, c)
    return _rhs_vector(plan, c)
