"""Resonant interaction weights of the trilinear resonant form.

The quartic pairing

    E(u1,u2,u3,u4) = 2 pi int_{-pi/4}^{pi/4} int_{R^2}
        (e^{-i tau H}u1)(e^{-i tau H}u2) conj(e^{-i tau H}u3)
        conj(e^{-i tau H}u4) dx dtau

couples only resonant quadruples (lambda1 + lambda2 = lambda3 + lambda4).
On the holomorphic chain the weights have the closed form

    alpha(n1,n2,n3,n4) = (pi/8) (n1+n2)! / (2^{n1+n2} sqrt(n1! n2! n3! n4!))
    supported on n1 + n2 = n3 + n4,

and that closed form is the ground truth the dynamics use.  Direct quadrature
of the pairing (oracle_coupling) reproduces alpha times a single constant:
the two formulations carry different normalization conventions, so the
constant is measured and recorded, never adjudicated.  The radial and
eigenspace chains have no closed form; their tensors are built from the
quadrature divided by that same measured constant, putting every family in
the closed-form normalization.

All factorial arithmetic goes through log-gamma: float64 factorials are exact
only through 20! and overflow at 171!.
"""

import math
import struct
import zlib

import numpy as np
from scipy.special import gammaln

from .basis import (
    HOLOMORPHIC,
    BasisFamily,
    GridResolutionError,
    build_laguerre_rule,
    build_quadrature,
    eigenspace,
    hermite_functions,
    laguerre_weighted,
)

__all__ = [
    "alpha_hol",
    "oracle_rule",
    "oracle_coupling",
    "proportionality_constant",
    "build_tensor",
    "CouplingTensor",
    "load_tensor",
    "reference_weights",
    "CACHE_MAGIC",
    "CACHE_VERSION",
]

_LN2 = math.log(2.0)
_LOG_PI_8 = math.log(math.pi / 8.0)

CACHE_MAGIC = b"CRCT"
CACHE_VERSION = 1

_FAMILY_CODES = {"holomorphic": 0, "radial": 1, "eigenspace": 2}
_FAMILY_KINDS = {code: kind for kind, code in _FAMILY_CODES.items()}

# header: magic, format version, family code, cutoff, convention constant,
# entry count; packed little-endian, 32 bytes
_HEADER = struct.Struct("<4sIIIdQ")
_RECORD_DTYPE = np.dtype(
    [("n1", "<u4"), ("n2", "<u4"), ("n3", "<u4"), ("n4", "<u4"), ("w", "<f8")]
)


def alpha_hol(n1, n2, n3, n4):
    """Closed-form holomorphic coupling weight, vectorized over the indices.

    Returns 0 when n1 + n2 != n3 + n4; on the resonance set the value is
    exp(log(pi/8) + lgamma(S+1) - S log 2 - 1/2 sum_i lgamma(n_i+1)) with
    S = n1 + n2, every lgamma read from one table over 0..max index.
    """
    given = np.broadcast_arrays(*(np.asarray(a) for a in (n1, n2, n3, n4)))
    with np.errstate(invalid="ignore"):  # non-finite values fail the equality below
        n1, n2, n3, n4 = idx = [a.astype(np.int64) for a in given]
    for a, i in zip(given, idx):
        if np.any(i != a):
            raise ValueError("mode indices must be integers")
        if np.any(i < 0):
            raise ValueError("mode indices must be >= 0")
    s = n1 + n2
    lg = gammaln(np.arange(max(s.max(initial=0), n3.max(initial=0), n4.max(initial=0)) + 1) + 1.0)
    logs = _LOG_PI_8 + lg[s] - s * _LN2 - 0.5 * (lg[n1] + lg[n2] + lg[n3] + lg[n4])
    out = np.where(s == n3 + n4, np.exp(logs), 0.0)
    return float(out) if out.ndim == 0 else out


def oracle_rule(family, max_index):
    """Scale-2 quadrature rule sized for oracle_coupling up to max_index.

    Gauss-Hermite on the line for the Cartesian families (applied per axis),
    folded half-line Gauss-Laguerre for the radial chain.  The product of
    four eigenfunctions carries e^{-2|x|^2}, hence scale 2 throughout.  The
    rules carry 8 nodes beyond the degree the integrands need.
    """
    if family.kind == "radial":
        return build_laguerre_rule(2 * max_index + 9, scale=2.0)
    if family.kind == "eigenspace":
        return build_quadrature(2 * family.level + 9, scale=2.0)
    return build_quadrature(2 * max_index + 9, scale=2.0)


def _hermite_product_table(n_max, rule):
    """B[k, i] = w_i^{1/4} h_k(x_i) e^{x_i^2/2}: four-row products reassemble
    weight times the bare polynomial parts without any overflow risk."""
    x = rule.nodes
    return rule.weights ** 0.25 * np.exp(0.5 * x * x) * hermite_functions(np.arange(n_max + 1), x)


def _space_integral(family, quad, rule):
    """int phi_{n1} phi_{n2} conj(phi_{n3} phi_{n4}) dx by the scale-2 rule."""
    n1, n2, n3, n4 = quad
    if family.kind == "holomorphic":
        rule.require_degree(n1 + n2 + n3 + n4)
        if len(rule) > 1 and rule.nodes.min() >= 0:
            raise ValueError("holomorphic oracle needs a full-line Gauss-Hermite rule")
        z = rule.nodes[:, None] + 1j * rule.nodes[None, :]
        pw = rule.weights[:, None] * rule.weights[None, :]
        total = np.sum(pw * z ** (n1 + n2) * np.conj(z) ** (n3 + n4))
        logc = -2.0 * math.log(math.pi) - 0.5 * sum(gammaln(k + 1.0) for k in quad)
        return total * math.exp(logc)
    if family.kind == "radial":
        rule.require_degree(n1 + n2 + n3 + n4)
        if rule.nodes.min() < 0:
            raise ValueError("radial oracle needs a half-line Gauss-Laguerre rule")
        psi = laguerre_weighted(quad, 0, rule.nodes)
        vals = psi[0] * psi[1] * psi[2] * psi[3]
        # angular and radial substitution: int f(|x|^2) dx = pi int_0^inf f(u) du
        return float(np.dot(rule.weights, vals)) / math.pi
    level = family.level
    mirror = tuple(level - k for k in quad)
    rule.require_degree(max(sum(quad), sum(mirror)))
    if len(rule) > 1 and rule.nodes.min() >= 0:
        raise ValueError("eigenspace oracle needs a full-line Gauss-Hermite rule")
    table = _hermite_product_table(level, rule)
    s1 = float(np.sum(table[n1] * table[n2] * table[n3] * table[n4]))
    s2 = float(np.sum(table[mirror[0]] * table[mirror[1]] * table[mirror[2]] * table[mirror[3]]))
    return s1 * s2


def oracle_coupling(family, n1, n2, n3, n4, rule=None):
    """Quadrature evaluation of the quartic pairing on one quadruple.

    Returns 2 pi * I_time * I_space where I_time = int_{-pi/4}^{pi/4}
    e^{i tau (lam3 + lam4 - lam1 - lam2)} dtau in closed form and I_space =
    int phi_{n1} phi_{n2} conj(phi_{n3} phi_{n4}) dx by a scale-2 Gauss rule.
    The imaginary residual must stay below 1e-10 (anything larger signals a
    failed quadrature or an inconsistent rule, and raises
    GridResolutionError) and is discarded afterwards.

    rule defaults to oracle_rule(family, max index); pass one explicitly when
    sweeping many quadruples.
    """
    quad = (int(n1), int(n2), int(n3), int(n4))
    if min(quad) < 0:
        raise ValueError("mode indices must be >= 0")
    if family.kind == "eigenspace" and max(quad) > family.level:
        raise ValueError(f"eigenspace level {family.level} has modes 0..{family.level}")
    if rule is None:
        rule = oracle_rule(family, max(quad))
    if abs(rule.scale - 2.0) > 1e-12:
        raise ValueError("oracle integrand carries e^(-2|x|^2); need a scale-2 rule")
    lam = [float(family.eigenvalue(k)) for k in quad]
    dlam = lam[2] + lam[3] - lam[0] - lam[1]
    if dlam == 0.0:
        i_time = math.pi / 2.0
    else:
        i_time = 2.0 * math.sin(dlam * math.pi / 4.0) / dlam
    value = 2.0 * math.pi * i_time * _space_integral(family, quad, rule)
    imag = abs(value.imag) if isinstance(value, complex) else 0.0
    if imag >= 1e-10:
        raise GridResolutionError(
            f"oracle imaginary residual {imag:.3e} for {family.label} {quad}; "
            "quadrature rule inadequate"
        )
    return value.real if isinstance(value, complex) else float(value)


_CONSTANT_CACHE = {}


def proportionality_constant(max_index):
    """Measured ratio oracle_coupling / alpha_hol over the resonant quadruples
    with indices <= max_index.

    Returns (constant, spread, count): the mean ratio, its relative spread
    (max - min over mean), and the number of quadruples swept.  The ratio is
    a single convention factor between the time-integral and closed-form
    normalizations; a spread above 1e-6 means the quadrature is broken.
    """
    key = int(max_index)
    if key in _CONSTANT_CACHE:
        return _CONSTANT_CACHE[key]
    sweep_rule = oracle_rule(HOLOMORPHIC, max_index)
    ratios = []
    for a1 in range(max_index + 1):
        for a2 in range(a1, max_index + 1):
            s = a1 + a2
            for a3 in range(max(0, s - max_index), s // 2 + 1):
                a4 = s - a3
                if a4 > max_index:
                    continue
                num = oracle_coupling(HOLOMORPHIC, a1, a2, a3, a4, sweep_rule)
                ratios.append(num / alpha_hol(a1, a2, a3, a4))
    ratios = np.asarray(ratios)
    constant = float(ratios.mean())
    spread = float((ratios.max() - ratios.min()) / constant)
    result = (constant, spread, len(ratios))
    _CONSTANT_CACHE[key] = result
    return result


class CouplingTensor:
    """Sparse interaction tensor of one family, canonical symmetry classes.

    Each stored row (n1, n2, n3, n4, weight) has both index pairs sorted,
    n1 <= n2 and n3 <= n4, and represents all ordered quadruples obtained by
    swapping inside either pair (1, 2, or 4 of them).  The weight is
    invariant under those swaps and under exchanging the pairs; pair
    exchange relates distinct stored rows, so it is not folded.

    constant records the measured oracle-to-closed-form ratio the weights
    were normalized with, making cached tensors traceable to the measurement
    that produced them.
    """

    def __init__(self, family, cutoff, indices, weights, constant):
        self.family = family
        self.cutoff = int(cutoff)
        self.indices = np.ascontiguousarray(indices, dtype=np.uint32).reshape(-1, 4)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.constant = float(constant)

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return (
            f"CouplingTensor({self.family.label}, cutoff={self.cutoff}, "
            f"entries={len(self)}, constant={self.constant:.12g})"
        )

    def validate(self):
        """Check every structural invariant; raises ValueError on the first
        violation.  Cheap relative to construction, run on every cache load."""
        idx = self.indices
        if idx.shape != (len(self.weights), 4):
            raise ValueError("index and weight arrays disagree in length")
        if len(self) == 0:
            raise ValueError("tensor has no entries")
        if idx.max(initial=0) > self.cutoff:
            raise ValueError("entry index exceeds cutoff")
        if np.any(idx[:, 0] > idx[:, 1]) or np.any(idx[:, 2] > idx[:, 3]):
            raise ValueError("entries must have both index pairs sorted")
        kind = self.family.kind
        i64 = idx.astype(np.int64)
        if kind in ("holomorphic", "radial"):
            if np.any(i64[:, 0] + i64[:, 1] != i64[:, 2] + i64[:, 3]):
                raise ValueError("off-resonance entry in a chain tensor")
        else:
            if self.cutoff != self.family.level:
                raise ValueError("eigenspace tensor cutoff must equal the level")
            if np.any(i64.sum(axis=1) % 2 != 0):
                raise ValueError("odd-parity entry in an eigenspace tensor")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")
        if kind == "holomorphic" and np.any(self.weights <= 0):
            raise ValueError("holomorphic weights must be strictly positive")
        if not (math.isfinite(self.constant) and self.constant > 0):
            raise ValueError("convention constant must be positive and finite")
        key = ((i64[:, 0] * (self.cutoff + 1) + i64[:, 1]) * (self.cutoff + 1) + i64[:, 2]) * (
            self.cutoff + 1
        ) + i64[:, 3]
        if np.any(np.diff(key) <= 0):
            raise ValueError("entries must be unique and lexicographically sorted")
        return self

    def rescaled(self, factor):
        """Copy with every weight multiplied by factor.  Exists for harness
        calibration: a uniformly rescaled tensor generates a time-rescaled
        flow that conserves everything, so only the weight cross-check against
        reference_weights can tell it apart."""
        return CouplingTensor(
            self.family, self.cutoff, self.indices.copy(), self.weights * float(factor), self.constant
        )

    def save(self, path):
        """Write the little-endian binary cache; see load_tensor."""
        rec = np.empty(len(self), dtype=_RECORD_DTYPE)
        rec["n1"] = self.indices[:, 0]
        rec["n2"] = self.indices[:, 1]
        rec["n3"] = self.indices[:, 2]
        rec["n4"] = self.indices[:, 3]
        rec["w"] = self.weights
        header = _HEADER.pack(
            CACHE_MAGIC,
            CACHE_VERSION,
            _FAMILY_CODES[self.family.kind],
            self.cutoff,
            self.constant,
            len(self),
        )
        payload = header + rec.tobytes()
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        with open(path, "wb") as fh:
            fh.write(payload)
            fh.write(struct.pack("<I", crc))


def load_tensor(path):
    """Read a tensor cache written by CouplingTensor.save and validate it.

    Layout: 32-byte header (magic "CRCT", u32 version, u32 family code,
    u32 cutoff, f64 constant, u64 entry count), then packed records of
    (u32 n1, u32 n2, u32 n3, u32 n4, f64 weight), then a trailing CRC32 of
    everything before it.  All little-endian.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + 4:
        raise ValueError(f"{path}: truncated tensor cache")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ValueError(f"{path}: tensor cache checksum mismatch")
    magic, version, code, cutoff, constant, count = _HEADER.unpack_from(blob, 0)
    if magic != CACHE_MAGIC:
        raise ValueError(f"{path}: not a tensor cache (bad magic {magic!r})")
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: cache format version {version}, expected {CACHE_VERSION}")
    if code not in _FAMILY_KINDS:
        raise ValueError(f"{path}: unknown family code {code}")
    expected = _HEADER.size + count * _RECORD_DTYPE.itemsize + 4
    if len(blob) != expected:
        raise ValueError(f"{path}: cache length {len(blob)} != expected {expected}")
    rec = np.frombuffer(blob, dtype=_RECORD_DTYPE, count=count, offset=_HEADER.size)
    indices = np.column_stack([rec["n1"], rec["n2"], rec["n3"], rec["n4"]])
    kind = _FAMILY_KINDS[code]
    family = eigenspace(cutoff) if kind == "eigenspace" else BasisFamily(kind)
    tensor = CouplingTensor(family, cutoff, indices, rec["w"].copy(), constant)
    return tensor.validate()


def _chain_entries(N):
    """Every chain entry (n1, n2, n3, n4) with indices <= N, in lexicographic
    order: the canonical pairs (a <= b) in lexicographic order, each followed
    by the pairs of its block S = a + b in ascending first index, which runs
    from max(0, S - N) to S // 2."""
    a, b = np.triu_indices(N + 1)
    s = a + b
    lo = np.maximum(0, s - N)
    count = s // 2 - lo + 1
    n3 = np.repeat(lo, count) + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(a, count), np.repeat(b, count), n3, np.repeat(s, count) - n3


def build_tensor(family, N):
    """Every resonant interaction class with indices <= N, as a CouplingTensor.

    Holomorphic weights come from the closed form.  Radial and eigenspace
    weights are quadrature values divided by the measured proportionality
    constant, so all families share the closed-form normalization; the
    constant used is stored on the tensor.  Eigenspace tensors span the whole
    eigenspace: the cutoff must equal the family level.  Entries are built in
    lexicographic order.
    """
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    constant, spread, _ = proportionality_constant(4)
    if spread > 1e-6:
        raise RuntimeError(f"oracle/alpha ratio spread {spread:.3e}; quadrature broken")
    if family.kind in ("holomorphic", "radial"):
        n1, n2, n3, n4 = _chain_entries(N)
        if family.kind == "holomorphic":
            weights = alpha_hol(n1, n2, n3, n4)
        else:
            rule = build_laguerre_rule(2 * N + 9, scale=2.0)
            psi = laguerre_weighted(np.arange(N + 1), 0, rule.nodes)
            grams = []
            for s in range(2 * N + 1):
                a = np.arange(max(0, s - N), s // 2 + 1)
                prod = psi[a] * psi[s - a]
                grams.append(((prod * rule.weights) @ prod.T).ravel())
            # 2 pi * (pi/2) * (1/pi) / constant per quadrature sum
            flat = np.concatenate(grams) * (math.pi / constant)
            # block s's gram sits row-major at start[s], one row and column
            # per pair, in ascending first index from lo
            start = np.cumsum([0] + [len(g) for g in grams])
            s = n1 + n2
            lo = np.maximum(0, s - N)
            weights = flat[start[s] + (n1 - lo) * (s // 2 - lo + 1) + n3 - lo]
        return CouplingTensor(family, N, np.column_stack([n1, n2, n3, n4]), weights, constant).validate()
    if N != family.level:
        raise ValueError("eigenspace tensor spans the whole eigenspace; cutoff must equal the level")
    rule = oracle_rule(family, N)
    table = _hermite_product_table(N, rule)
    a, b = np.triu_indices(N + 1)
    prod = table[a] * table[b]
    gram = prod @ prod.T
    # pair (a, b) mirrors to the canonical pair (N - b, N - a)
    pair_id = np.full((N + 1, N + 1), -1, dtype=np.int64)
    pair_id[a, b] = np.arange(len(a))
    mirror = pair_id[N - b, N - a]
    left = gram
    right = gram[np.ix_(mirror, mirror)]
    weight_matrix = left * right * (math.pi ** 2 / constant)
    # pairs p and q both run in lexicographic order, so entries come out sorted
    p, q = (g.ravel() for g in np.meshgrid(np.arange(len(a)), np.arange(len(a)), indexing="ij"))
    parity = (a[p] + b[p] + a[q] + b[q]) % 2 == 0
    p, q = p[parity], q[parity]
    indices = np.column_stack([a[p], b[p], a[q], b[q]])
    return CouplingTensor(family, N, indices, weight_matrix.ravel()[parity], constant).validate()


def reference_weights(tensor):
    """Independently recomputed weights for an evenly strided subset of at
    most 32 tensor rows.

    Holomorphic rows use the closed form, radial and eigenspace rows the
    quadrature oracle divided by the tensor's stored constant.  Reports use
    this as a calibration check: a uniformly rescaled tensor generates a
    time-rescaled flow that still conserves every invariant and passes every
    invariance verdict, so corrupted or rescaled weights are only caught by
    direct recomputation.

    Returns (rows, reference) arrays.
    """
    rows = np.unique(np.linspace(0, len(tensor) - 1, min(len(tensor), 32)).astype(np.int64))
    idx = tensor.indices[rows]
    if tensor.family.kind == "holomorphic":
        ref = alpha_hol(idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3])
        return rows, np.atleast_1d(ref)
    rule = oracle_rule(tensor.family, int(idx.max()))
    ref = np.array(
        [oracle_coupling(tensor.family, *quad, rule=rule) for quad in idx], dtype=np.float64
    )
    return rows, ref / tensor.constant
