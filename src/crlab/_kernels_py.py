"""Pure-numpy mirror of the compiled contraction kernel.

Same call signature and accumulation semantics as the extension module;
kernels.py picks whichever imports.  The scatter-add goes through bincount.
"""

import numpy as np


def rhs_core(w, i1, i2, ic, io, c, out):
    """Accumulate out[io] += w * c[i1] * c[i2] * conj(c[ic]) over all rows."""
    terms = w * (c[i1] * c[i2] * np.conj(c[ic]))
    idx = np.asarray(io, dtype=np.intp)
    out += np.bincount(idx, weights=terms.real, minlength=len(out))
    out += 1j * np.bincount(idx, weights=terms.imag, minlength=len(out))
    return out

