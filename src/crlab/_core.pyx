# cython: language_level=3, boundscheck=False, wraparound=False, initializedcheck=False, cdivision=True
"""Compiled contraction kernel.

Only the O(entries) inner loop of one right-hand-side evaluation lives here:
the trilinear accumulation.  _kernels_py holds the numpy mirror with the
identical signature; kernels.py selects between them at import time.
"""

cdef extern from "complex.h" nogil:
    double complex cconj "conj"(double complex)


def rhs_core(const double[::1] w, const unsigned int[::1] i1, const unsigned int[::1] i2,
             const unsigned int[::1] ic, const unsigned int[::1] io,
             const double complex[::1] c, double complex[::1] out):
    """Accumulate out[io] += w * c[i1] * c[i2] * conj(c[ic]) over all rows."""
    cdef Py_ssize_t k
    cdef Py_ssize_t m = w.shape[0]
    with nogil:
        for k in range(m):
            out[io[k]] = out[io[k]] + w[k] * c[i1[k]] * c[i2[k]] * cconj(c[ic[k]])

