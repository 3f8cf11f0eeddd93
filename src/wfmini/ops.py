"""Numeric cores behind the compute kernels.

These are thin, array-in/array-out functions so they can be exercised with
explicit operands; the kernel catalog wraps them with seeded buffers and
timing/accounting.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

FUNCTORS = {
    "square": np.square,
    "sqrt": np.sqrt,
    "negate": np.negative,
}


def matmul(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise InvalidParameter(f"incompatible matmul shapes {a.shape} x {b.shape}")
    return a @ b


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def fft(x):
    """Power-of-two FFT of a complex vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or not is_power_of_two(x.size) or x.size < 2:
        raise InvalidParameter(f"fft length must be a power of two >= 2, got shape {x.shape}")
    return np.fft.fft(x)


def axpy(a, x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidParameter(f"axpy shape mismatch {x.shape} vs {y.shape}")
    return a * x + y


def scatter_add(x, idx, y):
    """y[idx[i]] += x[i], returned as a new array."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    y = np.array(y, dtype=np.float64, copy=True)
    if x.shape != idx.shape:
        raise InvalidParameter("x and idx must have the same length")
    if idx.size and (idx.min() < 0 or idx.max() >= y.size):
        raise InvalidParameter("scatter index out of range")
    np.add.at(y, idx, x)
    return y


def reduction(x):
    # np.sum's own reduction, without its dispatch wrapper
    return float(np.add.reduce(np.asarray(x, dtype=np.float64), axis=None))


def inplace_compute(functor, y):
    if not isinstance(functor, str) or functor not in FUNCTORS:
        raise InvalidParameter(f"unknown functor {functor!r}; supported: {sorted(FUNCTORS)}")
    return FUNCTORS[functor](np.asarray(y, dtype=np.float64))
