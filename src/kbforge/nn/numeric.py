"""Central finite differences, written against plain numpy arrays so it
shares no code with the tape's backward pass."""

from __future__ import annotations

import numpy as np


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """d f / d x elementwise for scalar-valued f, by central differences.
    Mutates a private copy only; x must be float64 for the advertised
    accuracy."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad

