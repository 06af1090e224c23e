"""Forward-mode derivatives by the complex step.

For a real-analytic f, f(x0 + i h d) = f(x0) + i h f'(x0) d + O(h^2), so
Im f(x0 + i h d) / h is the directional derivative with an error of order
h^2 and, unlike a finite difference, no subtractive cancellation; with
h = 1e-30 it is exact to working precision (Squire & Trapp 1998; Martins,
Sturdza & Alonso 2003). Plain numpy code is differentiated as it stands,
provided it keeps the complex dtype and avoids the non-analytic operations
(abs, comparisons that steer the value, norms, taking the real part). The
toy stack's loss and gradient checks use this as the analytic side against
central finite differences.
"""

from __future__ import annotations

import numpy as np

_STEP = 1e-30

value = np.real  # the real value of a perturbed or plain output


def derivative(f, x0: np.ndarray, direction: np.ndarray) -> float:
    """Exact directional derivative of scalar f at x0 along direction.

    A real output means f does not depend on x0: derivative 0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.asarray(f(x0 + (1j * _STEP) * np.asarray(direction, dtype=np.float64)))
    if out.shape != ():
        raise ValueError("f must return a scalar")
    return float(out.imag) / _STEP


def gradient(f, x0: np.ndarray) -> np.ndarray:
    """Coordinate-wise forward-mode gradient of scalar f at x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0).ravel()
    flat = x0.ravel()
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = 1.0
        grad[i] = derivative(f, flat.reshape(x0.shape), e.reshape(x0.shape))
    return grad.reshape(x0.shape)
