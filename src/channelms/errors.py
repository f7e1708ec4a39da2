"""L2 error metrics in the DG spaces, computed via the element mass matrices."""

from __future__ import annotations

import numpy as np

from .assembly import Discretization


def relative_l2_error(mass, approx: np.ndarray, ref: np.ndarray) -> float:
    """100 * ||approx - ref||_M / ||ref||_M; NaN when the reference is zero."""
    d = approx - ref
    num = float(d @ (mass @ d))
    den = float(ref @ (mass @ ref))
    if den <= 0.0:
        return float("nan")
    return 100.0 * np.sqrt(max(num, 0.0) / den)


def concentration_error(dz: Discretization, approx, ref) -> float:
    return relative_l2_error(dz.mass, approx, ref)


def velocity_error(dz: Discretization, approx, ref) -> float:
    return relative_l2_error(dz.vector_mass, approx, ref)
