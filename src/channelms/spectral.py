"""Snapshot-space spectral reduction.

Given snapshots R (rows = snapshot vectors) and local symmetric forms A, S,
solve the generalized eigenproblem (R A R^T) psi = lambda (R S R^T) psi on the
numerically nonsingular subspace of the boundary Gram matrix and return the
smallest-eigenvalue modes mapped back to fine dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

GRAM_CUTOFF = 1e-12


@dataclass
class SpectralBasis:
    eigenvalues: np.ndarray  # ascending, length = rank of the Gram matrix
    coefficients: np.ndarray  # (M, n_snap) selected modes in snapshot coords
    vectors: np.ndarray  # (M, n_fine) selected modes on fine dofs


def spectral_reduce(snapshots: np.ndarray, A, S,
                    M: int | None = None) -> SpectralBasis:
    """Select the M smallest-eigenvalue modes of the snapshot space, or every
    mode up to the rank of the boundary Gram matrix when M is None.

    Each snapshot is first normalized to unit S-norm (conditioning only; the
    span is unchanged).  Raises if the boundary Gram matrix has rank < M.
    """
    R = np.asarray(snapshots, dtype=float)
    if R.ndim != 2 or len(R) == 0:
        raise ValueError("need a nonempty 2-D snapshot array")
    SR = np.asarray(S @ R.T).T  # dense (n_snap, n_fine)
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", R, SR), 0.0))
    scale = np.where(norms > 0, norms, 1.0)
    R = R / scale[:, None]
    SR = SR / scale[:, None]

    At = R @ np.asarray(A @ R.T)
    St = R @ SR.T
    At = 0.5 * (At + At.T)
    St = 0.5 * (St + St.T)

    w, U = eigh(St)
    keep = w > GRAM_CUTOFF * max(w.max(), 0.0) if w.max() > 0 else np.zeros_like(w, bool)
    rank = int(keep.sum())
    if M is not None and M > rank:
        raise ValueError(
            f"requested {M} modes but the boundary Gram matrix has rank {rank} "
            f"of {len(w)} snapshots")
    W = U[:, keep] / np.sqrt(w[keep])[None, :]
    lam, Y = eigh(W.T @ At @ W)
    coeffs = (W @ Y).T  # S-tilde-orthonormal rows, ascending eigenvalue
    sel = coeffs[:M]
    return SpectralBasis(eigenvalues=lam, coefficients=sel, vectors=sel @ R)
