"""Snapshot-space spectral reduction and the nested spaces built from it.

Given snapshots R (rows = snapshot vectors) and local symmetric forms A, S,
solve the generalized eigenproblem (R A R^T) psi = lambda (R S R^T) psi on the
numerically nonsingular subspace of the boundary Gram matrix and return the
smallest-eigenvalue modes mapped back to fine dofs.  The modes come in
ascending eigenvalue order, so the space of the first M modes of every
domain is a subset of the rows of the space of any larger M (`NestedSpace`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

GRAM_CUTOFF = 1e-12


@dataclass
class SpectralBasis:
    eigenvalues: np.ndarray  # ascending, length = rank of the Gram matrix
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
    return SpectralBasis(eigenvalues=lam, vectors=coeffs[:M] @ R)


@dataclass
class ModeBlock:
    """One domain's modes of one family, on the domain's fine dofs.

    label is the velocity direction (-1 when both are pooled) or the family
    name.  A block with eigenvalues holds modes in ascending eigenvalue order;
    a block without (a bubble, or a family without snapshots) is kept whole at
    every basis size.
    """

    domain: int
    label: int | str
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (modes, len(dofs))
    dofs: np.ndarray


def pool_workers(threads: int) -> int:
    """Workers for a basis builder's per-domain jobs: `threads`, capped at the
    cores the process may use where the platform tells (Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return min(threads, len(os.sched_getaffinity(0)))
    return threads


@dataclass
class NestedSpace:
    """Every block's modes stacked, in order, into the projection rows R.

    The space of size M keeps the first M modes of each block with
    eigenvalues and every row of the others: the rows `rows(M)` of R.
    """

    name: str  # "velocity" | "concentration", for error messages
    blocks: list
    R: sp.csr_matrix  # (rows, fine dofs)
    extra_dof: int  # reported coarse dofs outside R (one pressure per domain)

    @classmethod
    def stack(cls, name: str, blocks: list, n_fine: int,
              extra_dof: int = 0) -> "NestedSpace":
        rows, cols, vals = [], [], []
        offset = 0
        for b in blocks:
            nb = len(b.vectors)
            rows.append(np.repeat(offset + np.arange(nb), len(b.dofs)))
            cols.append(np.tile(b.dofs, nb))
            vals.append(b.vectors.ravel())
            offset += nb
        R = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(offset, n_fine)).tocsr()
        return cls(name=name, blocks=blocks, R=R, extra_dof=extra_dof)

    @property
    def eigen_rows(self) -> list:
        """(domain, label, k, eigenvalue) of every block, in block order."""
        return [(b.domain, b.label, k, float(lam))
                for b in self.blocks for k, lam in enumerate(b.eigenvalues)]

    def rows(self, M: int) -> np.ndarray:
        """The rows of R that the space of size M keeps, in their order."""
        keep, offset = [], 0
        for b in self.blocks:
            n = len(b.vectors)
            if len(b.eigenvalues):
                if n < M:
                    raise ValueError(
                        f"{self.name} space holds {n} modes on domain "
                        f"{b.domain} (label {b.label!r}); cannot truncate "
                        f"to M={M}")
                n = M
            keep.append(offset + np.arange(n))
            offset += len(b.vectors)
        return np.concatenate(keep)

    def reported_dof(self, M: int) -> int:
        """Coarse dof count of the space of size M."""
        return len(self.rows(M)) + self.extra_dof
