"""Generalized eigenproblem reduction of snapshot spaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channelms.spectral import spectral_reduce


def _random_problem(rng, n_snap=8, n_fine=30):
    R = rng.standard_normal((n_snap, n_fine))
    X = rng.standard_normal((n_fine, n_fine))
    A = X @ X.T + np.eye(n_fine)
    Y = rng.standard_normal((n_fine, n_fine))
    S = Y @ Y.T + np.eye(n_fine)
    return R, A, S


def _tilde_forms(R, A, S):
    """The unit-S-norm snapshots the reduction works in, and the reduced
    forms in their coordinates."""
    norms = np.sqrt(np.einsum("ij,ij->i", R, (S @ R.T).T))
    Rn = R / norms[:, None]
    return Rn, Rn @ A @ Rn.T, Rn @ S @ Rn.T


def check_spectral(R, A, S, M, tol=1e-8):
    """Residual, orthonormality and ordering checks shared with acceptance."""
    A = np.asarray(A @ np.eye(A.shape[0])) if not isinstance(A, np.ndarray) else A
    S = np.asarray(S @ np.eye(S.shape[0])) if not isinstance(S, np.ndarray) else S
    basis = spectral_reduce(R, A, S, M)
    Rn, At, St = _tilde_forms(np.asarray(R, dtype=float), A, S)
    lam = basis.eigenvalues
    assert np.all(np.isfinite(lam))
    assert np.all(np.diff(lam) >= -1e-12 * max(abs(lam).max(), 1.0))
    nA, nS = np.linalg.norm(At), np.linalg.norm(St)
    for k in range(M):
        v = basis.vectors[k]  # Rnᵀ c for the mode's snapshot coefficients c
        res = np.linalg.norm(Rn @ (A @ v) - lam[k] * (Rn @ (S @ v)))
        assert res <= tol * (nA + abs(lam[k]) * nS), (k, res)
    G = basis.vectors @ S @ basis.vectors.T
    assert np.abs(G - np.eye(M)).max() < tol
    return basis


def test_eigen_residuals_random(rng):
    R, A, S = _random_problem(rng)
    check_spectral(R, A, S, 5)


def test_full_selection_preserves_span(rng):
    R, A, S = _random_problem(rng)
    basis = spectral_reduce(R, A, S, len(R))
    # orthogonal projectors onto the two spans agree
    Q1 = np.linalg.qr(R.T)[0]
    Q2 = np.linalg.qr(basis.vectors.T)[0]
    assert np.abs(Q1 @ Q1.T - Q2 @ Q2.T).max() < 1e-8


def test_eigenvalues_nonnegative_for_psd_A(rng):
    R, _, S = _random_problem(rng)
    X = rng.standard_normal((30, 12))
    A = X @ X.T  # rank deficient PSD
    basis = spectral_reduce(R, A, S, 4)
    assert basis.eigenvalues.min() > -1e-10 * np.linalg.norm(A)


@settings(max_examples=15, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_snapshot_scaling_invariance(scale):
    rng = np.random.default_rng(7)
    R, A, S = _random_problem(rng)
    b1 = spectral_reduce(R, A, S, 4)
    b2 = spectral_reduce(scale * R, A, S, 4)
    Q1 = np.linalg.qr(b1.vectors.T)[0]
    Q2 = np.linalg.qr(b2.vectors.T)[0]
    assert np.abs(Q1 @ Q1.T - Q2 @ Q2.T).max() < 1e-8


def test_rank_deficient_gram_reported(rng):
    R, A, S = _random_problem(rng, n_snap=6)
    R[3] = R[0] + R[1]  # linearly dependent snapshots
    R[4] = R[0] - R[2]
    with pytest.raises(ValueError, match="rank"):
        spectral_reduce(R, A, S, 6)
    basis = spectral_reduce(R, A, S, 4)  # rank-4 subspace still available
    assert len(basis.eigenvalues) == 4


def test_none_keeps_every_mode_up_to_the_rank(rng):
    R, A, S = _random_problem(rng, n_snap=6)
    R[5] = R[0] + R[1]  # rank 5
    full = spectral_reduce(R, A, S)
    assert len(full.eigenvalues) == len(full.vectors) == 5
    at_rank = spectral_reduce(R, A, S, 5)
    assert np.array_equal(full.eigenvalues, at_rank.eigenvalues)
    assert np.array_equal(full.vectors, at_rank.vectors)


def test_empty_snapshots_rejected():
    with pytest.raises(ValueError):
        spectral_reduce(np.zeros((0, 5)), np.eye(5), np.eye(5), 0)
