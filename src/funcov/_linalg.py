"""Small symmetric linear algebra helpers."""

from __future__ import annotations

import numpy as np


def sym_sqrt_pair(M, rel_floor=1e-12):
    """Symmetric square root and inverse square root of a PSD matrix.

    Eigenvalues are floored at ``rel_floor`` times the largest eigenvalue
    (or at the smallest positive double if the matrix is numerically zero)
    so the inverse root is always finite.

    Returns
    -------
    (sqrt, inv_sqrt) : pair of ndarray
        Both exactly symmetric.
    """
    M = np.asarray(M, dtype=float)
    vals, vecs = np.linalg.eigh(M)
    floor = rel_floor * max(vals[-1], 0.0)
    if floor <= 0.0:
        floor = np.finfo(float).tiny
    vals = np.maximum(vals, floor)
    root = np.sqrt(vals)
    S = (vecs * root) @ vecs.T
    Si = (vecs / root) @ vecs.T
    # enforce exact symmetry so transpose contracts downstream hold bitwise
    S = 0.5 * (S + S.T)
    Si = 0.5 * (Si + Si.T)
    return S, Si


def eigh_desc(M):
    """Eigenpairs of a symmetric matrix in descending eigenvalue order.

    Each eigenvector is signed so its largest-magnitude entry is
    positive, which makes the decomposition deterministic.

    Returns
    -------
    (d, U) : eigenvalues and eigenvectors in columns
    """
    vals, vecs = np.linalg.eigh(M)
    d = vals[::-1].copy()
    U = vecs[:, ::-1].copy()
    for ell in range(U.shape[1]):
        col = U[:, ell]
        if col[np.argmax(np.abs(col))] < 0:
            U[:, ell] = -col
    return d, U

