"""Small symmetric linear algebra helpers."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import SingularSystemError


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


def solve_penalized(A, rhs, penalty_is_zero=False, context=""):
    """Solve the symmetric normal system ``A x = rhs``.

    Uses a Cholesky factorization. If that fails and a positive penalty
    was present, falls back to the minimum-norm least-squares solution
    with a warning; with a zero penalty the singularity is a hard error.
    """
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        return cho_solve(cho_factor(A), rhs)
    except (LinAlgError, np.linalg.LinAlgError):
        if penalty_is_zero:
            raise SingularSystemError(
                f"singular normal system{' in ' + context if context else ''}: "
                "the design is deficient and no penalty regularizes it"
            ) from None
        warnings.warn(
            f"normal system{' in ' + context if context else ''} was not "
            "positive definite; using a minimum-norm least-squares solve",
            RuntimeWarning,
            stacklevel=2,
        )
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        return sol
