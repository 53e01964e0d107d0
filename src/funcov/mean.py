"""Per-response mean estimation with a difference-penalized spline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from ._linalg import solve_penalized
from .crossval import loso_shortcut_error, size_groups
from .errors import FuncovError, SingularSystemError
from .splines import SplineWorkspace, eval_basis_matrix

# Log-spaced smoothing grid, scaled so the basis Gram has unit mean diagonal.
TAU_GRID_SIZE = 31
TAU_GRID_RANGE = (1e-6, 1e6)
# The joint basis carries a relative error of about 1e-15 * cond(B'B) into
# every score (measured on boundary-sparse designs up to cond 1e12). A B'B
# conditioned worse than 1e6, where that error could pass 1e-9, is scored
# through the exact per-tau path instead.
JOINT_RCOND = 1e-6


@dataclass
class MeanFit:
    """Fitted mean curve for one response.

    Attributes
    ----------
    alpha : ndarray
        Basis coefficients.
    tau : float
        Selected smoothing parameter (original, unscaled objective).
    cv_curve : ndarray or None
        Array of (tau, criterion) rows over the searched grid.
    ws : SplineWorkspace
        Basis the coefficients refer to.
    """

    alpha: np.ndarray
    tau: float
    cv_curve: np.ndarray
    ws: SplineWorkspace

    def __call__(self, times) -> np.ndarray:
        """Evaluate the fitted mean at the given times."""
        return eval_basis_matrix(self.ws, times) @ self.alpha


def default_tau_grid(scale: float = 1.0) -> np.ndarray:
    lo, hi = TAU_GRID_RANGE
    return scale * np.logspace(np.log10(lo), np.log10(hi), TAU_GRID_SIZE)


def fit_mean(data, k: int, ws: SplineWorkspace, tau_grid=None) -> MeanFit:
    """Fit the mean of response k by penalized least squares.

    The coefficient vector solves ``(B'B + tau D'D) alpha = B'y`` over the
    pooled observations of response k. The smoothing parameter minimizes
    the leave-one-subject-out prediction error, computed with the exact
    linear-smoother shortcut rather than refits, and aggregated as the
    plain sum of squared errors over all held-out points (no per-subject
    reweighting). Ties prefer the larger tau.

    Parameters
    ----------
    data : SparseFunctionalDataset
    k : int
        Response index.
    ws : SplineWorkspace
    tau_grid : sequence of float, optional
        Candidate smoothing parameters. The default is a 31-point
        log-spaced grid spanning [1e-6, 1e6] after rescaling the
        objective so B'B has unit mean diagonal.

    Returns
    -------
    MeanFit
    """
    t_all, y, counts = data.pooled(k)
    if t_all.size == 0:
        raise FuncovError(f"no observations for response index {k}")
    ends = np.cumsum(counts)
    slices = [(int(e - m), int(e)) for e, m in zip(ends, counts) if m]
    B = eval_basis_matrix(ws, t_all)
    G0 = B.T @ B
    DtD = ws.D.T @ ws.D
    if tau_grid is None:
        tau_grid = default_tau_grid(scale=float(np.trace(G0)) / ws.c)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0 or not np.all(np.isfinite(tau_grid) & (tau_grid >= 0)):
        raise FuncovError("tau grid must be nonempty, finite and nonnegative")

    scores = loso_curve(B, y, slices, G0, DtD, tau_grid)
    curve = np.column_stack([tau_grid, scores])
    best = None
    for tau, score in zip(tau_grid, scores):
        if np.isfinite(score):
            key = (score, -tau)
            if best is None or key <= best[0]:
                best = (key, float(tau))
    if best is None:
        raise SingularSystemError(
            f"mean smoothing for response {k} failed at every grid value; "
            "the pooled design is too deficient"
        )
    tau = best[1]
    alpha = solve_penalized(
        G0 + tau * DtD, B.T @ y, penalty_is_zero=(tau == 0.0), context="mean fit"
    )
    return MeanFit(alpha=alpha, tau=tau, cv_curve=curve, ws=ws)


def loso_curve(B, y, slices, G0, DtD, tau_grid) -> np.ndarray:
    """Leave-one-subject-out error of ``(B'B + tau D'D)`` at every tau.

    The pencil is diagonalized once: with ``B'B = L L'`` and
    ``L^{-1} D'D L^{-T} = V diag(lam) V'``, the smoother at tau is
    ``Q diag(1 / (1 + tau lam)) Q'`` with ``Q = B L^{-T} V``. Every tau is
    then a diagonal rescale, and the systems ``(I - S_ii) e_i = r_i`` are
    solved in one batch per subject size. A ``B'B`` that is not safely
    positive definite, and any tau whose batched solve fails, take the
    exact :func:`loso_shortcut_error` path instead; a tau where that fails
    too scores ``inf``.
    """
    basis = _joint_basis(B, G0, DtD)
    groups = size_groups(slices)
    if basis is not None:
        try:
            return _joint_errors(*basis, y, groups, tau_grid)
        except np.linalg.LinAlgError:
            pass  # some tau failed; score them one by one to find it
    return np.array(
        [_tau_error(basis, B, y, slices, groups, G0 + tau * DtD, tau) for tau in tau_grid]
    )


def _tau_error(basis, B, y, slices, groups, A, tau) -> float:
    if basis is not None:
        try:
            return float(_joint_errors(*basis, y, groups, np.array([tau]))[0])
        except np.linalg.LinAlgError:
            pass
    try:
        return loso_shortcut_error(B, y, slices, A)
    except np.linalg.LinAlgError:
        return np.inf


def _joint_basis(B, G0, DtD):
    """(Q, lam) diagonalizing the pencil (B'B, D'D), or None.

    None when B'B is singular or conditioned worse than ``1 / JOINT_RCOND``.
    """
    w = np.linalg.eigvalsh(G0)
    if not w[0] > JOINT_RCOND * w[-1]:
        return None
    L = np.linalg.cholesky(G0)
    Linv = solve_triangular(L, np.eye(L.shape[0]), lower=True)
    M = Linv @ DtD @ Linv.T
    lam, V = np.linalg.eigh(0.5 * (M + M.T))
    # D'D annihilates affine coefficient sequences exactly; rounding leaves
    # their pencil eigenvalues at +-1e-15 relative, which a large tau would
    # amplify, so numerical zeros are set to the exact zero.
    lam[lam <= lam.size * np.finfo(float).eps * lam[-1]] = 0.0
    return B @ (Linv.T @ V), lam


def _joint_errors(Q, lam, y, groups, taus) -> np.ndarray:
    """LOSO errors at every tau from the joint basis.

    Raises LinAlgError when some ``I - S_ii`` is exactly singular.
    """
    c = lam.size
    delta = 1.0 / (1.0 + taus[:, None] * lam)  # (T, c) smoother spectra
    fitted = delta * (Q.T @ y)  # (T, c) rotated coefficients
    total = np.zeros(taus.size)
    for rows in groups:
        Qg = Q[rows]  # (n, m, c)
        n, m = rows.shape
        outer = (Qg[:, :, None, :] * Qg[:, None, :, :]).reshape(-1, c)
        Sii = (delta @ outer.T).reshape(taus.size, n, m, m)
        resid = (fitted @ Qg.reshape(-1, c).T).reshape(taus.size, n, m) - y[rows]
        e = np.linalg.solve(np.eye(m) - Sii, resid[..., None])
        total += (e * e).sum(axis=(1, 2, 3))
    return total
