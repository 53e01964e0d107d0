"""Per-response mean estimation with a difference-penalized spline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from ._linalg import solve_penalized
# loso_shortcut_error stays importable from here: the benchmark's tracer
# (bench/tracing.py) wraps it under this module's name.
from .crossval import loso_shortcut_error, loso_singular, size_groups  # noqa: F401
from .errors import FuncovError, SingularSystemError
from .splines import SplineWorkspace, eval_basis_matrix

# Log-spaced smoothing grid, scaled so the basis Gram has unit mean diagonal.
TAU_GRID_SIZE = 31
TAU_GRID_RANGE = (1e-6, 1e6)


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
    linear-smoother shortcut rather than refits, over the whole grid at
    once (:func:`loso_curve`), and aggregated as the plain sum of squared
    errors over all held-out points (no per-subject reweighting). Ties
    prefer the larger tau; a grid where every tau is singular raises
    :class:`SingularSystemError`.

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
    B = eval_basis_matrix(ws, t_all)
    G0 = B.T @ B
    DtD = ws.D.T @ ws.D
    if tau_grid is None:
        tau_grid = default_tau_grid(scale=float(np.trace(G0)) / ws.c)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0 or not np.all(np.isfinite(tau_grid) & (tau_grid >= 0)):
        raise FuncovError("tau grid must be nonempty, finite and nonnegative")

    scores = loso_curve(B, y, counts, G0, DtD, tau_grid)
    curve = np.column_stack([tau_grid, scores])
    finite = np.isfinite(scores)
    if not finite.any():
        raise SingularSystemError(
            f"mean smoothing for response {k} failed at every grid value; "
            "the pooled design is too deficient"
        )
    # the lowest finite score; ties prefer the larger tau
    tau = float(tau_grid[finite & (scores == scores[finite].min())].max())
    alpha = solve_penalized(
        G0 + tau * DtD, B.T @ y, penalty_is_zero=(tau == 0.0), context="mean fit"
    )
    return MeanFit(alpha=alpha, tau=tau, cv_curve=curve, ws=ws)


def loso_curve(B, y, counts, G0, DtD, tau_grid) -> np.ndarray:
    """Leave-one-subject-out error of ``(B'B + tau D'D)`` at every tau,
    from the rows of B and y stacked in subject order, ``counts[i]`` rows
    for subject i.

    The stabilized pencil is diagonalized once: with ``B'B + D'D = L L'``,
    ``L^{-1} D'D L^{-T} = V diag(.) V'`` and ``R = L^{-T} V``, the columns
    of R diagonalize both B'B and D'D, so the smoother at tau is
    ``Q diag(1 / (nu + tau mu)) Q'`` with ``Q = B R``. Every tau is then a
    diagonal rescale, and the systems ``(I - S_ii) e_i = r_i`` are solved
    in one batch per subject size. A tau scores ``inf`` where
    ``B'B + tau D'D`` is singular to rounding (some ``nu + tau mu`` is zero
    once quotients within rounding of zero are zeroed; every tau when
    ``B'B + D'D`` is not positive definite) or where some ``I - S_ii`` is
    (:func:`funcov.crossval.loso_singular`).
    :func:`funcov.crossval.loso_shortcut_error` scores one tau with its own
    Cholesky factor and is the reference this curve is tested against.
    """
    basis = _joint_basis(B, G0, DtD)
    if basis is None:
        return np.full(len(tau_grid), np.inf)
    return _joint_errors(*basis, y, size_groups(counts), tau_grid)


def _joint_basis(B, G0, DtD):
    """(Q, nu, mu) diagonalizing the pencil (B'B, D'D), or None.

    None when ``B'B + D'D`` is not positive definite: then the two share a
    null direction and every ``B'B + tau D'D`` is singular.
    """
    try:
        L = np.linalg.cholesky(G0 + DtD)
    except np.linalg.LinAlgError:
        return None
    Linv = solve_triangular(L, np.eye(L.shape[0]), lower=True)
    M = Linv @ DtD @ Linv.T
    R = Linv.T @ np.linalg.eigh(0.5 * (M + M.T))[1]
    Q = B @ R
    # Rayleigh quotients r'B'B r and r'D'D r rather than 1 - eig and eig,
    # which would lose a small nu to cancellation against 1.
    nu = np.einsum("ij,ij->j", Q, Q)
    mu = np.einsum("ij,ij->j", R, DtD @ R)
    # A quotient within rounding of zero (c eps |A| |r|^2 for its matrix A)
    # is set to the exact zero. D'D annihilates affine coefficient sequences
    # exactly, and a large tau would amplify their rounding; a direction that
    # both matrices annihilate then leaves nu + tau mu exactly zero.
    floor = nu.size * np.finfo(float).eps * np.einsum("ij,ij->j", R, R)
    nu[nu <= floor * np.linalg.norm(G0, 2)] = 0.0
    mu[mu <= floor * np.linalg.norm(DtD, 2)] = 0.0
    return Q, nu, mu


def _joint_errors(Q, nu, mu, y, groups, taus) -> np.ndarray:
    """LOSO errors at every tau from the joint basis.

    A tau at which ``B'B + tau D'D`` or some ``I - S_ii`` is singular to
    rounding scores inf.
    """
    c = nu.size
    spectra = nu + taus[:, None] * mu  # (T, c) of B'B + tau D'D in the basis R
    singular_pencil = (spectra == 0.0).any(axis=1)
    spectra[singular_pencil] = 1.0  # keeps the batch finite; those taus score inf
    delta = 1.0 / spectra  # (T, c) smoother spectra
    fitted = delta * (Q.T @ y)  # (T, c) rotated coefficients
    total = np.zeros(taus.size)
    for rows in groups:
        Qg = Q[rows]  # (n, m, c)
        n, m = rows.shape
        outer = (Qg[:, :, None, :] * Qg[:, None, :, :]).reshape(-1, c)
        Sii = (delta @ outer.T).reshape(taus.size, n, m, m)
        resid = (fitted @ Qg.reshape(-1, c).T).reshape(taus.size, n, m) - y[rows]
        M = np.eye(m) - Sii
        singular = loso_singular(M)  # (T, n)
        M[singular] = np.eye(m)  # keeps the batch solvable; those taus score inf
        e = np.linalg.solve(M, resid[..., None])
        total += (e * e).sum(axis=(1, 2, 3))
        total[singular.any(axis=1)] = np.inf
    total[singular_pencil] = np.inf
    return total
