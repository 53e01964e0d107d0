"""Bivariate spline smoothing of covariance surfaces from residual products.

For a response pair (k, k') the raw material is one product per within-
subject observation pair: centered residuals ``r_ij1 * r_ij2`` whose
expectation is the covariance surface at the matching time pair, plus a
noise variance on same-point pairs of an auto block. Each block's
coefficient matrix solves a tensor-product penalized least squares
problem; the penalty level is chosen by the fast leave-one-subject-out
criterion in :mod:`funcov.crossval`.

Pairs are enumerated with the second response's index moving slowest, so
the stacked product vector for a subject is ``kron(r_i^{(k')}, r_i^{(k)})``
and the design rows are the matching Kronecker products of basis rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import solve_penalized
from .crossval import SelectionResult, select_grid
from .errors import FuncovError
from .splines import SplineWorkspace, eval_basis_matrix

RHO_GRID_SIZE = 20
RHO_GRID_RANGE = (1e-4, 1e8)
W_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
SIGMA2_CLIP_FACTOR = 1e-8
# Rows per block when gathering the symmetric auto-block design.
DESIGN_ROW_BLOCK = 256


def default_rho_grid() -> np.ndarray:
    lo, hi = RHO_GRID_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), RHO_GRID_SIZE)


@dataclass
class AuxBlock:
    """Stacked residual products and design for one response pair.

    Attributes
    ----------
    k, kp : int
        Response indices, k <= kp.
    C : ndarray, shape (N,)
        Residual products, subject blocks concatenated.
    B : ndarray, shape (N, c^2)
        Tensor-product design rows.
    Z : ndarray or None
        Same-point pair indicator column (auto blocks only).
    slices : list of (start, stop)
        Row range of each contributing subject.
    y_var : float
        Sample variance of the raw response values (auto blocks only);
        sets the clipping scale for a negative noise variance estimate.
    """

    k: int
    kp: int
    C: np.ndarray
    B: np.ndarray
    Z: np.ndarray | None
    slices: list
    y_var: float


@dataclass
class BlockFit:
    """Fitted coefficient matrix for one covariance block."""

    theta: np.ndarray
    lambdas: tuple
    sigma2: float | None
    sigma2_raw: float | None
    selection: SelectionResult


def build_aux(data, means, ws: SplineWorkspace, k: int, kp: int) -> AuxBlock:
    """Assemble the auxiliary regression for response pair (k, kp).

    Residuals are the observations minus the fitted means. For each
    subject every (j1, j2) observation pair contributes the product
    ``r_ij1^{(k)} r_ij2^{(kp)}`` and a design row evaluating the spline
    surface at ``(t_ij1^{(k)}, t_ij2^{(kp)})``. Subjects missing either
    response contribute no rows. The basis and the mean are evaluated
    once per response over its pooled times; every pair row indexes them.
    """
    if not 0 <= k <= kp < data.n_responses:
        raise FuncovError(f"bad response pair ({k}, {kp})")
    auto = k == kp
    P, r, m, first, v = _pooled_residuals(data, means, ws, k)
    if auto:
        Pp, rp, mp, first_p = P, r, m, first
    else:
        Pp, rp, mp, first_p, _ = _pooled_residuals(data, means, ws, kp)
    keep = (m > 0) & (mp > 0)
    m, mp, first, first_p = m[keep], mp[keep], first[keep], first_p[keep]
    n_rows = m * mp
    if n_rows.sum() == 0:
        raise FuncovError(f"no subject observes both responses {k} and {kp}")
    ends = np.cumsum(n_rows)
    # row l of subject i pairs observation j1 = l % m_i of response k with
    # j2 = l // m_i of response kp (the second index moves slowest)
    subj = np.repeat(np.arange(n_rows.size), n_rows)
    local = np.arange(ends[-1]) - (ends - n_rows)[subj]
    j1, j2 = local % m[subj], local // m[subj]
    i1, i2 = first[subj] + j1, first_p[subj] + j2
    B = (Pp[i2][:, :, None] * P[i1][:, None, :]).reshape(i1.size, ws.c * ws.c)
    y_var = float(np.var(v)) if auto else 0.0
    return AuxBlock(
        k=k,
        kp=kp,
        C=rp[i2] * r[i1],
        B=B,
        Z=(j1 == j2).astype(float) if auto else None,
        slices=[(int(e - n), int(e)) for e, n in zip(ends, n_rows)],
        y_var=y_var,
    )


def _pooled_residuals(data, means, ws: SplineWorkspace, k: int):
    """Basis rows, residuals, per-subject counts, first pooled index and
    values of response k."""
    t, v, counts = data.pooled(k)
    return (
        eval_basis_matrix(ws, t),
        v - means[k](t),
        counts,
        np.cumsum(counts) - counts,
        v,
    )


def _auto_design(block: AuxBlock, ws: SplineWorkspace):
    """Symmetry-constrained design [B Gc, Z] and its penalty.

    Column h of ``Gc`` picks one lower-triangle entry (i, j) of the
    coefficient matrix and its mirror (j, i), so ``B Gc`` adds the two
    matching columns of B; that gather-add replaces the dense product,
    with the same result bit for bit.
    """
    c = ws.c
    j, i = np.triu_indices(c)  # column-stacked lower triangle: i >= j
    lower, upper = j * c + i, i * c + j
    off = np.flatnonzero(lower != upper)
    X = np.empty((block.B.shape[0], lower.size + 1))
    # Gathering columns reads B with a stride of c^2; row blocks that stay
    # in cache make it about twice as fast as the product (n = 1000).
    for start in range(0, X.shape[0], DESIGN_ROW_BLOCK):
        B, Xb = block.B[start : start + DESIGN_ROW_BLOCK], X[start : start + DESIGN_ROW_BLOCK]
        Xb[:, :-1] = B[:, lower]
        Xb[:, off] += B[:, upper[off]]
    X[:, -1] = block.Z
    q = X.shape[1]
    Q = np.zeros((q, q))
    Q[:-1, :-1] = ws.Gc.T @ ws.P1 @ ws.Gc
    return X, Q


def _checked_rho_grid(rho_grid) -> np.ndarray:
    rho_grid = default_rho_grid() if rho_grid is None else np.asarray(rho_grid, float)
    if rho_grid.size == 0 or np.any(rho_grid < 0):
        raise FuncovError("rho grid must be nonempty and nonnegative")
    return rho_grid


def _select_auto(block: AuxBlock, X, Q, rho_grid) -> SelectionResult:
    res = select_grid(X, block.C, block.slices, [Q], rho_grid, [(1.0,)])
    return SelectionResult(res.rho, 0.5, res.score, res.surface, res.gram)


def select_smoothing(block: AuxBlock, ws: SplineWorkspace, rho_grid=None, w_grid=None):
    """Grid search of the fast LOSO criterion for one block.

    Cross blocks mix the two tensor-product penalties as
    ``rho * (w P1 + (1 - w) P2)`` over the full (rho, w) grid. Auto
    blocks carry the symmetry constraint, under which both penalties
    coincide, so only rho is searched (reported weight 0.5).

    Returns
    -------
    SelectionResult
    """
    rho_grid = _checked_rho_grid(rho_grid)
    if block.k == block.kp:
        return _select_auto(block, *_auto_design(block, ws), rho_grid)
    w_grid = W_GRID if w_grid is None else tuple(w_grid)
    if len(w_grid) == 0 or any(not 0 <= w <= 1 for w in w_grid):
        raise FuncovError("weight grid must be nonempty with weights in [0, 1]")
    weights = [(float(w), float(1.0 - w)) for w in w_grid]
    return select_grid(block.B, block.C, block.slices, [ws.P1, ws.P2], rho_grid, weights)


def fit_cross(block: AuxBlock, ws: SplineWorkspace, rho_grid=None, w_grid=None) -> BlockFit:
    """Fit an off-diagonal covariance block.

    Solves ``(B'B + l1 P1 + l2 P2) theta = B'C`` at the selected penalty
    level, where ``l1 = rho w`` and ``l2 = rho (1 - w)``.
    """
    if block.k == block.kp:
        raise FuncovError("fit_cross expects an off-diagonal block")
    sel = select_smoothing(block, ws, rho_grid, w_grid)
    lam1 = sel.rho * sel.weight
    lam2 = sel.rho * (1.0 - sel.weight)
    A = sel.gram + lam1 * ws.P1 + lam2 * ws.P2
    theta_vec = solve_penalized(
        A,
        block.B.T @ block.C,
        penalty_is_zero=(lam1 == 0.0 and lam2 == 0.0),
        context=f"cross block ({block.k}, {block.kp})",
    )
    theta = theta_vec.reshape(ws.c, ws.c, order="F")
    return BlockFit(
        theta=theta,
        lambdas=(lam1, lam2),
        sigma2=None,
        sigma2_raw=None,
        selection=sel,
    )


def fit_auto(block: AuxBlock, ws: SplineWorkspace, rho_grid=None) -> BlockFit:
    """Fit a diagonal covariance block and its noise variance.

    The coefficient matrix is constrained to be symmetric through the
    half-vectorization parameterization, and the same-point indicator
    column absorbs the noise variance. A negative variance estimate is
    clipped to a small positive fraction of the response's sample
    variance, with a warning.
    """
    if block.k != block.kp:
        raise FuncovError("fit_auto expects a diagonal block")
    X, Q = _auto_design(block, ws)
    sel = _select_auto(block, X, Q, _checked_rho_grid(rho_grid))
    A = sel.gram + sel.rho * Q
    beta = solve_penalized(
        A,
        X.T @ block.C,
        penalty_is_zero=(sel.rho == 0.0),
        context=f"auto block {block.k}",
    )
    eta, sigma2_raw = beta[:-1], float(beta[-1])
    theta = (ws.Gc @ eta).reshape(ws.c, ws.c, order="F")
    sigma2 = sigma2_raw
    if sigma2 < 0.0:
        sigma2 = SIGMA2_CLIP_FACTOR * block.y_var
        warnings.warn(
            f"negative noise variance {sigma2_raw:.3e} for response "
            f"{block.k}; clipped to {sigma2:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return BlockFit(
        theta=theta,
        lambdas=(sel.rho,),
        sigma2=sigma2,
        sigma2_raw=sigma2_raw,
        selection=sel,
    )
