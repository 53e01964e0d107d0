"""Bivariate spline smoothing of covariance surfaces from residual products.

For a response pair (k, k') the raw material is one product per within-
subject observation pair: centered residuals ``r_ij1 * r_ij2`` whose
expectation is the covariance surface at the matching time pair, plus a
noise variance on same-point pairs of an auto block. Each block's
coefficient matrix solves a tensor-product penalized least squares
problem; the penalty level is chosen by the fast leave-one-subject-out
criterion in :mod:`funcov.crossval`.

A block holds, for the subjects that observe both responses, zero-padded
stacks of the two responses' basis rows ``P_i`` and ``P'_i`` and of the raw
covariances ``C_i = r_i r'_i'``. The design rows ``X_i = P'_i (x) P_i``
are never formed: selection and the solve use the c x c Grams
``G_i = P_i'P_i`` and ``G'_i``, with ``X_i'X_i = G'_i (x) G_i`` and
``X_i'vec(C_i) = vec(P_i' C_i P'_i)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from ._linalg import solve_penalized
from .crossval import SelectionResult, select_grid
from .errors import FuncovError
from .splines import SplineWorkspace, eval_basis_matrix

RHO_GRID_SIZE = 20
RHO_GRID_RANGE = (1e-4, 1e8)
W_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
SIGMA2_CLIP_FACTOR = 1e-8


def default_rho_grid() -> np.ndarray:
    lo, hi = RHO_GRID_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), RHO_GRID_SIZE)


@dataclass
class AuxBlock:
    """Residual products of one response pair, stacked per subject.

    Only the n_b subjects that observe both responses are kept, in subject
    order. Every stack is zero-padded past each subject's count.

    Attributes
    ----------
    k, kp : int
        Response indices, k <= kp.
    C : ndarray, shape (n_b, m, m')
        Raw covariances: ``C[i, j1, j2] = r_ij1^{(k)} r_ij2^{(kp)}``, whose
        design row evaluates the surface at ``(t_ij1^{(k)}, t_ij2^{(kp)})``.
        In an auto block the same-point pairs are the diagonal
        ``j1 = j2 < m[i]``.
    P, Pp : ndarray, shapes (n_b, m, c) and (n_b, m', c)
        Basis rows of responses k and kp at each subject's observation
        times; one array for an auto block.
    m, mp : ndarray of int, shape (n_b,)
        Observation counts of responses k and kp; one array for an auto
        block.
    y_var : float
        Sample variance of the raw response values (auto blocks only);
        sets the clipping scale for a negative noise variance estimate.
    """

    k: int
    kp: int
    C: np.ndarray
    P: np.ndarray
    Pp: np.ndarray
    m: np.ndarray
    mp: np.ndarray
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
    ``r_ij1^{(k)} r_ij2^{(kp)}``, whose design row evaluates the spline
    surface at ``(t_ij1^{(k)}, t_ij2^{(kp)})``. Subjects missing either
    response are dropped. The basis and the mean are evaluated once per
    response over its pooled times.
    """
    if not 0 <= k <= kp < data.n_responses:
        raise FuncovError(f"bad response pair ({k}, {kp})")
    auto = k == kp
    P, r, m, v = _subject_stacks(data, means, ws, k)
    Pp, rp, mp, _ = (P, r, m, v) if auto else _subject_stacks(data, means, ws, kp)
    keep = (m > 0) & (mp > 0)
    if not keep.any():
        raise FuncovError(f"no subject observes both responses {k} and {kp}")
    m, mp = m[keep], mp[keep]
    # pad only to the largest count among the kept subjects
    P, r = P[keep, : m.max()], r[keep, : m.max()]
    Pp, rp = (P, r) if auto else (Pp[keep, : mp.max()], rp[keep, : mp.max()])
    y_var = float(np.var(v)) if auto else 0.0
    return AuxBlock(k, kp, r[:, :, None] * rp[:, None, :], P, Pp, m, mp, y_var)


def _subject_stacks(data, means, ws: SplineWorkspace, k: int):
    """Basis rows (n, m, c) and residuals (n, m) of response k, zero-padded
    past each subject's count, with the counts and the raw values."""
    t, v, counts = data.pooled(k)
    subj = np.repeat(np.arange(counts.size), counts)
    j = np.arange(t.size) - (np.cumsum(counts) - counts)[subj]
    P = np.zeros((counts.size, counts.max(initial=0), ws.c))
    P[subj, j] = eval_basis_matrix(ws, t)
    r = np.zeros(P.shape[:2])
    r[subj, j] = v - means[k](t)
    return P, r, counts, v


def _vec(M):
    """Column-major vectorization of each matrix in an (n, a, b) stack."""
    return M.transpose(0, 2, 1).reshape(M.shape[0], -1)


def _duplication_gather(c: int):
    """``M -> _vec(M) @ duplication_matrix(c)`` for (n, c, c) stacks.

    Column h of the duplication matrix adds the entries (i, j) and (j, i)
    of the lower-triangle pair i >= j it stands for (once on the
    diagonal), so the product is an index gather over each matrix's
    row-major entries rather than a GEMM against a 0/1 matrix.
    """
    j, i = np.triu_indices(c)
    lo, up, off = i * c + j, j * c + i, (i != j).astype(float)

    def gather(M):
        # np.take keeps the result row-major, as the GEMM's was; fancy
        # indexing would return it column-major, and a product with it
        # (Hg @ eta) would then sum in another order
        M = M.reshape(M.shape[0], c * c)
        return np.take(M, lo, axis=1) + np.take(M, up, axis=1) * off

    return gather


def _block_statistics(block: AuxBlock, ws: SplineWorkspace):
    """Normal matrix, per-subject right-hand sides and ``X_i'X_i`` action.

    Returns ``(gram, rhs, apply)`` as :class:`funcov.crossval.GridSelector`
    takes them. The Grams ``G_i``, ``G'_i`` and ``P_i' C_i P'_i`` are
    batched products over the block's zero-padded stacks. A cross
    block's ``X_i'X_i = G'_i (x) G_i`` maps ``vec(T)`` to
    ``vec(G_i T G'_i)``. An auto block's design is ``[X_i Gc, z_i]`` with
    the same-point indicator ``z_i``; with ``S = mat(Gc eta)`` its
    ``X_i'X_i`` maps ``[eta; sigma]`` to
    ``[Gc'vec(G_i S G_i) + sigma Gc'vec(G_i); <G_i, S> + m_i sigma]``.

    Each action, run once per rho of the grid, is two small products per
    subject. A cross block's first one is a single (n c, c) GEMM over the
    stacked ``G'_i``; an auto block applies ``Gc'`` as an index gather
    (:func:`_duplication_gather`) rather than a GEMM against the 0/1
    duplication matrix.
    """
    c, n = ws.c, block.C.shape[0]
    Pt = block.P.transpose(0, 2, 1)
    G, Gp = Pt @ block.P, block.Pp.transpose(0, 2, 1) @ block.Pp
    rhs = _vec(Pt @ block.C @ block.Pp)
    # sum_i kron(G'_i, G_i)
    K = np.einsum("iac,ibd->abcd", Gp, G, optimize=True).reshape(c * c, c * c)
    if block.k != block.kp:
        Gp_rows = Gp.reshape(n * c, c)

        def apply_cross(beta):
            # vec(G_i T G'_i) is the row-major flattening of G'_i T' G_i
            # (both Grams are symmetric), and beta.reshape(c, c) is T'
            return ((Gp_rows @ beta.reshape(c, c)).reshape(n, c, c) @ G).reshape(n, c * c)

        return K, rhs, apply_cross

    Gc, dup, m = ws.Gc, _duplication_gather(c), block.m
    Hg = dup(G)  # rows Gc'vec(G_i) = (X_i Gc)'z_i
    h = Hg.sum(axis=0)
    gram = np.block([[Gc.T @ K @ Gc, h[:, None]], [h, m.sum()]])
    rhs = np.column_stack([rhs @ Gc, np.trace(block.C, axis1=1, axis2=2)])

    def apply(beta):
        eta, sigma = beta[:-1], beta[-1]
        S = (Gc @ eta).reshape(c, c, order="F")
        return np.column_stack([dup(G @ S @ G) + sigma * Hg, Hg @ eta + sigma * m])

    return gram, rhs, apply


def _auto_penalty(ws: SplineWorkspace):
    """Penalty of the symmetry-constrained coefficients ``[eta; sigma]``."""
    return block_diag(ws.Gc.T @ ws.P1 @ ws.Gc, 0.0)


def _checked_rho_grid(rho_grid) -> np.ndarray:
    rho_grid = default_rho_grid() if rho_grid is None else np.asarray(rho_grid, float)
    if rho_grid.size == 0 or not np.all(np.isfinite(rho_grid) & (rho_grid >= 0)):
        raise FuncovError("rho grid must be nonempty, finite and nonnegative")
    return rho_grid


def _select(block: AuxBlock, ws: SplineWorkspace, rho_grid, w_grid):
    """Grid search of the fast LOSO criterion for one block.

    Cross blocks mix the two tensor-product penalties as
    ``rho * (w P1 + (1 - w) P2)`` over the full (rho, w) grid. Auto
    blocks carry the symmetry constraint, under which both penalties
    coincide, so only rho is searched (reported weight 0.5). Returns the
    :class:`SelectionResult` with the block's normal matrix and its
    right-hand side ``X'C``.
    """
    rho_grid = _checked_rho_grid(rho_grid)
    auto = block.k == block.kp
    if auto:
        penalties, weights = [_auto_penalty(ws)], [(1.0,)]
    else:
        w_grid = W_GRID if w_grid is None else tuple(w_grid)
        if len(w_grid) == 0 or any(not 0 <= w <= 1 for w in w_grid):
            raise FuncovError("weight grid must be nonempty with weights in [0, 1]")
        penalties = [ws.P1, ws.P2]
        weights = [(float(w), float(1.0 - w)) for w in w_grid]
    gram, rhs, apply = _block_statistics(block, ws)
    norm_y2 = float(np.vdot(block.C, block.C))
    sel = select_grid(
        gram, rhs, norm_y2, apply, penalties=penalties, rho_grid=rho_grid, weight_grid=weights
    )
    if auto:
        sel = replace(sel, weight=0.5)
    return sel, gram, rhs.sum(axis=0)


def fit_cross(block: AuxBlock, ws: SplineWorkspace, rho_grid=None, w_grid=None) -> BlockFit:
    """Fit an off-diagonal covariance block.

    Solves ``(X'X + l1 P1 + l2 P2) theta = X'C`` at the selected penalty
    level, where ``l1 = rho w`` and ``l2 = rho (1 - w)``.
    """
    if block.k == block.kp:
        raise FuncovError("fit_cross expects an off-diagonal block")
    sel, gram, rhs = _select(block, ws, rho_grid, w_grid)
    lam1 = sel.rho * sel.weight
    lam2 = sel.rho * (1.0 - sel.weight)
    theta_vec = solve_penalized(
        gram + lam1 * ws.P1 + lam2 * ws.P2,
        rhs,
        penalty_is_zero=(lam1 == 0.0 and lam2 == 0.0),
        context=f"cross block ({block.k}, {block.kp})",
    )
    return BlockFit(
        theta=theta_vec.reshape(ws.c, ws.c, order="F"),
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
    sel, gram, rhs = _select(block, ws, rho_grid, None)
    beta = solve_penalized(
        gram + sel.rho * _auto_penalty(ws),
        rhs,
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
