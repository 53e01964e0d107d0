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

An auto block (k = k') is the cross block with ``P'_i = P_i`` seen through
the half-vectorization ``eta`` of its symmetric coefficient matrix, plus a
same-point column for the noise variance. This module alone knows that
map, and applies it as two index maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, block_diag, cho_factor, cho_solve

from .crossval import SelectionResult, select_grid
from .errors import FuncovError, SingularSystemError
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


def build_aux(data, means, ws: SplineWorkspace, k: int, kp: int, stacks=None) -> AuxBlock:
    """Assemble the auxiliary regression for response pair (k, kp).

    Residuals are the observations minus the fitted means. For each
    subject every (j1, j2) observation pair contributes the product
    ``r_ij1^{(k)} r_ij2^{(kp)}``, whose design row evaluates the spline
    surface at ``(t_ij1^{(k)}, t_ij2^{(kp)})``. Subjects missing either
    response are dropped. Each response is laid out by
    :func:`subject_stacks`; a fit passes every response's layout as
    ``stacks`` (indexed by response), so that it is made once for all the
    blocks the response enters.
    """
    if not 0 <= k <= kp < data.n_responses:
        raise FuncovError(f"bad response pair ({k}, {kp})")
    auto = k == kp
    if stacks is None:
        stacks = {q: subject_stacks(data, means, ws, q) for q in {k, kp}}
    P, r, m, v = stacks[k]
    Pp, rp, mp, _ = stacks[kp]
    keep = (m > 0) & (mp > 0)
    if not keep.any():
        raise FuncovError(f"no subject observes both responses {k} and {kp}")
    m, mp = m[keep], mp[keep]
    # pad only to the largest count among the kept subjects
    P, r = P[keep, : m.max()], r[keep, : m.max()]
    Pp, rp = (P, r) if auto else (Pp[keep, : mp.max()], rp[keep, : mp.max()])
    y_var = float(np.var(v)) if auto else 0.0
    return AuxBlock(k, kp, r[:, :, None] * rp[:, None, :], P, Pp, m, mp, y_var)


def subject_stacks(data, means, ws: SplineWorkspace, k: int):
    """Basis rows (n, m, c) and residuals (n, m) of response k, zero-padded
    past each subject's count, with the counts and the raw values.

    The basis is evaluated once over the pooled times. A mean on the same
    workspace is read off those rows, ``B @ alpha`` as ``MeanFit`` forms
    it; any other mean is evaluated on its own workspace.
    """
    t, v, counts = data.pooled(k)
    subj = np.repeat(np.arange(counts.size), counts)
    j = np.arange(t.size) - (np.cumsum(counts) - counts)[subj]
    B = eval_basis_matrix(ws, t)
    P = np.zeros((counts.size, counts.max(initial=0), ws.c))
    P[subj, j] = B
    mean = means[k]
    r = np.zeros(P.shape[:2])
    r[subj, j] = v - (B @ mean.alpha if mean.ws is ws else mean(t))
    return P, r, counts, v


def _vec(M):
    """Column-major vectorization of each matrix in an (n, a, b) stack."""
    return M.transpose(0, 2, 1).reshape(M.shape[0], -1)


def _half_vec_maps(c: int):
    """The half-vectorization of symmetric c x c matrices, as index maps.

    ``eta`` is the column-stacked lower triangle of a symmetric ``S``
    (diagonal included), and the 0/1 duplication matrix ``Gc`` has
    ``Gc eta = vec(S)``. Returns ``(dup, sym)``: ``dup`` maps the rows of
    an (n, c^2) or (n, c, c) stack ``M`` to ``vec(M_i)'Gc``, whose entries
    are ``M_ij + M_ji`` (``M_ii`` on the diagonal), and ``sym`` maps
    ``eta`` to ``Gc eta``. Both are index gathers, equal bit for bit to
    the products with ``Gc``.
    """
    j, i = np.triu_indices(c)
    lo, up, off = i * c + j, j * c + i, (i != j).astype(float)
    pair = np.empty(c * c, dtype=np.intp)
    pair[lo] = pair[up] = np.arange(lo.size)

    def dup(M):
        # np.take keeps the result row-major, as the GEMM's was; fancy
        # indexing would return it column-major, and a product with it
        # (Hg @ eta) would then sum in another order
        M = M.reshape(M.shape[0], c * c)
        return np.take(M, lo, axis=1) + np.take(M, up, axis=1) * off

    def sym(eta):
        return eta[pair]

    return dup, sym


def _block_statistics(block: AuxBlock, ws: SplineWorkspace):
    """Normal matrix, per-subject right-hand sides and ``X_i'X_i`` action.

    Returns ``(gram, rhs, apply)`` as :class:`funcov.crossval.GridSelector`
    takes them. The Grams ``G_i``, ``G'_i`` and ``P_i' C_i P'_i`` are
    batched products over the block's zero-padded stacks. A cross
    block's ``X_i'X_i = G'_i (x) G_i`` maps ``vec(T)`` to
    ``vec(G_i T G'_i)``, two small products per subject of which the
    first is a single (n c, c) GEMM over the stacked ``G'_i``.

    An auto block is the cross block with ``G'_i = G_i`` seen through the
    half-vectorization maps of :func:`_half_vec_maps`. Its design is
    ``[X_i Gc, z_i]`` with the same-point indicator ``z_i``, so its Gram,
    right-hand sides and action are the cross block's with ``dup``
    applied on each side that meets ``Gc``, plus the indicator's row and
    column. With ``S = mat(sym(eta))`` the action maps ``[eta; sigma]`` to
    ``[dup(vec(G_i S G_i)) + sigma dup(G_i); <G_i, S> + m_i sigma]``.
    """
    c, n = ws.c, block.C.shape[0]
    Pt = block.P.transpose(0, 2, 1)
    G, Gp = Pt @ block.P, block.Pp.transpose(0, 2, 1) @ block.Pp
    rhs = _vec(Pt @ block.C @ block.Pp)
    # sum_i kron(G'_i, G_i)
    K = np.einsum("iac,ibd->abcd", Gp, G, optimize=True).reshape(c * c, c * c)
    Gp_rows = Gp.reshape(n * c, c)

    def apply_cross(beta):
        # vec(G_i T G'_i) is the row-major flattening of G'_i T' G_i
        # (both Grams are symmetric), and beta.reshape(c, c) is T'
        return ((Gp_rows @ beta.reshape(c, c)).reshape(n, c, c) @ G).reshape(n, c * c)

    if block.k != block.kp:
        return K, rhs, apply_cross

    dup, sym = _half_vec_maps(c)
    m = block.m
    Hg = dup(G)  # rows Gc'vec(G_i) = (X_i Gc)'z_i
    h = Hg.sum(axis=0)
    # Gc'K Gc as (Gc'K) Gc, rows summed first as in the dense product; K is
    # symmetric only up to rounding, so the other grouping differs in bits
    gram = np.block([[dup(dup(K.T).T), h[:, None]], [h, m.sum()]])
    rhs = np.column_stack([dup(rhs), np.trace(block.C, axis1=1, axis2=2)])

    def apply(beta):
        eta, sigma = beta[:-1], beta[-1]
        return np.column_stack([dup(apply_cross(sym(eta))) + sigma * Hg, Hg @ eta + sigma * m])

    return gram, rhs, apply


def _auto_penalty(ws: SplineWorkspace):
    """Penalty of the symmetry-constrained coefficients ``[eta; sigma]``."""
    dup, _ = _half_vec_maps(ws.c)
    return block_diag(dup(dup(ws.P1.T).T), 0.0)


def _fit_block(block: AuxBlock, ws: SplineWorkspace, rho_grid, w_grid) -> BlockFit:
    """Select one block's penalty by the fast LOSO criterion and solve there.

    Cross blocks mix the two tensor-product penalties as
    ``rho * (w P1 + (1 - w) P2)`` over the full (rho, w) grid. Auto
    blocks carry the symmetry constraint, under which both penalties
    coincide, so only rho is searched (reported weight 0.5). The solution
    of ``(X'X + sum_j l_j P_j) beta = X'C`` at the selected levels ``l``
    gives the block's :class:`BlockFit`: a cross block's ``theta`` is
    ``beta`` reshaped, an auto block's is ``sym(eta)`` with the raw noise
    variance ``sigma`` as both ``sigma2`` and ``sigma2_raw``. Failures
    name the block: :class:`FuncovError` for a grid on which no point
    scores finite, :class:`SingularSystemError` for a system that is not
    positive definite at the selected levels and, checked before
    selection since rounding can carry it through Cholesky, for an auto
    block in which no subject observes the response twice.
    """
    rho_grid = default_rho_grid() if rho_grid is None else np.asarray(rho_grid, float)
    if rho_grid.size == 0 or not np.all(np.isfinite(rho_grid) & (rho_grid >= 0)):
        raise FuncovError("rho grid must be nonempty, finite and nonnegative")
    auto = block.k == block.kp
    if auto:
        penalties, weights = [_auto_penalty(ws)], [(1.0,)]
    else:
        w_grid = W_GRID if w_grid is None else tuple(w_grid)
        if len(w_grid) == 0 or any(not 0 <= w <= 1 for w in w_grid):
            raise FuncovError("weight grid must be nonempty with weights in [0, 1]")
        penalties = [ws.P1, ws.P2]
        weights = [(float(w), float(1.0 - w)) for w in w_grid]
    name = f"auto block {block.k}" if auto else f"cross block ({block.k}, {block.kp})"
    if auto and not (block.m > 1).any():
        raise SingularSystemError(
            f"{name}: no subject observes the response twice, so its "
            "covariance diagonal and noise variance cannot be told apart"
        )
    gram, rhs, apply = _block_statistics(block, ws)
    norm_y2 = float(np.vdot(block.C, block.C))
    try:
        sel = select_grid(
            gram, rhs, norm_y2, apply, penalties=penalties, rho_grid=rho_grid, weight_grid=weights
        )
    except FloatingPointError:
        raise FuncovError(f"{name}: selection criterion was non-finite on the whole grid") from None
    if auto:
        sel = replace(sel, weight=0.5)
    lambdas = (sel.rho,) if auto else (sel.rho * sel.weight, sel.rho * (1.0 - sel.weight))
    # left to right, (X'X + l_1 P_1) + l_2 P_2: the order fixes the last bits
    A = sum((lam * P for lam, P in zip(lambdas, penalties)), gram)
    try:
        beta = cho_solve(cho_factor(A), rhs.sum(axis=0))
    except LinAlgError:
        raise SingularSystemError(
            f"{name}: normal system is not positive definite at the selected penalty"
        ) from None
    c = ws.c
    if not auto:
        return BlockFit(beta.reshape(c, c, order="F"), lambdas, None, None, sel)
    _, sym = _half_vec_maps(c)
    sigma2 = float(beta[-1])
    return BlockFit(sym(beta[:-1]).reshape(c, c), lambdas, sigma2, sigma2, sel)


def fit_cross(block: AuxBlock, ws: SplineWorkspace, rho_grid=None, w_grid=None) -> BlockFit:
    """Fit an off-diagonal covariance block.

    Solves ``(X'X + l1 P1 + l2 P2) theta = X'C`` at the selected penalty
    level, where ``l1 = rho w`` and ``l2 = rho (1 - w)``.
    """
    if block.k == block.kp:
        raise FuncovError("fit_cross expects an off-diagonal block")
    return _fit_block(block, ws, rho_grid, w_grid)


def fit_auto(block: AuxBlock, ws: SplineWorkspace, rho_grid=None) -> BlockFit:
    """Fit a diagonal covariance block and its noise variance.

    The coefficient matrix is constrained to be symmetric through the
    half-vectorization parameterization, and the same-point indicator
    column absorbs the noise variance, which needs at least one subject
    that observes the response twice; with one point per curve the fit
    raises :class:`SingularSystemError` naming the block. A negative
    variance estimate is clipped to a small positive fraction of the
    response's sample variance, with a warning.
    """
    if block.k != block.kp:
        raise FuncovError("fit_auto expects a diagonal block")
    fit = _fit_block(block, ws, rho_grid, None)
    if fit.sigma2_raw < 0.0:
        fit = replace(fit, sigma2=SIGMA2_CLIP_FACTOR * block.y_var)
        warnings.warn(
            f"negative noise variance {fit.sigma2_raw:.3e} for response "
            f"{block.k}; clipped to {fit.sigma2:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return fit
