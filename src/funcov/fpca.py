"""Multivariate FPCA of a fitted covariance model.

The smoothed blocks induce a covariance operator on the product space of
the p responses. Its eigenproblem reduces to a symmetric matrix problem
of size pc x pc: whiten each block by the Gram square root, stack, and
eigendecompose. Eigenfunctions come back through the inverse root, and
truncating the expansion at the positive eigenvalues projects the fit
onto the cone of valid covariance operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import eigh_desc
from .errors import FuncovError
from .splines import SplineWorkspace, eval_basis_matrix

# Eigenvalues below this fraction of the leading one count as zero when
# accumulating explained variance.
PVE_ZERO_TOL = 1e-12


@dataclass
class CovarianceModel:
    """Smoothed covariance of a p-variate functional process.

    Attributes
    ----------
    blocks : ndarray, shape (p, p, c, c)
        Coefficient matrices; ``blocks[kp, k]`` is exactly the transpose
        of ``blocks[k, kp]``.
    sigma2 : ndarray, shape (p,)
        Noise variances.
    means : list of MeanFit
        Fitted mean per response (its basis may differ from ``ws``).
    ws : SplineWorkspace
        Basis of the covariance coefficients.
    refined : bool
        Whether the blocks have been projected onto the PSD cone.
    lambdas : dict
        Selected smoothing parameters keyed by (k, kp).
    response_labels : list of str
    """

    blocks: np.ndarray
    sigma2: np.ndarray
    means: list
    ws: SplineWorkspace
    refined: bool
    lambdas: dict
    response_labels: list

    @property
    def p(self) -> int:
        return self.blocks.shape[0]


@dataclass
class EigenSystem:
    """Eigendecomposition of the stacked whitened coefficient matrix.

    Attributes
    ----------
    d : ndarray, shape (pc,)
        Eigenvalues in descending order.
    U : ndarray, shape (pc, pc)
        Orthonormal eigenvectors in columns, signed so each column's
        largest-magnitude entry is positive.
    npc : int
        Components needed to reach the requested explained-variance
        fraction, unless a fit forced the count (``FitSettings.npc``).
        A saved model keeps it, and prediction defaults to it.
    pve : float
        That requested fraction.
    pve_curve : ndarray, shape (pc,)
        Cumulative explained-variance fractions (negligible and negative
        eigenvalues excluded from the denominator).
    ws : SplineWorkspace
    p : int
    """

    d: np.ndarray
    U: np.ndarray
    npc: int
    pve: float
    pve_curve: np.ndarray
    ws: SplineWorkspace
    p: int


def assemble_blocks(upper: dict, p: int, c: int) -> np.ndarray:
    """Build the (p, p, c, c) block array from the k <= kp triangle.

    The lower triangle is filled with exact transposes.
    """
    blocks = np.zeros((p, p, c, c))
    for (k, kp), theta in upper.items():
        if k > kp:
            raise FuncovError("assemble_blocks expects upper-triangle keys")
        blocks[k, kp] = theta
        if k != kp:
            blocks[kp, k] = theta.T
    return blocks


def stack_blocks(model: CovarianceModel) -> np.ndarray:
    """Stacked pc x pc coefficient matrix: block (k, kp) at rows k*c.. and
    columns kp*c.."""
    p, c = model.p, model.ws.c
    return model.blocks.transpose(0, 2, 1, 3).reshape(p * c, p * c)


def _sandwich(model: CovarianceModel, root: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``K S K`` with ``K = kron(I_p, root)``, symmetrized."""
    K = np.kron(np.eye(model.p), root)
    M = K @ S @ K
    return 0.5 * (M + M.T)


def whitened_stack(model: CovarianceModel) -> np.ndarray:
    """Stacked matrix with every block whitened by the Gram root."""
    return _sandwich(model, model.ws.G_half, stack_blocks(model))


def eigendecompose(model: CovarianceModel, pve: float = 0.99) -> EigenSystem:
    """Eigendecompose the covariance operator implied by the model.

    The operator shares its spectrum with the symmetrized stacked
    whitened matrix; eigenfunctions are recovered from the eigenvectors
    via the inverse Gram root (see :func:`eval_eigenfunction`).
    """
    if not 0.0 < pve <= 1.0:
        raise FuncovError(f"pve must lie in (0, 1], got {pve}")
    M = whitened_stack(model)
    if not np.all(np.isfinite(M)):
        raise FuncovError("covariance coefficients contain non-finite entries")
    d, U = eigh_desc(M)
    curve = pve_curve(d)
    # the fewest components whose share reaches pve; 0 when none is positive
    hits = np.nonzero(curve >= pve - 1e-15)[0]
    npc = int(hits[0]) + 1 if hits.size else 0
    return EigenSystem(
        d=d, U=U, npc=npc, pve=pve, pve_curve=curve, ws=model.ws, p=model.p
    )


def pve_curve(d: np.ndarray) -> np.ndarray:
    """Cumulative explained-variance fractions of descending eigenvalues.

    Eigenvalues at or below ``PVE_ZERO_TOL`` times the leading one, and
    negative ones, count as zero; the curve is all zeros when no
    eigenvalue is positive.
    """
    if not (d.size and d[0] > 0):
        return np.zeros_like(d)
    pos = np.where(d > PVE_ZERO_TOL * d[0], d, 0.0)
    total = pos.sum()
    return np.cumsum(pos) / total if total > 0 else np.zeros_like(d)


def refine(model: CovarianceModel, eig: EigenSystem) -> CovarianceModel:
    """Project the fitted blocks onto the PSD cone.

    Reconstructs every block from the positive part of the spectrum:
    negative eigenvalues are dropped, positive ones and their
    eigenvectors are kept unchanged.
    """
    p, c = model.p, model.ws.c
    keep = eig.d > 0
    Uk = eig.U[:, keep]
    S = _sandwich(model, model.ws.G_inv_half, (Uk * eig.d[keep]) @ Uk.T)
    # S is exactly symmetric, so blocks[kp, k] is exactly blocks[k, kp].T
    blocks = S.reshape(p, c, p, c).transpose(0, 2, 1, 3).copy()
    return replace(model, blocks=blocks, refined=True)


def eval_eigenfunction(eig: EigenSystem, ell: int, k: int, times) -> np.ndarray:
    """Evaluate the response-k component of eigenfunction ell.

    Component functions are ``b(t)' G^{-1/2} u_ell^{(k)}`` where
    ``u_ell^{(k)}`` is the response-k slice of eigenvector ell; jointly
    across responses they are orthonormal in the product L2 inner
    product.
    """
    c = eig.ws.c
    if not 0 <= ell < eig.d.size:
        raise FuncovError(f"component index {ell} out of range")
    if not 0 <= k < eig.p:
        raise FuncovError(f"response index {k} out of range")
    coef = eig.ws.G_inv_half @ eig.U[k * c : (k + 1) * c, ell]
    return eval_basis_matrix(eig.ws, times) @ coef


def eval_covariance(model: CovarianceModel, k: int, kp: int, s, t) -> np.ndarray:
    """Covariance surface of responses (k, kp) on the grid s x t.

    Returns an array of shape (len(s), len(t)). Evaluation is routed
    through the upper-triangle block so the symmetry
    ``C_{k,kp}(s, t) == C_{kp,k}(t, s)`` holds exactly, bit for bit.
    """
    if k > kp:
        return eval_covariance(model, kp, k, t, s).T
    Bs = eval_basis_matrix(model.ws, s)
    Bt = eval_basis_matrix(model.ws, t)
    return Bs @ model.blocks[k, kp] @ Bt.T
