"""Leave-one-subject-out selection for penalized linear smoothers.

Two tools live here. ``loso_shortcut_error`` is the exact
leave-one-subject-out squared prediction error of a ridge-type smoother,
computed from the full fit through the block identity
``y_i - yhat_i^{[i]} = (I - S_ii)^{-1} (y_i - S_i y)`` instead of n
refits; it is the test reference for the mean smoother's selection,
which scores its whole tau grid at once through a joint
diagonalization (:func:`funcov.mean.loso_curve`). The ``GridSelector``
evaluates an approximate version of that criterion over a whole grid
of penalty weights in one pass. It whitens
the design once and eigendecomposes each penalty mixture once; in that
basis a penalty level ``rho`` enters only through the diagonal
``d = 1 / (1 + rho s)``, so :meth:`_WeightStage.score_all` prices every
rho of the grid with one matrix product per subject size: subjects with
equal row counts are stacked and their per-subject products batched.

The selector works for any design matrix X, response vector y, subject
row grouping and list of penalty matrices, so the covariance smoother
uses it both for its unconstrained blocks (two penalties mixed by a
weight) and for its symmetry-constrained blocks (a single penalty).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._linalg import sym_sqrt_pair

# Relative ridge added to X'X before whitening; far below statistical
# noise but keeps the inverse root finite for deficient sparse designs.
GRAM_RIDGE = 1e-10
# A subject whose I - S_ii has an eigenvalue at or below this is one the
# other subjects cannot predict: without it part of the fit is undetermined
# (singular to rounding), and (I - S_ii)^{-1} would amplify rounding noise
# by at least 1 / 1e-8, past the 1e-8 accuracy every score is held to. Such
# a penalty level scores inf.
LOSO_SINGULAR_TOL = 1e-8


def size_groups(slices):
    """Row indices of the nonempty subjects, grouped by row count.

    Returns one integer array of shape (n_g, m) per distinct row count m,
    in increasing m; subjects keep their input order within a group.
    Indexing a stacked array with it gives an (n_g, m, ...) block whose
    per-subject products batch as one matmul.
    """
    starts = {}
    for start, stop in slices:
        if stop > start:
            starts.setdefault(stop - start, []).append(start)
    return [
        np.add.outer(np.array(s, dtype=np.intp), np.arange(m))
        for m, s in sorted(starts.items())
    ]


def loso_singular(M):
    """Flags the stacked (k, m, m) matrices ``I - S_ii`` that are singular
    to rounding: smallest eigenvalue at or below ``LOSO_SINGULAR_TOL``.

    ``S_ii`` is positive semidefinite, so its largest eigenvalue is at most
    its trace and every eigenvalue of ``M = I - S_ii`` is at least
    ``trace(M) - (m - 1)``; only the matrices that bound cannot clear are
    eigendecomposed.
    """
    m = M.shape[-1]
    flag = np.trace(M, axis1=-2, axis2=-1) - (m - 1) <= LOSO_SINGULAR_TOL
    if flag.any():
        flag[flag] = np.linalg.eigvalsh(M[flag])[:, 0] <= LOSO_SINGULAR_TOL
    return flag


def loso_shortcut_error(X, y, slices, A):
    """Exact leave-one-subject-out error of a penalized linear smoother.

    Parameters
    ----------
    X : ndarray, shape (N, q)
        Stacked design matrix.
    y : ndarray, shape (N,)
        Stacked responses.
    slices : sequence of (start, stop)
        Contiguous row ranges, one per subject.
    A : ndarray, shape (q, q)
        Normal matrix of the full fit, ``X'X + penalty``.

    Returns
    -------
    float
        ``sum_i || (I - S_ii)^{-1} (S_i y - y_i) ||^2`` where S is the
        smoother ``X A^{-1} X'``. Equal to the sum of squared prediction
        errors of n literal refits, each leaving one subject out; ``inf``
        when some ``I - S_ii`` is singular to rounding
        (:func:`loso_singular`), where such a refit is undetermined.
    """
    cf = cho_factor(A)
    coef = cho_solve(cf, X.T @ y)
    total = 0.0
    for start, stop in slices:
        Xi = X[start:stop]
        if Xi.shape[0] == 0:
            continue
        yi = y[start:stop]
        Mi = cho_solve(cf, Xi.T)
        Sii = Xi @ Mi
        resid = Xi @ coef - yi
        M = np.eye(Sii.shape[0]) - Sii
        if loso_singular(M[None])[0]:
            return np.inf
        e = np.linalg.solve(M, resid)
        total += float(e @ e)
    return total


@dataclass
class SelectionResult:
    """Outcome of a grid search.

    ``surface`` lists (rho, weight, score) in evaluation order; non-finite
    scores mark skipped grid points. ``gram`` is the design's ``X'X`` as
    the selector formed it, so the final solve need not form it again.
    """

    rho: float
    weight: float
    score: float
    surface: list
    gram: np.ndarray | None = field(default=None, repr=False)


class GridSelector:
    """Fast approximate LOSO criterion on a (weight, rho) grid.

    The criterion for penalty ``rho * sum_j w_j P_j`` is
    ``||y - S y||^2 + 2 sum_i (S_i y - y_i)' S_ii (S_i y - y_i)``,
    the exact shortcut with ``(I - S_ii)^{-2}`` expanded to first order.
    Construction whitens the design and stacks the subjects by row
    count; each call to :meth:`for_weights` eigendecomposes one penalty
    mixture, and the returned stage prices any set of rho values without
    touching the raw data again.
    """

    def __init__(self, X, y, slices, penalties):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        q = X.shape[1]
        self.norm_y2 = float(y @ y)
        self.gram = X.T @ X
        Gn = self.gram
        tr = float(np.trace(Gn))
        if tr > 0.0:
            Gn = Gn + (GRAM_RIDGE * tr / q) * np.eye(q)
        _, E = sym_sqrt_pair(Gn)
        self._f = E @ (X.T @ y)
        # whitened rows Xw_i = X_i E and f_i = Xw_i' y_i, one (n_g, m, q)
        # block per subject size
        self._Xw, self._Fi = [], []
        for rows in size_groups(slices):
            Xw = (X[rows.ravel()] @ E).reshape(*rows.shape, q)
            self._Xw.append(Xw)
            self._Fi.append(np.einsum("gmq,gm->gq", Xw, y[rows]))
        self._Pw = [E @ np.asarray(P, dtype=float) @ E for P in penalties]

    def for_weights(self, weights):
        """Diagonalize one penalty mixture; returns a per-weight stage."""
        M = sum(w * P for w, P in zip(weights, self._Pw))
        s, U = np.linalg.eigh(M)
        f_t = U.T @ self._f
        A = [Fi @ U for Fi in self._Fi]
        g = f_t**2 - sum((a**2).sum(axis=0) for a in A)
        return _WeightStage(
            s=s,
            U=U,
            f_t=f_t,
            g=g,
            groups=list(zip(self._Xw, A)),
            norm_y2=self.norm_y2,
        )


@dataclass
class _WeightStage:
    """One diagonalized penalty mixture ``E P E = U diag(s) U'``.

    ``groups`` pairs each (n_g, m, q) block of whitened subject rows with
    the subjects' rotated ``a_i = U' f_i``.
    """

    s: np.ndarray
    U: np.ndarray
    f_t: np.ndarray
    g: np.ndarray
    groups: list
    norm_y2: float

    def score(self, rho):
        """Criterion value at one penalty level."""
        return float(self.score_all([rho])[0])

    def score_all(self, rhos):
        """Criterion values at every penalty level in ``rhos``.

        With ``d = 1 / (1 + rho s)``, ``v = f_t d`` and
        ``k_i = U' Xw_i' Xw_i U v``, the criterion is
        ``||y||^2 + |v|^2 - 2 d'g - 4 sum_i (d a_i)'k_i + 2 sum_i d'(k_i k_i)``.
        All rho share one matrix product per subject size; each row of
        the (|rho|, q) arrays below belongs to one rho.
        """
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        # A one-column product runs through BLAS gemv, which sums in another
        # order than gemm; a lone rho is priced twice, so every score is
        # bit-identical whichever other rho share the call.
        r = np.repeat(rhos, 2) if rhos.size == 1 else rhos
        # rho * s may overflow for degenerate whitenings; 1/inf = 0 is the
        # correct limit, so the overflow is deliberate.
        with np.errstate(over="ignore"):
            D = 1.0 / (1.0 + r[:, None] * self.s)
        V = D * self.f_t
        Uv = V @ self.U.T
        sq = np.zeros_like(D)
        cross = np.zeros_like(D)
        for Xw, a in self.groups:
            n_g, m, q = Xw.shape
            h = (Xw.reshape(-1, q) @ Uv.T).reshape(n_g, m, -1)
            k = np.matmul(h.transpose(0, 2, 1), Xw).reshape(-1, q) @ self.U
            k = k.reshape(n_g, -1, q)
            sq += (k * k).sum(axis=0)
            cross += (k * a[:, None, :]).sum(axis=0)
        total = (
            self.norm_y2
            + (V * V).sum(axis=1)
            - 2.0 * (D * self.g).sum(axis=1)
            + (D * (2.0 * sq - 4.0 * cross)).sum(axis=1)
        )
        return total[: rhos.size]


def select_grid(X, y, slices, penalties, rho_grid, weight_grid):
    """Minimize the fast criterion over a (weight, rho) grid.

    Parameters
    ----------
    penalties : list of ndarray
        Penalty matrices combined as ``rho * sum_j w_j P_j``.
    rho_grid : sequence of float
        Overall penalty levels.
    weight_grid : sequence of tuple
        Weight vectors, one tuple per grid row (a single ``(1.0,)``
        entry when there is just one penalty).

    Returns
    -------
    SelectionResult
        Ties are broken toward larger rho, then larger first weight.
    """
    sel = GridSelector(X, y, slices, penalties)
    surface = []
    best = None
    for weights in weight_grid:
        scores = sel.for_weights(weights).score_all(rho_grid)
        for rho, val in zip(rho_grid, scores):
            surface.append((float(rho), tuple(weights), float(val)))
            if not np.isfinite(val):
                warnings.warn(
                    f"skipping non-finite selection score at rho={rho!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            key = (val, -rho, tuple(-w for w in weights))
            if best is None or key <= best[0]:
                best = (key, float(rho), weights, float(val))
    if best is None:
        raise FloatingPointError("selection criterion was non-finite on the whole grid")
    _, rho, weights, score = best
    return SelectionResult(
        rho=rho, weight=weights[0], score=score, surface=surface, gram=sel.gram
    )
