"""Leave-one-subject-out selection for penalized linear smoothers.

Two tools live here. ``loso_shortcut_error`` is the exact
leave-one-subject-out squared prediction error of a ridge-type smoother,
computed from the full fit through the block identity
``y_i - yhat_i^{[i]} = (I - S_ii)^{-1} (y_i - S_i y)`` instead of n
refits; it is the test reference for the mean smoother's selection
(:func:`funcov.mean.loso_curve`). The ``GridSelector`` evaluates an
approximate version of that criterion over a grid of penalty weights from
per-subject sufficient statistics alone: ``X'X``, the ``X_i'y_i``,
``||y||^2`` and a callable applying every ``X_i'X_i`` to one coefficient
vector, which the covariance smoother builds from c x c Gram matrices
(:mod:`funcov.covsmooth`). It whitens ``X'X`` once and eigendecomposes
each penalty mixture once; in that basis a penalty level ``rho`` enters
only through the diagonal ``d = 1 / (1 + rho s)``, so each rho costs one
application of the callable (for a covariance block, two small c x c
products per subject) and one (n, q) by (q, q) product. A score
is the residual norm ``||y - S y||^2`` plus a nonnegative term, and the
residual norm costs O(q); ``select_grid`` scores the grid in ascending
residual norm and stops where that bound exceeds the best score so far.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def size_groups(counts):
    """Row indices of the nonempty subjects, grouped by row count.

    ``counts`` holds each subject's row count, the rows stacked in subject
    order. Returns one integer array of shape (n_g, m) per distinct nonzero
    count m, in increasing m; subjects keep their input order within a
    group. Indexing a stacked array with it gives an (n_g, m, ...) block
    whose per-subject products batch as one matmul.
    """
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    return [np.add.outer(starts[counts == m], np.arange(m)) for m in np.unique(counts[counts > 0])]


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

    ``surface`` lists (rho, weight, score) in evaluation order, for the
    scored grid points only; non-finite scores mark skipped grid points.
    """

    rho: float
    weight: float
    score: float
    surface: list


class GridSelector:
    """Fast approximate LOSO criterion on a (weight, rho) grid.

    The criterion for penalty ``rho * sum_j w_j P_j`` is
    ``||y - S y||^2 + 2 sum_i (S_i y - y_i)' S_ii (S_i y - y_i)``,
    the exact shortcut with ``(I - S_ii)^{-2}`` expanded to first order.
    It takes ``gram = X'X`` (q, q), the (n, q) stack ``rhs`` of ``X_i'y_i``,
    ``norm_y2 = ||y||^2``, a callable ``apply`` mapping a coefficient
    vector to the (n, q) stack of ``X_i'X_i beta`` (subjects in the order
    of ``rhs``) and the penalty matrices. Construction whitens ``X'X``;
    each call to :meth:`for_weights` eigendecomposes one penalty mixture,
    and the returned stage prices one rho per call. Of the inputs it keeps
    ``apply``, ``norm_y2`` and a copy of ``rhs``, which every stage reads.
    """

    def __init__(self, gram, rhs, norm_y2, apply, penalties):
        Gn = np.asarray(gram, dtype=float)
        q = Gn.shape[0]
        tr = float(np.trace(Gn))
        if tr > 0.0:
            Gn = Gn + (GRAM_RIDGE * tr / q) * np.eye(q)
        _, self._E = sym_sqrt_pair(Gn)
        self.rhs = np.array(rhs, dtype=float)
        # whitened right-hand side E X'y
        self._f = self._E @ self.rhs.sum(axis=0)
        self._Pw = [self._E @ np.asarray(P, dtype=float) @ self._E for P in penalties]
        self.norm_y2 = float(norm_y2)
        self.apply = apply

    @np.errstate(over="ignore", invalid="ignore")
    def for_weights(self, weights):
        """Diagonalize one penalty mixture; returns a per-weight stage."""
        s, U = np.linalg.eigh(sum(w * P for w, P in zip(weights, self._Pw)))
        return _WeightStage(self, s, self._E @ U, U.T @ self._f)


@dataclass
class _WeightStage:
    """One diagonalized penalty mixture ``E P E = U diag(s) U'``.

    ``W = E U`` maps rotated coefficients back to the original ones and
    ``f_t = W' X'y``; the data statistics are the ``selector``'s. Its
    arithmetic ignores overflow and invalid values: a non-finite score is
    reported once, by :func:`select_grid`.
    """

    selector: GridSelector
    s: np.ndarray
    W: np.ndarray
    f_t: np.ndarray

    def _rss(self, rho):
        """``d``, ``v`` and the residual norm ``||y - S y||^2`` at one rho."""
        # rho * s may overflow for degenerate whitenings; 1/inf = 0 is the
        # correct limit, so the overflow is deliberate.
        d = 1.0 / (1.0 + rho * self.s)
        v = d * self.f_t
        return d, v, self.selector.norm_y2 + v @ (v - 2.0 * self.f_t)

    @np.errstate(over="ignore", invalid="ignore")
    def lower_bound(self, rho):
        """``(rss, certified)`` at one rho: the residual norm and whether it
        bounds the score from below.

        The score is ``rss`` plus a term that is nonnegative whenever
        ``d >= 0``, so a finite ``rss`` with ``d >= 0`` is certified; the
        comparison holds bit for bit, since :meth:`score` adds the term to
        this same ``rss``.
        """
        d, _, rss = self._rss(rho)
        return rss, bool(np.isfinite(rss) and (d >= 0.0).all())

    @np.errstate(over="ignore", invalid="ignore")
    def score(self, rho):
        """Criterion value at penalty level ``rho``.

        With ``d = 1 / (1 + rho s)``, ``v = d f_t`` and ``beta = W v``, the
        criterion is ``rss + 2 <E'E, W D W'>``, where
        ``rss = ||y||^2 + v'(v - 2 f_t) = ||y - S y||^2`` and the (n, q)
        stack ``E = apply(beta) - rhs`` holds the ``X_i'(X_i beta - y_i)``.
        It costs one application of ``apply`` and one (n, q) by (q, q)
        product ``E W``, whose column sums of squares give the diagonal of
        ``W'E'E W``. They are nonnegative as computed, so with ``d >= 0``
        the score is never below ``rss``.
        """
        d, v, rss = self._rss(rho)
        EW = (self.selector.apply(self.W @ v) - self.selector.rhs) @ self.W
        return float(rss + 2.0 * (d @ np.einsum("ia,ia->a", EW, EW)))


def select_grid(gram, rhs, norm_y2, apply, penalties, rho_grid, weight_grid):
    """Minimize the fast criterion over a (weight, rho) grid.

    Parameters
    ----------
    gram, rhs, norm_y2, apply, penalties
        The block's statistics, as :class:`GridSelector` takes them.
    rho_grid : sequence of float
        Overall penalty levels.
    weight_grid : sequence of tuple
        Weight vectors, one tuple per grid row (a single ``(1.0,)``
        entry when there is just one penalty).

    Returns
    -------
    SelectionResult
        Ties are broken toward larger rho, then larger first weight.

    Each grid point's score is its residual norm ``rss`` plus a
    nonnegative term (:meth:`_WeightStage.score`), so ``rss`` is a
    lower bound at O(q) cost. Every stage is built first and ``rss``
    taken at every point; the points are then scored in ascending
    ``rss``. From the first point whose certified bound exceeds the best
    score so far, no certified point is scored, since every later bound
    is at least as large. A point whose ``rss`` is not finite, or with
    some ``d < 0``, is not certified and is always scored. The pick is
    that of scoring every point, and ``surface`` holds the scored points
    only.

    Scored points whose score is not finite are skipped, with one
    ``RuntimeWarning`` per call that gives their count and rho values.
    The count is of scored points only: a point cut by its bound is not
    scored, whatever its score would have been. If no point is finite,
    that warning is followed by ``FloatingPointError``.
    """
    sel = GridSelector(gram, rhs, norm_y2, apply, penalties)
    rhos = [float(rho) for rho in rho_grid]
    points = []
    for weights in weight_grid:
        stage = sel.for_weights(weights)
        for j, rho in enumerate(rhos):
            points.append((*stage.lower_bound(rho), j, tuple(weights), stage))
    surface, skipped = [], []
    best, best_score = None, np.inf
    for i in np.argsort([p[0] for p in points], kind="stable"):
        rss, certified, j, weights, stage = points[i]
        if certified and rss > best_score:
            continue
        rho = rhos[j]
        val = stage.score(rho)
        surface.append((rho, weights, val))
        if not np.isfinite(val):
            skipped.append(j)
            continue
        key = (val, -rho, tuple(-w for w in weights))
        if best is None or key <= best[0]:
            best, best_score = (key, rho, weights), val
    if skipped:
        skipped_rhos = [rhos[j] for j in sorted(set(skipped))]
        warnings.warn(
            f"skipping {len(skipped)} grid point(s) with a non-finite selection score, "
            f"at rho={skipped_rhos}",
            RuntimeWarning,
            stacklevel=2,
        )
    if best is None:
        raise FloatingPointError("selection criterion was non-finite on the whole grid")
    _, rho, weights = best
    return SelectionResult(rho=rho, weight=weights[0], score=best_score, surface=surface)
