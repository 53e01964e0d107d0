"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way: explicit recursions,
double loops, dense matrices materialized in full, literal refits. None
of it shares shortcuts with the package code, so agreement between the
two is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.interpolate import BSpline


def bspline_value(knots, order, gamma, t):
    """One B-spline basis value by the textbook recursion.

    ``knots`` is the full clamped knot vector, ``order`` is degree + 1,
    ``gamma`` indexes the basis function. The final nonempty knot span is
    treated as closed so the basis sums to one at the right boundary.
    """
    knots = np.asarray(knots, dtype=float)
    if order == 1:
        left, right = knots[gamma], knots[gamma + 1]
        if left <= t < right:
            return 1.0
        if t == knots[-1] and left < right and right == knots[-1]:
            return 1.0
        return 0.0
    total = 0.0
    den1 = knots[gamma + order - 1] - knots[gamma]
    if den1 > 0.0:
        total += (t - knots[gamma]) / den1 * bspline_value(knots, order - 1, gamma, t)
    den2 = knots[gamma + order] - knots[gamma + 1]
    if den2 > 0.0:
        total += (
            (knots[gamma + order] - t)
            / den2
            * bspline_value(knots, order - 1, gamma + 1, t)
        )
    return total


def basis_row(knots, order, c, t):
    """All c basis values at one time, via the recursion."""
    return np.array([bspline_value(knots, order, g, t) for g in range(c)])


def gram_gl64(domain, unit_knots, order, c):
    """Gram matrix by 64-node Gauss-Legendre quadrature per knot span.

    Far more nodes than needed for exactness; evaluates the basis with
    the recursion above, not with the package's evaluator.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    G = np.zeros((c, c))
    breaks = np.unique(np.asarray(unit_knots, dtype=float))
    for left, right in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        for x, w in zip(mid + half * nodes, weights):
            b = basis_row(unit_knots, order, c, x)
            G += (half * w) * np.outer(b, b)
    a, b_ = float(domain[0]), float(domain[1])
    return (b_ - a) * G


def design_matrix(unit_knots, order, u):
    """Basis values at unit times through scipy's sparse design matrix,
    densified, which the package's numpy evaluator must reproduce bit for
    bit. This module is the only importer of ``scipy.interpolate``."""
    return BSpline.design_matrix(np.asarray(u, dtype=float), unit_knots, order - 1).toarray()


def design_matrix_gram(domain, unit_knots, order, c):
    """The package's Gram quadrature (the fewest Gauss-Legendre nodes
    exact per knot span) with :func:`design_matrix` as the basis."""
    nodes, weights = np.polynomial.legendre.leggauss(math.ceil((2 * (order - 1) + 1) / 2) + 1)
    G = np.zeros((c, c))
    breaks = np.unique(np.asarray(unit_knots, dtype=float))
    for left, right in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        Bx = design_matrix(unit_knots, order, mid + half * nodes)
        G += half * (Bx * weights[:, None]).T @ Bx
    return (float(domain[1]) - float(domain[0])) * (0.5 * (G + G.T))


def aux_double_loop(times_k, resid_k, times_kp, resid_kp, basis, c, auto):
    """Auxiliary products and design rows by explicit double loops.

    Pairs are enumerated with the second response's index moving slowest.
    ``basis`` maps a time to its length-c basis vector. Returns
    (C, B, Z, slices); Z is None unless ``auto``.
    """
    rows_C, rows_B, rows_Z, slices = [], [], [], []
    pos = 0
    for i in range(len(times_k)):
        tk, rk = times_k[i], resid_k[i]
        tkp, rkp = (tk, rk) if auto else (times_kp[i], resid_kp[i])
        if len(tk) == 0 or len(tkp) == 0:
            continue
        for j2 in range(len(tkp)):
            b2 = basis(tkp[j2])
            for j1 in range(len(tk)):
                b1 = basis(tk[j1])
                rows_C.append(rk[j1] * rkp[j2])
                # flat index g2*c + g1 holds b2[g2]*b1[g1], matching the
                # column-major vec of the coefficient matrix
                rows_B.append(np.outer(b2, b1).ravel())
                if auto:
                    rows_Z.append(1.0 if j1 == j2 else 0.0)
        n_rows = len(tk) * len(tkp)
        slices.append((pos, pos + n_rows))
        pos += n_rows
    C = np.array(rows_C)
    B = np.vstack(rows_B)
    Z = np.array(rows_Z) if auto else None
    return C, B, Z, slices


def duplication_matrix(c):
    """Duplication matrix ``Gc`` of shape (c^2, c(c+1)/2), as dense 0/1.

    Columns are indexed by the column-stacked lower triangle (diagonal
    included) of a symmetric c x c matrix ``M``, so that ``Gc @ hvec(M)``
    equals the column-major ``vec(M)``.
    """
    Gc = np.zeros((c * c, c * (c + 1) // 2))
    h = 0
    for j in range(c):
        for i in range(j, c):
            Gc[j * c + i, h] = 1.0
            Gc[i * c + j, h] = 1.0
            h += 1
    return Gc


def row_statistics(X, y, slices):
    """Per-subject statistics of a dense stacked design, in the form
    ``funcov.crossval.GridSelector`` takes them.

    Returns ``(X'X, rhs, ||y||^2, apply)``: ``rhs`` stacks ``X_i'y_i`` over
    the nonempty subjects in input order, and ``apply`` maps a coefficient
    vector to the matching stack of ``X_i'(X_i beta)``, computed from the
    subjects' rows zero-padded to the largest subject.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    blocks = [(start, stop) for start, stop in slices if stop > start]
    m_max = max(stop - start for start, stop in blocks)
    Xs = np.zeros((len(blocks), m_max, X.shape[1]))
    ys = np.zeros((len(blocks), m_max))
    for i, (start, stop) in enumerate(blocks):
        Xs[i, : stop - start] = X[start:stop]
        ys[i, : stop - start] = y[start:stop]

    def apply(beta):
        return np.einsum("imq,im->iq", Xs, Xs @ beta)

    return X.T @ X, np.einsum("imq,im->iq", Xs, ys), float(y @ y), apply


def dense_ridge(B, y, penalty):
    """Generic dense ridge solve of the normal equations."""
    A = B.T @ B + penalty
    return np.linalg.solve(A, B.T @ y)


def exact_penalized_solve(B, y, D, tau):
    """Solution of ``(B'B + tau D'D) x = B'y`` in exact rational arithmetic.

    Every input float is taken as the rational it represents, and the
    system is formed and eliminated with :class:`fractions.Fraction`, so the
    only rounding is the final conversion of x to floats. A float solve of
    the same system loses about ``cond * eps`` (3e-5 relative at
    ``tau = 1e12``); this reference does not.
    """
    Bf = [[Fraction(v) for v in row] for row in np.asarray(B, dtype=float)]
    Df = [[Fraction(v) for v in row] for row in np.asarray(D, dtype=float)]
    yf = [Fraction(v) for v in np.asarray(y, dtype=float)]
    c, t = len(Bf[0]), Fraction(float(tau))
    # augmented rows [A | b]
    A = [
        [sum(r[i] * r[j] for r in Bf) + t * sum(r[i] * r[j] for r in Df) for j in range(c)]
        + [sum(r[i] * v for r, v in zip(Bf, yf))]
        for i in range(c)
    ]
    for k in range(c):
        pivot = max(range(k, c), key=lambda i: abs(A[i][k]))
        A[k], A[pivot] = A[pivot], A[k]
        for i in range(k + 1, c):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    x = [Fraction(0)] * c
    for i in reversed(range(c)):
        x[i] = (A[i][c] - sum(A[i][j] * x[j] for j in range(i + 1, c))) / A[i][i]
    return np.array([float(v) for v in x])


def literal_loso(X, y, slices, penalty):
    """Leave-one-subject-out error by n literal refits.

    For each subject the model is refit on the design with that
    subject's rows deleted, then its held-out rows are predicted.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for start, stop in slices:
        if stop <= start:
            continue
        keep = np.ones(X.shape[0], dtype=bool)
        keep[start:stop] = False
        X_rest, y_rest = X[keep], y[keep]
        coef = np.linalg.solve(X_rest.T @ X_rest + penalty, X_rest.T @ y_rest)
        err = X[start:stop] @ coef - y[start:stop]
        total += float(err @ err)
    return total


def shortcut_loso_explicit(X, y, slices, A):
    """The leave-one-subject-out shortcut with every matrix materialized.

    Builds the full N x N smoother, extracts explicit S_i and S_ii
    blocks, and applies sum_i ||(I - S_ii)^{-1} (S_i y - y_i)||^2.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Ainv = np.linalg.inv(A)
    S = X @ Ainv @ X.T
    Sy = S @ y
    total = 0.0
    for start, stop in slices:
        if stop <= start:
            continue
        Sii = S[start:stop, start:stop]
        resid = Sy[start:stop] - y[start:stop]
        e = np.linalg.solve(np.eye(stop - start) - Sii, resid)
        total += float(e @ e)
    return total


def direct_criterion(X, y, slices, penalty, gram_ridge=1e-10):
    """The approximate criterion from its direct matrix definition.

    Materializes the full smoother S = X (X'X + ridge + penalty)^{-1} X'
    and evaluates ||y - S y||^2 + 2 sum_i (S_i y - y_i)' S_ii (S_i y - y_i).
    The same relative ridge the fast path folds into X'X is applied here
    so both price exactly the same smoother.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    q = X.shape[1]
    Gn = X.T @ X
    tr = float(np.trace(Gn))
    if tr > 0.0:
        Gn = Gn + (gram_ridge * tr / q) * np.eye(q)
    A = Gn + penalty
    Ainv = np.linalg.inv(A)
    S = X @ Ainv @ X.T
    resid_full = y - S @ y
    total = float(resid_full @ resid_full)
    Sy = S @ y
    for start, stop in slices:
        if stop <= start:
            continue
        Sii = S[start:stop, start:stop]
        r = Sy[start:stop] - y[start:stop]
        total += 2.0 * float(r @ (Sii @ r))
    return total


def sym_inv_sqrt(M):
    """Inverse symmetric square root through scipy's matrix root."""
    root = scipy.linalg.sqrtm(np.asarray(M, dtype=float))
    return np.linalg.inv(np.real(root))


def gauss_condition(mu_new, mu_obs, C_nn, C_no, C_oo, y):
    """Joint-Gaussian conditioning with the full covariance materialized."""
    C_oo_inv = np.linalg.inv(C_oo)
    xhat = mu_new + C_no @ C_oo_inv @ (y - mu_obs)
    cov = C_nn - C_no @ C_oo_inv @ C_no.T
    return xhat, cov


# True simulation kernel, rewritten from its defining formulas so the
# generator's own closures are not trusted.
_LAM = np.array(
    [
        [3.0, 1.5, 0.75],
        [3.5, 1.75, 0.5],
        [2.5, 2.0, 1.0],
    ]
)


def _phi(k, j, t):
    t = np.asarray(t, dtype=float)
    s2 = np.sqrt(2.0)
    table = [
        [
            lambda u: np.sin(2 * np.pi * u),
            lambda u: np.cos(4 * np.pi * u),
            lambda u: np.sin(4 * np.pi * u),
        ],
        [
            lambda u: np.cos(np.pi * u),
            lambda u: np.cos(2 * np.pi * u),
            lambda u: np.cos(3 * np.pi * u),
        ],
        [
            lambda u: np.sin(np.pi * u),
            lambda u: np.sin(2 * np.pi * u),
            lambda u: np.sin(3 * np.pi * u),
        ],
    ]
    return s2 * table[k][j](t)


def true_kernel(rho, k, kp, s, t):
    """Covariance surface from the defining sums, term by term."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((s.size, t.size))
    for j in range(3):
        if k == kp:
            out += _LAM[k, j] * np.outer(_phi(k, j, s), _phi(k, j, t))
        else:
            w = rho * np.sqrt(_LAM[k, j] * _LAM[kp, j])
            out += w * np.outer(_phi(k, j, s), _phi(kp, j, t))
    return out


def fine_grid_truth(rho, grid_size=501):
    """Spectrum of the true operator by dense grid discretization.

    Returns ``(vals, psi, grid)``: every eigenvalue of the trapezoid-
    weighted kernel matrix, descending; the eigenfunctions of the
    numerically nonzero ones (above 1e-8 of the leading value) as grid
    values of shape (count, 3, grid_size), orthonormal under the same
    quadrature in the product L2 inner product and signed so each
    largest-magnitude value is positive; and the grid.
    """
    grid = np.linspace(0.0, 1.0, grid_size)
    w = np.full(grid_size, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    K = np.zeros((3 * grid_size, 3 * grid_size))
    for k in range(3):
        for kp in range(3):
            K[
                k * grid_size : (k + 1) * grid_size,
                kp * grid_size : (kp + 1) * grid_size,
            ] = true_kernel(rho, k, kp, grid, grid)
    root = np.sqrt(np.tile(w, 3))
    M = root[:, None] * K * root[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    nz = int(np.sum(vals > 1e-8 * vals[0]))
    flat = (vecs[:, :nz] / root[:, None]).T
    flat *= np.sign(flat[np.arange(nz), np.abs(flat).argmax(axis=1)])[:, None]
    return vals, flat.reshape(nz, 3, grid_size), grid


def generate_per_subject(design):
    """Simulated data drawn and evaluated one subject at a time.

    For each subject (training first, then test) the 9 scores, then per
    response the count, the times and the noise, with the truth evaluated
    on that one subject's times. ``funcov.generate`` draws in the same
    order but evaluates each response over the pooled times, and must
    match this bit for bit. The truth functions themselves are the
    package's (``true_kernel`` above checks them); what this pins is the
    pooled evaluation. Returns ``(train_scores, train_times,
    train_values, test_scores, test_times, test_values)``, the lists
    nested per subject and response.
    """
    from funcov._linalg import eigh_desc
    from funcov.simulate import (
        P,
        coupling_matrix,
        feature_triple,
        mean_function,
        noise_variance,
    )

    seed = design.seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    d, V = eigh_desc(coupling_matrix(design.rho))
    sd = np.sqrt(np.clip(d, 0.0, None))
    noise_sd = np.sqrt(noise_variance(d, design.snr))

    def draw_subjects(count):
        scores = np.empty((count, 9))
        times, values = [], []
        for i in range(count):
            xi = rng.standard_normal(9) * sd
            scores[i] = xi
            t_row, v_row = [], []
            for k in range(P):
                m = int(rng.integers(design.m_min, design.m_max + 1))
                t = rng.random(m)
                curve = mean_function(k, t) + feature_triple(k, t).T @ (
                    V[3 * k : 3 * k + 3] @ xi
                )
                t_row.append(t)
                v_row.append(curve + noise_sd * rng.standard_normal(m))
            times.append(t_row)
            values.append(v_row)
        return scores, times, values

    return (*draw_subjects(design.n), *draw_subjects(design.n_test))
