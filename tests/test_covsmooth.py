"""Covariance-block smoothing: pair assembly, selection, closed-form solves."""

import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import funcov
from funcov import FuncovError, SingularSystemError, build_workspace
from funcov import covsmooth
from funcov.covsmooth import AuxBlock, build_aux, fit_auto, fit_cross
from funcov.crossval import GridSelector
from funcov.splines import eval_basis_matrix

import oracles
from conftest import (
    basis_at,
    dense_aux,
    make_dataset,
    pair_mask,
    spline_mean,
    stack_products,
    zero_means,
)


def residual_dataset(seed, n=6, p=2, m_range=(2, 4)):
    """Dataset plus zero means, so values are their own residuals."""
    rng = np.random.default_rng(seed)
    data = make_dataset(rng, n=n, p=p, m_range=m_range)
    return data


def select_smoothing(block, ws, rho_grid=None, w_grid=None):
    """The block's grid selection, as its fit records it."""
    if block.k == block.kp:
        return fit_auto(block, ws, rho_grid).selection
    return fit_cross(block, ws, rho_grid, w_grid).selection


def design_rows(block):
    """The block's design rows kron(Pp[i, j2], P[i, j1]), materialized in
    the double-loop oracle's order."""
    rows = block.Pp[:, :, None, :, None] * block.P[:, None, :, None, :]
    return rows[pair_mask(block)].reshape(-1, block.P.shape[2] ** 2)


def test_row_count_two_by_three():
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 5,
        ["y1", "y1", "y2", "y2", "y2"],
        [0.2, 0.8, 0.1, 0.5, 0.9],
        [1.0, 2.0, 3.0, 4.0, 5.0],
    )
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    assert block.C.shape == (1, 2, 3)
    assert block.P.shape == (1, 2, ws.c) and block.Pp.shape == (1, 3, ws.c)
    assert block.m.tolist() == [2] and block.mp.tolist() == [3]


def test_products_match_double_loop_oracle():
    # random subjects plus one (x) missing response 2, with more points of
    # response 1 than any other subject (so the cross stacks are padded only
    # to the kept subjects' counts), and one (z) with a single observation
    # of each response
    ws = build_workspace((0.0, 1.0), 3, 4)
    base = residual_dataset(0, n=5, p=2, m_range=(2, 4))
    rows = list(base.iter_rows())
    rows += [("x", "y1", t, np.sin(7 * t)) for t in (0.1, 0.3, 0.5, 0.6, 0.9)]
    rows += [("z", "y1", 0.45, 0.7), ("z", "y2", 0.8, -0.4)]
    data = funcov.SparseFunctionalDataset.from_long(*zip(*rows))
    means = zero_means(ws, 2)

    times_k = [data.obs(i, 0)[0] for i in range(data.n_subjects)]
    resid_k = [data.obs(i, 0)[1] for i in range(data.n_subjects)]
    times_kp = [data.obs(i, 1)[0] for i in range(data.n_subjects)]
    resid_kp = [data.obs(i, 1)[1] for i in range(data.n_subjects)]
    basis = lambda t: basis_at(ws, t)
    m_k = np.array([t.size for t in times_k])
    m_kp = np.array([t.size for t in times_kp])

    block = build_aux(data, means, ws, 0, 1)
    C, B, Z, slices = oracles.aux_double_loop(
        times_k, resid_k, times_kp, resid_kp, basis, ws.c, auto=False
    )
    both = m_kp > 0  # subject x is dropped
    assert m_k[both].max() < m_k.max()
    assert block.C.shape == (data.n_subjects - 1, m_k[both].max(), m_kp[both].max())
    np.testing.assert_array_equal(block.m, m_k[both])
    np.testing.assert_array_equal(block.mp, m_kp[both])
    np.testing.assert_array_equal(block.m * block.mp, [b - a for a, b in slices])
    np.testing.assert_array_equal(block.C, stack_products(block, C))
    np.testing.assert_allclose(design_rows(block), B, rtol=0, atol=1e-15)

    auto = build_aux(data, means, ws, 0, 0)
    C_a, B_a, Z_a, slices_a = oracles.aux_double_loop(
        times_k, resid_k, None, None, basis, ws.c, auto=True
    )
    assert auto.C.shape == (data.n_subjects, m_k.max(), m_k.max())
    np.testing.assert_array_equal(auto.m, m_k)
    np.testing.assert_array_equal(auto.m * auto.mp, [b - a for a, b in slices_a])
    np.testing.assert_array_equal(auto.C, stack_products(auto, C_a))
    np.testing.assert_allclose(design_rows(auto), B_a, rtol=0, atol=1e-15)
    # the same-point pairs are the stack diagonal j1 = j2 < m_i
    same = np.eye(m_k.max(), dtype=bool) & pair_mask(auto)
    np.testing.assert_array_equal(same[pair_mask(auto)], Z_a > 0)
    # the padding is zero
    assert not block.P[np.arange(block.P.shape[1]) >= block.m[:, None]].any()
    assert not block.Pp[np.arange(block.Pp.shape[1]) >= block.mp[:, None]].any()
    assert not block.C[~pair_mask(block).transpose(0, 2, 1)].any()


def test_build_aux_evaluates_basis_once_per_response(monkeypatch):
    ws = build_workspace((0.0, 1.0), 3, 4)
    data = residual_dataset(1, n=30, p=2, m_range=(0, 4))
    calls = []

    def counted(ws_, times):
        calls.append(len(times))
        return eval_basis_matrix(ws_, times)

    monkeypatch.setattr(covsmooth, "eval_basis_matrix", counted)
    build_aux(data, zero_means(ws, 2), ws, 0, 1)
    assert len(calls) <= 2
    calls.clear()
    build_aux(data, zero_means(ws, 2), ws, 1, 1)
    assert len(calls) <= 1


def test_hand_enumerated_ordering():
    # one subject, m_k = 2 and m_kp = 3: rows are (j1 fast, j2 slow)
    ws = build_workspace((0.0, 1.0), 2, 4)
    rk = np.array([2.0, 3.0])
    rkp = np.array([5.0, 7.0, 11.0])
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 5,
        ["y1", "y1", "y2", "y2", "y2"],
        [0.2, 0.8, 0.1, 0.5, 0.9],
        list(rk) + list(rkp),
    )
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    np.testing.assert_array_equal(block.C, [[[10.0, 14.0, 22.0], [15.0, 21.0, 33.0]]])
    # row (j1, j2) evaluates the surface at (t_j1 of response 1, t_j2 of 2)
    theta = np.arange(ws.c**2, dtype=float).reshape(ws.c, ws.c)
    surf = lambda s, t: basis_at(ws, s) @ theta @ basis_at(ws, t)
    expect = [surf(s, t) for t in (0.1, 0.5, 0.9) for s in (0.2, 0.8)]
    np.testing.assert_allclose(
        design_rows(block) @ theta.ravel(order="F"), expect, rtol=0, atol=1e-12
    )


def test_zero_residuals_give_zero_fit():
    # values equal the fitted means exactly: products vanish identically.
    # The values come from the same call build_aux makes, the mean over the
    # response's pooled times, since BLAS may round a row differently at
    # another position or in a shorter product.
    rng = np.random.default_rng(4)
    ws = build_workspace((0.0, 1.0), 2, 4)
    alpha = [rng.standard_normal(ws.c), rng.standard_normal(ws.c)]
    means = [spline_mean(ws, a) for a in alpha]
    times = rng.random((2, 6 * 3))
    subjects, responses, values = [], [], []
    for k in range(2):
        subjects += [f"s{i}" for i in range(6) for _ in range(3)]
        responses += [f"y{k + 1}"] * times[k].size
        values += list(means[k](times[k]))
    data = funcov.SparseFunctionalDataset.from_long(
        subjects, responses, times.ravel(), values
    )
    for k in range(2):
        t, v, _ = data.pooled(k)
        np.testing.assert_array_equal(t, times[k])
        np.testing.assert_array_equal(v, means[k](t))

    cross = build_aux(data, means, ws, 0, 1)
    np.testing.assert_array_equal(cross.C, np.zeros_like(cross.C))
    fit = fit_cross(cross, ws)
    np.testing.assert_array_equal(fit.theta, np.zeros((ws.c, ws.c)))

    auto = build_aux(data, means, ws, 0, 0)
    fit_a = fit_auto(auto, ws)
    np.testing.assert_array_equal(fit_a.theta, np.zeros((ws.c, ws.c)))
    assert fit_a.sigma2 == 0.0 and fit_a.sigma2_raw == 0.0


def test_cross_unpenalized_square_interpolation():
    # one subject, m = c distinct times per response, zero penalty: the
    # square design is inverted and the fit interpolates every product
    ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4
    t1 = [0.05, 0.4, 0.6, 0.95]
    t2 = [0.1, 0.3, 0.7, 0.9]
    rng = np.random.default_rng(8)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 8,
        ["y1"] * 4 + ["y2"] * 4,
        t1 + t2,
        list(rng.standard_normal(8)),
    )
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    C, B, _, _ = dense_aux(data, zero_means(ws, 2), ws, 0, 1)
    assert B.shape == (16, 16)
    fit = fit_cross(block, ws, rho_grid=[0.0], w_grid=[0.5])
    theta_direct = np.linalg.solve(B, C).reshape(ws.c, ws.c, order="F")
    np.testing.assert_allclose(fit.theta, theta_direct, rtol=1e-8)
    np.testing.assert_allclose(B @ fit.theta.ravel(order="F"), C, rtol=0, atol=1e-8)


def one_subject_cross_block():
    """Four products of one subject against 25 coefficients (c = 5)."""
    ws = build_workspace((0.0, 1.0), 1, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 4, ["y1", "y1", "y2", "y2"], [0.2, 0.7, 0.3, 0.8], [1.0, 2.0, 3.0, 4.0]
    )
    return build_aux(data, zero_means(ws, 2), ws, 0, 1), ws


def test_cross_zero_penalty_singular_raises():
    block, ws = one_subject_cross_block()
    with pytest.raises(SingularSystemError):
        fit_cross(block, ws, rho_grid=[0.0], w_grid=[0.5])


def test_cross_singular_under_positive_penalty_raises():
    # the penalty's null space holds directions that four products cannot
    # determine, so the system stays singular at a positive penalty and
    # no other solve stands in
    block, ws = one_subject_cross_block()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match=re.escape("cross block (0, 1): ")):
            fit_cross(block, ws, rho_grid=[1.0], w_grid=[1.0])


@pytest.mark.parametrize("seed", [0, 3])
def test_one_point_per_curve_auto_block_raises(seed):
    # no subject observes the response twice: no pair of distinct
    # observations separates the surface's diagonal from the noise
    # variance. The fit raises, naming the block, and warns nothing,
    # whether the system fails Cholesky (seed 0) or passes it by
    # rounding (seed 3).
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = residual_dataset(seed, n=40, p=1, m_range=(1, 1))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    assert np.all(block.m == 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match=re.escape("auto block 0: ")):
            fit_auto(block, ws)


def test_cross_matches_dense_ridge():
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    data = residual_dataset(12, n=20, p=2, m_range=(3, 4))
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    C, B, _, _ = dense_aux(data, zero_means(ws, 2), ws, 0, 1)

    # pinned penalty level
    fit = fit_cross(block, ws, rho_grid=[3.7], w_grid=[0.3])
    lam1, lam2 = fit.lambdas
    assert (lam1, lam2) == (pytest.approx(3.7 * 0.3), pytest.approx(3.7 * 0.7))
    theta_vec = oracles.dense_ridge(B, C, lam1 * ws.P1 + lam2 * ws.P2)
    np.testing.assert_allclose(
        fit.theta, theta_vec.reshape(ws.c, ws.c, order="F"), rtol=1e-10, atol=1e-12
    )

    # whatever the default grids select must satisfy the same normal equations
    # (looser tolerance: noise-only data drives rho to the grid edge, where
    # the system's conditioning limits agreement between correct solvers)
    fit_d = fit_cross(block, ws)
    lam1, lam2 = fit_d.lambdas
    theta_vec = oracles.dense_ridge(B, C, lam1 * ws.P1 + lam2 * ws.P2)
    np.testing.assert_allclose(
        fit_d.theta, theta_vec.reshape(ws.c, ws.c, order="F"), rtol=1e-6, atol=1e-12
    )


def test_auto_matches_dense_solve():
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    data = residual_dataset(13, n=20, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)

    rho = 2.5
    fit = fit_auto(block, ws, rho_grid=[rho])
    q = ws.c * (ws.c + 1) // 2
    C, B, Z, _ = dense_aux(data, zero_means(ws, 1), ws, 0, 0)
    Gc = oracles.duplication_matrix(ws.c)
    X = np.hstack([B @ Gc, Z[:, None]])
    Q = np.zeros((q + 1, q + 1))
    Q[:-1, :-1] = Gc.T @ ws.P1 @ Gc
    beta = np.linalg.solve(X.T @ X + rho * Q, X.T @ C)
    np.testing.assert_allclose(
        fit.theta,
        (Gc @ beta[:-1]).reshape(ws.c, ws.c, order="F"),
        rtol=1e-10,
        atol=1e-12,
    )
    assert fit.sigma2_raw == pytest.approx(float(beta[-1]), rel=1e-10)
    # theta is symmetric by construction
    np.testing.assert_array_equal(fit.theta, fit.theta.T)


def test_block_solve_adds_penalties_left_to_right():
    # at a pinned (rho, w) each fit equals, bit for bit, a solve of the
    # system assembled as gram + l1 P1 (+ l2 P2) from the block statistics
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = residual_dataset(15, n=30, p=2, m_range=(2, 5))
    means = zero_means(ws, 2)
    rho, w = 3.7, 0.3

    block = build_aux(data, means, ws, 0, 1)
    gram, rhs, _ = covsmooth._block_statistics(block, ws)
    lam1, lam2 = rho * w, rho * (1.0 - w)
    theta = cho_solve(cho_factor(gram + lam1 * ws.P1 + lam2 * ws.P2), rhs.sum(axis=0))
    fit = fit_cross(block, ws, rho_grid=[rho], w_grid=[w])
    assert fit.lambdas == (lam1, lam2)
    np.testing.assert_array_equal(fit.theta, theta.reshape(ws.c, ws.c, order="F"))

    block = build_aux(data, means, ws, 0, 0)
    gram, rhs, _ = covsmooth._block_statistics(block, ws)
    beta = cho_solve(cho_factor(gram + rho * covsmooth._auto_penalty(ws)), rhs.sum(axis=0))
    fit = fit_auto(block, ws, rho_grid=[rho])
    assert fit.lambdas == (rho,)
    Gc = oracles.duplication_matrix(ws.c)
    np.testing.assert_array_equal(fit.theta, (Gc @ beta[:-1]).reshape(ws.c, ws.c, order="F"))
    assert fit.sigma2_raw == beta[-1]


@pytest.mark.parametrize("pair", [(0, 1), (0, 0)], ids=["cross", "auto"])
def test_non_finite_grid_names_the_block(pair):
    # finite data whose products overflow: no grid point scores finite, the
    # selection's one warning is the only one, and the error is a
    # FuncovError that names the block
    ws = build_workspace((0.0, 1.0), 1, 4)
    data = residual_dataset(16, n=10, p=2, m_range=(2, 4))
    big = [(s, r, t, 1e150 * v) for s, r, t, v in data.iter_rows()]
    data = funcov.SparseFunctionalDataset.from_long(*zip(*big))
    block = build_aux(data, zero_means(ws, 2), ws, *pair)
    name = "auto block 0" if pair == (0, 0) else "cross block (0, 1)"
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(FuncovError, match=re.escape(name) + ": selection criterion"):
            select_smoothing(block, ws, rho_grid=[0.1, 10.0])
    assert [w.category for w in record] == [RuntimeWarning]
    assert "non-finite selection score" in str(record[0].message)


@pytest.mark.parametrize("pair", [(0, 1), (0, 0)], ids=["cross", "auto"])
def test_block_statistics_match_the_dense_design(pair):
    # gram, right-hand sides and X_i'X_i action against the oracle's rows;
    # unequal subject sizes, so the zero padding is exercised
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = residual_dataset(14, n=25, p=2, m_range=(1, 5))
    block = build_aux(data, zero_means(ws, 2), ws, *pair)
    gram, rhs, apply = covsmooth._block_statistics(block, ws)
    C, B, Z, slices = dense_aux(data, zero_means(ws, 2), ws, *pair)
    Gc = oracles.duplication_matrix(ws.c)
    X = B if Z is None else np.hstack([B @ Gc, Z[:, None]])
    beta = np.random.default_rng(14).standard_normal(X.shape[1])
    expect_rhs, expect_apply = [], []
    for start, stop in slices:
        Xi = X[start:stop]
        expect_rhs.append(Xi.T @ C[start:stop])
        expect_apply.append(Xi.T @ (Xi @ beta))

    def assert_close(actual, expected):
        assert actual.shape == expected.shape
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

    assert_close(gram, X.T @ X)
    assert_close(rhs.sum(axis=0), X.T @ C)
    assert_close(rhs, np.array(expect_rhs))
    assert_close(apply(beta), np.array(expect_apply))


def test_duplication_matrix_round_trip():
    for c in (3, 5, 8):
        Gc = oracles.duplication_matrix(c)
        assert Gc.shape == (c * c, c * (c + 1) // 2)
        rng = np.random.default_rng(c)
        A = rng.standard_normal((c, c))
        M = A + A.T
        # column-stacked lower triangle
        half = np.concatenate([M[j:, j] for j in range(c)])
        np.testing.assert_array_equal(Gc @ half, M.ravel(order="F"))


# The half-vectorization maps stand in for products with the 0/1 duplication
# matrix; the auto block's fit is bit-identical to the products only if each
# map is, so these compare with assert_array_equal.
@pytest.mark.parametrize("c", [3, 4, 13])
def test_duplication_gather_equals_the_duplication_product(c):
    # non-symmetric stacks, so each of the two entries a column adds counts
    M = np.random.default_rng(c).standard_normal((7, c, c))
    dup, _ = covsmooth._half_vec_maps(c)
    np.testing.assert_array_equal(dup(M), covsmooth._vec(M) @ oracles.duplication_matrix(c))


@pytest.mark.parametrize("c", [3, 4, 13])
def test_symmetric_scatter_equals_the_duplication_product(c):
    eta = np.random.default_rng(c).standard_normal(c * (c + 1) // 2)
    _, sym = covsmooth._half_vec_maps(c)
    full = oracles.duplication_matrix(c) @ eta
    np.testing.assert_array_equal(sym(eta), full)
    # the auto block's theta, read row-major from the symmetric vec
    np.testing.assert_array_equal(sym(eta).reshape(c, c), full.reshape(c, c, order="F"))


@pytest.mark.parametrize("c", [3, 4, 13])
def test_two_sided_gather_equals_the_duplication_sandwich(c):
    # the auto block's Gram and penalty, Gc'K Gc; K is not symmetric, as
    # a summed Gram is symmetric only up to rounding
    K = np.random.default_rng(c).standard_normal((c * c, c * c))
    dup, _ = covsmooth._half_vec_maps(c)
    Gc = oracles.duplication_matrix(c)
    np.testing.assert_array_equal(dup(dup(K.T).T), Gc.T @ K @ Gc)


def test_auto_recovers_exact_surface():
    # plug exact surface values (zero noise) into an auto block: the fit
    # reproduces the symmetric coefficient matrix and a zero variance
    rng = np.random.default_rng(31)
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    A0 = rng.standard_normal((ws.c, ws.c))
    theta_true = A0 @ A0.T
    data = residual_dataset(31, n=20, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    _, B, _, _ = dense_aux(data, zero_means(ws, 1), ws, 0, 0)
    exact = B @ theta_true.ravel(order="F")
    block = replace(block, C=stack_products(block, exact))

    fit = fit_auto(block, ws, rho_grid=[1e-10])
    np.testing.assert_allclose(fit.theta, theta_true, rtol=0, atol=1e-6)
    assert abs(fit.sigma2_raw) < 1e-6


def test_auto_sigma2_from_same_point_indicator():
    # products equal to v exactly on same-point pairs and 0 elsewhere: under
    # heavy smoothing the surface flattens into the penalty null space and
    # the indicator column absorbs v as the variance estimate
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    v = 1.7
    data = residual_dataset(17, n=10, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    _, B, Z, _ = dense_aux(data, zero_means(ws, 1), ws, 0, 0)
    C = np.where(Z > 0, v, 0.0)
    block = replace(block, C=stack_products(block, C))
    fit = fit_auto(block, ws, rho_grid=[1e8])

    # independent check: least squares on [null-space surface columns, Z];
    # the null space of the symmetric penalty spans 1, g(s)+g(t), g(s)g(t)
    idx = np.arange(ws.c, dtype=float)
    ones_vec = np.ones(ws.c)
    col_const = B @ np.outer(ones_vec, ones_vec).ravel(order="F")
    col_sum = B @ (np.outer(idx, ones_vec) + np.outer(ones_vec, idx)).ravel(order="F")
    col_prod = B @ np.outer(idx, idx).ravel(order="F")
    design = np.column_stack([col_const, col_sum, col_prod, Z])
    coef, *_ = np.linalg.lstsq(design, C, rcond=None)
    assert fit.sigma2 == pytest.approx(float(coef[-1]), rel=1e-4)
    assert fit.sigma2 == pytest.approx(v, rel=1e-3)


def test_sigma2_negative_estimate_clipped_with_warning():
    ws = build_workspace((0.0, 1.0), 1, 4)
    v = 0.9
    data = residual_dataset(23, n=10, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    _, _, Z, _ = dense_aux(data, zero_means(ws, 1), ws, 0, 0)
    block = replace(block, C=stack_products(block, np.where(Z > 0, -v, 0.0)), y_var=2.0)
    with pytest.warns(RuntimeWarning, match="negative noise variance"):
        fit = fit_auto(block, ws, rho_grid=[1e8])
    assert fit.sigma2_raw < 0
    assert fit.sigma2 == pytest.approx(1e-8 * 2.0)


@pytest.mark.parametrize("pair", [(0, 1), (0, 0)], ids=["cross", "auto"])
def test_selection_surface_matches_direct_formula(pair):
    # block-level version of the fast-vs-direct identity, n=15, m=3, c=4;
    # an auto block is priced on its constrained design [B Gc, Z]
    # on the scored points; the points the residual-norm bound cut score
    # above the pick
    ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4
    data = residual_dataset(2, n=15, p=2, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 2), ws, *pair)
    rho_grid, w_grid = [1e-2, 1.0, 1e3], [0.3, 0.7]
    sel = select_smoothing(block, ws, rho_grid=rho_grid, w_grid=w_grid)
    C, B, Z, slices = dense_aux(data, zero_means(ws, 2), ws, *pair)
    if Z is None:
        X, penalties = B, [ws.P1, ws.P2]
    else:
        Gc = oracles.duplication_matrix(ws.c)
        X = np.hstack([B @ Gc, Z[:, None]])
        Q = np.zeros((X.shape[1], X.shape[1]))
        Q[:-1, :-1] = Gc.T @ ws.P1 @ Gc
        penalties = [Q]
    weight_grid = [(w, 1.0 - w) for w in w_grid] if Z is None else [(1.0,)]
    grid = {(rho, weights) for rho in rho_grid for weights in weight_grid}
    scored = {(rho, weights) for rho, weights, _ in sel.surface}
    assert len(scored) == len(sel.surface) and scored <= grid
    for rho, weights, val in sel.surface:
        penalty = rho * sum(w * P for w, P in zip(weights, penalties))
        direct = oracles.direct_criterion(X, C, slices, penalty)
        assert val == pytest.approx(direct, rel=1e-8)
    for rho, weights in grid - scored:
        penalty = rho * sum(w * P for w, P in zip(weights, penalties))
        assert oracles.direct_criterion(X, C, slices, penalty) > sel.score


# Excess of the exact LOSO error at the fast criterion's pick over the
# exact minimum on the same grid. On the design below (n = 50, c = 8,
# default grids, fitted means), seeds 1-10 gave at most 2.5 % on an auto
# block (this seed, y2, whose exact minimum sits 14 rho steps higher) and
# 1.1 % on a cross block. 53 of the 60 picks were
# within one rho step of the exact minimum, and no exact minimum sat at a
# smaller rho than the pick.
EXACT_LOSO_EXCESS_BOUND = 0.05


@pytest.fixture(scope="module")
def loso_design():
    train, _ = funcov.generate(funcov.SimDesign(n=50, rho=0.9, snr=2.0, seed=2, n_test=0))
    ws = build_workspace((0.0, 1.0), 4, 4)  # c = 8
    return train, [funcov.fit_mean(train, k, ws) for k in range(3)], ws


@pytest.mark.parametrize(
    "pair",
    [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)],
    ids=["y1", "y2", "y3", "y1-y2", "y1-y3", "y2-y3"],
)
def test_fast_pick_is_near_the_exact_loso_minimum(loso_design, pair):
    # the fast criterion expands (I - S_ii)^{-2} to first order; price its
    # whole grid by the exact shortcut, every matrix materialized
    data, means, ws = loso_design
    auto = pair[0] == pair[1]
    sel = select_smoothing(build_aux(data, means, ws, *pair), ws)
    C, B, Z, slices = dense_aux(data, means, ws, *pair)
    if auto:
        Gc = oracles.duplication_matrix(ws.c)
        X = np.hstack([B @ Gc, Z[:, None]])
        Q = np.zeros((X.shape[1], X.shape[1]))
        Q[:-1, :-1] = Gc.T @ ws.P1 @ Gc
        penalties = [Q]
    else:
        X, penalties = B, [ws.P1, ws.P2]
    # the full grid, not sel.surface, which holds only the scored points
    weight_grid = [(1.0,)] if auto else [(w, 1.0 - w) for w in covsmooth.W_GRID]
    exact = {
        (rho, weights): oracles.shortcut_loso_explicit(
            X, C, slices, X.T @ X + rho * sum(w * P for w, P in zip(weights, penalties))
        )
        for rho in map(float, covsmooth.default_rho_grid())
        for weights in weight_grid
    }
    (pick,) = [
        key for key in exact if key[0] == sel.rho and (auto or key[1][0] == sel.weight)
    ]
    best = min(exact, key=exact.get)
    assert exact[pick] <= (1.0 + EXACT_LOSO_EXCESS_BOUND) * exact[best]
    # where they differ, the first-order criterion smooths less
    assert pick[0] <= best[0]


def test_selection_auto_reports_half_weight():
    ws = build_workspace((0.0, 1.0), 1, 4)
    data = residual_dataset(6, n=8, p=1, m_range=(2, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    sel = select_smoothing(block, ws, rho_grid=[0.1, 10.0])
    assert sel.weight == 0.5
    assert all(w == (1.0,) for _, w, _ in sel.surface)


def test_symmetric_theta_equalizes_both_penalties():
    # theta = vec(Gc eta) is symmetric, so row and column roughness agree
    rng = np.random.default_rng(40)
    ws = build_workspace((0.0, 1.0), 2, 4)
    eta = rng.standard_normal(ws.c * (ws.c + 1) // 2)
    theta = oracles.duplication_matrix(ws.c) @ eta
    assert theta @ ws.P1 @ theta == pytest.approx(theta @ ws.P2 @ theta, rel=1e-10)


def test_build_aux_skips_and_errors():
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a", "a", "b"], ["y1", "y2", "y1"], [0.2, 0.5, 0.7], [1.0, 2.0, 3.0]
    )
    means = zero_means(ws, 2)
    block = build_aux(data, means, ws, 0, 1)
    assert block.C.shape == (1, 1, 1)  # subject b lacks response 2
    assert block.m.tolist() == block.mp.tolist() == [1]
    with pytest.raises(FuncovError, match="bad response pair"):
        build_aux(data, means, ws, 1, 0)

    solo = funcov.SparseFunctionalDataset.from_long(
        ["a", "b"], ["y1", "y2"], [0.2, 0.5], [1.0, 2.0]
    )
    with pytest.raises(FuncovError, match="no subject observes both"):
        build_aux(solo, means, ws, 0, 1)


def test_grid_validation():
    ws = build_workspace((0.0, 1.0), 1, 4)
    data = residual_dataset(3, n=5, p=2, m_range=(2, 3))
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    with pytest.raises(FuncovError):
        select_smoothing(block, ws, rho_grid=[])
    with pytest.raises(FuncovError):
        select_smoothing(block, ws, rho_grid=[-1.0])
    for bad in ([np.nan], [np.inf], [1.0, np.inf]):
        with pytest.raises(FuncovError, match="finite"):
            select_smoothing(block, ws, rho_grid=bad)
    with pytest.raises(FuncovError):
        select_smoothing(block, ws, rho_grid=[1.0], w_grid=[1.5])
    with pytest.raises(FuncovError):
        fit_cross(build_aux(data, zero_means(ws, 2), ws, 0, 0), ws)
    with pytest.raises(FuncovError):
        fit_auto(block, ws)


def test_selection_cost_scales_linearly_in_subjects():
    # the grid stage must price every subject once; doubling n should
    # roughly double the cost (factor between 1.5 and 3)
    def build(n, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9 * n, 100))
        y = rng.standard_normal(9 * n)
        slices = [(9 * i, 9 * (i + 1)) for i in range(n)]
        return X, y, slices

    P = [np.eye(100)]

    # Only the per-subject scoring is timed: the whitening and the penalty
    # eigendecomposition cost the same at any n and would dilute the ratio.
    # Small and big runs alternate, so a slow spell of the host hits both.
    # Each timed call prices 32 rho (tens of ms), so that waking a
    # multithreaded BLAS's idle threads is small against the work. The
    # clock is this process's CPU time, which another process holding a
    # core does not inflate the way it does wall time.
    def stage(X, y, slices):
        stats = oracles.row_statistics(X, y, slices)
        return GridSelector(*stats, P).for_weights((1.0,))

    rhos = np.logspace(-1.0, 2.0, 32)

    def run_once(st):
        t0 = time.process_time()
        st.score_all(rhos)
        return time.process_time() - t0

    n = 400
    small = stage(*build(n, 0))
    big = stage(*build(2 * n, 1))
    run_once(small)  # warm-up
    pairs = [(run_once(small), run_once(big)) for _ in range(7)]
    t_small, t_big = np.median(pairs, axis=0)
    assert 1.5 <= t_big / t_small <= 3.0
