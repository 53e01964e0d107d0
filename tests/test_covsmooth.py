"""Covariance-block smoothing: pair assembly, selection, closed-form solves."""

import time
from dataclasses import replace

import numpy as np
import pytest

import funcov
from funcov import FuncovError, SingularSystemError, build_workspace
from funcov import covsmooth
from funcov.covsmooth import AuxBlock, build_aux, fit_auto, fit_cross, select_smoothing
from funcov.crossval import GridSelector
from funcov.splines import eval_basis, eval_basis_matrix

import oracles
from conftest import make_dataset, spline_mean, zero_means


def residual_dataset(seed, n=6, p=2, m_range=(2, 4)):
    """Dataset plus zero means, so values are their own residuals."""
    rng = np.random.default_rng(seed)
    data = make_dataset(rng, n=n, p=p, m_range=m_range)
    return data


def test_row_count_two_by_three():
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 5,
        ["y1", "y1", "y2", "y2", "y2"],
        [0.2, 0.8, 0.1, 0.5, 0.9],
        [1.0, 2.0, 3.0, 4.0, 5.0],
    )
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    assert block.C.shape == (6,)
    assert block.B.shape == (6, ws.c**2)
    assert block.slices == [(0, 6)]
    assert block.Z is None


def test_products_match_double_loop_oracle():
    ws = build_workspace((0.0, 1.0), 3, 4)
    data = residual_dataset(0, n=5, p=2, m_range=(1, 4))
    means = zero_means(ws, 2)

    times_k = [data.obs(i, 0)[0] for i in range(data.n_subjects)]
    resid_k = [data.obs(i, 0)[1] for i in range(data.n_subjects)]
    times_kp = [data.obs(i, 1)[0] for i in range(data.n_subjects)]
    resid_kp = [data.obs(i, 1)[1] for i in range(data.n_subjects)]
    basis = lambda t: eval_basis(ws, t)

    block = build_aux(data, means, ws, 0, 1)
    C, B, Z, slices = oracles.aux_double_loop(
        times_k, resid_k, times_kp, resid_kp, basis, ws.c, auto=False
    )
    np.testing.assert_array_equal(block.C, C)
    np.testing.assert_allclose(block.B, B, rtol=0, atol=1e-15)
    assert block.slices == slices

    auto = build_aux(data, means, ws, 0, 0)
    C_a, B_a, Z_a, slices_a = oracles.aux_double_loop(
        times_k, resid_k, None, None, basis, ws.c, auto=True
    )
    np.testing.assert_array_equal(auto.C, C_a)
    np.testing.assert_allclose(auto.B, B_a, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(auto.Z, Z_a)
    assert auto.slices == slices_a


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
    np.testing.assert_array_equal(
        block.C, [10.0, 15.0, 14.0, 21.0, 22.0, 33.0]
    )
    # row (j1, j2) evaluates the surface at (t_j1 of response 1, t_j2 of 2)
    theta = np.arange(ws.c**2, dtype=float).reshape(ws.c, ws.c)
    surf = lambda s, t: eval_basis(ws, s) @ theta @ eval_basis(ws, t)
    expect = [surf(s, t) for t in (0.1, 0.5, 0.9) for s in (0.2, 0.8)]
    np.testing.assert_allclose(
        block.B @ theta.ravel(order="F"), expect, rtol=0, atol=1e-12
    )


def test_zero_residuals_give_zero_fit():
    # values equal the fitted means exactly: products vanish identically
    rng = np.random.default_rng(4)
    ws = build_workspace((0.0, 1.0), 2, 4)
    alpha = [rng.standard_normal(ws.c), rng.standard_normal(ws.c)]
    means = [spline_mean(ws, a) for a in alpha]
    subjects, responses, times, values = [], [], [], []
    for i in range(6):
        for k in range(2):
            t = rng.random(3)
            v = eval_basis_matrix(ws, t) @ alpha[k]
            subjects += [f"s{i}"] * 3
            responses += [f"y{k + 1}"] * 3
            times += list(t)
            values += list(v)
    data = funcov.SparseFunctionalDataset.from_long(subjects, responses, times, values)

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
    assert block.B.shape == (16, 16)
    fit = fit_cross(block, ws, rho_grid=[0.0], w_grid=[0.5])
    theta_direct = np.linalg.solve(block.B, block.C).reshape(ws.c, ws.c, order="F")
    np.testing.assert_allclose(fit.theta, theta_direct, rtol=1e-8)
    np.testing.assert_allclose(
        block.B @ fit.theta.ravel(order="F"), block.C, rtol=0, atol=1e-8
    )


def test_cross_zero_penalty_singular_raises():
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5, 25 coefficients
    data = funcov.SparseFunctionalDataset.from_long(
        ["a"] * 4, ["y1", "y1", "y2", "y2"], [0.2, 0.7, 0.3, 0.8], [1.0, 2.0, 3.0, 4.0]
    )
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    with pytest.raises(SingularSystemError):
        fit_cross(block, ws, rho_grid=[0.0], w_grid=[0.5])


def test_cross_matches_dense_ridge():
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    data = residual_dataset(12, n=20, p=2, m_range=(3, 4))
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)

    # pinned penalty level
    fit = fit_cross(block, ws, rho_grid=[3.7], w_grid=[0.3])
    lam1, lam2 = fit.lambdas
    assert (lam1, lam2) == (pytest.approx(3.7 * 0.3), pytest.approx(3.7 * 0.7))
    theta_vec = oracles.dense_ridge(block.B, block.C, lam1 * ws.P1 + lam2 * ws.P2)
    np.testing.assert_allclose(
        fit.theta, theta_vec.reshape(ws.c, ws.c, order="F"), rtol=1e-10, atol=1e-12
    )

    # whatever the default grids select must satisfy the same normal equations
    # (looser tolerance: noise-only data drives rho to the grid edge, where
    # the system's conditioning limits agreement between correct solvers)
    fit_d = fit_cross(block, ws)
    lam1, lam2 = fit_d.lambdas
    theta_vec = oracles.dense_ridge(block.B, block.C, lam1 * ws.P1 + lam2 * ws.P2)
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
    X = np.hstack([block.B @ ws.Gc, block.Z[:, None]])
    Q = np.zeros((q + 1, q + 1))
    Q[:-1, :-1] = ws.Gc.T @ ws.P1 @ ws.Gc
    beta = np.linalg.solve(X.T @ X + rho * Q, X.T @ block.C)
    np.testing.assert_allclose(
        fit.theta,
        (ws.Gc @ beta[:-1]).reshape(ws.c, ws.c, order="F"),
        rtol=1e-10,
        atol=1e-12,
    )
    assert fit.sigma2_raw == pytest.approx(float(beta[-1]), rel=1e-10)
    # theta is symmetric by construction
    np.testing.assert_array_equal(fit.theta, fit.theta.T)


def test_auto_design_and_gram_match_the_duplication_product():
    # enough rows for several row blocks of the gather, one of them partial
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = residual_dataset(14, n=60, p=1, m_range=(3, 5))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    assert block.B.shape[0] > 2 * covsmooth.DESIGN_ROW_BLOCK
    X, _ = covsmooth._auto_design(block, ws)
    dense = np.hstack([block.B @ ws.Gc, block.Z[:, None]])
    np.testing.assert_array_equal(X, dense)
    np.testing.assert_array_equal(select_smoothing(block, ws).gram, dense.T @ dense)
    cross = build_aux(residual_dataset(15, n=8, p=2), zero_means(ws, 2), ws, 0, 1)
    np.testing.assert_array_equal(select_smoothing(cross, ws).gram, cross.B.T @ cross.B)


def test_auto_recovers_exact_surface():
    # plug exact surface values (zero noise) into an auto block: the fit
    # reproduces the symmetric coefficient matrix and a zero variance
    rng = np.random.default_rng(31)
    ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
    A0 = rng.standard_normal((ws.c, ws.c))
    theta_true = A0 @ A0.T
    data = residual_dataset(31, n=20, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    exact = block.B @ theta_true.ravel(order="F")
    block = replace(block, C=exact)

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
    C = np.where(block.Z > 0, v, 0.0)
    block = replace(block, C=C)
    fit = fit_auto(block, ws, rho_grid=[1e8])

    # independent check: least squares on [null-space surface columns, Z];
    # the null space of the symmetric penalty spans 1, g(s)+g(t), g(s)g(t)
    B = block.B
    idx = np.arange(ws.c, dtype=float)
    ones_vec = np.ones(ws.c)
    col_const = B @ np.outer(ones_vec, ones_vec).ravel(order="F")
    col_sum = B @ (np.outer(idx, ones_vec) + np.outer(ones_vec, idx)).ravel(order="F")
    col_prod = B @ np.outer(idx, idx).ravel(order="F")
    design = np.column_stack([col_const, col_sum, col_prod, block.Z])
    coef, *_ = np.linalg.lstsq(design, C, rcond=None)
    assert fit.sigma2 == pytest.approx(float(coef[-1]), rel=1e-4)
    assert fit.sigma2 == pytest.approx(v, rel=1e-3)


def test_sigma2_negative_estimate_clipped_with_warning():
    ws = build_workspace((0.0, 1.0), 1, 4)
    v = 0.9
    data = residual_dataset(23, n=10, p=1, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 1), ws, 0, 0)
    block = replace(block, C=np.where(block.Z > 0, -v, 0.0), y_var=2.0)
    with pytest.warns(RuntimeWarning, match="negative noise variance"):
        fit = fit_auto(block, ws, rho_grid=[1e8])
    assert fit.sigma2_raw < 0
    assert fit.sigma2 == pytest.approx(1e-8 * 2.0)


def test_selection_surface_matches_direct_formula():
    # block-level version of the fast-vs-direct identity, n=15, m=3, c=4
    ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4
    data = residual_dataset(2, n=15, p=2, m_range=(3, 3))
    block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
    sel = select_smoothing(block, ws, rho_grid=[1e-2, 1.0, 1e3], w_grid=[0.3, 0.7])
    for rho, weights, val in sel.surface:
        penalty = rho * (weights[0] * ws.P1 + weights[1] * ws.P2)
        direct = oracles.direct_criterion(block.B, block.C, block.slices, penalty)
        assert val == pytest.approx(direct, rel=1e-8)


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
    theta = ws.Gc @ eta
    assert theta @ ws.P1 @ theta == pytest.approx(theta @ ws.P2 @ theta, rel=1e-10)


def test_build_aux_skips_and_errors():
    ws = build_workspace((0.0, 1.0), 2, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a", "a", "b"], ["y1", "y2", "y1"], [0.2, 0.5, 0.7], [1.0, 2.0, 3.0]
    )
    means = zero_means(ws, 2)
    block = build_aux(data, means, ws, 0, 1)
    assert len(block.slices) == 1  # subject b lacks response 2
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
    def stage(X, y, slices):
        return GridSelector(X, y, slices, P).for_weights((1.0,))

    def run_once(st):
        t0 = time.perf_counter()
        st.score_all([0.1, 1.0, 10.0, 100.0])
        return time.perf_counter() - t0

    n = 400
    small = stage(*build(n, 0))
    big = stage(*build(2 * n, 1))
    run_once(small)  # warm-up
    pairs = [(run_once(small), run_once(big)) for _ in range(7)]
    t_small, t_big = np.median(pairs, axis=0)
    assert 1.5 <= t_big / t_small <= 3.0
