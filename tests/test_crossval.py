"""Selection engine: exact LOSO shortcut and fast grid criterion."""

import warnings

import numpy as np
import pytest

from funcov import build_workspace
from funcov.crossval import (
    LOSO_SINGULAR_TOL,
    GridSelector,
    loso_shortcut_error,
    loso_singular,
    select_grid,
)

import oracles


def random_instance(seed, n=12, m_max=3, q=16, scale=1.0):
    """Random stacked design with one contiguous row block per subject."""
    rng = np.random.default_rng(seed)
    X_rows, y_rows, slices = [], [], []
    pos = 0
    for _ in range(n):
        m = int(rng.integers(1, m_max + 1))
        rows = m * m
        X_rows.append(scale * rng.standard_normal((rows, q)))
        y_rows.append(rng.standard_normal(rows))
        slices.append((pos, pos + rows))
        pos += rows
    return np.vstack(X_rows), np.concatenate(y_rows), slices


def test_shortcut_equals_literal_refits():
    # five random instances, relative error 1e-8
    for seed in range(5):
        X, y, slices = random_instance(seed, n=10, m_max=2, q=6)
        rng = np.random.default_rng(100 + seed)
        A0 = rng.standard_normal((6, 6))
        penalty = 0.5 * (A0 @ A0.T) + 0.1 * np.eye(6)
        fast = loso_shortcut_error(X, y, slices, X.T @ X + penalty)
        literal = oracles.literal_loso(X, y, slices, penalty)
        assert fast == pytest.approx(literal, rel=1e-8)
        explicit = oracles.shortcut_loso_explicit(X, y, slices, X.T @ X + penalty)
        assert fast == pytest.approx(explicit, rel=1e-10)


def test_fast_criterion_matches_direct_formula():
    ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4, q = 16
    penalties = [ws.P1, ws.P2]
    rho_grid = [1e-3, 0.5, 20.0, 1e4]
    weight_grid = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
    for seed in (0, 1):
        X, y, slices = random_instance(seed, n=15, m_max=3, q=16)
        res = select_grid(X, y, slices, penalties, rho_grid, weight_grid)
        for rho, weights, val in res.surface:
            penalty = rho * (weights[0] * ws.P1 + weights[1] * ws.P2)
            direct = oracles.direct_criterion(X, y, slices, penalty)
            assert val == pytest.approx(direct, rel=1e-8)


def test_stage_scores_without_raw_data():
    # after construction the selector must not touch X or y again
    X, y, slices = random_instance(7, q=8)
    P = np.eye(8)
    sel = GridSelector(X, y, slices, [P])
    stage = sel.for_weights((1.0,))
    before = [stage.score(r) for r in (0.1, 1.0, 50.0)]
    X[:] = np.nan
    y[:] = np.nan
    stage2 = sel.for_weights((1.0,))
    after = [stage2.score(r) for r in (0.1, 1.0, 50.0)]
    assert before == after
    assert stage.score(1.0) == before[1]


def test_subject_permutation_invariance():
    rng = np.random.default_rng(3)
    X, y, slices = random_instance(3, n=10, m_max=3, q=9)
    P = [np.eye(9)]
    rho_grid = [0.01, 1.0, 100.0]
    res_a = select_grid(X, y, slices, P, rho_grid, [(1.0,)])

    perm = rng.permutation(len(slices))
    X_rows = [X[s:e] for s, e in slices]
    y_rows = [y[s:e] for s, e in slices]
    Xp = np.vstack([X_rows[j] for j in perm])
    yp = np.concatenate([y_rows[j] for j in perm])
    slices_p, pos = [], 0
    for j in perm:
        n_rows = slices[j][1] - slices[j][0]
        slices_p.append((pos, pos + n_rows))
        pos += n_rows
    res_b = select_grid(Xp, yp, slices_p, P, rho_grid, [(1.0,)])

    assert res_a.rho == res_b.rho
    for (r1, w1, v1), (r2, w2, v2) in zip(res_a.surface, res_b.surface):
        assert (r1, w1) == (r2, w2)
        assert v1 == pytest.approx(v2, rel=1e-8)


def test_all_zero_design_collapses_to_norm_y2():
    # S = 0 everywhere: every correction term vanishes, score is ||y||^2
    rng = np.random.default_rng(11)
    y = rng.standard_normal(12)
    X = np.zeros((12, 5))
    slices = [(0, 4), (4, 8), (8, 12)]
    sel = GridSelector(X, y, slices, [np.eye(5)])
    stage = sel.for_weights((1.0,))
    for rho in (0.0, 1.0, 1e6):
        assert stage.score(rho) == pytest.approx(float(y @ y), rel=1e-12)


def test_zeroed_subject_contributes_no_correction():
    # S_ii = 0 for a zeroed subject: its term II-IV contribution vanishes and
    # the criterion equals the no-correction form plus the other subjects'.
    X, y, slices = random_instance(5, n=6, m_max=2, q=6)
    X[slices[2][0] : slices[2][1]] = 0.0
    penalty = 0.7 * np.eye(6)
    res = select_grid(X, y, slices, [np.eye(6)], [0.7], [(1.0,)])

    q = X.shape[1]
    Gn = X.T @ X
    Gn = Gn + (1e-10 * np.trace(Gn) / q) * np.eye(q)
    S = X @ np.linalg.inv(Gn + penalty) @ X.T
    Sy = S @ y
    base = float((y - Sy) @ (y - Sy))
    corrections = []
    for start, stop in slices:
        r = Sy[start:stop] - y[start:stop]
        Sii = S[start:stop, start:stop]
        corrections.append(2.0 * float(r @ (Sii @ r)))
    assert corrections[2] == 0.0
    assert res.score == pytest.approx(base + sum(corrections), rel=1e-8)


def test_non_finite_scores_warn_and_skip():
    X, y, slices = random_instance(9, q=5)
    P = [np.eye(5)]
    with pytest.warns(RuntimeWarning, match="non-finite"):
        res = select_grid(X, y, slices, P, [np.nan, 2.0], [(1.0,)])
    assert res.rho == 2.0
    with pytest.warns(RuntimeWarning):
        with pytest.raises(FloatingPointError):
            select_grid(X, y, slices, P, [np.nan], [(1.0,)])


def test_ties_break_toward_larger_rho_then_weight():
    # y = 0 makes every grid score exactly 0.0: pure tie-break exercise
    X, _, slices = random_instance(2, q=6)
    y = np.zeros(X.shape[0])
    ws = build_workspace((0.0, 1.0), 3, 3)  # unused sizes, just two penalties
    P = [np.eye(6), 2.0 * np.eye(6)]
    res = select_grid(
        X, y, slices, P, [0.1, 1.0, 10.0], [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
    )
    assert res.score == 0.0
    assert res.rho == 10.0
    assert res.weight == 0.9


def test_empty_slices_are_ignored():
    X, y, slices = random_instance(4, n=5, m_max=2, q=6)
    padded = []
    for s, e in slices:
        padded.append((s, s))  # empty block
        padded.append((s, e))
    A = X.T @ X + 0.3 * np.eye(6)
    assert loso_shortcut_error(X, y, padded, A) == loso_shortcut_error(X, y, slices, A)
    r1 = select_grid(X, y, padded, [np.eye(6)], [1.0], [(1.0,)])
    r2 = select_grid(X, y, slices, [np.eye(6)], [1.0], [(1.0,)])
    assert r1.score == r2.score


def test_score_all_matches_direct_formula_and_single_points():
    # unequal subject sizes (1, 4 and 9 rows) with empty slices between them
    X, y, slices = random_instance(21, n=14, m_max=3, q=9)
    padded = []
    for s, e in slices:
        padded += [(s, s), (s, e)]
    rng = np.random.default_rng(21)
    A0 = rng.standard_normal((9, 9))
    P = 1e12 * (A0 @ A0.T + np.eye(9))
    # the last rho overflows rho * s, so d = 0 and the criterion is ||y||^2
    rho_grid = np.array([0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e300])
    stage = GridSelector(X, y, padded, [P]).for_weights((1.0,))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            rho_grid[-1] * stage.s
    vals = stage.score_all(rho_grid)
    for rho, val in zip(rho_grid[:-1], vals):
        direct = oracles.direct_criterion(X, y, slices, rho * P)
        assert val == pytest.approx(direct, rel=1e-8)
    assert vals[-1] == float(y @ y)
    # a grid point scores the same, bit for bit, alone or with the grid
    for rho, val in zip(rho_grid, vals):
        assert stage.score(rho) == val
    np.testing.assert_array_equal(stage.score_all(rho_grid[::-1]), vals[::-1])

    perm = rng.permutation(len(slices))
    Xp = np.vstack([X[slices[j][0] : slices[j][1]] for j in perm])
    yp = np.concatenate([y[slices[j][0] : slices[j][1]] for j in perm])
    ends = np.cumsum([slices[j][1] - slices[j][0] for j in perm])
    slices_p = [(int(e - (slices[j][1] - slices[j][0])), int(e)) for e, j in zip(ends, perm)]
    vals_p = GridSelector(Xp, yp, slices_p, [P]).for_weights((1.0,)).score_all(rho_grid)
    np.testing.assert_allclose(vals_p, vals, rtol=1e-12, atol=0)


def test_loso_singular_flags_exactly_the_small_eigenvalues():
    # I - S_ii with S_ii PSD and eigenvalues in [0, 1]: the smallest
    # eigenvalue of I - S_ii is set, the rest spread; the trace screen
    # clears some matrices and leaves the others to the eigendecomposition
    rng = np.random.default_rng(5)
    smallest = [0.0, -1e-17, 1e-12, 0.5 * LOSO_SINGULAR_TOL, 2 * LOSO_SINGULAR_TOL,
                1e-6, 0.3, 0.9]
    mats = []
    for lo in smallest:
        for rest in ([0.95, 0.99], [0.2, 0.4]):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            mats.append(Q @ np.diag([lo, *rest]) @ Q.T)
    M = np.array(mats)
    expected = np.linalg.eigvalsh(M)[:, 0] <= LOSO_SINGULAR_TOL
    assert expected.sum() == 8
    np.testing.assert_array_equal(loso_singular(M), expected)
    np.testing.assert_array_equal(loso_singular(M.reshape(4, 4, 3, 3)), expected.reshape(4, 4))
