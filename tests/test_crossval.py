"""Selection engine: exact LOSO shortcut and fast grid criterion."""

import warnings

import numpy as np
import pytest

import funcov
from funcov import build_workspace, covsmooth
from funcov.crossval import (
    LOSO_SINGULAR_TOL,
    GridSelector,
    loso_shortcut_error,
    loso_singular,
    select_grid,
    size_groups,
)

import oracles


def dense_select(X, y, slices, penalties, rho_grid, weight_grid):
    """select_grid on the statistics of a dense stacked design."""
    return select_grid(
        *oracles.row_statistics(X, y, slices), penalties, rho_grid, weight_grid
    )


def dense_selector(X, y, slices, penalties):
    return GridSelector(*oracles.row_statistics(X, y, slices), penalties)


def exhaustive_select(stats, penalties, rho_grid, weight_grid):
    """Every grid point scored by ``stage.score``, with the residual-norm
    bound beside each; the pick by select_grid's tie-break.

    Returns ``((rho, weight, score), points)`` with ``points`` mapping
    ``(rho, weights)`` to ``(score, rss, certified)``.
    """
    sel = GridSelector(*stats, penalties)
    points, best = {}, None
    for weights in weight_grid:
        stage = sel.for_weights(weights)
        for rho in map(float, rho_grid):
            val = stage.score(rho)
            points[rho, tuple(weights)] = (val, *stage.lower_bound(rho))
            key = (val, -rho, tuple(-w for w in weights))
            if np.isfinite(val) and (best is None or key <= best[0]):
                best = (key, (rho, weights[0], val))
    return best[1], points


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
        stats = oracles.row_statistics(X, y, slices)
        # every grid point, not only those select_grid scores
        pick, points = exhaustive_select(stats, penalties, rho_grid, weight_grid)
        assert len(points) == len(rho_grid) * len(weight_grid)
        for (rho, weights), (val, _, _) in points.items():
            penalty = rho * (weights[0] * ws.P1 + weights[1] * ws.P2)
            direct = oracles.direct_criterion(X, y, slices, penalty)
            assert val == pytest.approx(direct, rel=1e-8)
        res = select_grid(*stats, penalties, rho_grid, weight_grid)
        assert (res.rho, res.weight, res.score) == pick


def test_stage_scores_without_raw_data():
    # after construction the selector keeps the X_i'X_i action and its own
    # copy of the right-hand sides: the raw data and the gram and
    # right-hand sides it was given may change, both for a stage built
    # before the change and for one built after it
    X, y, slices = random_instance(7, q=8)
    P = np.eye(8)
    rhos = [0.1, 1.0, 50.0]
    gram, rhs, norm_y2, apply = oracles.row_statistics(X, y, slices)
    sel = GridSelector(gram, rhs, norm_y2, apply, [P])
    stage = sel.for_weights((1.0,))
    before = [stage.score(rho) for rho in rhos]
    for a in (X, y, gram, rhs):
        a[:] = np.nan
    stage2 = sel.for_weights((1.0,))
    assert [stage2.score(rho) for rho in rhos] == before
    assert [stage.score(rho) for rho in rhos] == before


def test_subject_permutation_invariance():
    rng = np.random.default_rng(3)
    X, y, slices = random_instance(3, n=10, m_max=3, q=9)
    P = [np.eye(9)]
    rho_grid = [0.01, 1.0, 100.0]
    res_a = dense_select(X, y, slices, P, rho_grid, [(1.0,)])

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
    res_b = dense_select(Xp, yp, slices_p, P, rho_grid, [(1.0,)])

    assert res_a.rho == res_b.rho
    assert res_a.score == pytest.approx(res_b.score, rel=1e-8)
    # every grid point, not only those select_grid scores
    stage_a = dense_selector(X, y, slices, P).for_weights((1.0,))
    stage_b = dense_selector(Xp, yp, slices_p, P).for_weights((1.0,))
    scores_a = [stage_a.score(rho) for rho in rho_grid]
    scores_b = [stage_b.score(rho) for rho in rho_grid]
    np.testing.assert_allclose(scores_b, scores_a, rtol=1e-8)


def test_all_zero_design_collapses_to_norm_y2():
    # S = 0 everywhere: every correction term vanishes, score is ||y||^2
    rng = np.random.default_rng(11)
    y = rng.standard_normal(12)
    X = np.zeros((12, 5))
    slices = [(0, 4), (4, 8), (8, 12)]
    stage = dense_selector(X, y, slices, [np.eye(5)]).for_weights((1.0,))
    for rho in (0.0, 1.0, 1e6):
        assert stage.score(rho) == pytest.approx(float(y @ y), rel=1e-12)


def test_zeroed_subject_contributes_no_correction():
    # S_ii = 0 for a zeroed subject: its term II-IV contribution vanishes and
    # the criterion equals the no-correction form plus the other subjects'.
    X, y, slices = random_instance(5, n=6, m_max=2, q=6)
    X[slices[2][0] : slices[2][1]] = 0.0
    penalty = 0.7 * np.eye(6)
    res = dense_select(X, y, slices, [np.eye(6)], [0.7], [(1.0,)])

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
        res = dense_select(X, y, slices, P, [np.nan, 2.0], [(1.0,)])
    assert res.rho == 2.0
    with pytest.warns(RuntimeWarning):
        with pytest.raises(FloatingPointError):
            dense_select(X, y, slices, P, [np.nan], [(1.0,)])


def test_non_finite_score_warning_names_a_plain_float():
    # an action returning NaN makes every score non-finite; one warning
    # counts them and names the rho of the numpy grid as plain floats
    X, y, slices = random_instance(9, q=5)
    gram, rhs, norm_y2, apply = oracles.row_statistics(X, y, slices)
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(FloatingPointError):
            select_grid(
                gram, rhs, norm_y2, lambda beta: np.full_like(apply(beta), np.nan),
                [np.eye(5)], np.array([0.5, 2.0]), [(1.0,)],
            )
    assert [str(w.message) for w in record] == [
        "skipping 2 grid point(s) with a non-finite selection score, at rho=[0.5, 2.0]",
    ]


def test_non_finite_scores_warn_once_per_selection():
    # a NaN rho is non-finite under both weights: two points, one warning
    X, y, slices = random_instance(9, q=5)
    P = [np.eye(5), 2.0 * np.eye(5)]
    with pytest.warns(RuntimeWarning) as record:
        res = dense_select(X, y, slices, P, [np.nan, 2.0], [(0.3, 0.7), (0.7, 0.3)])
    assert res.rho == 2.0
    assert [str(w.message) for w in record] == [
        "skipping 2 grid point(s) with a non-finite selection score, at rho=[nan]",
    ]


def test_ties_break_toward_larger_rho_then_weight():
    # y = 0 makes every grid score exactly 0.0: pure tie-break exercise
    X, _, slices = random_instance(2, q=6)
    y = np.zeros(X.shape[0])
    ws = build_workspace((0.0, 1.0), 3, 3)  # unused sizes, just two penalties
    P = [np.eye(6), 2.0 * np.eye(6)]
    res = dense_select(
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
    r1 = dense_select(X, y, padded, [np.eye(6)], [1.0], [(1.0,)])
    r2 = dense_select(X, y, slices, [np.eye(6)], [1.0], [(1.0,)])
    assert r1.score == r2.score


def test_size_groups_skip_empty_subjects_and_keep_order():
    # rows stacked in subject order; subjects 1 and 5 have none
    groups = size_groups([2, 0, 1, 2, 3, 0, 1])
    expected = [[[2], [8]], [[0, 1], [3, 4]], [[5, 6, 7]]]
    assert len(groups) == len(expected)
    for g, e in zip(groups, expected):
        assert np.issubdtype(g.dtype, np.integer)
        np.testing.assert_array_equal(g, e)
    assert size_groups([0, 0]) == []


def test_score_matches_direct_formula_and_subject_order():
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
    stage = dense_selector(X, y, padded, [P]).for_weights((1.0,))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            rho_grid[-1] * stage.s
    vals = [stage.score(rho) for rho in rho_grid]
    for rho, val in zip(rho_grid[:-1], vals):
        direct = oracles.direct_criterion(X, y, slices, rho * P)
        assert val == pytest.approx(direct, rel=1e-8)
    assert vals[-1] == float(y @ y)

    perm = rng.permutation(len(slices))
    Xp = np.vstack([X[slices[j][0] : slices[j][1]] for j in perm])
    yp = np.concatenate([y[slices[j][0] : slices[j][1]] for j in perm])
    ends = np.cumsum([slices[j][1] - slices[j][0] for j in perm])
    slices_p = [(int(e - (slices[j][1] - slices[j][0])), int(e)) for e, j in zip(ends, perm)]
    stage_p = dense_selector(Xp, yp, slices_p, [P]).for_weights((1.0,))
    vals_p = [stage_p.score(rho) for rho in rho_grid]
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


def assert_pruning_is_exact(stats, penalties, rho_grid, weight_grid):
    """select_grid picks the exhaustive argmin, bit for bit, and scores at
    least every point whose residual norm does not exceed that score and
    every point whose bound is not certified."""
    res = select_grid(*stats, penalties, rho_grid, weight_grid)
    pick, points = exhaustive_select(stats, penalties, rho_grid, weight_grid)
    assert (res.rho, res.weight, res.score) == pick
    scored = {(rho, weights) for rho, weights, _ in res.surface}
    assert scored <= points.keys()
    for rho, weights, val in res.surface:
        assert not np.isfinite(val) or val == points[rho, weights][0]
    for key, (val, rss, certified) in points.items():
        if certified and np.isfinite(val):
            assert val >= rss
        if key not in scored:
            assert certified and rss > res.score
    return res


def test_pruned_selection_equals_exhaustive_selection():
    ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4, q = 16
    penalties = [ws.P1, ws.P2]
    rho_grid = np.logspace(-3.0, 4.0, 12)
    weight_grid = [(w, 1.0 - w) for w in (0.1, 0.3, 0.5, 0.7, 0.9)]
    pruned = 0
    for seed in range(10):
        X, y, slices = random_instance(seed, n=15, m_max=3, q=16)
        res = assert_pruning_is_exact(
            oracles.row_statistics(X, y, slices), penalties, rho_grid, weight_grid
        )
        pruned += len(rho_grid) * len(weight_grid) - len(res.surface)
    assert pruned > 0


def test_pruned_selection_keeps_ties_duplicates_and_non_finite_points():
    ws = build_workspace((0.0, 1.0), 1, 3)
    penalties = [ws.P1, ws.P2]
    X, y, slices = random_instance(4, n=15, m_max=3, q=16)
    weights = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
    # y = 0: every score and every bound is exactly 0, so nothing is cut
    stats = oracles.row_statistics(X, np.zeros_like(y), slices)
    res = assert_pruning_is_exact(stats, penalties, [0.1, 1.0, 10.0], weights)
    assert (res.rho, res.weight, res.score) == (10.0, 0.9, 0.0)
    assert len(res.surface) == 9
    stats = oracles.row_statistics(X, y, slices)
    # a duplicated weight row
    dup = [(0.3, 0.7), (0.7, 0.3), (0.3, 0.7)]
    assert_pruning_is_exact(stats, penalties, np.logspace(-2.0, 3.0, 6), dup)
    # a NaN rho is never cut, and is the only point the warning counts
    with pytest.warns(RuntimeWarning, match=r"skipping 3 grid point\(s\).*rho=\[nan\]"):
        res = assert_pruning_is_exact(stats, penalties, [0.01, np.nan, 1.0, 100.0], weights)
    assert sum(np.isnan(rho) for rho, _, _ in res.surface) == 3
    # an indefinite mixture: where 1 + rho s < 0 the bound does not hold,
    # and those points are scored whatever their residual norm
    indefinite = [-np.eye(16), np.eye(16)]
    for seed in range(3):
        X, y, slices = random_instance(seed, n=15, m_max=3, q=16)
        stats = oracles.row_statistics(X, y, slices)
        _, points = exhaustive_select(stats, indefinite, np.logspace(-3.0, 3.0, 13), weights)
        assert any(val < rss for val, rss, _ in points.values())
        assert_pruning_is_exact(stats, indefinite, np.logspace(-3.0, 3.0, 13), weights)


def test_block_selection_equals_exhaustive_selection():
    # every block of an n = 200 fit's data, on the fit's default grids
    train, _ = funcov.generate(funcov.SimDesign(n=200, rho=0.9, snr=2.0, seed=5, n_test=0))
    ws = build_workspace((0.0, 1.0), 9, 4)  # c = 13
    means = [funcov.fit_mean(train, k, ws) for k in range(3)]
    rho_grid = covsmooth.default_rho_grid()
    scored = []
    for k, kp in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]:
        block = covsmooth.build_aux(train, means, ws, k, kp)
        gram, rhs, apply = covsmooth._block_statistics(block, ws)
        stats = (gram, rhs, float(np.vdot(block.C, block.C)), apply)
        if k == kp:
            penalties, weights = [covsmooth._auto_penalty(ws)], [(1.0,)]
        else:
            penalties = [ws.P1, ws.P2]
            weights = [(w, 1.0 - w) for w in covsmooth.W_GRID]
        res = assert_pruning_is_exact(stats, penalties, rho_grid, weights)
        scored.append(len(res.surface))
    assert sum(scored) < 3 * len(rho_grid) * (1 + len(covsmooth.W_GRID))
