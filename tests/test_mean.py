"""Mean smoothing: exact fits, smoothing limits, LOSO selection, recovery."""

import numpy as np
import pytest

import funcov
from funcov import FuncovError, SingularSystemError, build_workspace
from funcov import mean
from funcov.crossval import loso_shortcut_error
from funcov.mean import default_tau_grid, fit_mean, loso_curve
from funcov.simulate import mean_function
from funcov.splines import eval_basis_matrix

import oracles
from conftest import make_dataset


def constant_dataset(value=7.0, n=8, seed=0):
    rng = np.random.default_rng(seed)
    subjects, times = [], []
    for i in range(n):
        m = int(rng.integers(2, 5))
        subjects += [f"s{i}"] * m
        times += list(rng.random(m))
    return funcov.SparseFunctionalDataset.from_long(
        subjects, ["y1"] * len(subjects), times, [value] * len(subjects)
    )


def test_constant_data_fits_constant_for_any_tau():
    ws = build_workspace((0.0, 1.0), 6, 4)
    data = constant_dataset(7.0)
    grid = np.linspace(0.0, 1.0, 50)
    for tau_grid in ([1e-6], [1.0], [1e6], None):
        fit = fit_mean(data, 0, ws, tau_grid=tau_grid)
        np.testing.assert_allclose(fit(grid), 7.0, rtol=0, atol=1e-8)


def test_selection_is_grid_order_invariant():
    # the (score, -tau) selection key must not depend on sweep order
    rng = np.random.default_rng(30)
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = make_dataset(rng, n=12, p=1, m_range=(2, 5))
    grid = np.logspace(-4, 4, 17)
    fit_fwd = fit_mean(data, 0, ws, tau_grid=grid)
    fit_rev = fit_mean(data, 0, ws, tau_grid=grid[::-1])
    assert fit_fwd.tau == fit_rev.tau
    np.testing.assert_array_equal(fit_fwd.alpha, fit_rev.alpha)


def test_huge_tau_projects_onto_penalty_null_space():
    # As tau grows the fit tends to least squares over span{1, g(t)} where
    # g(t) = sum_gamma gamma * B_gamma(t) (the difference penalty's null space).
    rng = np.random.default_rng(21)
    ws = build_workspace((0.0, 1.0), 6, 4)
    data = make_dataset(rng, n=25, p=1, m_range=(3, 6))
    fit = fit_mean(data, 0, ws, tau_grid=[1e12])

    t_all = np.concatenate([data.obs(i, 0)[0] for i in range(data.n_subjects)])
    y = np.concatenate([data.obs(i, 0)[1] for i in range(data.n_subjects)])
    B = eval_basis_matrix(ws, t_all)
    g = B @ np.arange(ws.c, dtype=float)
    X = np.column_stack([np.ones_like(t_all), g])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(fit(t_all), X @ coef, rtol=0, atol=1e-4)
    # and the projection is far from the unsmoothed fit, so the check has teeth
    rough = fit_mean(data, 0, ws, tau_grid=[1e-6])
    assert np.max(np.abs(rough(t_all) - X @ coef)) > 1e-2


def test_loso_selection_matches_literal_refits():
    rng = np.random.default_rng(9)
    ws = build_workspace((0.0, 1.0), 3, 4)
    data = make_dataset(rng, n=10, p=1, m_range=(2, 4))

    times, values, slices = [], [], []
    pos = 0
    for i in range(data.n_subjects):
        t, v = data.obs(i, 0)
        times.append(t)
        values.append(v)
        slices.append((pos, pos + t.size))
        pos += t.size
    B = eval_basis_matrix(ws, np.concatenate(times))
    y = np.concatenate(values)
    DtD = ws.D.T @ ws.D

    for tau in (0.05, 1.0, 40.0):
        fit = fit_mean(data, 0, ws, tau_grid=[tau])
        shortcut = fit.cv_curve[0, 1]
        literal = oracles.literal_loso(B, y, slices, tau * DtD)
        assert shortcut == pytest.approx(literal, rel=1e-8)


def test_subject_permutation_invariance():
    rng = np.random.default_rng(14)
    ws = build_workspace((0.0, 1.0), 5, 4)
    rows = []
    for i in range(12):
        m = int(rng.integers(2, 5))
        for _ in range(m):
            rows.append((f"s{i:02d}", rng.random(), rng.standard_normal()))
    perm = rng.permutation(len(rows))

    def build(order):
        subjects = [rows[j][0] for j in order]
        times = [rows[j][1] for j in order]
        values = [rows[j][2] for j in order]
        return funcov.SparseFunctionalDataset.from_long(
            subjects, ["y1"] * len(order), times, values
        )

    grid_tau = np.logspace(-6, 6, 31)
    fit_a = fit_mean(build(range(len(rows))), 0, ws, tau_grid=grid_tau)
    fit_b = fit_mean(build(perm), 0, ws, tau_grid=grid_tau)
    assert fit_a.tau == fit_b.tau
    grid = np.linspace(0, 1, 40)
    np.testing.assert_allclose(fit_a(grid), fit_b(grid), rtol=0, atol=1e-10)


def test_recovers_sine_mean_at_n400():
    # First simulated response has mean 5 sin(2 pi t); with 400 subjects the
    # fit should be uniformly close away from the boundary. The threshold is
    # frozen from a reference run: per-point variance of the design is 8.0,
    # which floors the median sup-norm near 0.38 at this sample size.
    ws = build_workspace((0.0, 1.0), 9, 4)
    grid = np.linspace(0.05, 0.95, 181)
    target = mean_function(0, grid)
    sups = []
    for rep in range(20):
        design = funcov.SimDesign(n=400, rho=0.5, snr=2.0, seed=100 + rep, n_test=0)
        data, _ = funcov.generate(design)
        fit = fit_mean(data, 0, ws)
        sups.append(np.max(np.abs(fit(grid) - target)))
    assert np.median(sups) < 0.45


def test_empty_response_raises():
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = funcov.SparseFunctionalDataset.from_long(
        ["a", "b"], ["y1", "y1"], [0.2, 0.8], [1.0, 2.0], response_order=["y1", "y2"]
    )
    with pytest.raises(FuncovError, match="no observations"):
        fit_mean(data, 1, ws)


def test_degenerate_design_all_grid_failures():
    # Every observation at one time: B'B has rank 1, and an affine
    # coefficient sequence vanishing at that time lies in the null space of
    # both B'B and D'D, so B'B + tau D'D is singular at every tau. Whether
    # the Cholesky factor of B'B + D'D fails or succeeds by rounding depends
    # on the design (it fails for the first here and succeeds for the
    # second); either way no tau may score finite.
    ws = build_workspace((0.0, 1.0), 6, 4)
    for n, m, t in [(2, 2, 0.5), (5, 3, 0.451)]:
        subjects = [f"s{i}" for i in range(n) for _ in range(m)]
        data = funcov.SparseFunctionalDataset.from_long(
            subjects, ["y1"] * n * m, [t] * n * m, np.arange(1.0, n * m + 1)
        )
        B, y, counts, _, G0, DtD = pooled_design(data, ws)
        full = np.concatenate([[0.0], default_tau_grid(np.trace(G0) / ws.c)])
        assert np.all(np.isinf(loso_curve(B, y, counts, G0, DtD, full)))
        for tau_grid in ([0.0], full):
            with pytest.raises(SingularSystemError):
                fit_mean(data, 0, ws, tau_grid=tau_grid)


def test_tau_grid_validation():
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = constant_dataset()
    with pytest.raises(FuncovError):
        fit_mean(data, 0, ws, tau_grid=[])
    with pytest.raises(FuncovError):
        fit_mean(data, 0, ws, tau_grid=[-1.0])


def test_cv_curve_records_grid_and_selection():
    rng = np.random.default_rng(2)
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = make_dataset(rng, n=15, p=1, m_range=(2, 5))
    fit = fit_mean(data, 0, ws)
    assert fit.cv_curve.shape == (31, 2)
    assert np.all(np.isfinite(fit.cv_curve))
    scores = fit.cv_curve[:, 1]
    taus = fit.cv_curve[:, 0]
    best = np.min(scores)
    # selected tau is the largest among the score minimizers
    winners = taus[scores == best]
    assert fit.tau == winners.max()


def pooled_design(data, ws):
    """(B, y, counts, slices, B'B, D'D) of response 0: ``loso_curve`` takes
    the per-subject counts, the references take row ranges."""
    t_all, y, counts = data.pooled(0)
    ends = np.cumsum(counts)
    slices = [(int(e - m), int(e)) for e, m in zip(ends, counts) if m]
    B = eval_basis_matrix(ws, t_all)
    return B, y, counts, slices, B.T @ B, ws.D.T @ ws.D


def count_exact_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return loso_shortcut_error(*args)

    monkeypatch.setattr(mean, "loso_shortcut_error", counted)
    return calls


def test_joint_loso_curve_matches_exact_and_literal_paths(monkeypatch):
    # every tau of the default grid plus tau = 0, subjects of 1 to 6 points
    calls = count_exact_calls(monkeypatch)
    for seed in range(3):
        rng = np.random.default_rng(60 + seed)
        ws = build_workspace((0.0, 1.0), 5, 4)
        data = make_dataset(rng, n=14, p=1, m_range=(1, 6))
        B, y, counts, slices, G0, DtD = pooled_design(data, ws)
        taus = np.concatenate([[0.0], default_tau_grid(np.trace(G0) / ws.c)])
        curve = loso_curve(B, y, counts, G0, DtD, taus)
        assert calls == []  # the batched path scored the whole grid
        for tau, val in zip(taus, curve):
            exact = loso_shortcut_error(B, y, slices, G0 + tau * DtD)
            literal = oracles.literal_loso(B, y, slices, tau * DtD)
            assert val == pytest.approx(exact, rel=1e-8)
            assert val == pytest.approx(literal, rel=1e-8)
        fit = fit_mean(data, 0, ws)
        expected = loso_curve(B, y, counts, G0, DtD, fit.cv_curve[:, 0])
        np.testing.assert_array_equal(fit.cv_curve[:, 1], expected)


def boundary_sparse_dataset(edge, inner, seed=0):
    # Most subjects sit in [0.3, 0.7]; one subject on each side reaches
    # toward the ends at `edge` and `inner`, so the end basis functions are
    # barely observed and B'B is ill-conditioned but nonsingular.
    rng = np.random.default_rng(seed)
    subjects, times = [], []
    for i in range(14):
        m = int(rng.integers(1, 7))
        subjects += [f"s{i:02d}"] * m
        times += list(0.3 + 0.4 * rng.random(m))
    for j, t in enumerate([[edge, inner, 0.5], [1 - edge, 1 - inner, 0.5]]):
        subjects += [f"z{j}"] * 3
        times += t
    times = np.array(times)
    values = np.sin(6 * times) + 0.1 * rng.standard_normal(times.size)
    return funcov.SparseFunctionalDataset.from_long(subjects, ["y1"] * times.size, times, values)


@pytest.mark.parametrize(
    "edge, inner, cond_range",
    [
        (0.01, 0.25, (1e4, 1e5)),
        (0.02, 0.3, (1e7, 1e8)),
        (0.1, 0.3, (1e8, 1e9)),
    ],
)
def test_ill_conditioned_gram_matches_exact_and_literal_paths(
    monkeypatch, edge, inner, cond_range
):
    # A badly conditioned B'B is still scored from the joint basis of the
    # stabilized pencil (B'B + D'D, D'D), within 1e-8 of the exact shortcut
    # and of literal refits.
    ws = build_workspace((0.0, 1.0), 5, 4)
    B, y, counts, slices, G0, DtD = pooled_design(boundary_sparse_dataset(edge, inner), ws)
    w = np.linalg.eigvalsh(G0)
    assert cond_range[0] < w[-1] / w[0] < cond_range[1]
    taus = default_tau_grid(np.trace(G0) / ws.c)
    calls = count_exact_calls(monkeypatch)
    curve = loso_curve(B, y, counts, G0, DtD, taus)
    assert calls == []
    for tau, val in zip(taus, curve):
        exact = loso_shortcut_error(B, y, slices, G0 + tau * DtD)
        literal = oracles.literal_loso(B, y, slices, tau * DtD)
        assert val == pytest.approx(exact, rel=1e-8)
        assert val == pytest.approx(literal, rel=1e-8)


def test_loso_point_singular_to_rounding_scores_inf_on_both_paths():
    # At tau = 0 each edge subject alone observes an end basis function, so
    # leaving it out leaves the fit undetermined: I - S_ii is singular to
    # rounding and both the curve and the exact shortcut score that tau inf
    # rather than a huge number.
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = boundary_sparse_dataset(0.01, 0.25)
    B, y, counts, slices, G0, DtD = pooled_design(data, ws)
    taus = np.concatenate([[0.0], default_tau_grid(np.trace(G0) / ws.c)])
    curve = loso_curve(B, y, counts, G0, DtD, taus)
    exact = np.array([loso_shortcut_error(B, y, slices, G0 + tau * DtD) for tau in taus])
    assert curve[0] == exact[0] == np.inf
    assert np.all(np.isfinite(curve[1:]))
    np.testing.assert_allclose(curve[1:], exact[1:], rtol=1e-8)
    assert fit_mean(data, 0, ws, tau_grid=taus).tau > 0.0


def test_singular_gram_takes_the_exact_path(monkeypatch):
    # Four distinct times against c = 10 basis functions: B'B is singular.
    # The curve scores inf exactly where the exact path's Cholesky factor
    # or some I - S_ii fails, and elsewhere matches the exact shortcut and
    # literal refits.
    rng = np.random.default_rng(70)
    ws = build_workspace((0.0, 1.0), 6, 4)
    subjects, times, values = [], [], []
    for i in range(12):
        m = int(rng.integers(1, 5))
        subjects += [f"s{i:02d}"] * m
        times += list(rng.choice([0.1, 0.35, 0.6, 0.9], size=m))
        values += list(rng.standard_normal(m))
    data = funcov.SparseFunctionalDataset.from_long(subjects, ["y1"] * len(times), times, values)
    B, y, _, slices, G0, DtD = pooled_design(data, ws)
    assert np.linalg.matrix_rank(G0) == 4
    grid = np.concatenate([[0.0], default_tau_grid(np.trace(G0) / ws.c)])

    calls = count_exact_calls(monkeypatch)
    curve = fit_mean(data, 0, ws, tau_grid=grid).cv_curve[:, 1]
    assert calls == []
    finite = 0
    for tau, val in zip(grid, curve):
        try:
            exact = loso_shortcut_error(B, y, slices, G0 + tau * DtD)
        except np.linalg.LinAlgError:
            exact = np.inf
        assert np.isinf(val) == np.isinf(exact)
        if np.isfinite(exact):
            finite += 1
            literal = oracles.literal_loso(B, y, slices, tau * DtD)
            assert val == pytest.approx(exact, rel=1e-8)
            assert val == pytest.approx(literal, rel=1e-8)
    assert curve[0] == np.inf and finite > 0


def test_non_finite_tau_is_rejected():
    ws = build_workspace((0.0, 1.0), 5, 4)
    data = constant_dataset()
    for bad in (np.nan, np.inf):
        with pytest.raises(FuncovError, match="finite"):
            fit_mean(data, 0, ws, tau_grid=[1.0, bad])
