"""Simulation harness: design truth, generation determinism, metrics."""

from dataclasses import dataclass

import numpy as np
import pytest

import funcov
from funcov import FuncovError, SimDesign, generate
from funcov.fpca import eigendecompose, eval_covariance, eval_eigenfunction
from funcov.simulate import (
    LAMBDA,
    coupling_matrix,
    feature_triple,
    mean_function,
    true_covariance,
)

import oracles
from conftest import make_psd_model, spline_mean, zero_model


# eigenvalues of the coupled score covariance, frozen from two independent
# computations (analytic coupling matrix and a 501-point grid oracle)
D_RHO_0 = np.array([3.5, 3.0, 2.5, 2.0, 1.75, 1.5, 1.0, 0.75, 0.5])
D_RHO_05 = np.array(
    [
        6.0367740459,
        3.5157899,
        1.6265355279,
        1.536026969,
        1.3366904262,
        0.9394895906,
        0.7947205093,
        0.4302750072,
        0.2836980238,
    ]
)
D_RHO_09 = np.array(
    [
        8.4057572978,
        4.9024678698,
        2.1057453074,
        0.3261218349,
        0.2681208673,
        0.1882487158,
        0.1592834143,
        0.0868241508,
        0.0574305417,
    ]
)


def test_coupling_matrix_structure():
    rho = 0.5
    A = coupling_matrix(rho)
    lam = LAMBDA.ravel()
    np.testing.assert_array_equal(np.diag(A), lam)
    np.testing.assert_array_equal(A, A.T)
    assert np.trace(A) == 16.5
    for i in range(9):
        for j in range(9):
            if i == j:
                continue
            if i % 3 == j % 3:  # same feature index, different response
                assert A[i, j] == pytest.approx(rho * np.sqrt(lam[i] * lam[j]), rel=1e-12)
            else:
                assert A[i, j] == 0.0
    # independence: the coupling collapses to the diagonal
    np.testing.assert_array_equal(coupling_matrix(0.0), np.diag(lam))


def test_true_eigensystem_frozen_values():
    for rho, frozen in ((0.0, D_RHO_0), (0.5, D_RHO_05), (0.9, D_RHO_09)):
        vals, psi, _ = oracles.fine_grid_truth(rho)
        d = vals[: psi.shape[0]]  # the numerically nonzero eigenvalues
        assert d.shape == (9,)
        assert np.all(d > 0)
        np.testing.assert_allclose(d, frozen, rtol=0, atol=1e-9)
        assert d.sum() == pytest.approx(16.5, abs=1e-10)
    # rho=0 eigenvalues are exactly the sorted variances
    d0, _, _ = oracles.fine_grid_truth(0.0)
    np.testing.assert_allclose(d0[:9], np.sort(LAMBDA.ravel())[::-1], atol=1e-12)


def test_top_two_share_claims():
    d9 = D_RHO_09
    share9 = d9[:2].sum() / d9.sum()
    assert share9 == pytest.approx(0.8065591011, abs=1e-9)
    assert 0.75 <= share9 <= 0.85
    d5 = D_RHO_05
    share5 = d5[:2].sum() / d5.sum()
    assert share5 == pytest.approx(0.5789432694, abs=1e-9)
    assert 0.55 <= share5 <= 0.65


def test_truth_matches_independent_grid_oracle():
    # the exact spectrum is the coupling matrix's
    for rho in (0.0, 0.5, 0.9):
        d = np.linalg.eigvalsh(coupling_matrix(rho))[::-1]
        vals, _, _ = oracles.fine_grid_truth(rho)
        np.testing.assert_allclose(d, vals[:9], rtol=0, atol=1e-6)
        assert np.max(np.abs(vals[9:])) < 1e-8


def test_kernel_matches_independent_rewrite():
    grid = np.linspace(0.0, 1.0, 23)
    for rho in (0.0, 0.5, 1.0):
        for k in range(3):
            for kp in range(3):
                ours = true_covariance(rho, k, kp, grid, grid)
                ref = oracles.true_kernel(rho, k, kp, grid, grid)
                np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_cross_blocks_vanish_at_rho_zero():
    grid = np.linspace(0, 1, 15)
    for k in range(3):
        for kp in range(3):
            if k == kp:
                continue
            np.testing.assert_array_equal(
                true_covariance(0.0, k, kp, grid, grid), np.zeros((15, 15))
            )


def test_correlation_bounded_by_rho():
    # |corr_kkp(s,t)| <= rho wherever both variances are positive
    grid = np.linspace(0.0, 1.0, 50)
    rho = 0.5
    diags = [np.diag(true_covariance(rho, k, k, grid, grid)) for k in range(3)]
    for k in range(3):
        for kp in range(3):
            if k == kp:
                continue
            cross = true_covariance(rho, k, kp, grid, grid)
            denom = np.sqrt(np.outer(diags[k], diags[kp]))
            ok = denom > 1e-12
            assert np.max(np.abs(cross[ok]) / denom[ok]) <= rho + 1e-8


def test_stacked_operator_psd():
    grid = np.linspace(0.0, 1.0, 30)
    for rho in (0.0, 0.5, 0.9, 1.0):
        M = np.block(
            [[true_covariance(rho, k, kp, grid, grid) for kp in range(3)] for k in range(3)]
        )
        assert np.linalg.eigvalsh(M).min() >= -1e-8


def test_eigenfunctions_orthonormal_and_mercer():
    vals, psi, grid = oracles.fine_grid_truth(0.9)
    d = vals[: psi.shape[0]]
    w = np.full(grid.size, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    # product-space orthonormality under the quadrature that built them
    gram = np.einsum("lkg,mkg,g->lm", psi, psi, w)
    np.testing.assert_allclose(gram, np.eye(9), rtol=0, atol=1e-10)
    # the kernel has rank 9, so 9 components reconstruct it
    for k, kp in ((0, 0), (0, 2), (1, 2)):
        rec = np.einsum("l,lg,lh->gh", d, psi[:, k, :], psi[:, kp, :])
        ref = true_covariance(0.9, k, kp, grid, grid)
        np.testing.assert_allclose(rec, ref, rtol=0, atol=1e-8)


def test_sigma_eps2_follows_snr():
    _, truth2 = generate(SimDesign(n=2, rho=0.5, snr=2.0, seed=0, n_test=0))
    assert truth2.sigma_eps2 == pytest.approx(2.75, abs=1e-12)
    _, truth1 = generate(SimDesign(n=2, rho=0.5, snr=1.0, seed=0, n_test=0))
    assert truth1.sigma_eps2 == pytest.approx(5.5, abs=1e-12)


def test_generate_deterministic_and_seed_sensitive():
    design = SimDesign(n=6, rho=0.9, snr=2.0, seed=42, n_test=3)
    a_train, a_truth = generate(design)
    b_train, b_truth = generate(design)
    assert list(a_train.iter_rows()) == list(b_train.iter_rows())
    np.testing.assert_array_equal(a_truth.train_scores, b_truth.train_scores)
    np.testing.assert_array_equal(a_truth.test_scores, b_truth.test_scores)
    assert list(a_truth.test_data.iter_rows()) == list(b_truth.test_data.iter_rows())

    c_train, _ = generate(SimDesign(n=6, rho=0.9, snr=2.0, seed=43, n_test=3))
    assert list(a_train.iter_rows()) != list(c_train.iter_rows())

    # a SeedSequence seeds identically to its integer entropy
    d_train, _ = generate(
        SimDesign(n=6, rho=0.9, snr=2.0, seed=np.random.SeedSequence(42), n_test=3)
    )
    assert list(a_train.iter_rows()) == list(d_train.iter_rows())


def test_generate_frozen_first_subject():
    # pins the draw order: scores first, then per response counts/times/noise
    train, truth = generate(SimDesign(n=3, rho=0.5, snr=2.0, seed=0, n_test=0))
    assert train.subjects == ["s0000", "s0001", "s0002"]
    assert train.responses == ["y1", "y2", "y3"]
    t0, v0 = train.obs(0, 0)
    np.testing.assert_array_equal(
        t0,
        [0.781876100713399, 0.45294745661602376, 0.9729439819249426, 0.9575825578428449],
    )
    np.testing.assert_array_equal(
        v0,
        [-5.169036655098975, 0.1392875713611912, -4.643495080200577, -0.7478769916305937],
    )
    assert truth.train_scores[0, 0] == -0.50607504657322


def test_observation_counts_within_range():
    design = SimDesign(n=40, rho=0.5, snr=2.0, m_min=3, m_max=7, seed=1, n_test=0)
    train, _ = generate(design)
    counts = [train.m(i, k) for i in range(40) for k in range(3)]
    assert min(counts) >= 3 and max(counts) <= 7
    assert all(0.0 <= t <= 1.0 for _, _, t, _ in train.iter_rows())


def test_score_covariance_converges_to_coupling():
    design = SimDesign(n=4000, rho=0.9, snr=2.0, m_min=3, m_max=3, seed=7, n_test=0)
    _, truth = generate(design)
    # stored scores live in the eigenbasis; rotate back to feature space
    eta = truth.train_scores @ truth.V.T
    n = eta.shape[0]
    emp = (eta.T @ eta) / n
    A = coupling_matrix(0.9)
    se = np.sqrt((np.outer(np.diag(A), np.diag(A)) + A**2) / n)
    assert np.all(np.abs(emp - A) <= 6.0 * se)


def test_monte_carlo_covariance_at_fixed_pair():
    # empirical covariance of curve values matches the kernel at (s, t)
    design = SimDesign(n=10000, rho=0.5, snr=2.0, m_min=3, m_max=3, seed=11, n_test=0)
    _, truth = generate(design)
    s, t = 0.3, 0.6
    f0 = feature_triple(0, np.array([s])).ravel()
    f1 = feature_triple(1, np.array([t])).ravel()
    dev0 = (truth.train_scores @ truth.V[0:3].T) @ f0
    dev1 = (truth.train_scores @ truth.V[3:6].T) @ f1
    prods = dev0 * dev1
    target = float(true_covariance(0.5, 0, 1, np.array([s]), np.array([t]))[0, 0])
    se = float(np.std(prods) / np.sqrt(prods.size))
    assert abs(float(np.mean(prods)) - target) <= 6.0 * se


def test_truth_curve_composition():
    _, truth = generate(SimDesign(n=2, rho=0.5, snr=2.0, seed=3, n_test=0))
    grid = np.linspace(0, 1, 9)
    scores = truth.train_scores[1]
    for k in range(3):
        coef = truth.V[3 * k : 3 * k + 3] @ scores  # feature-basis loadings
        manual = mean_function(k, grid) + coef @ feature_triple(k, grid)
        np.testing.assert_allclose(truth.curve(scores, k, grid), manual, atol=1e-12)


@dataclass
class StubTruth:
    """Duck-typed ground truth driven by supplied callables."""

    d: np.ndarray
    test_data: object = None
    test_scores: np.ndarray = None
    cov_fn: object = None
    ef_fn: object = None
    curve_fn: object = None

    def covariance(self, k, kp, s, t):
        return self.cov_fn(k, kp, s, t)

    def eigenfunction(self, ell, k, t):
        return self.ef_fn(ell, k, t)

    def curve(self, scores, k, t):
        return self.curve_fn(scores, k, t)


def test_rise_zero_for_perfect_estimate():
    model = make_psd_model(seed=2, p=3)
    truth = StubTruth(
        d=np.ones(1), cov_fn=lambda k, kp, s, t: eval_covariance(model, k, kp, s, t)
    )
    assert funcov.rise(model, truth) == 0.0
    # and strictly positive once the estimate is disturbed
    bumped = make_psd_model(seed=3, p=3)
    assert funcov.rise(bumped, truth) > 0.0


@pytest.mark.parametrize("grid_size", [0, 1])
def test_metrics_reject_grids_below_two_points(grid_size):
    # the trapezoid weights need two points; one used to fail with an IndexError
    model = make_psd_model(seed=2, p=3)
    truth = StubTruth(d=np.ones(1), cov_fn=lambda k, kp, s, t: np.zeros((s.size, t.size)))
    with pytest.raises(FuncovError, match="at least 2 points"):
        funcov.rise(model, truth, grid_size=grid_size)


def test_ise_sign_invariant_and_orthogonal_cases():
    model = make_psd_model(seed=4, p=3)
    eig = eigendecompose(model)
    same = StubTruth(d=eig.d, ef_fn=lambda ell, k, t: eval_eigenfunction(eig, ell, k, t))
    assert funcov.ise(eig, same, 0) == pytest.approx(0.0, abs=1e-12)
    negated = StubTruth(
        d=eig.d, ef_fn=lambda ell, k, t: -eval_eigenfunction(eig, ell, k, t)
    )
    assert funcov.ise(eig, negated, 0) == pytest.approx(0.0, abs=1e-12)
    # replacing the truth by the (orthogonal) second component gives 2
    crossed = StubTruth(
        d=eig.d, ef_fn=lambda ell, k, t: eval_eigenfunction(eig, ell + 1, k, t)
    )
    assert funcov.ise(eig, crossed, 0) == pytest.approx(2.0, abs=2e-3)


def test_eigenvalue_ratio_identity():
    model = make_psd_model(seed=6, p=3)
    eig = eigendecompose(model)
    truth = StubTruth(d=eig.d.copy())
    assert funcov.eigenvalue_ratio(eig, truth, 0) == 1.0
    truth2 = StubTruth(d=2.0 * eig.d)
    assert funcov.eigenvalue_ratio(eig, truth2, 1) == pytest.approx(0.5)


def test_mise_zero_when_truth_is_the_prediction():
    # zero covariance model predicts the mean; truth curves equal the mean
    model = zero_model(p=3, sigma2=0.3)
    rng = np.random.default_rng(9)
    model.means = [spline_mean(model.ws, rng.standard_normal(model.ws.c)) for _ in range(3)]
    eig = eigendecompose(model)
    subjects, responses, times, values = [], [], [], []
    for i in range(4):
        for k in range(3):
            t = rng.random(3)
            subjects += [f"s{i}"] * 3
            responses += [f"y{k + 1}"] * 3
            times += list(t)
            values += list(model.means[k](t))
    test_data = funcov.SparseFunctionalDataset.from_long(subjects, responses, times, values)
    truth = StubTruth(
        d=np.ones(1),
        test_data=test_data,
        test_scores=np.zeros((4, 9)),
        curve_fn=lambda scores, k, t: model.means[k](t),
    )
    assert funcov.mise(model, eig, truth) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(FuncovError, match="no test subjects"):
        funcov.mise(model, eig, StubTruth(d=np.ones(1)))


def test_ape_zero_for_noiseless_mean_data():
    model = zero_model(p=2, sigma2=0.3)
    rng = np.random.default_rng(10)
    model.means = [spline_mean(model.ws, rng.standard_normal(model.ws.c)) for _ in range(2)]
    eig = eigendecompose(model)
    subjects, responses, times, values = [], [], [], []
    for i in range(3):
        for k in range(2):
            t = rng.random(2)
            subjects += [f"s{i}"] * 2
            responses += [f"y{k + 1}"] * 2
            times += list(t)
            values += list(model.means[k](t))
    data = funcov.SparseFunctionalDataset.from_long(subjects, responses, times, values)
    np.testing.assert_allclose(funcov.ape(model, eig, data), 0.0, atol=1e-18)


def test_zero_cross_blocks_zeroes_only_cross():
    model = make_psd_model(seed=12, p=3)
    zc = funcov.zero_cross_blocks(model)
    for k in range(3):
        np.testing.assert_array_equal(zc.blocks[k, k], model.blocks[k, k])
        for kp in range(3):
            if k != kp:
                np.testing.assert_array_equal(zc.blocks[k, kp], 0.0)
    # original untouched
    assert np.any(model.blocks[0, 1] != 0.0)


def test_replicate_metrics_keys_and_zero_cross():
    design = SimDesign(n=20, rho=0.5, snr=2.0, seed=5, n_test=6)
    settings = funcov.FitSettings(n_interior_mean=3, n_interior_cov=3)
    out = funcov.replicate_metrics(design, settings, compare_zero_cross=True)
    for key in ("rise", "ise_1", "ise_2", "ratio_1", "ratio_2", "npc",
                "min_whitened_eig", "d1_hat", "d1_true", "mise", "mise_zero_cross"):
        assert key in out, key
    assert isinstance(out["npc"], int)
    vals = [v for k, v in out.items() if k != "npc"]
    assert all(np.isfinite(v) for v in vals)

    # without test subjects the prediction metrics are absent
    out2 = funcov.replicate_metrics(
        SimDesign(n=20, rho=0.5, snr=2.0, seed=5, n_test=0), settings
    )
    assert "mise" not in out2 and "mise_zero_cross" not in out2


def test_fitted_cross_correlation_small_under_independence():
    # rho = 0: fitted cross-surfaces should be small relative to the autos
    design = SimDesign(n=100, rho=0.0, snr=2.0, seed=21, n_test=0)
    train, _ = generate(design)
    settings = funcov.FitSettings(n_interior_mean=6, n_interior_cov=6, domain=(0.0, 1.0))
    res = funcov.fit_covariance_model(train, settings)
    grid = np.linspace(0.0, 1.0, 25)
    diags = [np.diag(eval_covariance(res.model, k, k, grid, grid)) for k in range(3)]
    corrs = []
    for k in range(3):
        for kp in range(k + 1, 3):
            cross = eval_covariance(res.model, k, kp, grid, grid)
            denom = np.sqrt(np.outer(diags[k], diags[kp]))
            ok = denom > 1e-8
            corrs.extend(np.abs(cross[ok] / denom[ok]).ravel())
    assert np.median(corrs) < 0.15


def test_design_validation():
    with pytest.raises(FuncovError):
        SimDesign(n=0)
    with pytest.raises(FuncovError):
        SimDesign(n=5, rho=1.5)
    with pytest.raises(FuncovError):
        SimDesign(n=5, snr=0.0)
    with pytest.raises(FuncovError):
        SimDesign(n=5, m_min=0)
    with pytest.raises(FuncovError):
        SimDesign(n=5, m_min=5, m_max=4)
    with pytest.raises(FuncovError):
        SimDesign(n=5, n_test=-1)
