"""Acceptance gate: ten end-to-end behavioral criteria.

Each test covers one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line (visible with ``pytest -s``); the
test names give the same one-line-per-criterion readout under
``pytest -v``. Criteria 5, 7 and 8 share one session-scoped
simulation study of 20 replicates at each training size.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate

import funcov
from funcov import (
    FitSettings,
    SimDesign,
    build_workspace,
    eigendecompose,
    predict_subject,
    replicate_metrics,
)
from funcov.cli import main as cli_main
from funcov.covsmooth import build_aux, fit_auto, fit_cross
from funcov.crossval import GridSelector, select_grid
from funcov.fpca import eval_covariance, eval_eigenfunction
from funcov.mean import loso_curve
from funcov.simulate import true_covariance

import oracles
from conftest import dense_aux, make_dataset, make_psd_model, spline_mean, zero_means
from test_crossval import random_instance


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {desc}")
        raise
    print(f"criterion {num:02d} PASS: {desc}")


N_GRID = (50, 100, 200)
REPLICATES = 20


@pytest.fixture(scope="session")
def study():
    """20 replicates per training size at rho 0.9, SNR 2, with timing."""
    settings = FitSettings(n_interior_mean=6, n_interior_cov=6, domain=(0.0, 1.0))
    start = time.perf_counter()
    results = {}
    for n in N_GRID:
        rows = []
        for r in range(REPLICATES):
            design = SimDesign(
                n=n,
                rho=0.9,
                snr=2.0,
                seed=1000 * n + r,
                n_test=200 if n == 200 else 0,
            )
            rows.append(replicate_metrics(design, settings, compare_zero_cross=n == 200))
        results[n] = rows
    elapsed = time.perf_counter() - start
    return results, elapsed


def median(rows, key):
    return float(np.median([row[key] for row in rows]))


def test_criterion_01_fast_selection_equals_direct_and_is_faster():
    desc = "grid criterion equals the direct projection formula and is >= 5x faster"
    with criterion(1, desc):
        ws = build_workspace((0.0, 1.0), 1, 3)  # c = 4
        penalties = [ws.P1, ws.P2]
        rho_grid = [1e-2, 1.0, 1e2]
        w_grid = [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)]
        for seed in range(10):
            X, y, slices = random_instance(seed, n=15, m_max=3, q=ws.c**2)
            stats = oracles.row_statistics(X, y, slices)
            # every grid point, not only those select_grid scores
            sel, scores = GridSelector(*stats, penalties), {}
            for weights in w_grid:
                stage = sel.for_weights(weights)
                for rho in rho_grid:
                    val = stage.score(rho)
                    direct = oracles.direct_criterion(
                        X, y, slices, rho * (weights[0] * ws.P1 + weights[1] * ws.P2)
                    )
                    assert val == pytest.approx(direct, rel=1e-8)
                    scores[rho, weights[0]] = val
            res = select_grid(*stats, penalties, rho_grid, w_grid)
            assert res.score == scores[res.rho, res.weight] == min(scores.values())

        # timing at n = 100 subjects, 5 points per response pair, c = 10
        ws_big = build_workspace((0.0, 1.0), 6, 4)  # c = 10
        q = ws_big.c**2
        rng = np.random.default_rng(99)
        X_rows, y_rows, slices = [], [], []
        pos = 0
        for _ in range(100):
            rows = 25  # 5 x 5 product observations per subject
            X_rows.append(rng.standard_normal((rows, q)))
            y_rows.append(rng.standard_normal(rows))
            slices.append((pos, pos + rows))
            pos += rows
        X = np.vstack(X_rows)
        y = np.concatenate(y_rows)
        big_penalties = [ws_big.P1, ws_big.P2]
        big_rhos = list(np.logspace(-2, 4, 10))

        fast_time = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            stats = oracles.row_statistics(X, y, slices)
            select_grid(*stats, big_penalties, big_rhos, w_grid)
            fast_time = min(fast_time, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for rho in big_rhos:
            for w1, w2 in w_grid:
                oracles.direct_criterion(X, y, slices, rho * (w1 * ws_big.P1 + w2 * ws_big.P2))
        direct_time = time.perf_counter() - t0
        assert direct_time >= 5.0 * fast_time, (direct_time, fast_time)


def test_criterion_02_loso_shortcut_equals_literal_refits():
    desc = "the mean's leave-one-subject-out curve equals literal refits"
    with criterion(2, desc):
        taus = np.array([0.1, 1.0, 10.0])
        for seed in range(5):
            X, y, slices = random_instance(200 + seed, n=12, m_max=3, q=9)
            counts = np.array([stop - start for start, stop in slices])
            rng = np.random.default_rng(seed)
            A0 = rng.standard_normal((9, 9))
            penalty = A0 @ A0.T + 0.05 * np.eye(9)
            curve = loso_curve(X, y, counts, X.T @ X, penalty, taus)
            for tau, fast in zip(taus, curve):
                literal = oracles.literal_loso(X, y, slices, tau * penalty)
                assert fast == pytest.approx(literal, rel=1e-8)


def test_criterion_03_block_solvers_match_dense_ridge():
    desc = "cross and auto block solvers match dense ridge solves"
    with criterion(3, desc):
        ws = build_workspace((0.0, 1.0), 1, 4)  # c = 5
        data = make_dataset(np.random.default_rng(300), n=18, p=2, m_range=(3, 4))
        block = build_aux(data, zero_means(ws, 2), ws, 0, 1)
        fit = fit_cross(block, ws, rho_grid=[1.3], w_grid=[0.4])
        lam1, lam2 = fit.lambdas
        C, B, _, _ = dense_aux(data, zero_means(ws, 2), ws, 0, 1)
        theta_vec = oracles.dense_ridge(B, C, lam1 * ws.P1 + lam2 * ws.P2)
        np.testing.assert_allclose(
            fit.theta, theta_vec.reshape(ws.c, ws.c, order="F"), rtol=1e-10, atol=1e-12
        )

        auto = build_aux(data, zero_means(ws, 2), ws, 1, 1)
        rho = 4.2
        afit = fit_auto(auto, ws, rho_grid=[rho])
        q = ws.c * (ws.c + 1) // 2
        C, B, Z, _ = dense_aux(data, zero_means(ws, 2), ws, 1, 1)
        Gc = oracles.duplication_matrix(ws.c)
        X = np.hstack([B @ Gc, Z[:, None]])
        Q = np.zeros((q + 1, q + 1))
        Q[:-1, :-1] = Gc.T @ ws.P1 @ Gc
        beta = np.linalg.solve(X.T @ X + rho * Q, X.T @ C)
        np.testing.assert_allclose(
            afit.theta,
            (Gc @ beta[:-1]).reshape(ws.c, ws.c, order="F"),
            rtol=1e-10,
            atol=1e-12,
        )


def test_criterion_04_spectral_reconstruction_and_orthonormality(small_fit):
    desc = "eigenpairs reconstruct every surface; eigenvectors and functions orthonormal"
    with criterion(4, desc):
        _, _, fit = small_fit
        eig = fit.eig
        grid = np.linspace(*fit.model.ws.domain, 20)
        p = fit.model.p

        # raw spectrum (all components) reconstructs the raw blocks
        raw_psi = np.stack(
            [
                np.stack([eval_eigenfunction(eig, ell, k, grid) for k in range(p)])
                for ell in range(eig.d.size)
            ]
        )
        for k in range(p):
            for kp in range(p):
                rec = np.einsum("l,lg,lh->gh", eig.d, raw_psi[:, k, :], raw_psi[:, kp, :])
                surf = eval_covariance(fit.raw_model, k, kp, grid, grid)
                scale = max(np.abs(surf).max(), 1.0)
                np.testing.assert_allclose(rec, surf, rtol=0, atol=1e-8 * scale)
        # positive part reconstructs the refined blocks
        pos = eig.d > 0
        for k in range(p):
            for kp in range(p):
                rec = np.einsum(
                    "l,lg,lh->gh", eig.d[pos], raw_psi[pos, k, :], raw_psi[pos, kp, :]
                )
                surf = eval_covariance(fit.model, k, kp, grid, grid)
                scale = max(np.abs(surf).max(), 1.0)
                np.testing.assert_allclose(rec, surf, rtol=0, atol=1e-8 * scale)

        gram = eig.U.T @ eig.U
        np.testing.assert_allclose(gram, np.eye(eig.U.shape[1]), rtol=0, atol=1e-10)

        fine = np.linspace(*fit.model.ws.domain, 2001)
        psi = np.stack(
            [
                np.stack([eval_eigenfunction(eig, ell, k, fine) for k in range(p)])
                for ell in range(eig.d.size)
            ]
        )
        prods = np.einsum("lkg,mkg->lmg", psi, psi)
        l2 = scipy.integrate.simpson(prods, x=fine, axis=-1)
        np.testing.assert_allclose(l2, np.eye(eig.d.size), rtol=0, atol=1e-6)


def test_criterion_05_refined_models_are_psd_with_bounded_correlation(study, small_fit):
    desc = "every refined fit is PSD up to tolerance and satisfies the correlation bound"
    with criterion(5, desc):
        results, _ = study
        for rows in results.values():
            for row in rows:
                assert row["min_whitened_eig"] >= -1e-10 * row["d1_hat"]

        _, _, fit = small_fit
        grid = np.linspace(*fit.model.ws.domain, 30)
        p = fit.model.p
        diags = [
            np.clip(np.diag(eval_covariance(fit.model, k, k, grid, grid)), 0.0, None)
            for k in range(p)
        ]
        for k in range(p):
            for kp in range(p):
                if k == kp:
                    continue
                cross = eval_covariance(fit.model, k, kp, grid, grid)
                bound = np.outer(diags[k], diags[kp])
                assert np.all(cross**2 <= bound + 1e-8)


def test_criterion_06_true_design_spectrum():
    desc = "true design: component shares, exactly nine components, PSD operator"
    with criterion(6, desc):
        vals9, _, _ = oracles.fine_grid_truth(0.9)
        share9 = vals9[:2].sum() / vals9[:9].sum()
        assert abs(share9 - 0.80) <= 0.05
        vals5, _, _ = oracles.fine_grid_truth(0.5)
        share5 = vals5[:2].sum() / vals5[:9].sum()
        assert abs(share5 - 0.60) <= 0.05

        for vals in (vals9, vals5):
            assert int(np.sum(vals > 1e-8 * vals[0])) == 9

        grid = np.linspace(0.0, 1.0, 40)
        for rho in (0.5, 0.9):
            M = np.block(
                [
                    [true_covariance(rho, k, kp, grid, grid) for kp in range(3)]
                    for k in range(3)
                ]
            )
            assert np.linalg.eigvalsh(M).min() >= -1e-8


def test_criterion_07_estimation_improves_with_sample_size(study):
    desc = "surface error falls with n; top component well estimated at n = 200"
    with criterion(7, desc):
        results, elapsed = study
        rise = [median(results[n], "rise") for n in N_GRID]
        assert rise[0] > rise[1] > rise[2], rise
        assert 0.7 <= median(results[200], "ratio_1") <= 1.3
        assert median(results[200], "ise_1") < median(results[50], "ise_1")
        assert elapsed < 600.0, f"study took {elapsed:.1f}s"


def test_criterion_08_cross_covariance_improves_prediction(study):
    desc = "full model predicts held-out curves better than a cross-free one"
    with criterion(8, desc):
        results, _ = study
        full = median(results[200], "mise")
        crossfree = median(results[200], "mise_zero_cross")
        assert full < crossfree, (full, crossfree)


def test_criterion_09_prediction_matches_direct_conditioning():
    desc = "subject predictions match direct joint-Gaussian conditioning; exact bands"
    with criterion(9, desc):
        model = make_psd_model(seed=900, p=2, n_interior=1, sigma2=0.4)
        rng = np.random.default_rng(901)
        model.means = [
            spline_mean(model.ws, 2.0 * rng.standard_normal(model.ws.c)) for _ in range(2)
        ]
        eig = eigendecompose(model)
        obs_t = [np.sort(rng.random(2)), np.sort(rng.random(3))]
        obs_v = [rng.standard_normal(2), rng.standard_normal(3)]
        new = np.linspace(0.0, 1.0, 4)
        pred = predict_subject(model, eig, obs_t, obs_v, new)

        C_oo = np.block(
            [
                [
                    eval_covariance(model, k, kp, obs_t[k], obs_t[kp])
                    for kp in range(2)
                ]
                for k in range(2)
            ]
        )
        C_oo += np.diag(np.repeat(model.sigma2, [2, 3]))
        C_no = np.block(
            [
                [eval_covariance(model, k, kp, new, obs_t[kp]) for kp in range(2)]
                for k in range(2)
            ]
        )
        C_nn = np.block(
            [
                [eval_covariance(model, k, kp, new, new) for kp in range(2)]
                for k in range(2)
            ]
        )
        mu_new = np.concatenate([model.means[k](new) for k in range(2)])
        mu_obs = np.concatenate([model.means[k](obs_t[k]) for k in range(2)])
        y = np.concatenate(obs_v)
        xhat_ref, cov_ref = oracles.gauss_condition(mu_new, mu_obs, C_nn, C_no, C_oo, y)
        np.testing.assert_allclose(pred.xhat.ravel(), xhat_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(pred.cov, cov_ref, rtol=0, atol=1e-8)

        se = np.sqrt(np.clip(np.diag(pred.cov), 0.0, None)).reshape(pred.xhat.shape)
        np.testing.assert_array_equal(pred.lower, pred.xhat - 1.96 * se)
        np.testing.assert_array_equal(pred.upper, pred.xhat + 1.96 * se)


def test_criterion_10_identical_runs_are_byte_identical(tmp_path, capsys):
    desc = "identical configuration and seed give byte-identical metric files"
    with criterion(10, desc):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "n": 12,
                    "replicates": 2,
                    "n_test": 4,
                    "seed": 3,
                    "n_interior_mean": 2,
                    "n_interior_cov": 2,
                    "grid_size": 31,
                }
            )
        )
        for name in ("a", "b"):
            code = cli_main(
                ["evaluate", "--out-dir", str(tmp_path / name), "--config", str(cfg)]
            )
            assert code == 0
            capsys.readouterr()
        for fname in ("metrics.csv", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()
