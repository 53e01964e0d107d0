"""Spectral analysis of the fitted covariance: eigensystem, PSD refinement."""

import numpy as np
import pytest

import funcov
from funcov import FuncovError, build_workspace
from funcov.fpca import (
    assemble_blocks,
    eigendecompose,
    eval_covariance,
    eval_eigenfunction,
    refine,
    stack_blocks,
    whitened_stack,
)

import oracles
from conftest import make_psd_model, zero_means, zero_model


def general_model(seed=5, p=2, n_interior=1, order=4):
    """Model with an indefinite whitened stack (raw, unrefined fit)."""
    rng = np.random.default_rng(seed)
    ws = build_workspace((0.0, 1.0), n_interior, order)
    c = ws.c
    upper = {}
    for k in range(p):
        for kp in range(k, p):
            T = rng.standard_normal((c, c))
            if kp == k:
                T = 0.5 * (T + T.T)
            upper[(k, kp)] = T
    return funcov.CovarianceModel(
        blocks=assemble_blocks(upper, p, c),
        sigma2=np.full(p, 0.2),
        means=zero_means(ws, p),
        ws=ws,
        refined=False,
        lambdas={},
        response_labels=[f"y{k + 1}" for k in range(p)],
    )


def test_identity_whitened_spectrum():
    # p = 1 with Theta = G^{-1}: whitened matrix is the identity
    ws = build_workspace((0.0, 1.0), 2, 4)
    blocks = np.linalg.inv(ws.G)[None, None]
    model = funcov.CovarianceModel(
        blocks=blocks,
        sigma2=np.array([0.1]),
        means=zero_means(ws, 1),
        ws=ws,
        refined=True,
        lambdas={},
        response_labels=["y1"],
    )
    eig = eigendecompose(model)
    np.testing.assert_allclose(eig.d, 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(eig.U.T @ eig.U, np.eye(ws.c), atol=1e-10)


def test_zero_blocks_zero_spectrum():
    model = zero_model(p=2)
    eig = eigendecompose(model)
    np.testing.assert_array_equal(eig.d, np.zeros_like(eig.d))
    np.testing.assert_array_equal(eig.pve_curve, np.zeros_like(eig.d))
    assert eig.npc == 0


def test_mercer_reconstruction_psd_model():
    # full-spectrum sum d_l psi_l^k(s) psi_l^kp(t) reproduces every surface
    model = make_psd_model(seed=1, p=2, n_interior=1, order=4)
    eig = eigendecompose(model)
    grid = np.linspace(0.0, 1.0, 20)
    for k in range(2):
        for kp in range(2):
            surf = eval_covariance(model, k, kp, grid, grid)
            acc = np.zeros_like(surf)
            for ell in range(eig.d.size):
                fk = eval_eigenfunction(eig, ell, k, grid)
                fkp = eval_eigenfunction(eig, ell, kp, grid)
                acc += eig.d[ell] * np.outer(fk, fkp)
            np.testing.assert_allclose(acc, surf, rtol=0, atol=1e-8)


def test_eigenvectors_orthonormal():
    model = general_model(seed=3, p=3)
    eig = eigendecompose(model)
    n = eig.U.shape[0]
    np.testing.assert_allclose(eig.U.T @ eig.U, np.eye(n), atol=1e-10)
    assert np.all(np.diff(eig.d) <= 1e-12)  # descending


def test_eigenfunctions_l2_orthonormal():
    # product-space inner product sum_k int psi_l^k psi_m^k = delta_lm
    from scipy.integrate import simpson

    model = make_psd_model(seed=9, p=2, n_interior=2, order=4)
    eig = eigendecompose(model)
    grid = np.linspace(0.0, 1.0, 2001)
    vals = np.stack(
        [
            np.stack([eval_eigenfunction(eig, ell, k, grid) for k in range(2)])
            for ell in range(6)
        ]
    )
    for ell in range(6):
        for m in range(6):
            ip = sum(
                float(simpson(vals[ell, k] * vals[m, k], x=grid)) for k in range(2)
            )
            assert ip == pytest.approx(1.0 if ell == m else 0.0, abs=1e-6)


def test_eigenfunction_sign_convention_and_linearity():
    model = general_model(seed=13, p=2)
    eig = eigendecompose(model)
    # convention: the largest-magnitude entry of each eigenvector is positive
    for ell in range(eig.d.size):
        col = eig.U[:, ell]
        assert col[np.argmax(np.abs(col))] > 0
    # flipping an eigenvector flips its function values exactly
    grid = np.linspace(0, 1, 7)
    base = eval_eigenfunction(eig, 2, 1, grid)
    flipped = eig.U.copy()
    flipped[:, 2] = -flipped[:, 2]
    eig2 = funcov.EigenSystem(
        d=eig.d, U=flipped, npc=eig.npc, pve=eig.pve,
        pve_curve=eig.pve_curve, ws=eig.ws, p=eig.p,
    )
    np.testing.assert_array_equal(eval_eigenfunction(eig2, 2, 1, grid), -base)


def spectrum_model(d):
    """p = 1 model whose whitened stack has the spectrum d (zero-padded to
    the basis size c = max(4, len(d)))."""
    ws = build_workspace((0.0, 1.0), max(1, len(d) - 3), 3)
    diag = np.zeros(ws.c)
    diag[: len(d)] = d
    Gi = ws.G_inv_half
    return funcov.CovarianceModel(
        blocks=(Gi @ np.diag(diag) @ Gi)[None, None],
        sigma2=np.array([0.1]),
        means=zero_means(ws, 1),
        ws=ws,
        refined=False,
        lambdas={},
        response_labels=["y1"],
    )


def test_select_npc_hand_cases():
    # the component count eigendecompose picks for a requested share
    def npc(d, pve):
        return eigendecompose(spectrum_model(d), pve).npc

    assert npc([1.0, 0.0, 0.0], 0.99) == 1
    assert npc([3.0, 1.5, 0.75], 0.5) == 1
    assert npc([3.0, 1.5, 0.75], 0.99) == 3
    # boundary: pve exactly at a cumulative share picks that component
    assert npc([1.0, 1.0, 2.0][::-1], 0.5) == 1
    with pytest.raises(FuncovError):
        npc([1.0, 0.5], 1.5)


def test_select_npc_truth_share():
    # the rho=0.9 design needs exactly two components for an 0.80 share
    d_true = np.linalg.eigvalsh(funcov.coupling_matrix(0.9))[::-1]
    eig = eigendecompose(spectrum_model(d_true), 0.80)
    np.testing.assert_allclose(eig.d[:9], d_true, rtol=1e-12)
    assert eig.npc == 2


def test_refine_noop_on_psd_model():
    model = make_psd_model(seed=21, p=2)
    eig = eigendecompose(model)
    assert np.all(eig.d > -1e-12)
    refined = refine(model, eig)
    np.testing.assert_allclose(refined.blocks, model.blocks, rtol=0, atol=1e-10)
    assert refined.refined


def test_refine_zero_model():
    model = zero_model(p=2)
    eig = eigendecompose(model)
    refined = refine(model, eig)
    np.testing.assert_array_equal(refined.blocks, model.blocks)


def test_refine_clips_negative_spectrum():
    model = general_model(seed=17, p=2)
    eig = eigendecompose(model)
    assert eig.d.min() < 0  # premise: the raw fit is indefinite
    refined = refine(model, eig)
    eig2 = eigendecompose(refined)
    pos = np.maximum(eig.d, 0.0)
    np.testing.assert_allclose(np.sort(eig2.d), np.sort(pos), rtol=0, atol=1e-10)
    assert eig2.d.min() >= -1e-10 * max(eig2.d[0], 1.0)


def test_refined_diagonal_nonnegative():
    model = general_model(seed=29, p=2)
    refined = refine(model, eigendecompose(model))
    grid = np.linspace(0, 1, 41)
    for k in range(2):
        surf = eval_covariance(refined, k, k, grid, grid)
        assert np.diag(surf).min() >= -1e-10


def test_refined_correlation_cauchy_schwarz():
    model = general_model(seed=33, p=3)
    refined = refine(model, eigendecompose(model))
    grid = np.linspace(0, 1, 25)
    diags = [np.diag(eval_covariance(refined, k, k, grid, grid)) for k in range(3)]
    for k in range(3):
        for kp in range(k + 1, 3):
            cross = eval_covariance(refined, k, kp, grid, grid)
            bound = np.sqrt(np.outer(diags[k], diags[kp]))
            assert np.all(np.abs(cross) <= bound + 1e-8)


def test_eval_covariance_symmetry_exact():
    model = general_model(seed=37, p=2)
    s = np.linspace(0.1, 0.9, 5)
    t = np.linspace(0.0, 1.0, 7)
    A = eval_covariance(model, 1, 0, s, t)
    B = eval_covariance(model, 0, 1, t, s)
    np.testing.assert_array_equal(A, B.T)


def test_eval_covariance_zero_model():
    model = zero_model(p=2)
    grid = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(
        eval_covariance(model, 0, 1, grid, grid), np.zeros((9, 9))
    )


def test_pve_curve_nondecreasing_reaches_one():
    for seed in (2, 5, 8):
        model = general_model(seed=seed, p=2)
        eig = eigendecompose(model)
        curve = eig.pve_curve
        assert np.all(np.diff(curve) >= -1e-15)
        assert curve[-1] == pytest.approx(1.0, abs=1e-12)


def test_round_trip_refine_preserves_positive_spectrum():
    model = make_psd_model(seed=41, p=2)
    eig = eigendecompose(model)
    again = eigendecompose(refine(model, eig))
    np.testing.assert_allclose(again.d, eig.d, rtol=0, atol=1e-8)


def test_whitened_stack_against_oracle_inverse_root():
    # independent G^{1/2} via scipy sqrtm
    model = general_model(seed=43, p=2)
    ws = model.ws
    import scipy.linalg

    Gh = np.real(scipy.linalg.sqrtm(ws.G))
    c = ws.c
    M = whitened_stack(model)
    for k in range(2):
        for kp in range(2):
            W = Gh @ model.blocks[k, kp] @ Gh
            np.testing.assert_allclose(
                M[k * c : (k + 1) * c, kp * c : (kp + 1) * c],
                0.5 * (W + (Gh @ model.blocks[kp, k] @ Gh).T),
                atol=1e-10,
            )


def test_assemble_and_stack_layout():
    rng = np.random.default_rng(47)
    c = 4
    upper = {(0, 0): rng.standard_normal((c, c)), (0, 1): rng.standard_normal((c, c)),
             (1, 1): rng.standard_normal((c, c))}
    blocks = assemble_blocks(upper, 2, c)
    np.testing.assert_array_equal(blocks[1, 0], upper[(0, 1)].T)
    with pytest.raises(FuncovError):
        assemble_blocks({(1, 0): np.zeros((c, c))}, 2, c)

    ws = build_workspace((0.0, 1.0), 1, 3)
    model = funcov.CovarianceModel(
        blocks=blocks, sigma2=np.zeros(2), means=zero_means(ws, 2), ws=ws,
        refined=False, lambdas={}, response_labels=["y1", "y2"],
    )
    S = stack_blocks(model)
    np.testing.assert_array_equal(S[:c, c:], upper[(0, 1)])
    np.testing.assert_array_equal(S[c:, :c], upper[(0, 1)].T)


def test_eigendecompose_rejects_non_finite():
    model = general_model(seed=49, p=2)
    model.blocks[0, 1][0, 0] = np.nan
    model.blocks[1, 0][0, 0] = np.nan
    with pytest.raises(FuncovError, match="non-finite"):
        eigendecompose(model)
    with pytest.raises(FuncovError):
        eigendecompose(general_model(), pve=0.0)


def test_component_index_validation():
    model = make_psd_model(seed=51, p=2)
    eig = eigendecompose(model)
    with pytest.raises(FuncovError):
        eval_eigenfunction(eig, eig.d.size, 0, [0.5])
    with pytest.raises(FuncovError):
        eval_eigenfunction(eig, 0, 2, [0.5])
