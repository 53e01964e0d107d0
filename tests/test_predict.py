"""Conditional-expectation curve prediction from sparse observations."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import funcov
from funcov import FuncovError
from funcov.fpca import eigendecompose, eval_eigenfunction, stack_blocks, whitened_stack
from funcov.predict import _normal_quantile, predict_batch, predict_subject
from funcov.splines import eval_basis_matrix

import oracles
from conftest import make_psd_model, spline_mean, zero_model


def with_means(model, seed=0, scale=2.0):
    """Replace the zero means with random spline curves."""
    rng = np.random.default_rng(seed)
    means = [spline_mean(model.ws, scale * rng.standard_normal(model.ws.c))
             for _ in range(model.p)]
    model.means = means
    return model


def test_zero_model_predicts_the_mean_with_zero_band():
    model = with_means(zero_model(p=2, sigma2=0.4), seed=3)
    eig = eigendecompose(model)
    new_times = np.linspace(0, 1, 6)
    obs_t = [np.array([0.2, 0.5]), np.array([0.7])]
    obs_v = [np.array([1.0, -1.0]), np.array([0.3])]
    res = predict_subject(model, eig, obs_t, obs_v, new_times)
    expected = np.vstack([model.means[k](new_times) for k in range(2)])
    np.testing.assert_allclose(res.xhat, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.cov, 0.0, atol=1e-12)
    np.testing.assert_array_equal(res.scores, np.zeros(0))
    np.testing.assert_allclose(res.lower, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.upper, expected, rtol=0, atol=1e-12)


def test_zero_residuals_predict_the_mean_curve():
    model = with_means(make_psd_model(seed=5, p=2), seed=5)
    eig = eigendecompose(model)
    obs_t = [np.array([0.1, 0.6, 0.8]), np.array([0.3, 0.9])]
    obs_v = [model.means[k](obs_t[k]) for k in range(2)]
    new_times = np.linspace(0, 1, 5)
    res = predict_subject(model, eig, obs_t, obs_v, new_times)
    expected = np.vstack([model.means[k](new_times) for k in range(2)])
    np.testing.assert_allclose(res.xhat, expected, rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.scores, 0.0, atol=1e-12)


def test_matches_joint_gaussian_conditioning_oracle():
    # p=2, m=(2,3), four new times, c=5: full brute-force conditioning
    model = with_means(make_psd_model(seed=7, p=2, n_interior=1, order=4), seed=7)
    eig = eigendecompose(model)
    ws = model.ws
    c = ws.c
    obs_t = [np.array([0.15, 0.7]), np.array([0.2, 0.55, 0.95])]
    rng = np.random.default_rng(17)
    obs_v = [model.means[k](obs_t[k]) + rng.standard_normal(obs_t[k].size)
             for k in range(2)]
    new_times = np.array([0.05, 0.35, 0.65, 0.9])

    res = predict_subject(model, eig, obs_t, obs_v, new_times)

    Theta = stack_blocks(model)
    Bn = np.kron(np.eye(2), eval_basis_matrix(ws, new_times))
    Bo = np.zeros((5, 2 * c))
    Bo[:2, :c] = eval_basis_matrix(ws, obs_t[0])
    Bo[2:, c:] = eval_basis_matrix(ws, obs_t[1])
    noise = np.concatenate([np.full(2, model.sigma2[0]), np.full(3, model.sigma2[1])])
    C_nn = Bn @ Theta @ Bn.T
    C_no = Bn @ Theta @ Bo.T
    C_oo = Bo @ Theta @ Bo.T + np.diag(noise)
    mu_new = np.concatenate([model.means[k](new_times) for k in range(2)])
    mu_obs = np.concatenate([model.means[k](obs_t[k]) for k in range(2)])
    y = np.concatenate(obs_v)
    xhat, cov = oracles.gauss_condition(mu_new, mu_obs, C_nn, C_no, C_oo, y)

    np.testing.assert_allclose(res.xhat.ravel(), xhat, rtol=1e-8)
    np.testing.assert_allclose(res.cov, cov, rtol=0, atol=1e-8)

    # scores equal the classical best linear predictor d_l psi_l(obs)' V^-1 r
    L = eig.npc
    Psi_obs = np.zeros((L, 5))
    for ell in range(L):
        Psi_obs[ell, :2] = eval_eigenfunction(eig, ell, 0, obs_t[0])
        Psi_obs[ell, 2:] = eval_eigenfunction(eig, ell, 1, obs_t[1])
    xi = (eig.d[:L, None] * Psi_obs) @ np.linalg.solve(C_oo, y - mu_obs)
    np.testing.assert_allclose(res.scores, xi, rtol=0, atol=1e-8)


def test_bands_are_mean_plus_minus_quantile_se():
    model = with_means(make_psd_model(seed=11, p=2), seed=11)
    eig = eigendecompose(model)
    obs_t = [np.array([0.3]), np.array([0.6, 0.7])]
    obs_v = [np.array([0.5]), np.array([-0.2, 0.9])]
    grid = np.linspace(0, 1, 8)
    res = predict_subject(model, eig, obs_t, obs_v, grid)
    se = np.sqrt(np.clip(np.diag(res.cov), 0.0, None)).reshape(2, grid.size)
    np.testing.assert_array_equal(res.upper, res.xhat + 1.96 * se)
    np.testing.assert_array_equal(res.lower, res.xhat - 1.96 * se)

    res80 = predict_subject(model, eig, obs_t, obs_v, grid, level=0.8)
    z = float(norm.ppf(0.9))
    np.testing.assert_array_equal(res80.upper, res80.xhat + z * se)


def test_normal_quantile_equals_norm_ppf_bit_for_bit():
    # the band's quantile comes from scipy.special.ndtri; scipy.stats is
    # the oracle (1.96 stays verbatim at 0.95)
    assert _normal_quantile(0.95) == 1.96
    for level in np.linspace(0.0, 1.0, 2001)[1:-1]:
        if level != 0.95:
            assert _normal_quantile(level) == float(norm.ppf(0.5 + level / 2)), level


def _loaded_after_banded_prediction(packages):
    """The modules of ``packages`` loaded in a fresh interpreter that
    imports funcov, fits and predicts with a band."""
    script = f"""
import sys
import numpy as np
import funcov
train, _ = funcov.generate(funcov.SimDesign(n=30, rho=0.5, seed=11, n_test=0))
res = funcov.fit_covariance_model(
    train, funcov.FitSettings(n_interior_mean=4, n_interior_cov=4, domain=(0.0, 1.0))
)
out = funcov.predict_subject(
    res.model, res.eig, [np.array([0.3]), np.array([0.6]), np.array([0.2, 0.7])],
    [np.array([0.5]), np.array([-0.2]), np.array([0.1, 0.9])], np.linspace(0, 1, 5), level=0.8,
)
assert np.all(out.upper > out.lower)
print(sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in {sorted(packages)!r}))
"""
    src = str(Path(funcov.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_banded_prediction_leaves_scipy_stats_unloaded():
    assert _loaded_after_banded_prediction(["scipy.stats"]) == "[]"


def test_fit_and_prediction_leave_scipy_interpolate_and_optimize_unloaded():
    # the basis is evaluated in numpy; scipy.interpolate would also load
    # scipy.optimize
    assert _loaded_after_banded_prediction(["scipy.interpolate", "scipy.optimize"]) == "[]"


def test_conditioning_never_inflates_variance():
    model = make_psd_model(seed=13, p=2)
    eig = eigendecompose(model)
    grid = np.linspace(0, 1, 10)
    prior = np.kron(np.eye(2), eval_basis_matrix(model.ws, grid))
    prior = prior @ stack_blocks(model) @ prior.T
    obs_t = [np.array([0.25, 0.75]), np.array([0.5])]
    obs_v = [np.array([1.0, -0.5]), np.array([0.2])]
    res = predict_subject(model, eig, obs_t, obs_v, grid)
    assert np.all(np.diag(res.cov) <= np.diag(prior) + 1e-8)


def test_unobserved_subject_gets_prior():
    model = with_means(make_psd_model(seed=19, p=2), seed=19)
    eig = eigendecompose(model)
    grid = np.linspace(0, 1, 5)
    res = predict_subject(model, eig, [np.zeros(0), np.zeros(0)], [np.zeros(0), np.zeros(0)], grid)
    expected = np.vstack([model.means[k](grid) for k in range(2)])
    np.testing.assert_array_equal(res.xhat, expected)
    prior = np.kron(np.eye(2), eval_basis_matrix(model.ws, grid))
    prior = prior @ stack_blocks(model) @ prior.T
    np.testing.assert_allclose(res.cov, 0.5 * (prior + prior.T), atol=1e-12)
    assert res.scores.shape == (eig.npc,)
    np.testing.assert_array_equal(res.scores, np.zeros(eig.npc))
    assert res.jitter == 0.0


def test_response_permutation_invariance():
    model = with_means(make_psd_model(seed=23, p=2), seed=23)
    eig = eigendecompose(model)
    perm = [1, 0]
    swapped = funcov.CovarianceModel(
        blocks=model.blocks[np.ix_(perm, perm)],
        sigma2=model.sigma2[perm],
        means=[model.means[1], model.means[0]],
        ws=model.ws,
        refined=model.refined,
        lambdas={},
        response_labels=["y2", "y1"],
    )
    eig_swapped = eigendecompose(swapped)
    obs_t = [np.array([0.2, 0.8]), np.array([0.4, 0.5, 0.9])]
    obs_v = [np.array([0.7, -0.1]), np.array([0.2, 0.3, -0.5])]
    grid = np.linspace(0, 1, 6)
    res = predict_subject(model, eig, obs_t, obs_v, grid)
    res_sw = predict_subject(
        swapped, eig_swapped, [obs_t[1], obs_t[0]], [obs_v[1], obs_v[0]], grid
    )
    np.testing.assert_allclose(res_sw.xhat, res.xhat[::-1], rtol=0, atol=1e-10)
    m = grid.size
    P = np.zeros((2 * m, 2 * m))
    P[:m, m:] = np.eye(m)
    P[m:, :m] = np.eye(m)
    np.testing.assert_allclose(res_sw.cov, P @ res.cov @ P.T, rtol=0, atol=1e-10)


def test_cross_blocks_inform_unobserved_response():
    model = make_psd_model(seed=29, p=2)
    eig = eigendecompose(model)
    grid = np.linspace(0, 1, 7)
    # subject observed only in the second response
    res = predict_subject(
        model, eig, [np.zeros(0), np.array([0.3, 0.6])], [np.zeros(0), np.array([2.0, -1.5])], grid
    )
    # with a nonzero cross block the first response moves off its (zero) mean
    assert np.max(np.abs(res.xhat[0])) > 1e-3


def test_jitter_applied_for_near_singular_observation_covariance():
    # engineer Theta so the observation covariance has a -1e-14 eigenvalue:
    # the first factorization must fail and the relative jitter must rescue it
    model = make_psd_model(seed=31, p=1, sigma2=0.0)
    ws = model.ws
    obs_t = [np.array([0.2, 0.5, 0.8])]
    Bo = eval_basis_matrix(ws, obs_t[0])
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V_target = Q @ np.diag([2.0, 1.0, -1e-14]) @ Q.T
    pinv = np.linalg.pinv(Bo)
    theta = pinv @ V_target @ pinv.T
    model.blocks[0, 0][:] = 0.5 * (theta + theta.T)
    eig = eigendecompose(model)

    obs_v = [np.array([1.0, -0.5, 0.25])]
    res = predict_subject(model, eig, obs_t, obs_v, np.linspace(0, 1, 4))
    assert res.jitter > 0.0
    assert np.all(np.isfinite(res.xhat)) and np.all(np.isfinite(res.cov))


def test_singular_even_after_jitter_raises():
    # a decisively indefinite observation covariance cannot be rescued
    model = make_psd_model(seed=33, p=1, sigma2=0.0)
    ws = model.ws
    obs_t = [np.array([0.2, 0.5, 0.8])]
    Bo = eval_basis_matrix(ws, obs_t[0])
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V_target = Q @ np.diag([2.0, 1.0, -0.5]) @ Q.T
    pinv = np.linalg.pinv(Bo)
    theta = pinv @ V_target @ pinv.T
    model.blocks[0, 0][:] = 0.5 * (theta + theta.T)
    eig = eigendecompose(model)
    with pytest.raises(FuncovError, match="singular even after jitter"):
        predict_subject(model, eig, obs_t, [np.array([1.0, -0.5, 0.25])], [0.5])


def test_score_count_control():
    model = make_psd_model(seed=37, p=2)
    eig = eigendecompose(model)
    obs_t = [np.array([0.5]), np.zeros(0)]
    obs_v = [np.array([1.0]), np.zeros(0)]
    grid = [0.2, 0.9]
    assert predict_subject(model, eig, obs_t, obs_v, grid).scores.shape == (eig.npc,)
    assert predict_subject(model, eig, obs_t, obs_v, grid, npc=3).scores.shape == (3,)
    assert predict_subject(model, eig, obs_t, obs_v, grid, npc=0).scores.shape == (0,)


@pytest.mark.parametrize("npc", [2.5, True, np.float64(3.9), "2"])
def test_non_integer_score_count_is_rejected(npc):
    # a fit rejects such an npc; prediction must not truncate it
    model = make_psd_model(seed=37, p=2)
    eig = eigendecompose(model)
    obs_t = [np.array([0.5]), np.zeros(0)]
    obs_v = [np.array([1.0]), np.zeros(0)]
    data = funcov.SparseFunctionalDataset(["a"], ["y1", "y2"], [obs_t], [obs_v])
    with pytest.raises(FuncovError, match="npc must be an integer"):
        predict_batch(model, eig, data, [0.2, 0.9], npc=npc)
    with pytest.raises(FuncovError, match="npc must be an integer"):
        predict_subject(model, eig, obs_t, obs_v, [0.5], npc=npc)
    assert predict_batch(model, eig, data, [0.2, 0.9], npc=np.int64(3)).scores.shape == (1, 3)


def test_validation_errors():
    model = make_psd_model(seed=41, p=2)
    eig = eigendecompose(model)
    good_t = [np.array([0.5]), np.zeros(0)]
    good_v = [np.array([1.0]), np.zeros(0)]
    with pytest.raises(FuncovError, match="observation arrays"):
        predict_subject(model, eig, [np.array([0.5])], good_v, [0.5])
    with pytest.raises(FuncovError, match="level"):
        predict_subject(model, eig, good_t, good_v, [0.5], level=1.0)
    with pytest.raises(FuncovError, match="out of range"):
        predict_subject(model, eig, good_t, good_v, [0.5], npc=99)
    with pytest.raises(FuncovError, match="mismatch"):
        predict_subject(model, eig, [np.array([0.5, 0.6]), np.zeros(0)], good_v, [0.5])
    with pytest.raises(FuncovError, match="grid is empty"):
        predict_subject(model, eig, good_t, good_v, [])


@pytest.mark.parametrize(
    "times, values",
    [([0.3, 0.6], [1.0, np.nan]), ([0.3, 0.6], [np.inf, 1.0]), ([0.3, np.nan], [1.0, 2.0])],
)
def test_non_finite_observation_is_rejected(times, values):
    # one non-finite time or value used to give all-NaN curves and scores;
    # a dataset rejects the same input
    model = make_psd_model(seed=43, p=2)
    eig = eigendecompose(model)
    obs_t = [np.zeros(0), np.array(times)]
    obs_v = [np.zeros(0), np.array(values)]
    with pytest.raises(FuncovError, match="non-finite"):
        predict_subject(model, eig, obs_t, obs_v, [0.5])


def dense_condition(model, obs_t, obs_v, new_t):
    """Direct joint-Gaussian conditioning of one subject, every covariance
    materialized; ``new_t[k]`` lists the new times of response k."""
    p, ws = model.p, model.ws
    Theta = stack_blocks(model)

    def design(times):
        rows = [eval_basis_matrix(ws, t) for t in times]
        out = np.zeros((sum(r.shape[0] for r in rows), p * ws.c))
        start = 0
        for k, r in enumerate(rows):
            out[start : start + r.shape[0], k * ws.c : (k + 1) * ws.c] = r
            start += r.shape[0]
        return out

    Bo, Bn = design(obs_t), design(new_t)
    noise = np.concatenate([np.full(len(t), model.sigma2[k]) for k, t in enumerate(obs_t)])
    C_oo = Bo @ Theta @ Bo.T + np.diag(noise)
    mu_new = np.concatenate([model.means[k](t) for k, t in enumerate(new_t)])
    mu_obs = np.concatenate([model.means[k](np.asarray(t, float)) for k, t in enumerate(obs_t)])
    y = np.concatenate([np.asarray(v, float) for v in obs_v])
    return oracles.gauss_condition(
        mu_new, mu_obs, Bn @ Theta @ Bn.T, Bn @ Theta @ Bo.T, C_oo, y
    )


def mixed_batch():
    """An unrefined, indefinite two-response model (noise-free second
    response) and subjects covering every conditioning case."""
    model = make_psd_model(seed=44, p=2, n_interior=1)
    model = with_means(model, seed=44)
    model.blocks[0, 1] *= 2.0
    model.blocks[1, 0] = model.blocks[0, 1].T
    model.refined = False
    model.sigma2 = np.array([0.3, 0.0])
    rng = np.random.default_rng(45)
    times = {
        "both": ([0.1, 0.6], [0.35]),
        "y1_only": ([0.2, 0.45, 0.9], []),  # missing the second response
        "none": ([], []),  # gets the prior
        # a noise-free repeat makes V exactly singular: jitter
        "repeat": ([], [0.3, 0.3, 0.75]),
        "y2_only": ([], [0.55]),
    }
    labels = list(times)
    obs_t = [[np.array(t, float) for t in times[s]] for s in labels]
    obs_v = [[rng.standard_normal(t.size) for t in row] for row in obs_t]
    obs_v[3][1][1] = obs_v[3][1][0]
    return model, labels, obs_t, obs_v


def batch_of(labels, obs_t, obs_v, keep):
    return funcov.SparseFunctionalDataset(
        [labels[i] for i in keep], ["y1", "y2"],
        [obs_t[i] for i in keep], [obs_v[i] for i in keep],
    )


def check_against_dense_condition(model, labels, obs_t, obs_v, grid):
    """Predict a mixed batch on ``grid`` and at observed times and compare
    every subject with :func:`dense_condition`."""
    eig = eigendecompose(model)
    data = batch_of(labels, obs_t, obs_v, range(len(labels)))
    res = predict_batch(model, eig, data, grid, full_cov=True)

    assert [lab for lab, j in zip(labels, res.jitter) if j > 0] == ["repeat"]
    # the noise-free repeat carries no information: the oracle conditions on
    # the observation once
    rep = labels.index("repeat")
    oracle_t, oracle_v = list(obs_t), list(obs_v)
    oracle_t[rep] = [obs_t[rep][0], obs_t[rep][1][1:]]
    oracle_v[rep] = [obs_v[rep][0], obs_v[rep][1][1:]]
    for i in range(len(labels)):
        xhat, cov = dense_condition(model, oracle_t[i], oracle_v[i], [grid, grid])
        np.testing.assert_allclose(res.xhat[i].ravel(), xhat, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.cov[i], cov, rtol=0, atol=1e-8)
        var = np.clip(np.diag(cov), 0.0, None)
        np.testing.assert_allclose(res.var[i].ravel(), var, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(np.diag(res.cov[i]).clip(0.0), res.var[i].ravel())
    none = labels.index("none")
    mu = np.vstack([model.means[k](grid) for k in range(2)])
    np.testing.assert_array_equal(res.xhat[none], mu)
    np.testing.assert_array_equal(res.scores[none], np.zeros(eig.npc))

    # the same path at each subject's own times, without covariances
    obs = predict_batch(model, eig, data)
    start = 0
    for k in range(2):
        t_k, _, counts = data.pooled(k)
        owner = np.repeat(np.arange(len(labels)), counts)
        for r, (t, i) in enumerate(zip(t_k, owner), start=start):
            xhat, cov = dense_condition(model, oracle_t[i], oracle_v[i], [[t], [t]])
            np.testing.assert_allclose(obs.xhat[:, r], xhat, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(obs.var[:, r], np.diag(cov).clip(0.0), atol=1e-8)
        start += t_k.size


def test_batch_matches_direct_conditioning_for_every_subject():
    model, labels, obs_t, obs_v = mixed_batch()
    assert np.linalg.eigvalsh(whitened_stack(model))[0] < -0.1  # indefinite
    check_against_dense_condition(model, labels, obs_t, obs_v, np.linspace(0.0, 1.0, 7))


def test_means_on_another_workspace_match_direct_conditioning():
    # the means live on a finer basis than the covariance (3 interior knots
    # against 1), so they are evaluated apart from the model's basis
    model, labels, obs_t, obs_v = mixed_batch()
    ws_mean = funcov.build_workspace(model.ws.domain, 3, model.ws.order)
    rng = np.random.default_rng(46)
    model.means = [spline_mean(ws_mean, 2.0 * rng.standard_normal(ws_mean.c)) for _ in range(2)]
    check_against_dense_condition(model, labels, obs_t, obs_v, np.linspace(0.0, 1.0, 7))


def test_equal_but_distinct_mean_workspace_predicts_bit_for_bit():
    model, labels, obs_t, obs_v = mixed_batch()
    eig = eigendecompose(model)
    twin_ws = funcov.build_workspace(model.ws.domain, model.ws.n_interior, model.ws.order)
    twin = replace(model, means=[spline_mean(twin_ws, mean.alpha) for mean in model.means])
    assert twin.means[0].ws is not twin.ws
    data = batch_of(labels, obs_t, obs_v, range(len(labels)))
    grid = np.linspace(0.0, 1.0, 9)
    for kwargs in (dict(times=grid, full_cov=True), dict()):
        shared = predict_batch(model, eig, data, **kwargs)
        apart = predict_batch(twin, eig, data, **kwargs)
        for name in ("xhat", "var", "lower", "upper", "cov", "scores", "jitter"):
            np.testing.assert_array_equal(getattr(apart, name), getattr(shared, name))


def subject_parts(res, data):
    """Each subject's share of a batch prediction: its row of every field,
    or at observed times its pooled columns of the pointwise fields."""
    n = data.n_subjects
    if res.cov is not None:  # a grid with full covariances
        names = ("xhat", "var", "lower", "upper", "cov", "scores", "jitter")
        return [{name: getattr(res, name)[i] for name in names} for i in range(n)]
    owner = np.concatenate(
        [np.repeat(np.arange(n), data.pooled(k)[2]) for k in range(data.n_responses)]
    )
    names = ("times", "xhat", "var", "lower", "upper")
    return [
        {**{name: getattr(res, name)[..., owner == i] for name in names},
         "scores": res.scores[i], "jitter": res.jitter[i]}
        for i in range(n)
    ]


@pytest.mark.parametrize("mode", ["grid", "observed"])
def test_batch_subjects_are_independent_bit_for_bit(mode):
    model, labels, obs_t, obs_v = mixed_batch()
    eig = eigendecompose(model)
    grid = np.linspace(0.0, 1.0, 9)
    n = len(labels)

    def run(keep):
        # on the grid with full covariances, or at observed times with a band
        data = batch_of(labels, obs_t, obs_v, keep)
        kwargs = dict(times=grid, full_cov=True) if mode == "grid" else {}
        res = predict_batch(model, eig, data, **kwargs)
        return res, subject_parts(res, data)

    full, full_parts = run(range(n))

    def check(parts, keep):
        assert len(parts) == len(keep)
        for part, i in zip(parts, keep):
            assert part.keys() == full_parts[i].keys()
            for name, value in part.items():
                np.testing.assert_array_equal(value, full_parts[i][name], err_msg=name)

    perm = [3, 0, 4, 2, 1]
    check(run(perm)[1], perm)

    # without the jittered subject the others are unchanged, bit for bit
    rest = [i for i in range(n) if labels[i] != "repeat"]
    without, without_parts = run(rest)
    assert np.all(without.jitter == 0.0)
    check(without_parts, rest)
    if mode == "observed":
        return

    # predict_subject is the batch path on one subject
    for i in range(n):
        one = predict_subject(model, eig, obs_t[i], obs_v[i], grid)
        for name in ("xhat", "lower", "upper", "cov", "scores", "jitter"):
            np.testing.assert_array_equal(getattr(one, name), getattr(full, name)[i])


def test_batch_without_band_skips_variance():
    model, labels, obs_t, obs_v = mixed_batch()
    eig = eigendecompose(model)
    data = batch_of(labels, obs_t, obs_v, range(len(labels)))
    grid = np.linspace(0.0, 1.0, 5)
    banded = predict_batch(model, eig, data, grid)
    bare = predict_batch(model, eig, data, grid, level=None)
    assert bare.var is None and bare.lower is None and bare.upper is None and bare.cov is None
    assert banded.cov is None
    np.testing.assert_array_equal(bare.xhat, banded.xhat)
    np.testing.assert_array_equal(bare.scores, banded.scores)
    with pytest.raises(FuncovError, match="shared grid"):
        predict_batch(model, eig, data, full_cov=True)
    with pytest.raises(FuncovError, match="responses"):
        predict_batch(make_psd_model(seed=1, p=3, n_interior=1), eig, data, grid)
