"""Shared builders for the test suite."""

import numpy as np
import pytest

import funcov
from funcov.mean import MeanFit
from funcov.splines import eval_basis_matrix

import oracles


def make_dataset(rng, n=10, p=2, m_range=(2, 5), domain=(0.0, 1.0), labels=None):
    """Random long-format dataset; every subject observes every response."""
    a, b = domain
    labels = labels or [f"y{k + 1}" for k in range(p)]
    subjects, responses, times, values = [], [], [], []
    for i in range(n):
        sid = f"s{i:03d}"
        for k in range(p):
            m = int(rng.integers(m_range[0], m_range[1] + 1))
            t = a + (b - a) * rng.random(m)
            v = rng.standard_normal(m)
            subjects += [sid] * m
            responses += [labels[k]] * m
            times += list(t)
            values += list(v)
    return funcov.SparseFunctionalDataset.from_long(subjects, responses, times, values)


def basis_at(ws, t):
    """Basis vector b(t) of length c at a single time."""
    return eval_basis_matrix(ws, [t])[0]


def spline_mean(ws, alpha):
    """MeanFit with a fixed coefficient vector (no smoothing selection)."""
    return MeanFit(alpha=np.asarray(alpha, dtype=float), tau=1.0, cv_curve=None, ws=ws)


def zero_means(ws, p):
    return [spline_mean(ws, np.zeros(ws.c)) for _ in range(p)]


def dense_aux(data, means, ws, k, kp):
    """(C, B, Z, slices) of response pair (k, kp) from the double-loop
    oracle: the stacked products and the dense design rows."""
    def residuals(r):
        obs = [data.obs(i, r) for i in range(data.n_subjects)]
        return [t for t, _ in obs], [v - means[r](t) for t, v in obs]

    times_k, resid_k = residuals(k)
    times_kp, resid_kp = residuals(kp)
    return oracles.aux_double_loop(
        times_k, resid_k, times_kp, resid_kp, lambda t: basis_at(ws, t), ws.c, auto=k == kp
    )


def pair_mask(block):
    """(n, m', m) mask of an AuxBlock's observed pairs. Boolean indexing
    with it visits the pairs in the double-loop oracle's order: subject by
    subject, the second response's index j2 slowest and j1 fastest."""
    j1, j2 = np.arange(block.C.shape[1]), np.arange(block.C.shape[2])
    return (j2[:, None] < block.mp[:, None, None]) & (j1 < block.m[:, None, None])


def stack_products(block, flat):
    """Products in the double-loop oracle's flat order, laid out in the
    block's zero-padded (n, m, m') stack."""
    n, m, mp = block.C.shape
    out = np.zeros((n, mp, m))
    out[pair_mask(block)] = flat
    return out.transpose(0, 2, 1)


def block_lambdas(p):
    """Smoothing levels for every block pair, as a fit records them."""
    return {(k, kp): (1.0,) if k == kp else (0.5, 0.5) for k in range(p) for kp in range(k, p)}


def make_psd_model(seed=0, p=2, n_interior=1, order=4, domain=(0.0, 1.0), scale=1.0, sigma2=0.3):
    """Random covariance model whose whitened stack is PSD by construction."""
    rng = np.random.default_rng(seed)
    ws = funcov.build_workspace(domain, n_interior, order)
    c = ws.c
    A = rng.standard_normal((p * c, p * c))
    W = scale * (A @ A.T) / (p * c)
    Gi = ws.G_inv_half
    upper = {}
    for k in range(p):
        for kp in range(k, p):
            T = Gi @ W[k * c : (k + 1) * c, kp * c : (kp + 1) * c] @ Gi
            if kp == k:
                T = 0.5 * (T + T.T)
            upper[(k, kp)] = T
    blocks = funcov.assemble_blocks(upper, p, c)
    return funcov.CovarianceModel(
        blocks=blocks,
        sigma2=np.full(p, float(sigma2)),
        means=zero_means(ws, p),
        ws=ws,
        refined=True,
        lambdas=block_lambdas(p),
        response_labels=[f"y{k + 1}" for k in range(p)],
    )


def zero_model(p=2, n_interior=1, order=4, domain=(0.0, 1.0), sigma2=0.5):
    """Model with all coefficient blocks identically zero."""
    ws = funcov.build_workspace(domain, n_interior, order)
    c = ws.c
    blocks = np.zeros((p, p, c, c))
    return funcov.CovarianceModel(
        blocks=blocks,
        sigma2=np.full(p, float(sigma2)),
        means=zero_means(ws, p),
        ws=ws,
        refined=True,
        lambdas=block_lambdas(p),
        response_labels=[f"y{k + 1}" for k in range(p)],
    )


@pytest.fixture(scope="session")
def small_fit():
    """One end-to-end fit on simulated data, shared by read-only tests."""
    design = funcov.SimDesign(n=30, rho=0.5, snr=2.0, seed=11, n_test=5)
    train, truth = funcov.generate(design)
    settings = funcov.FitSettings(n_interior_mean=4, n_interior_cov=4, domain=(0.0, 1.0))
    fit = funcov.fit_covariance_model(train, settings)
    return train, truth, fit
