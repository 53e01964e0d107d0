"""Simulation harness: a trivariate sparse functional design with known truth.

The generating process has three responses on [0, 1]. Each response pair
shares latent structure through a rank-9 covariance operator built from
three trigonometric feature triples; a single parameter ``rho`` in [0, 1]
scales every cross-covariance block, so the absolute cross-correlation
never exceeds ``rho``. Scores are Gaussian, observation times are uniform
and sparse, and the noise level is set through a signal-to-noise ratio.

Everything downstream of the design is reproducible: generation uses a
counter-based generator (Philox) keyed by the design seed, and the same
seed yields bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import eigh_desc
from .dataset import SparseFunctionalDataset
from .errors import FuncovError
from .fpca import eval_covariance, eval_eigenfunction
# predict_subject stays importable from here: the benchmark's tracer
# (bench/tracing.py) wraps it under this module's name.
from .predict import predict_batch, predict_subject  # noqa: F401

P = 3

# Per-response diagonal weights of the latent feature triples.
LAMBDA = np.array(
    [
        [3.0, 1.5, 0.75],
        [3.5, 1.75, 0.5],
        [2.5, 2.0, 1.0],
    ]
)


def mean_function(k: int, t) -> np.ndarray:
    """True mean of response k."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return 5.0 * np.sin(2 * np.pi * t)
    if k == 1:
        return 5.0 * np.cos(2 * np.pi * t)
    if k == 2:
        return 5.0 * (t - 1.0) ** 2
    raise FuncovError(f"response index {k} out of range")


def feature_triple(k: int, t) -> np.ndarray:
    """Orthonormal feature functions of response k, shape (3, len(t))."""
    t = np.asarray(t, dtype=float)
    s2 = np.sqrt(2.0)
    if k == 0:
        rows = [np.sin(2 * np.pi * t), np.cos(4 * np.pi * t), np.sin(4 * np.pi * t)]
    elif k == 1:
        rows = [np.cos(np.pi * t), np.cos(2 * np.pi * t), np.cos(3 * np.pi * t)]
    elif k == 2:
        rows = [np.sin(np.pi * t), np.sin(2 * np.pi * t), np.sin(3 * np.pi * t)]
    else:
        raise FuncovError(f"response index {k} out of range")
    return s2 * np.vstack(rows)


def true_covariance(rho: float, k: int, kp: int, s, t) -> np.ndarray:
    """True covariance surface of responses (k, kp) on the grid s x t."""
    Fs = feature_triple(k, np.atleast_1d(s))
    Ft = feature_triple(kp, np.atleast_1d(t))
    if k == kp:
        return Fs.T @ (LAMBDA[k][:, None] * Ft)
    w = np.sqrt(LAMBDA[k]) * np.sqrt(LAMBDA[kp])
    return rho * Fs.T @ (w[:, None] * Ft)


def coupling_matrix(rho: float) -> np.ndarray:
    """9 x 9 score covariance inducing the surfaces of :func:`true_covariance`.

    Because the feature triples are orthonormal within each response and
    the responses occupy separate coordinates, the nonzero spectrum of
    the covariance operator equals the spectrum of this matrix.
    """
    lam = LAMBDA.ravel()
    root = np.sqrt(lam)
    A = rho * np.outer(root, root)
    # features only pair up across responses at equal triple index
    triple = np.tile(np.arange(3), P)
    A[triple[:, None] != triple[None, :]] = 0.0
    np.fill_diagonal(A, lam)
    return A


@dataclass(frozen=True)
class SimDesign:
    """Parameters of one simulated dataset."""

    n: int
    rho: float = 0.5
    snr: float = 2.0
    m_min: int = 3
    m_max: int = 7
    seed: object = 0
    n_test: int = 200

    def __post_init__(self):
        if self.n < 1:
            raise FuncovError("need at least one training subject")
        if not 0.0 <= self.rho <= 1.0:
            raise FuncovError(f"rho must lie in [0, 1], got {self.rho}")
        if not self.snr > 0:
            raise FuncovError("snr must be positive")
        if not 1 <= self.m_min <= self.m_max:
            raise FuncovError("need 1 <= m_min <= m_max")
        if self.n_test < 0:
            raise FuncovError("n_test must be nonnegative")


@dataclass
class GroundTruth:
    """Exact generating quantities retained next to a simulated dataset.

    ``d`` and ``V`` are the eigenvalues (descending) and eigenvectors of
    the 9 x 9 score coupling matrix; eigenfunction ell of response k is
    ``feature_triple(k, t)' V[3k:3k+3, ell]``. Test subjects keep their
    sparse noisy observations (``test_data``) and their exact score
    vectors, so true curves can be evaluated anywhere.
    """

    rho: float
    sigma_eps2: float
    d: np.ndarray
    V: np.ndarray
    train_scores: np.ndarray
    test_scores: np.ndarray
    test_data: SparseFunctionalDataset | None

    def eigenfunction(self, ell: int, k: int, t) -> np.ndarray:
        return feature_triple(k, t).T @ self.V[3 * k : 3 * k + 3, ell]

    def covariance(self, k: int, kp: int, s, t) -> np.ndarray:
        return true_covariance(self.rho, k, kp, s, t)

    def curve(self, scores: np.ndarray, k: int, t) -> np.ndarray:
        """True curve of response k at times t.

        ``scores`` of shape (9,) gives one subject's curve, shape (m,);
        a stack of shape (n, 9) gives n curves, shape (n, m).
        """
        loadings = scores @ self.V[3 * k : 3 * k + 3, :].T
        return mean_function(k, t) + loadings @ feature_triple(k, t)


def noise_variance(d: np.ndarray, snr: float) -> float:
    """Noise variance that sets the signal-to-noise ratio to ``snr``.

    The signal variance is the total positive score variance ``d``,
    averaged over the P responses.
    """
    return float(np.clip(d, 0.0, None).sum() / (P * snr))


def generate(design: SimDesign):
    """Simulate a training dataset plus ground truth (with test subjects).

    Draw order is fixed: for each subject (training first, then test)
    the 9 scores, then per response the observation count, the times and
    the noise. Identical seeds give bit-identical output.

    Returns
    -------
    (SparseFunctionalDataset, GroundTruth)
    """
    seed = design.seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    d, V = eigh_desc(coupling_matrix(design.rho))
    sigma_eps2 = noise_variance(d, design.snr)
    sd = np.sqrt(np.clip(d, 0.0, None))
    noise_sd = np.sqrt(sigma_eps2)

    def draw_subjects(count):
        scores = np.empty((count, 9))
        times = []
        values = []
        for i in range(count):
            xi = rng.standard_normal(9) * sd
            scores[i] = xi
            t_row, v_row = [], []
            for k in range(P):
                m = int(rng.integers(design.m_min, design.m_max + 1))
                t = rng.random(m)
                mean_k = mean_function(k, t)
                curve = mean_k + feature_triple(k, t).T @ (V[3 * k : 3 * k + 3] @ xi)
                v = curve + noise_sd * rng.standard_normal(m)
                t_row.append(t)
                v_row.append(v)
            times.append(t_row)
            values.append(v_row)
        return scores, times, values

    train_scores, train_t, train_v = draw_subjects(design.n)
    labels = [f"s{i:04d}" for i in range(design.n)]
    responses = [f"y{k + 1}" for k in range(P)]
    train = SparseFunctionalDataset(labels, responses, train_t, train_v)

    test_data = None
    test_scores = np.zeros((0, 9))
    if design.n_test > 0:
        test_scores, test_t, test_v = draw_subjects(design.n_test)
        test_labels = [f"t{i:04d}" for i in range(design.n_test)]
        test_data = SparseFunctionalDataset(test_labels, responses, test_t, test_v)

    truth = GroundTruth(
        rho=design.rho,
        sigma_eps2=sigma_eps2,
        d=d,
        V=V,
        train_scores=train_scores,
        test_scores=test_scores,
        test_data=test_data,
    )
    return train, truth


def _trapz_grid(grid_size: int):
    """Uniform grid on [0, 1] and its trapezoid weights."""
    if grid_size < 2:
        raise FuncovError(f"a trapezoid grid needs at least 2 points, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return grid, w


def rise(model, truth: GroundTruth, grid_size: int = 101) -> float:
    """Relative integrated squared error of all covariance surfaces.

    Sum over all (k, kp) pairs of the integrated squared error, divided
    by the same sum with the estimate replaced by zero.
    """
    grid, w = _trapz_grid(grid_size)
    W = np.outer(w, w)
    num = 0.0
    den = 0.0
    for k in range(P):
        for kp in range(P):
            true_surf = truth.covariance(k, kp, grid, grid)
            est_surf = eval_covariance(model, k, kp, grid, grid)
            num += float((W * (true_surf - est_surf) ** 2).sum())
            den += float((W * true_surf**2).sum())
    return num / den


def ise(eig, truth: GroundTruth, ell: int, grid_size: int = 101) -> float:
    """Integrated squared error of eigenfunction ell, minimized over sign.

    Lies in [0, 2] when both the estimate and the truth have unit norm.
    """
    grid, w = _trapz_grid(grid_size)
    same = 0.0
    flipped = 0.0
    for k in range(P):
        est = eval_eigenfunction(eig, ell, k, grid)
        tru = truth.eigenfunction(ell, k, grid)
        same += float(w @ (tru - est) ** 2)
        flipped += float(w @ (tru + est) ** 2)
    return min(same, flipped)


def eigenvalue_ratio(eig, truth: GroundTruth, ell: int) -> float:
    """Estimated over true eigenvalue for component ell."""
    return float(eig.d[ell] / truth.d[ell])


def mise(model, eig, truth: GroundTruth, grid_size: int = 101, npc=None) -> float:
    """Mean integrated squared prediction error over the test subjects.

    Each test subject is predicted on a uniform grid from its own sparse
    noisy observations; errors are integrated against the true curves
    and averaged over subjects and responses.
    """
    if truth.test_data is None or truth.test_data.n_subjects == 0:
        raise FuncovError("ground truth carries no test subjects")
    grid, w = _trapz_grid(grid_size)
    data = truth.test_data
    pred = predict_batch(model, eig, data, grid, npc=npc, level=None)
    total = 0.0
    for k in range(P):
        err = truth.curve(truth.test_scores, k, grid) - pred.xhat[:, k]
        total += float(((err**2) @ w).sum())
    return total / (data.n_subjects * P)


def ape(model, eig, data, npc=None) -> np.ndarray:
    """Average squared prediction error at the observed points, per response.

    For each response k this is the subject average of the within-subject
    mean of ``(y - yhat)^2``; subjects unobserved in k are skipped.
    """
    p = data.n_responses
    pred = predict_batch(model, eig, data, npc=npc, level=None)
    out = np.zeros(p)
    start = 0
    for k in range(p):
        _, v, counts = data.pooled(k)
        err2 = (v - pred.xhat[k, start : start + v.size]) ** 2
        start += v.size
        seen = counts > 0
        if seen.any():
            first = (np.cumsum(counts) - counts)[seen]
            out[k] = float(np.mean(np.add.reduceat(err2, first) / counts[seen]))
    return out


def replicate_metrics(
    design: SimDesign,
    settings=None,
    grid_size: int = 101,
    compare_zero_cross: bool = False,
):
    """Generate one replicate, fit it, and score the fit against truth.

    Returns a flat dict of metric values; ``mise`` entries appear only
    when the design carries test subjects.
    """
    from .pipeline import FitSettings, fit_covariance_model

    train, truth = generate(design)
    if settings is None:
        settings = FitSettings()
    if settings.domain is None:
        # the design generates on [0, 1]; the pipeline must know that
        settings = replace(settings, domain=(0.0, 1.0))
    res = fit_covariance_model(train, settings)
    out = {
        "rise": rise(res.model, truth, grid_size),
        "ise_1": ise(res.eig, truth, 0, grid_size),
        "ise_2": ise(res.eig, truth, 1, grid_size),
        "ratio_1": eigenvalue_ratio(res.eig, truth, 0),
        "ratio_2": eigenvalue_ratio(res.eig, truth, 1),
        "npc": res.npc,
        "min_whitened_eig": res.diagnostics["refined_min_whitened_eig"],
        "d1_hat": float(res.eig.d[0]),
        "d1_true": float(truth.d[0]),
    }
    if design.n_test > 0:
        out["mise"] = mise(res.model, res.eig, truth, grid_size, npc=res.npc)
        if compare_zero_cross:
            out["mise_zero_cross"] = mise(
                zero_cross_blocks(res.model), res.eig, truth, grid_size, npc=res.npc
            )
    return out


def zero_cross_blocks(model):
    """Copy of a model with every off-diagonal block set to zero.

    Predictions from such a model cannot borrow strength across
    responses, which isolates the value of the cross-covariances.
    """
    diagonal = np.eye(model.p, dtype=bool)[:, :, None, None]
    return replace(model, blocks=np.where(diagonal, model.blocks, 0.0))
