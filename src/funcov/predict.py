"""Best linear prediction of subject curves from sparse observations.

Under a working Gaussian model the subject's latent curve and its noisy
observations are jointly Gaussian with covariances given by the fitted
model, so the conditional mean and covariance are available in closed
form. Predictions borrow strength across responses through the
cross-covariance blocks.

One batched path serves every caller. With the stacked coefficients
``Theta``, a subject's observed design ``B_o`` (block diagonal by
response) and ``V = B_o Theta B_o' + diag(sigma^2)``, the prediction at
new points with design ``B_new`` is ``mu + B_new Theta z`` with
``z = B_o' V^{-1} r``. This is the exact conditional expectation,
reassociated, for any symmetric ``Theta``, refined or not.

Once per call: each distinct workspace's basis at the observation times
and at the grid (a mean on the model's own workspace reuses the model's
basis rather than evaluating it again), the means at the grid,
``M_new = B_new Theta`` and the prior variance. Per subject only the
products that involve its own observations are formed, with one Cholesky
factorization of its ``V`` through LAPACK's ``dpotrf`` and solves through
``dpotrs``, the routines ``scipy.linalg.cho_factor`` and ``cho_solve``
wrap, called directly.

A pointwise band at ``level`` is ``xhat +/- z sqrt(var)`` with ``z`` the
standard normal's ``0.5 + level / 2`` quantile from
``scipy.special.ndtri`` (1.96 verbatim at level 0.95), the value
``scipy.stats.norm.ppf`` gives, without importing ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import ndtri

from .dataset import SparseFunctionalDataset
from .errors import FuncovError
from .fpca import CovarianceModel, EigenSystem, stack_blocks
from .splines import eval_basis_matrix

# Relative jitter used once if the observation covariance is numerically
# singular.
V_JITTER = 1e-10


@dataclass
class PredictionResult:
    """Predicted curves for one subject on a common time grid.

    Attributes
    ----------
    times : ndarray, shape (m,)
        Prediction grid, shared by all responses.
    xhat : ndarray, shape (p, m)
        Predicted curves.
    cov : ndarray, shape (pm, pm)
        Conditional covariance, rows ordered response-major.
    lower, upper : ndarray, shape (p, m)
        Pointwise prediction band.
    scores : ndarray, shape (L,)
        Estimated component scores.
    jitter : float
        Diagonal jitter added to the observation covariance (0.0 when
        none was needed).
    """

    times: np.ndarray
    xhat: np.ndarray
    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scores: np.ndarray
    jitter: float


@dataclass
class BatchPrediction:
    """Predictions for every subject of a dataset.

    On a shared grid (``times`` given) the pointwise arrays have shape
    (n, p, m): subject, response, grid point. At observed times they have
    shape (p, N) over the dataset's observation rows in pooled order
    (``dataset.pooled(0)``, then ``pooled(1)``, ...); entry ``[k, r]``
    predicts response k at ``times[r]`` for the subject who owns row r,
    whichever response that row was observed in.

    Attributes
    ----------
    times : ndarray, shape (m,) or (N,)
        The grid, or the pooled observation times.
    xhat : ndarray
        Predicted curves.
    var : ndarray or None
        Pointwise conditional variance, clipped at zero; None when no
        band was asked for.
    lower, upper : ndarray or None
        Pointwise prediction band; None when no band was asked for.
    cov : ndarray, shape (n, pm, pm), or None
        Conditional covariances, rows ordered response-major; only with
        ``full_cov``. Their diagonals hold the unclipped ``var``.
    scores : ndarray, shape (n, L)
        Estimated component scores.
    jitter : ndarray, shape (n,)
        Diagonal jitter added to each subject's observation covariance.
    """

    times: np.ndarray
    xhat: np.ndarray
    var: np.ndarray | None
    lower: np.ndarray | None
    upper: np.ndarray | None
    cov: np.ndarray | None
    scores: np.ndarray
    jitter: np.ndarray


def _normal_quantile(level: float) -> float:
    # 1.96 is used verbatim for the conventional 95% band. scipy.stats's
    # norm.ppf(q) is ndtri(q) * 1.0 + 0.0, so this is bit for bit its value.
    if level == 0.95:
        return 1.96
    return float(ndtri(0.5 + level / 2.0))


def predict_batch(
    model: CovarianceModel,
    eig: EigenSystem,
    dataset,
    times=None,
    npc: int | None = None,
    level: float | None = 0.95,
    full_cov: bool = False,
) -> BatchPrediction:
    """Predict every subject of a dataset by conditional expectation.

    The conditioning is exact for any symmetric stacked coefficient
    matrix, refined (PSD) or not. A subject's observation covariance that
    fails its Cholesky factorization gets a relative diagonal jitter of
    ``V_JITTER`` once; if it is still not positive definite a
    :class:`FuncovError` is raised. Each subject's results are computed
    from its own observations alone, so they are bit-identical whichever
    other subjects share the call (and equal :func:`predict_subject`).

    Parameters
    ----------
    model : CovarianceModel
    eig : EigenSystem
        Eigendecomposition of the same model, used for the scores.
    dataset : SparseFunctionalDataset
        Observations; responses are matched to the model's by position.
        A subject observed in no response gets the population mean and
        the prior covariance.
    times : array_like, optional
        Grid shared by all subjects and responses. When omitted, every
        response is predicted at each subject's own observation times.
    npc : int, optional
        Number of component scores to return; defaults to ``eig.npc``.
    level : float or None
        Band coverage level in (0, 1). None skips the pointwise variance
        and the band.
    full_cov : bool
        Also return each subject's full conditional covariance (needs
        ``times`` and a band level).

    Returns
    -------
    BatchPrediction
    """
    if dataset.n_responses != model.p:
        raise FuncovError(
            f"dataset has {dataset.n_responses} responses, the model {model.p}"
        )
    if times is not None:
        times = np.atleast_1d(np.asarray(times, dtype=float)).ravel()
    p, c = model.p, model.ws.c
    pc = p * c
    if level is not None and not 0.0 < level < 1.0:
        raise FuncovError(f"band level must lie in (0, 1), got {level}")
    if full_cov and (times is None or level is None):
        raise FuncovError("full covariances need a shared grid and a band level")
    if npc is not None and (not isinstance(npc, (int, np.integer)) or isinstance(npc, bool)):
        raise FuncovError(f"npc must be an integer, got {npc!r}")
    L = eig.npc if npc is None else int(npc)
    if not 0 <= L <= eig.d.size:
        raise FuncovError(f"score count {L} out of range")
    Theta = stack_blocks(model)
    Gh = model.ws.G_half
    to_scores = eig.U[:, :L].T @ (Gh @ Theta.reshape(p, c, pc)).reshape(pc, pc)
    bands = level is not None
    n = dataset.n_subjects
    pooled = [dataset.pooled(k) for k in range(p)]

    # Observation rows in pooled order (response-major), regrouped so that
    # each subject's rows are contiguous (response-major within it).
    t_pool = np.concatenate([t for t, _, _ in pooled])
    resp = np.repeat(np.arange(p), [t.size for t, _, _ in pooled])
    owner = np.concatenate([np.repeat(np.arange(n), m) for _, _, m in pooled])
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=n)
    ends = np.cumsum(counts)
    t_obs, resp = t_pool[order], resp[order]
    y_obs = np.concatenate([v for _, v, _ in pooled])[order]
    noise = model.sigma2[resp]
    # Each mean is evaluated as MeanFit does, basis times coefficients, but
    # the product is taken per subject: a matrix-vector product's rounding
    # depends on the row's position in the array.
    B_obs, B_mean = _bases(model, t_obs)
    Bo = np.zeros((t_obs.size, pc))  # block-diagonal observed design
    Bo[np.arange(t_obs.size)[:, None], (resp * c)[:, None] + np.arange(c)] = B_obs

    var = cov = None
    if times is not None:
        m = times.size
        Bn, Bn_mean = _bases(model, times)
        M_new = _new_design(Bn, Theta, p)
        mu_new = np.vstack([B @ mean.alpha for B, mean in zip(Bn_mean, model.means)])
        xhat = np.empty((n, p, m))
        if bands:
            prior_diag = _prior_diag(M_new, Bn, p)
            var = np.empty((n, p * m))
        if full_cov:
            cov = np.empty((n, p * m, p * m))
            prior = np.hstack([M_new[:, k * c : (k + 1) * c] @ Bn.T for k in range(p)])
    else:
        xhat = np.empty((p, t_obs.size))
        if bands:
            var = np.empty((p, t_obs.size))
    scores = np.zeros((n, L))
    jitter = np.zeros(n)

    for i in range(n):
        m_i = counts[i]
        rows = slice(ends[i] - m_i, ends[i])
        B_i, Bo_i = B_obs[rows], Bo[rows]
        # every response's mean at each of the subject's times
        mu_i = np.array([B[rows] @ mean.alpha for B, mean in zip(B_mean, model.means)])
        factor = None
        z = np.zeros(pc)
        if m_i:
            V = Bo_i @ Theta @ Bo_i.T
            V.flat[:: m_i + 1] += noise[rows]
            cf, jitter[i] = _factor(V)
            resid = y_obs[rows] - mu_i[resp[rows], np.arange(m_i)]
            z = Bo_i.T @ dpotrs(cf, resid)[0]
            factor = (cf, Bo_i)
            scores[i] = to_scores @ z
        if times is not None:
            xhat[i] = mu_new + (M_new @ z).reshape(p, m)
            if bands:
                var[i], cross, G = _conditional(M_new, prior_diag, factor)
            if full_cov:
                C = prior if cross is None else prior - cross @ G
                cov[i] = 0.5 * (C + C.T)
                np.fill_diagonal(cov[i], var[i])  # the band's variance, exactly
        elif m_i:
            cols = order[rows]
            xhat[:, cols] = mu_i + (B_i @ (Theta @ z).reshape(p, c).T).T
            if bands:
                M_i = _new_design(B_i, Theta, p)
                var_i, _, _ = _conditional(M_i, _prior_diag(M_i, B_i, p), factor)
                var[:, cols] = var_i.reshape(p, m_i)

    lower = upper = None
    if bands:
        var = np.clip(var.reshape(xhat.shape), 0.0, None)
        half = _normal_quantile(level) * np.sqrt(var)
        lower, upper = xhat - half, xhat + half
    return BatchPrediction(
        times=t_pool if times is None else times,
        xhat=xhat,
        var=var,
        lower=lower,
        upper=upper,
        cov=cov,
        scores=scores,
        jitter=jitter,
    )


def predict_subject(
    model: CovarianceModel,
    eig: EigenSystem,
    obs_times,
    obs_values,
    new_times,
    npc: int | None = None,
    level: float = 0.95,
) -> PredictionResult:
    """Predict one subject's p curves at common new times.

    Runs :func:`predict_batch` on a one-subject dataset, with the full
    conditional covariance; the same contract applies.

    Parameters
    ----------
    model : CovarianceModel
    eig : EigenSystem
        Eigendecomposition of the same model, used for the scores.
    obs_times, obs_values : sequences of ndarray, length p
        The subject's observed times and values per response; empty
        arrays mark unobserved responses. A subject observed in no
        response gets the population mean and prior covariance. A
        non-finite time or value raises :class:`FuncovError`, as in a
        dataset.
    new_times : array_like
        Grid to predict on, shared across responses.
    npc : int, optional
        Number of component scores to return; defaults to ``eig.npc``.
    level : float
        Band coverage level in (0, 1).

    Returns
    -------
    PredictionResult
    """
    p = model.p
    if len(obs_times) != p or len(obs_values) != p:
        raise FuncovError(f"expected {p} per-response observation arrays")
    # positional response labels: the model's own labels play no part here
    data = SparseFunctionalDataset(["0"], [str(k) for k in range(p)], [obs_times], [obs_values])
    res = predict_batch(model, eig, data, new_times, npc, level, full_cov=True)
    return PredictionResult(
        times=res.times,
        xhat=res.xhat[0],
        cov=res.cov[0],
        lower=res.lower[0],
        upper=res.upper[0],
        scores=res.scores[0],
        jitter=float(res.jitter[0]),
    )


def _bases(model, t):
    """The model's basis at ``t`` and each mean's, one evaluation per
    distinct workspace object; returns ``(B, [B_mean_k])``."""
    evaluated = {}
    for ws in [model.ws] + [mean.ws for mean in model.means]:
        if id(ws) not in evaluated:
            evaluated[id(ws)] = eval_basis_matrix(ws, t)
    return evaluated[id(model.ws)], [evaluated[id(mean.ws)] for mean in model.means]


def _factor(V):
    """Upper Cholesky factor of V, jittered once if needed; returns
    (factor, jitter). V itself is left unchanged."""
    cf, info = dpotrf(V, clean=0)
    if info == 0:
        return cf, 0.0
    jitter = V_JITTER * float(np.trace(V)) / V.shape[0]
    cf, info = dpotrf(V + jitter * np.eye(V.shape[0]), clean=0)
    if info:
        raise FuncovError("observation covariance is singular even after jitter")
    return cf, jitter


def _new_design(Bn, Theta, p):
    """``kron(I_p, Bn) Theta`` without the Kronecker product: (p m, pc)."""
    m, c = Bn.shape
    return (Bn @ Theta.reshape(p, c, -1)).reshape(p * m, -1)


def _prior_diag(M_new, Bn, p):
    """Diagonal of the prior covariance ``M_new kron(I_p, Bn)'``."""
    m, c = Bn.shape
    blocks = M_new.reshape(p, m, p, c)
    return np.concatenate([(blocks[k, :, k, :] * Bn).sum(axis=1) for k in range(p)])


def _conditional(M_new, prior_diag, factor):
    """Pointwise conditional variance (unclipped), with the cross
    covariance ``M_new B_o'`` and ``G = V^{-1} cross'`` it came from.

    A subject without observations keeps the prior (cross and G None).
    """
    if factor is None:
        return prior_diag, None, None
    cf, Bo_i = factor
    cross = M_new @ Bo_i.T  # (pm, m_i)
    G = dpotrs(cf, cross.T)[0]  # (m_i, pm)
    return prior_diag - (cross.T * G).sum(axis=0), cross, G
