"""End-to-end model fitting: means, covariance blocks, FPCA, refinement."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covsmooth import build_aux, fit_auto, fit_cross
from .errors import FuncovError
from .fpca import (
    CovarianceModel,
    EigenSystem,
    assemble_blocks,
    eigendecompose,
    refine,
    whitened_stack,
)
from .mean import fit_mean
from .splines import build_workspace


@dataclass
class FitSettings:
    """Knobs of the fitting pipeline.

    ``tau_grid``, ``rho_grid`` and ``w_grid`` default to the module-level
    grids when None. ``domain`` defaults to the observed time range.
    ``workers`` is the thread count for the fit's independent tasks: the
    per-response means, then the covariance blocks. It pays only when BLAS
    runs single-threaded; every result is the same at any count.
    """

    order: int = 4
    n_interior_mean: int = 9
    n_interior_cov: int = 9
    tau_grid: object = None
    rho_grid: object = None
    w_grid: object = None
    pve: float = 0.99
    npc: int | None = None
    domain: tuple | None = None
    workers: int = 1


@dataclass
class FitResult:
    """Everything the fitting pipeline produced.

    ``model`` is the refined (PSD) covariance model used for prediction;
    ``raw_model`` keeps the unconstrained block estimates. ``npc`` is the
    component count selected by explained variance (or forced by the
    settings).
    """

    model: CovarianceModel
    raw_model: CovarianceModel
    eig: EigenSystem
    npc: int
    diagnostics: dict = field(default_factory=dict)


def _run_indexed(tasks, workers):
    """Evaluate thunks, in a thread pool when workers > 1, preserving order."""
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(t) for t in tasks]
            return [f.result() for f in futures]
    return [t() for t in tasks]


def _check_count(name, value, limit=None):
    """Reject a count setting that is not an integer in [1, limit]."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < 1 or (limit is not None and value > limit):
        bound = ">= 1" if limit is None else f"in [1, {limit}]"
        raise FuncovError(f"{name} must be an integer {bound}, got {value!r}")


def fit_covariance_model(data, settings: FitSettings | None = None) -> FitResult:
    """Fit means, covariance blocks and the FPCA of a dataset.

    Parameters
    ----------
    data : SparseFunctionalDataset
    settings : FitSettings, optional

    Returns
    -------
    FitResult
    """
    settings = settings or FitSettings()
    workers = settings.workers
    _check_count("workers", workers)
    p = data.n_responses
    domain = settings.domain
    if domain is None:
        domain = data.time_range()
        if not domain[1] > domain[0]:
            raise FuncovError(
                "all observation times coincide; supply an explicit domain"
            )
    ws_mean = build_workspace(domain, settings.n_interior_mean, settings.order)
    if settings.n_interior_cov == settings.n_interior_mean:
        ws_cov = ws_mean
    else:
        ws_cov = build_workspace(domain, settings.n_interior_cov, settings.order)
    if settings.npc is not None:
        # the eigensystem has p * c components
        _check_count("npc", settings.npc, p * ws_cov.c)

    means = _run_indexed(
        [
            (lambda kk=k: fit_mean(data, kk, ws_mean, settings.tau_grid))
            for k in range(p)
        ],
        workers,
    )

    pairs = [(k, kp) for k in range(p) for kp in range(k, p)]

    def _fit_pair(k, kp):
        block = build_aux(data, means, ws_cov, k, kp)
        if k == kp:
            return fit_auto(block, ws_cov, settings.rho_grid)
        return fit_cross(block, ws_cov, settings.rho_grid, settings.w_grid)

    fits = _run_indexed(
        [(lambda kk=k, kkp=kp: _fit_pair(kk, kkp)) for k, kp in pairs],
        workers,
    )

    upper = {}
    sigma2 = np.zeros(p)
    lambdas = {}
    for (k, kp), bf in zip(pairs, fits):
        upper[(k, kp)] = bf.theta
        lambdas[(k, kp)] = bf.lambdas
        if k == kp:
            sigma2[k] = bf.sigma2
    raw = CovarianceModel(
        blocks=assemble_blocks(upper, p, ws_cov.c),
        sigma2=sigma2,
        means=means,
        ws=ws_cov,
        refined=False,
        lambdas=lambdas,
        response_labels=list(data.responses),
    )
    eig = eigendecompose(raw, settings.pve)
    model = refine(raw, eig)
    npc = settings.npc if settings.npc is not None else eig.npc
    refined_spectrum = np.linalg.eigvalsh(whitened_stack(model))
    diagnostics = {
        "refined_min_whitened_eig": float(refined_spectrum[0]),
        "sigma2_raw": [bf.sigma2_raw for bf in fits if bf.sigma2_raw is not None],
    }
    return FitResult(
        model=model, raw_model=raw, eig=eig, npc=npc, diagnostics=diagnostics
    )
