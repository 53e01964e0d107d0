"""End-to-end fitting pipeline: the worker pool and count settings."""

import os

import numpy as np
import pytest

from funcov import (
    FitResult,
    FitSettings,
    FuncovError,
    SimDesign,
    fit_covariance_model,
    generate,
)
from funcov.config import RunConfig
from funcov.pipeline import BLAS_THREAD_VARS, default_workers


@pytest.fixture(scope="module")
def train():
    data, _ = generate(SimDesign(n=40, rho=0.5, snr=2.0, seed=8, n_test=0))
    return data


def _settings(workers, npc=None):
    return FitSettings(
        n_interior_mean=4, n_interior_cov=4, domain=(0.0, 1.0), workers=workers, npc=npc
    )


def test_thread_pool_fit_is_bit_identical_to_serial(train):
    serial = fit_covariance_model(train, _settings(1))
    pooled = fit_covariance_model(train, _settings(2))
    for a, b in ((serial.raw_model, pooled.raw_model), (serial.model, pooled.model)):
        np.testing.assert_array_equal(a.blocks, b.blocks)
        np.testing.assert_array_equal(a.sigma2, b.sigma2)
        assert a.lambdas == b.lambdas
        assert len(a.means) == train.n_responses
        for ma, mb in zip(a.means, b.means):
            assert ma.tau == mb.tau
            np.testing.assert_array_equal(ma.alpha, mb.alpha)
    np.testing.assert_array_equal(serial.eig.d, pooled.eig.d)
    np.testing.assert_array_equal(serial.eig.U, pooled.eig.U)
    assert serial.npc == pooled.npc
    assert serial.diagnostics == pooled.diagnostics


@pytest.fixture
def cores(monkeypatch):
    """Clears the BLAS thread variables; ``cores(k)`` sets the affinity to k CPUs."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)

    def set_cores(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    set_cores(4)
    return set_cores


def test_default_workers_is_serial_when_blas_threads_are_unset(cores):
    assert default_workers() == 1
    assert FitSettings().workers == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_default_workers_fills_the_cores_with_single_threaded_blas(cores, monkeypatch, var, k):
    cores(k)
    monkeypatch.setenv(var, "1")
    assert default_workers() == k
    assert FitSettings().workers == k


@pytest.mark.parametrize("blas, expected", [("2", 2), ("3", 1), ("4", 1), ("8", 1)])
def test_default_workers_divides_the_cores_by_blas_threads(cores, monkeypatch, blas, expected):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    assert default_workers() == expected


def test_default_workers_reads_blas_variables_in_openblas_order(cores, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("GOTO_NUM_THREADS", "2")
    assert default_workers() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert default_workers() == 1


@pytest.mark.parametrize("value", ["", "0", "-1", "two"])
def test_default_workers_skips_a_blas_variable_that_is_not_positive(cores, monkeypatch, value):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    assert default_workers() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert default_workers() == 4


def test_default_workers_uses_the_cpu_count_without_affinity(cores, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert default_workers() == 3


def test_explicit_workers_wins_over_the_default(cores, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert FitSettings(workers=1).workers == 1
    assert RunConfig(workers=3).workers == 3


@pytest.mark.parametrize("blas", [None, "1", "2"])
def test_run_config_has_the_fit_settings_default(cores, monkeypatch, blas):
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    assert RunConfig().workers == FitSettings().workers == default_workers()


@pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, True, "2", None])
def test_workers_must_be_a_positive_integer(train, workers):
    with pytest.raises(FuncovError, match="workers"):
        fit_covariance_model(train, _settings(workers))


def test_numpy_integer_workers_accepted(train):
    res = fit_covariance_model(train, _settings(np.int64(2)))
    assert isinstance(res, FitResult)


@pytest.mark.parametrize("npc", [0, -2, 25, 500, 1.5, 2.0, True, "2"])
def test_forced_npc_must_be_a_component_index(train, npc):
    # p = 3 responses and c = 8 covariance basis functions: 24 components
    with pytest.raises(FuncovError, match=r"npc must be an integer in \[1, 24\]"):
        fit_covariance_model(train, _settings(1, npc))


def test_forced_npc_up_to_the_component_count_is_kept(train):
    for npc in (1, np.int64(24)):
        res = fit_covariance_model(train, _settings(1, npc))
        assert res.npc == res.eig.npc == npc
