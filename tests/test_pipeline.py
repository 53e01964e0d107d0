"""End-to-end fitting pipeline: the worker pool and count settings."""

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
        assert fit_covariance_model(train, _settings(1, npc)).npc == npc
