"""Workload inputs, operations and correctness fingerprints.

Every input comes from :func:`funcov.generate` with the workload seed.
A fingerprint condenses one result: for a fit the selected smoothing
levels, sigma^2, the leading eigenvalues and RISE against the truth; for
a prediction pass the ``mise`` value or the ``ape`` vector. It is checked
against reference values recorded for the same seed (see
``make_reference.py``) at 1e-8 relative, and against plain sanity bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import funcov

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-8
FIT_SETTINGS = funcov.FitSettings(domain=(0.0, 1.0))
N_EIGENVALUES = 9
# Held-out subjects per timed prediction call. A pass is timed batch by
# batch, so that each batch's median over a run's passes can be taken.
BATCH = 10


@dataclass(frozen=True)
class Workload:
    """``design`` is fitted; ``timed`` says which calls the window times."""

    design: dict
    timed: str  # "fit" or "predict"


WORKLOADS = {
    "fit_sparse": Workload(
        dict(n=1000, rho=0.9, snr=2.0, m_min=3, m_max=7, n_test=100), "fit"
    ),
    "fit_dense": Workload(
        dict(n=100, rho=0.9, snr=2.0, m_min=10, m_max=15, n_test=100), "fit"
    ),
    "predict": Workload(
        dict(n=200, rho=0.9, snr=2.0, m_min=3, m_max=7, n_test=500), "predict"
    ),
}


def make_inputs(workload, seed):
    return funcov.generate(funcov.SimDesign(seed=seed, **WORKLOADS[workload].design))


def fit(train):
    return funcov.fit_covariance_model(train, FIT_SETTINGS)


def batches(truth):
    """Split the held-out subjects into equal batches, each a GroundTruth.

    Every held-out subject observes every response, so the mean of the
    batches' ``mise`` (or ``ape``) equals the value over all subjects.
    """
    data = truth.test_data
    if data.n_subjects % BATCH:
        raise ValueError(f"{data.n_subjects} held-out subjects is not a multiple of {BATCH}")
    out = []
    for start in range(0, data.n_subjects, BATCH):
        idx = range(start, start + BATCH)
        obs = [[data.obs(i, k) for k in range(data.n_responses)] for i in idx]
        sub = funcov.SparseFunctionalDataset(
            [data.subjects[i] for i in idx],
            data.responses,
            [[t for t, _ in row] for row in obs],
            [[v for _, v in row] for row in obs],
        )
        scores = truth.test_scores[start : start + BATCH]
        out.append(replace(truth, test_data=sub, test_scores=scores))
    return out


def predict_grid(res, truth):
    return funcov.mise(res.model, res.eig, truth, npc=res.npc)


def predict_obs(res, truth):
    return funcov.ape(res.model, res.eig, truth.test_data, npc=res.npc)


def fit_fingerprint(res, truth):
    rho, w = [], []
    for (k, kp), lam in sorted(res.raw_model.lambdas.items()):
        if k == kp:
            rho.append(lam[0])
            w.append(0.5)
        else:
            rho.append(lam[0] + lam[1])
            w.append(lam[0] / (lam[0] + lam[1]) if lam[0] + lam[1] else 0.0)
    return {
        "rho": rho,
        "w": w,
        "tau": [m.tau for m in res.model.means],
        "sigma2": res.model.sigma2.tolist(),
        "eigenvalues": res.eig.d[:N_EIGENVALUES].tolist(),
        "npc": [res.npc],
        "rise": [funcov.rise(res.model, truth)],
    }


PREDICT_OPS = {"mise": predict_grid, "ape": predict_obs}


def pass_fingerprint(kind, batch_values):
    """Fingerprint of a prediction pass: the mean of its batches' values."""
    value = np.mean(np.asarray(batch_values, dtype=float), axis=0)
    return {kind: np.atleast_1d(value).tolist()}


def mismatches(fp, ref):
    """Entries of ``fp`` that differ from ``ref`` by more than RTOL.

    Eigenvalues are compared relative to the leading one, since trailing
    eigenvalues sit near zero; everything else elementwise.
    """
    bad = []
    for key in sorted(set(fp) | set(ref)):
        a, b = np.asarray(fp.get(key, []), float), np.asarray(ref.get(key, []), float)
        if a.shape != b.shape:
            bad.append(f"{key}: shape {a.shape} != {b.shape}")
            continue
        scale = np.abs(b)
        if key == "eigenvalues" and b.size:
            scale = np.maximum(scale, abs(b[0]))
        if not np.all(np.abs(a - b) <= RTOL * scale):
            bad.append(f"{key}: {a.tolist()} != {b.tolist()}")
    return bad


def insane(fp):
    """Sanity violations that hold for any seed, referenced or not."""
    bad = [k for k, v in fp.items() if not all(math.isfinite(x) for x in v)]
    if "rise" in fp and not 0.0 <= fp["rise"][0] < 1.0:
        bad.append(f"rise {fp['rise'][0]} outside [0, 1)")
    if "sigma2" in fp and min(fp["sigma2"]) <= 0.0:
        bad.append("non-positive sigma2")
    if "eigenvalues" in fp and fp["eigenvalues"][0] <= 0.0:
        bad.append("non-positive leading eigenvalue")
    if "mise" in fp and not fp["mise"][0] > 0.0:
        bad.append("non-positive mise")
    if "ape" in fp and min(fp["ape"]) <= 0.0:
        bad.append("non-positive ape")
    return bad


def load_reference(workload, seed):
    """Recorded fingerprints ``{"fit": ..., "mise": ..., "ape": ...}`` or None."""
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(seed))


class Checker:
    """Counts operations and judges each result against the reference."""

    def __init__(self, workload, seed):
        self.reference = load_reference(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.problems = []

    def check(self, kind, fp):
        """Record one operation's fingerprint; kind is "fit", "mise" or "ape"."""
        self.attempted += 1
        bad = insane(fp)
        if self.reference is not None:
            bad += mismatches(fp, self.reference[kind])
        # without a reference, repeats of one operation must still agree
        bad += mismatches(fp, self.first.setdefault(kind, fp))
        if bad:
            self.failed += 1
            self.problems.append(f"{kind}: " + "; ".join(bad))

    def fail(self, kind, exc):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
