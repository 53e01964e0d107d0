"""Model artifact serialization.

A fitted model round-trips through a single JSON document. Every matrix
is embedded as base64-encoded little-endian float64 bytes next to its
shape, so loading reproduces the numbers exactly and re-saving a loaded
model is byte-identical.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .errors import DataFormatError
from .fpca import CovarianceModel, EigenSystem, pve_curve
from .mean import MeanFit
from .splines import build_workspace

FORMAT_NAME = "funcov-model"
FORMAT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        arr = np.frombuffer(raw, dtype="<f8").astype(float, copy=True)
        return arr.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad array field in model file: {exc}") from None


def save_model(path, model: CovarianceModel, eig: EigenSystem) -> None:
    """Write a fitted model and its eigensystem to a JSON file."""
    mean_ws = model.means[0].ws
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "domain": [model.ws.domain[0], model.ws.domain[1]],
        "order": model.ws.order,
        "n_interior_cov": model.ws.n_interior,
        "n_interior_mean": mean_ws.n_interior,
        "response_labels": list(model.response_labels),
        "refined": bool(model.refined),
        "blocks": _encode_array(model.blocks),
        "sigma2": _encode_array(model.sigma2),
        "mean_alphas": _encode_array(np.vstack([mf.alpha for mf in model.means])),
        "mean_taus": [float(mf.tau) for mf in model.means],
        "lambdas": [
            [int(k), int(kp), [float(v) for v in vals]]
            for (k, kp), vals in sorted(model.lambdas.items())
        ],
        "eigen": {
            "d": _encode_array(eig.d),
            "U": _encode_array(eig.U),
            "npc": int(eig.npc),
            "pve": float(eig.pve),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    """Load a model file written by :func:`save_model`.

    Returns
    -------
    (CovarianceModel, EigenSystem)
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if doc.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported model version {doc.get('version')}")
    domain = (float(doc["domain"][0]), float(doc["domain"][1]))
    order = int(doc["order"])
    ws_cov = build_workspace(domain, int(doc["n_interior_cov"]), order)
    if doc["n_interior_mean"] == doc["n_interior_cov"]:
        ws_mean = ws_cov
    else:
        ws_mean = build_workspace(domain, int(doc["n_interior_mean"]), order)
    alphas = _decode_array(doc["mean_alphas"])
    taus = doc["mean_taus"]
    means = [
        MeanFit(alpha=alphas[k], tau=float(taus[k]), cv_curve=None, ws=ws_mean)
        for k in range(alphas.shape[0])
    ]
    blocks = _decode_array(doc["blocks"])
    p = blocks.shape[0]
    model = CovarianceModel(
        blocks=blocks,
        sigma2=_decode_array(doc["sigma2"]),
        means=means,
        ws=ws_cov,
        refined=bool(doc["refined"]),
        lambdas={(int(k), int(kp)): tuple(vals) for k, kp, vals in doc["lambdas"]},
        response_labels=[str(r) for r in doc["response_labels"]],
    )
    d = _decode_array(doc["eigen"]["d"])
    U = _decode_array(doc["eigen"]["U"])
    pve = float(doc["eigen"]["pve"])
    eig = EigenSystem(
        d=d,
        U=U,
        npc=int(doc["eigen"]["npc"]),
        pve=pve,
        pve_curve=pve_curve(d),
        ws=ws_cov,
        p=p,
    )
    return model, eig
