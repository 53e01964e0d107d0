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

from .config import _integer, _list_of, _real
from .errors import DataFormatError, FuncovError
from .fpca import CovarianceModel, EigenSystem, pve_curve
from .mean import MeanFit
from .splines import build_workspace

FORMAT_NAME = "funcov-model"
FORMAT_VERSION = 1

_numbers = _list_of(_real)
_integers = _list_of(_integer)
_strings = _list_of(lambda x: isinstance(x, str))


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


def _field(doc, key, ok, kind):
    """``doc[key]``; a missing field or one that is not ``kind`` raises."""
    if key not in doc:
        raise DataFormatError(f"missing field {key!r}")
    if not ok(doc[key]):
        raise DataFormatError(f"{key} must be {kind}, got {doc[key]!r:.60}")
    return doc[key]


def _array(doc, key, shape):
    """The array field ``key``; a shape other than ``shape`` raises."""
    arr = _decode_array(_field(doc, key, lambda x: isinstance(x, dict), "an array"))
    if arr.shape != shape:
        raise DataFormatError(f"{key} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise DataFormatError(f"{key} holds a non-finite value")
    return arr


def load_model(path):
    """Load a model file written by :func:`save_model`.

    A missing field, a field of the wrong type, a repeated response label,
    an array whose shape disagrees with the response count or a basis
    size, an array with a non-finite value, or a value no fit writes
    (``npc`` outside [0, p c], ``pve`` outside (0, 1], ``lambdas`` without
    each pair 0 <= k <= kp < p exactly once) raises :class:`DataFormatError`.

    Returns
    -------
    (CovarianceModel, EigenSystem)
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        return _from_doc(doc)
    except FuncovError as exc:  # a bad field, or a basis it cannot build
        raise DataFormatError(f"{path}: {exc}") from None


def _is_lambda_entry(x):
    return isinstance(x, list) and len(x) == 3 and _integers(x[:2]) and _numbers(x[2])


def _from_doc(doc):
    domain = _field(doc, "domain", lambda x: _numbers(x) and len(x) == 2, "two numbers")
    order = _field(doc, "order", _integer, "an integer")
    n_cov = _field(doc, "n_interior_cov", _integer, "an integer")
    n_mean = _field(doc, "n_interior_mean", _integer, "an integer")
    ws_cov = build_workspace(domain, n_cov, order)
    ws_mean = ws_cov if n_mean == n_cov else build_workspace(domain, n_mean, order)
    labels = _field(doc, "response_labels", lambda x: _strings(x) and len(x) > 0,
                    "a nonempty list of strings")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise DataFormatError(f"response label {label!r} is repeated")
    p, c = len(labels), ws_cov.c
    alphas = _array(doc, "mean_alphas", (p, ws_mean.c))
    taus = _field(doc, "mean_taus", lambda x: _numbers(x) and len(x) == p, f"{p} numbers")
    lambdas = _field(doc, "lambdas", _list_of(_is_lambda_entry), "a list of [k, kp, [numbers]]")
    pairs = sorted((k, kp) for k, kp, _ in lambdas)
    if pairs != [(k, kp) for k in range(p) for kp in range(k, p)]:
        raise DataFormatError(f"lambdas must hold each pair 0 <= k <= kp < {p} exactly once")
    model = CovarianceModel(
        blocks=_array(doc, "blocks", (p, p, c, c)),
        sigma2=_array(doc, "sigma2", (p,)),
        means=[MeanFit(alpha=a, tau=float(t), cv_curve=None, ws=ws_mean)
               for a, t in zip(alphas, taus)],
        ws=ws_cov,
        refined=_field(doc, "refined", lambda x: isinstance(x, bool), "true or false"),
        lambdas={(k, kp): tuple(vals) for k, kp, vals in lambdas},
        response_labels=list(labels),
    )
    eigen = _field(doc, "eigen", lambda x: isinstance(x, dict), "an object")
    d = _array(eigen, "d", (p * c,))
    eig = EigenSystem(
        d=d,
        U=_array(eigen, "U", (p * c, p * c)),
        npc=_field(eigen, "npc", lambda x: _integer(x) and 0 <= x <= p * c,
                   f"an integer in [0, {p * c}]"),
        pve=float(_field(eigen, "pve", lambda x: _real(x) and 0.0 < x <= 1.0,
                         "a number in (0, 1]")),
        pve_curve=pve_curve(d),
        ws=ws_cov,
        p=p,
    )
    return model, eig
