"""Model artifact round trips and file validation."""

import base64
import json

import numpy as np
import pytest

from funcov import DataFormatError, load_model, save_model
from funcov.fpca import eigendecompose
from funcov.splines import build_workspace

from conftest import make_psd_model, spline_mean


def example_model(seed=0):
    model = make_psd_model(seed=seed, p=2, n_interior=2)
    # a fitted model carries the selected smoothing per block
    model.lambdas = {(0, 0): (2.5, 0.5), (0, 1): (130.0, 0.3), (1, 1): (0.07, 0.5)}
    return model, eigendecompose(model)


def test_round_trip_equals_original(tmp_path):
    model, eig = example_model()
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    loaded, leig = load_model(path)

    np.testing.assert_array_equal(loaded.blocks, model.blocks)
    np.testing.assert_array_equal(loaded.sigma2, model.sigma2)
    assert loaded.refined == model.refined
    assert loaded.lambdas == model.lambdas
    assert loaded.response_labels == model.response_labels
    assert loaded.ws.domain == model.ws.domain
    assert loaded.ws.c == model.ws.c
    for mf, orig in zip(loaded.means, model.means):
        np.testing.assert_array_equal(mf.alpha, orig.alpha)
        assert mf.tau == orig.tau

    np.testing.assert_array_equal(leig.d, eig.d)
    np.testing.assert_array_equal(leig.U, eig.U)
    np.testing.assert_array_equal(leig.pve_curve, eig.pve_curve)
    assert leig.npc == eig.npc
    assert leig.pve == eig.pve
    assert leig.p == 2


def test_resave_is_byte_identical(tmp_path):
    model, eig = example_model(seed=3)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(first, model, eig)
    loaded, leig = load_model(first)
    save_model(second, loaded, leig)
    assert first.read_bytes() == second.read_bytes()


def test_distinct_mean_and_covariance_bases(tmp_path):
    model, eig = example_model(seed=5)
    ws_mean = build_workspace(model.ws.domain, 5, model.ws.order)
    rng = np.random.default_rng(8)
    model.means = [spline_mean(ws_mean, rng.standard_normal(ws_mean.c)) for _ in range(2)]
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    loaded, _ = load_model(path)
    assert loaded.means[0].ws.c == ws_mean.c
    assert loaded.ws.c == model.ws.c
    assert loaded.means[0].ws is not loaded.ws
    np.testing.assert_array_equal(loaded.means[1].alpha, model.means[1].alpha)
    # equal basis sizes share one workspace object
    plain, _ = example_model(seed=5)
    save_model(path, plain, eig)
    reloaded, _ = load_model(path)
    assert reloaded.means[0].ws is reloaded.ws


def test_loaded_model_predicts_identically(tmp_path):
    from funcov import predict_subject

    model, eig = example_model(seed=7)
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    loaded, leig = load_model(path)
    obs_t = [np.array([0.2, 0.7]), np.array([0.4])]
    obs_v = [np.array([1.0, -0.5]), np.array([0.3])]
    grid = np.linspace(0, 1, 7)
    a = predict_subject(model, eig, obs_t, obs_v, grid)
    b = predict_subject(loaded, leig, obs_t, obs_v, grid)
    np.testing.assert_array_equal(a.xhat, b.xhat)
    np.testing.assert_array_equal(a.cov, b.cov)
    np.testing.assert_array_equal(a.scores, b.scores)


def edit_doc(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def test_load_rejects_bad_files(tmp_path):
    model, eig = example_model()
    good = tmp_path / "good.json"
    save_model(good, model, eig)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_model(bad)

    wrong_format = tmp_path / "fmt.json"
    wrong_format.write_text(good.read_text())
    edit_doc(wrong_format, format="other-tool")
    with pytest.raises(DataFormatError, match="not a funcov-model file"):
        load_model(wrong_format)

    wrong_version = tmp_path / "ver.json"
    wrong_version.write_text(good.read_text())
    edit_doc(wrong_version, version=99)
    with pytest.raises(DataFormatError, match="unsupported model version"):
        load_model(wrong_version)

    repeated = tmp_path / "labels.json"
    repeated.write_text(good.read_text())
    edit_doc(repeated, response_labels=["y1", "y1"])
    with pytest.raises(DataFormatError, match="response label 'y1' is repeated"):
        load_model(repeated)


def test_load_rejects_corrupt_arrays(tmp_path):
    model, eig = example_model()
    good = tmp_path / "good.json"
    save_model(good, model, eig)
    doc = json.loads(good.read_text())

    corrupt = tmp_path / "corrupt.json"
    doc_bad = dict(doc)
    doc_bad["blocks"] = dict(doc["blocks"], data="!!!not base64!!!")
    corrupt.write_text(json.dumps(doc_bad))
    with pytest.raises(DataFormatError, match="bad array field"):
        load_model(corrupt)

    # shape inconsistent with the payload length
    mismatched = tmp_path / "shape.json"
    doc_bad = dict(doc)
    three = base64.b64encode(np.zeros(3).tobytes()).decode("ascii")
    doc_bad["sigma2"] = {"shape": [2], "data": three}
    mismatched.write_text(json.dumps(doc_bad))
    with pytest.raises(DataFormatError, match="bad array field"):
        load_model(mismatched)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "where, key, index",
    [
        (None, "blocks", (0, 1, 2, 0)),
        (None, "sigma2", (0,)),
        (None, "mean_alphas", (1, 3)),
        ("eigen", "d", (4,)),
        ("eigen", "U", (0, 0)),
    ],
)
def test_load_rejects_non_finite_arrays(tmp_path, where, key, index, bad):
    model, eig = example_model()
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    doc = json.loads(path.read_text())
    field = (doc if where is None else doc[where])[key]
    arr = np.frombuffer(base64.b64decode(field["data"]), dtype="<f8").reshape(field["shape"])
    arr = arr.copy()
    arr[index] = bad
    field["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"{key} holds a non-finite value"):
        load_model(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["eigen"].update(npc=-1), r"npc must be an integer in \[0, 12\]"),
        (lambda doc: doc["eigen"].update(npc=1000), r"npc must be an integer in \[0, 12\]"),
        (lambda doc: doc["eigen"].update(pve=7.0), r"pve must be a number in \(0, 1\]"),
        (lambda doc: doc["eigen"].update(pve=0.0), r"pve must be a number in \(0, 1\]"),
        (lambda doc: doc.update(lambdas=[[0, 5, [1.0]]]), "lambdas must hold each pair"),
        (lambda doc: doc["lambdas"].pop(), "lambdas must hold each pair"),
        (lambda doc: doc["lambdas"].append(doc["lambdas"][0]), "lambdas must hold each pair"),
        (lambda doc: doc["lambdas"][1].__setitem__(slice(0, 2), [1, 0]),
         "lambdas must hold each pair"),
    ],
    ids=["npc-negative", "npc-above-pc", "pve-above-1", "pve-zero", "lambdas-out-of-range",
         "lambdas-missing-pair", "lambdas-repeated-pair", "lambdas-lower-pair"],
)
def test_load_rejects_values_no_fit_writes(tmp_path, edit, message):
    # p = 2 responses and c = 6 basis functions: npc lies in [0, 12]
    model, eig = example_model()
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("npc, pve", [(0, 1.0), (12, 1e-300)])
def test_load_accepts_the_ends_of_the_npc_and_pve_ranges(tmp_path, npc, pve):
    model, eig = example_model()
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    doc = json.loads(path.read_text())
    doc["eigen"].update(npc=npc, pve=pve)
    path.write_text(json.dumps(doc))
    _, leig = load_model(path)
    assert (leig.npc, leig.pve) == (npc, pve)
