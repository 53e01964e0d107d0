"""Command-line workflows: fit, predict, simulate, evaluate."""

import base64
import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from funcov import (
    FitSettings,
    SimDesign,
    SparseFunctionalDataset,
    fit_covariance_model,
    generate,
    load_model,
    predict_subject,
    save_model,
)
from funcov.cli import main
from funcov.config import _FIELD_KINDS, RunConfig
from funcov.fpca import eigendecompose

from conftest import make_dataset, make_psd_model, spline_mean, zero_model


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_ok(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr()


def run_fail(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr()


def test_fit_matches_library_and_writes_grids(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = make_dataset(rng, n=8, p=2, m_range=(3, 6))
    data_path = tmp_path / "data.csv"
    data.to_csv(data_path)
    out_path = tmp_path / "model.json"

    captured = run_ok(
        capsys,
        [
            "fit",
            "--data", str(data_path),
            "--out", str(out_path),
            "--n-interior-mean", "2",
            "--n-interior-cov", "1",
            "--grid-size", "5",
        ],
    )
    info = json.loads(captured.out)
    assert info["model"] == str(out_path)
    assert len(info["eigenvalues"]) == 2 * 5  # p * c
    assert len(info["sigma2"]) == 2

    # the CLI is a thin wrapper: the saved model equals a direct library fit
    lib = fit_covariance_model(
        SparseFunctionalDataset.from_csv(data_path),
        FitSettings(n_interior_mean=2, n_interior_cov=1, pve=0.99),
    )
    model, eig = load_model(out_path)
    np.testing.assert_array_equal(model.blocks, lib.model.blocks)
    np.testing.assert_array_equal(model.sigma2, lib.model.sigma2)
    np.testing.assert_array_equal(eig.d, lib.eig.d)
    assert eig.npc == lib.npc
    assert info["npc"] == lib.npc

    efun = read_rows(tmp_path / "model.eigenfunctions.csv")
    assert efun[0] == ["response", "component", "time", "value"]
    assert len(efun) == 1 + lib.npc * 2 * 5
    assert {row[0] for row in efun[1:]} == set(model.response_labels)

    corr = read_rows(tmp_path / "model.correlations.csv")
    assert corr[0] == ["response_i", "response_j", "s", "t", "value"]
    assert len(corr) == 1 + 2 * 2 * 5 * 5
    # diagonal of an auto-correlation surface is 1
    own = [r for r in corr[1:] if r[0] == r[1] and r[2] == r[3]]
    for r in own:
        assert float(r[4]) == pytest.approx(1.0, abs=1e-8)


def test_fit_handles_subject_missing_a_response(tmp_path, capsys):
    rng = np.random.default_rng(1)
    data = make_dataset(rng, n=6, p=2, m_range=(3, 5))
    rows = [r for r in data.iter_rows() if not (r[0] == data.subjects[0] and r[1] == "y2")]
    subjects, responses, times, values = zip(*rows)
    pruned = SparseFunctionalDataset.from_long(subjects, responses, times, values)
    path = tmp_path / "data.csv"
    pruned.to_csv(path)
    out = run_ok(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "m.json"),
         "--n-interior-mean", "2", "--n-interior-cov", "1", "--grid-size", "3"],
    )
    assert json.loads(out.out)["npc"] >= 1


def test_fit_rejects_npc_past_the_component_count(tmp_path, capsys):
    train, _ = generate(SimDesign(n=30, rho=0.5, snr=2.0, seed=4, n_test=0))
    path = tmp_path / "train.csv"
    train.to_csv(path)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "model.json"),
         "--n-interior-mean", "4", "--n-interior-cov", "4", "--npc", "500"],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert "npc must be an integer in [1, 24]" in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]


def test_fit_saves_a_forced_component_count(tmp_path, capsys):
    # the forced count, not the explained-variance one, reaches the model
    # file, so predict writes that many scores by default
    train, truth = generate(SimDesign(n=30, rho=0.9, snr=2.0, seed=3, n_test=2))
    path = tmp_path / "train.csv"
    train.to_csv(path)
    model_path = tmp_path / "model.json"
    flags = ["--n-interior-mean", "4", "--n-interior-cov", "4", "--domain", "0,1"]
    out = run_ok(capsys, ["fit", "--data", str(path), "--out", str(model_path), *flags])
    assert json.loads(out.out)["npc"] > 2  # the explained-variance count
    out = run_ok(
        capsys, ["fit", "--data", str(path), "--out", str(model_path), *flags, "--npc", "2"]
    )
    assert json.loads(out.out)["npc"] == 2
    assert json.loads(model_path.read_text())["eigen"]["npc"] == 2
    assert load_model(model_path)[1].npc == 2

    query = tmp_path / "query.csv"
    truth.test_data.to_csv(query)
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(tmp_path / "pred.csv"), "--grid-size", "3"],
    )
    scores = read_rows(tmp_path / "pred.scores.csv")[1:]
    assert [(r[0], r[1]) for r in scores] == [
        (s, str(ell)) for s in truth.test_data.subjects for ell in (1, 2)
    ]


@pytest.mark.parametrize("bad", ["Infinity", "NaN"])
def test_fit_rejects_non_finite_rho_grid(tmp_path, capsys, bad):
    train, _ = generate(SimDesign(n=30, rho=0.5, snr=2.0, seed=4, n_test=0))
    path = tmp_path / "train.csv"
    train.to_csv(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rho_grid": [%s]}' % bad)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "model.json"),
         "--n-interior-mean", "4", "--n-interior-cov", "4", "--config", str(cfg)],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert "rho grid must be nonempty, finite and nonnegative" in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "train.csv"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_with_no_finite_selection_score_is_invalid(tmp_path, capsys):
    # finite values whose residual products overflow the selection
    # criterion: a JSON error naming a block, not a traceback
    train, _ = generate(SimDesign(n=30, rho=0.5, snr=2.0, seed=4, n_test=0))
    rows = [(s, r, t, 1e150 * v) for s, r, t, v in train.iter_rows()]
    path = tmp_path / "train.csv"
    SparseFunctionalDataset.from_long(*zip(*rows)).to_csv(path)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "model.json"),
         "--n-interior-mean", "4", "--n-interior-cov", "4"],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert re.fullmatch(
        r"(auto block \d|cross block \(\d, \d\)): selection criterion was non-finite "
        r"on the whole grid",
        payload["message"],
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]


def test_fit_one_point_per_curve_is_invalid(tmp_path, capsys):
    train, _ = generate(SimDesign(n=200, m_min=1, m_max=1, seed=1, n_test=0))
    path = tmp_path / "train.csv"
    train.to_csv(path)
    code, captured = run_fail(
        capsys, ["fit", "--data", str(path), "--out", str(tmp_path / "model.json")]
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert payload["message"].startswith("auto block 0: no subject observes the response twice")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]


def test_fit_simulated_data_reports_full_spectrum(tmp_path, capsys):
    train, _ = generate(SimDesign(n=100, rho=0.9, snr=2.0, seed=17, n_test=0))
    path = tmp_path / "train.csv"
    train.to_csv(path)
    out = run_ok(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "m.json"),
         "--n-interior-mean", "3", "--n-interior-cov", "1", "--grid-size", "3"],
    )
    info = json.loads(out.out)
    assert len(info["eigenvalues"]) == 15  # 3 responses x 5 basis functions
    d = np.array(info["eigenvalues"])
    assert np.all(np.diff(d) <= 1e-12)
    assert d[0] > 0


def prediction_model(tmp_path, seed=4):
    model = make_psd_model(seed=seed, p=2, n_interior=2)
    rng = np.random.default_rng(seed + 100)
    model.means = [spline_mean(model.ws, 2.0 * rng.standard_normal(model.ws.c)) for _ in range(2)]
    eig = eigendecompose(model)
    path = tmp_path / "model.json"
    save_model(path, model, eig)
    return model, eig, path


def write_query(tmp_path, rows):
    path = tmp_path / "query.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "response", "time", "value"])
        writer.writerows(rows)
    return path


def test_predict_grid_matches_library(tmp_path, capsys):
    model, eig, model_path = prediction_model(tmp_path)
    rows = [
        ["a", "y1", "0.2", "1.0"],
        ["a", "y1", "0.8", "-0.3"],
        ["a", "y2", "0.5", "0.7"],
    ]
    query = write_query(tmp_path, rows)
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(out_path), "--times", "grid", "--grid-size", "7"],
    )

    grid = np.linspace(0.0, 1.0, 7)
    pred = predict_subject(
        model, eig,
        [np.array([0.2, 0.8]), np.array([0.5])],
        [np.array([1.0, -0.3]), np.array([0.7])],
        grid,
    )
    var = np.clip(np.diag(pred.cov), 0.0, None).reshape(2, 7)

    got = read_rows(out_path)
    assert got[0] == ["subject", "response", "time", "xhat",
                      "variance", "lower95", "upper95", "error"]
    assert len(got) == 1 + 2 * 7
    for row in got[1:]:
        k = model.response_labels.index(row[1])
        j = int(np.where(grid == float(row[2]))[0][0])
        assert float(row[3]) == pred.xhat[k, j]
        assert float(row[4]) == var[k, j]
        assert float(row[5]) == pred.lower[k, j]
        assert float(row[6]) == pred.upper[k, j]
        assert row[7] == ""

    scores = read_rows(tmp_path / "pred.scores.csv")
    assert scores[0] == ["subject", "component", "score"]
    assert len(scores) == 1 + eig.npc
    for ell, row in enumerate(scores[1:]):
        assert row[0] == "a" and int(row[1]) == ell + 1
        assert float(row[2]) == pred.scores[ell]


def test_predict_observed_matches_library(tmp_path, capsys):
    model, eig, model_path = prediction_model(tmp_path, seed=5)
    rows = [
        ["a", "y1", "0.8", "1.0"],
        ["a", "y1", "0.2", "-0.3"],
        ["a", "y2", "0.5", "0.7"],
        ["a", "y2", "0.2", "0.1"],  # the same time in both responses
        ["b", "y2", "0.7", "-1.2"],
        ["c", "y1", "1.5", "2.0"],  # only an out-of-domain observation
    ]
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(write_query(tmp_path, rows)),
         "--out", str(out_path), "--times", "observed"],
    )
    got = read_rows(out_path)[1:]
    scores = read_rows(tmp_path / "pred.scores.csv")[1:]
    subjects = {
        "a": ([np.array([0.8, 0.2]), np.array([0.5, 0.2])],
              [np.array([1.0, -0.3]), np.array([0.7, 0.1])]),
        "b": ([np.zeros(0), np.array([0.7])], [np.zeros(0), np.array([-1.2])]),
    }
    for subject, (obs_t, obs_v) in subjects.items():
        union = np.unique(np.concatenate(obs_t))
        pred = predict_subject(model, eig, obs_t, obs_v, union)
        var = np.clip(np.diag(pred.cov), 0.0, None).reshape(2, union.size)
        mine = [r for r in got if r[0] == subject]
        assert [(r[1], float(r[2])) for r in mine] == [
            (label, t) for label in model.response_labels for t in union
        ]
        for r in mine:
            k, j = model.response_labels.index(r[1]), int(np.searchsorted(union, float(r[2])))
            expected = [pred.xhat[k, j], var[k, j], pred.lower[k, j], pred.upper[k, j]]
            got_values = [float(x) for x in r[3:7]]
            np.testing.assert_allclose(got_values, expected, rtol=1e-10, atol=1e-12)
        assert [float(r[2]) for r in scores if r[0] == subject] == list(pred.scores)
    # no in-domain observation: no prediction rows and no scores, only the error row
    assert [r[7] != "" for r in got if r[0] == "c"] == [True]
    assert [r for r in scores if r[0] == "c"] == []


def test_predict_zero_model_returns_means(tmp_path, capsys):
    model = zero_model(p=2, n_interior=2, sigma2=0.4)
    rng = np.random.default_rng(2)
    model.means = [spline_mean(model.ws, rng.standard_normal(model.ws.c)) for _ in range(2)]
    eig = eigendecompose(model)
    model_path = tmp_path / "model.json"
    save_model(model_path, model, eig)

    query = write_query(tmp_path, [["s1", "y1", "0.3", "5.0"], ["s1", "y2", "0.6", "-2.0"]])
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(out_path), "--times", "observed"],
    )
    got = read_rows(out_path)
    # observed mode pools this subject's own times
    times = [0.3, 0.6]
    expected = [model.means[k](np.array(times)) for k in range(2)]
    assert len(got) == 1 + 2 * len(times)
    for row in got[1:]:
        k = model.response_labels.index(row[1])
        j = times.index(float(row[2]))
        assert float(row[3]) == expected[k][j]
        assert float(row[4]) == 0.0
        assert float(row[5]) == expected[k][j] and float(row[6]) == expected[k][j]
    # no components, so no score rows
    assert read_rows(tmp_path / "pred.scores.csv") == [["subject", "component", "score"]]


def _drop(doc, key):
    del doc[key]


def _array_field(key, shape, where=None):
    def edit(doc):
        target = doc if where is None else doc[where]
        target[key] = {
            "shape": list(shape),
            "data": base64.b64encode(np.zeros(shape).tobytes()).decode("ascii"),
        }
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: _drop(doc, "domain"), id="no-domain"),
        pytest.param(lambda doc: _drop(doc, "order"), id="no-order"),
        pytest.param(lambda doc: _drop(doc, "eigen"), id="no-eigen"),
        pytest.param(lambda doc: _drop(doc, "mean_taus"), id="no-mean-taus"),
        pytest.param(lambda doc: _drop(doc, "lambdas"), id="no-lambdas"),
        pytest.param(lambda doc: _drop(doc["eigen"], "U"), id="no-eigen-U"),
        pytest.param(lambda doc: doc.update(domain="ab"), id="domain-string"),
        pytest.param(lambda doc: doc.update(domain=[1.0, 0.0]), id="domain-reversed"),
        pytest.param(lambda doc: doc.update(order="4"), id="order-string"),
        pytest.param(lambda doc: doc["eigen"].update(npc=1.5), id="npc-float"),
        pytest.param(lambda doc: doc["eigen"].update(npc=-1), id="npc-negative"),
        pytest.param(lambda doc: doc["eigen"].update(npc=1000), id="npc-above-pc"),
        pytest.param(lambda doc: doc["eigen"].update(pve=7.0), id="pve-above-1"),
        pytest.param(lambda doc: doc.update(lambdas=[[0, 5, [1.0]]]), id="lambdas-out-of-range"),
        pytest.param(lambda doc: doc.update(n_interior_cov=1), id="cov-basis-vs-blocks"),
        pytest.param(lambda doc: doc.update(n_interior_mean=1), id="mean-basis-vs-alphas"),
        pytest.param(lambda doc: doc.update(response_labels=["y1"]), id="labels-vs-blocks"),
        pytest.param(lambda doc: doc.update(mean_taus=[1.0]), id="taus-vs-p"),
        pytest.param(_array_field("blocks", (2, 2, 6)), id="blocks-3d"),
        pytest.param(_array_field("sigma2", (3,)), id="sigma2-vs-p"),
        pytest.param(_array_field("mean_alphas", (1, 6)), id="alphas-vs-p"),
        pytest.param(_array_field("d", (11,), "eigen"), id="d-vs-pc"),
        pytest.param(_array_field("U", (12, 11), "eigen"), id="U-vs-pc"),
    ],
)
def test_malformed_model_file_is_a_data_format_error(tmp_path, capsys, edit):
    _, _, model_path = prediction_model(tmp_path)
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    query = write_query(tmp_path, [["a", "y1", "0.5", "1.0"]])
    code, captured = run_fail(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(tmp_path / "pred.csv")],
    )
    assert code == 1
    assert json.loads(captured.err)["error"] == "data-format"


def test_predict_empty_query(tmp_path, capsys):
    _, _, model_path = prediction_model(tmp_path, seed=6)
    query = tmp_path / "query.csv"
    query.write_text("subject,response,time,value\n")
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query), "--out", str(out_path)],
    )
    assert len(read_rows(out_path)) == 1
    assert len(read_rows(tmp_path / "pred.scores.csv")) == 1


def test_predict_flags_out_of_domain_times(tmp_path, capsys):
    model, eig, model_path = prediction_model(tmp_path, seed=8)
    query = write_query(
        tmp_path,
        [["a", "y1", "0.2", "1.0"], ["a", "y1", "1.5", "9.9"], ["a", "y2", "0.5", "0.7"]],
    )
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(out_path), "--grid-size", "4"],
    )
    got = read_rows(out_path)
    error_rows = [r for r in got[1:] if r[7]]
    assert len(error_rows) == 1
    row = error_rows[0]
    assert row[1] == "y1" and float(row[2]) == 1.5
    assert row[3] == row[4] == row[5] == row[6] == ""
    assert "outside fitted domain [0.0, 1.0]" in row[7]

    # the in-domain observations still drive a prediction
    pred = predict_subject(
        model, eig,
        [np.array([0.2]), np.array([0.5])],
        [np.array([1.0]), np.array([0.7])],
        np.linspace(0.0, 1.0, 4),
    )
    value_rows = [r for r in got[1:] if not r[7] and r[1] == "y1"]
    assert [float(r[3]) for r in value_rows] == list(pred.xhat[0])


@pytest.mark.parametrize("mode", ["grid", "observed"])
def test_predict_query_wholly_outside_the_domain(tmp_path, capsys, mode):
    # the in-domain dataset holds no observations: on the grid each subject
    # gets the prior mean and variance, and every row is reported
    model, eig, model_path = prediction_model(tmp_path, seed=9)
    rows = [["a", "y2", "1.5", "9.9"], ["a", "y1", "-0.25", "1.0"], ["b", "y1", "2.0", "0.3"]]
    query = write_query(tmp_path, rows)
    out_path = tmp_path / "pred.csv"
    run_ok(
        capsys,
        ["predict", "--model", str(model_path), "--data", str(query),
         "--out", str(out_path), "--times", mode, "--grid-size", "3"],
    )
    got = read_rows(out_path)[1:]
    errors = [r for r in got if r[7]]
    assert [(r[0], r[1], r[2]) for r in errors] == [
        ("a", "y1", "-0.25"), ("a", "y2", "1.5"), ("b", "y1", "2.0")
    ]
    assert all(r[3:7] == ["", "", "", ""] for r in errors)
    values = [r for r in got if not r[7]]
    scores = read_rows(tmp_path / "pred.scores.csv")[1:]
    if mode == "observed":
        assert values == [] and scores == []
        return
    prior = predict_subject(model, eig, [np.zeros(0)] * 2, [np.zeros(0)] * 2, np.linspace(0, 1, 3))
    for subject in ("a", "b"):
        mine = [r for r in values if r[0] == subject]
        assert [float(r[3]) for r in mine] == list(prior.xhat.ravel())
        assert [float(r[4]) for r in mine] == list(np.diag(prior.cov))
    assert len(scores) == 2 * eig.npc
    assert {float(r[2]) for r in scores} == {0.0}


def test_simulate_writes_replicates_and_truth(tmp_path, capsys):
    out_dir = tmp_path / "sims"
    run_ok(
        capsys,
        ["simulate", "--out-dir", str(out_dir), "--n", "4", "--replicates", "2",
         "--n-test", "3", "--seed", "5", "--rho", "0.9"],
    )
    first = SparseFunctionalDataset.from_csv(out_dir / "replicate_000.csv")
    second = SparseFunctionalDataset.from_csv(out_dir / "replicate_001.csv")
    assert first.n_subjects == 4 and first.n_responses == 3
    assert list(first.iter_rows()) != list(second.iter_rows())
    test_set = SparseFunctionalDataset.from_csv(out_dir / "replicate_000_test.csv")
    assert test_set.n_subjects == 3

    truth = json.loads((out_dir / "truth.json").read_text())
    assert truth["design"]["n"] == 4 and truth["design"]["rho"] == 0.9
    d = np.array(truth["eigenvalues"])
    assert d.shape == (9,)
    np.testing.assert_allclose(d[:2].sum() / d.sum(), 0.8065591011, atol=1e-9)
    assert truth["sigma_eps2"] == pytest.approx(2.75, abs=1e-12)


def evaluate_args(out_dir, extra=()):
    return [
        "evaluate", "--out-dir", str(out_dir), "--n", "12", "--replicates", "2",
        "--n-test", "4", "--seed", "3", "--n-interior-mean", "2",
        "--n-interior-cov", "2", "--grid-size", "31", *extra,
    ]


def test_evaluate_outputs_and_rerun_determinism(tmp_path, capsys):
    out_a = run_ok(capsys, evaluate_args(tmp_path / "a"))
    paths = json.loads(out_a.out)
    metrics = read_rows(paths["metrics"])
    assert metrics[0] == ["n", "replicate", "rise", "ise_1", "ise_2",
                          "ratio_1", "ratio_2", "mise", "mise_zero_cross"]
    assert len(metrics) == 3
    assert [r[:2] for r in metrics[1:]] == [["12", "0"], ["12", "1"]]
    for row in metrics[1:]:
        assert row[7] != ""  # mise present (test subjects exist)
        assert row[8] == ""  # zero-cross comparison not requested

    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["failures"] == []
    per_n = summary["per_n"]
    assert len(per_n) == 1 and per_n[0]["n"] == 12
    assert per_n[0]["replicates_done"] == 2
    assert set(per_n[0]["metrics"]["rise"]) == {"median", "q25", "q75"}
    assert "mise_zero_cross" not in per_n[0]["metrics"]

    # a rerun, and a run whose fits use the block thread pool, give the same bytes
    run_ok(capsys, evaluate_args(tmp_path / "b"))
    run_ok(capsys, evaluate_args(tmp_path / "w2", ("--workers", "2")))
    for rerun in ("b", "w2"):
        for name in ("metrics.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / rerun / name
            ).read_bytes(), (rerun, name)


def test_evaluate_zero_cross_column(tmp_path, capsys):
    run_ok(capsys, evaluate_args(tmp_path / "zc", ("--compare-zero-cross",)))
    metrics = read_rows(tmp_path / "zc" / "metrics.csv")
    for row in metrics[1:]:
        assert row[8] != ""


def test_evaluate_records_replicate_failures(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho_grid": [-1.0]}))
    out = run_ok(capsys, evaluate_args(tmp_path / "f", ("--config", str(cfg))))
    assert out.out  # still reports the output paths
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert len(summary["failures"]) == 2
    assert all(f["n"] == 12 for f in summary["failures"])
    assert all(f["error"] for f in summary["failures"])
    assert read_rows(tmp_path / "f" / "metrics.csv") == [
        ["n", "replicate", "rise", "ise_1", "ise_2", "ratio_1", "ratio_2",
         "mise", "mise_zero_cross"]
    ]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--rho", "2"), "rho must lie in [0, 1], got 2.0"),
        (("--n", "0"), "need at least one training subject"),
        (("--m-min", "5", "--m-max", "3"), "need 1 <= m_min <= m_max"),
        (("--n", "12,-1"), "need at least one training subject"),
        (("--n", "12,12"), "n_values must not repeat a training size, got [12, 12]"),
    ],
    ids=["rho", "n", "m-range", "second-n", "repeated-n"],
)
def test_evaluate_rejects_a_bad_design_before_writing(tmp_path, capsys, flags, message):
    # as simulate does: the design is checked once, up front, not recorded
    # as a failure of every replicate
    code, captured = run_fail(capsys, evaluate_args(tmp_path / "e", flags))
    assert code == 1
    payload = json.loads(captured.err)
    assert payload == {"error": "invalid", "message": message}
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--rho", "2"), "rho must lie in [0, 1], got 2.0"),
        (("--n", "0"), "need at least one training subject"),
    ],
    ids=["rho", "n"],
)
def test_simulate_rejects_a_bad_design_before_writing(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "d"
    code, captured = run_fail(capsys, ["simulate", "--out-dir", str(out_dir), "--n", "5", *flags])
    assert code == 1
    assert json.loads(captured.err) == {"error": "invalid", "message": message}
    assert not out_dir.exists()


def test_evaluate_non_integer_n_is_invalid(tmp_path, capsys):
    code, captured = run_fail(capsys, evaluate_args(tmp_path / "e", ("--n", "50,x")))
    assert code == 1
    payload = json.loads(captured.err)
    assert payload == {"error": "invalid", "message": "--n expects one or more integers"}
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_grid_below_two_points_is_invalid(tmp_path, capsys, command):
    if command == "predict":
        _, _, model_path = prediction_model(tmp_path)
        query = write_query(tmp_path, [["a", "y1", "0.2", "1.0"]])
        argv = ["predict", "--model", str(model_path), "--data", str(query),
                "--out", str(tmp_path / "pred.csv"), "--grid-size", "0"]
    else:
        argv = evaluate_args(tmp_path / "e", ("--grid-size", "1"))
    code, captured = run_fail(capsys, argv)
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert "grid_size must be >= 2" in payload["message"]


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7}))
    run_ok(
        capsys,
        ["evaluate", "--out-dir", str(tmp_path / "o"), "--n", "99", "--replicates", "1",
         "--n-test", "0", "--seed", "1", "--n-interior-mean", "2",
         "--n-interior-cov", "2", "--grid-size", "31", "--config", str(cfg)],
    )
    metrics = read_rows(tmp_path / "o" / "metrics.csv")
    assert metrics[1][0] == "7"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, captured = run_fail(
        capsys, evaluate_args(tmp_path / "x", ("--config", str(cfg)))
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "data-format"
    assert "unknown config keys: bogus" in payload["message"]


@pytest.mark.parametrize(
    "entry",
    [
        '{"domain": [1]}',
        '{"domain": [0, 1, 2]}',
        '{"domain": "01"}',
        '{"order": "4"}',
        '{"order": true}',
        '{"pve": "x"}',
        '{"rho_grid": 5}',
        '{"npc": 2.5}',
        '{"workers": null}',
    ],
)
def test_config_value_of_wrong_type_or_shape_is_invalid(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(entry)
    out_dir = tmp_path / "sims"
    code, captured = run_fail(
        capsys,
        ["simulate", "--out-dir", str(out_dir), "--n", "5", "--n-test", "0",
         "--config", str(cfg)],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert not out_dir.exists()


def test_every_config_field_has_a_checked_kind():
    checked = " ".join(names for _, names in _FIELD_KINDS.values()).split()
    assert sorted(checked) == sorted(f.name for f in fields(RunConfig))


def test_malformed_data_error_payload(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("subject,response,time,value\ns1,y1,0.5,ok\n")
    code, captured = run_fail(
        capsys, ["fit", "--data", str(path), "--out", str(tmp_path / "m.json")]
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "data-format"
    assert payload["detail"] == [[2, "time/value not numeric"]]


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code, captured = run_fail(
        capsys, ["fit", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "m.json")]
    )
    assert code == 1
    assert json.loads(captured.err)["error"] == "io"


def test_bad_domain_flag_is_invalid(tmp_path, capsys):
    path = tmp_path / "d.csv"
    make_dataset(np.random.default_rng(0), n=3, p=2).to_csv(path)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "m.json"), "--domain", "0,1,2"],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert "expects 'a,b'" in payload["message"]


def test_non_numeric_domain_flag_is_invalid(tmp_path, capsys):
    path = tmp_path / "d.csv"
    make_dataset(np.random.default_rng(0), n=3, p=2).to_csv(path)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "m.json"), "--domain", "a,b"],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid"
    assert "expects 'a,b'" in payload["message"]


def test_data_outside_the_domain_flag_is_domain_error(tmp_path, capsys):
    # the message names the offending time as a plain float
    path = tmp_path / "d.csv"
    make_dataset(np.random.default_rng(0), n=3, p=2).to_csv(path)
    code, captured = run_fail(
        capsys,
        ["fit", "--data", str(path), "--out", str(tmp_path / "m.json"), "--domain", "0,0.5"],
    )
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "domain"
    pattern = r"time 0\.\d+ outside the fitted domain \[0\.0, 0\.5\]"
    assert re.fullmatch(pattern, payload["message"])


def test_usage_errors_exit_two(tmp_path, capsys):
    code, captured = run_fail(capsys, ["fit", "--out", "m.json"])
    assert code == 2
    assert json.loads(captured.err)["error"] == "usage"

    code, _ = run_fail(capsys, ["frobnicate"])
    assert code == 2


def test_version_flag(capsys):
    import funcov

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == funcov.__version__
