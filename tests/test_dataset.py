"""Long-format container: ordering, lookup, CSV round trips, bad input."""

import numpy as np
import pytest

from funcov import (
    DataFormatError,
    FitSettings,
    FuncovError,
    SparseFunctionalDataset,
    fit_covariance_model,
)
from funcov.dataset import CSV_HEADER


def toy():
    return SparseFunctionalDataset.from_long(
        subjects=["b", "b", "a", "a", "a"],
        responses=["y2", "y1", "y1", "y1", "y2"],
        times=[0.5, 0.1, 0.2, 0.7, 0.9],
        values=[5.0, 1.0, 2.0, 3.0, 4.0],
    )


def test_from_long_ordering():
    ds = toy()
    # subjects by first appearance, responses by sorted label
    assert ds.subjects == ["b", "a"]
    assert ds.responses == ["y1", "y2"]
    assert ds.n_subjects == 2 and ds.n_responses == 2
    t, v = ds.obs(1, 0)
    np.testing.assert_array_equal(t, [0.2, 0.7])
    np.testing.assert_array_equal(v, [2.0, 3.0])
    assert ds.m(0, 0) == 1 and ds.m(0, 1) == 1 and ds.m(1, 1) == 1


def test_from_long_response_order_override():
    ds = SparseFunctionalDataset.from_long(
        ["a", "a"], ["y2", "y1"], [0.1, 0.2], [1.0, 2.0], response_order=["y2", "y1"]
    )
    assert ds.responses == ["y2", "y1"]
    with pytest.raises(DataFormatError):
        SparseFunctionalDataset.from_long(
            ["a"], ["y3"], [0.1], [1.0], response_order=["y1", "y2"]
        )


def test_from_long_unequal_columns():
    with pytest.raises(FuncovError):
        SparseFunctionalDataset.from_long(["a", "b"], ["y1"], [0.1], [1.0])


def test_missing_response_is_empty():
    ds = SparseFunctionalDataset.from_long(
        ["a", "b"], ["y1", "y2"], [0.3, 0.6], [1.0, 2.0]
    )
    assert ds.m(0, 1) == 0
    t, v = ds.obs(0, 1)
    assert t.size == 0 and v.size == 0
    np.testing.assert_array_equal(ds.pooled(1)[1], [2.0])


def test_time_range_and_iter_rows():
    ds = toy()
    assert ds.time_range() == (0.1, 0.9)
    rows = list(ds.iter_rows())
    assert rows[0] == ("b", "y1", 0.1, 1.0)
    assert len(rows) == 5
    # storage order: subject-major, then response, then input order
    assert [r[0] for r in rows] == ["b", "b", "a", "a", "a"]


def test_validation_errors():
    with pytest.raises(FuncovError, match="duplicate subject"):
        SparseFunctionalDataset(["a", "a"], ["y1"], [[[0.1]], [[0.2]]], [[[1.0]], [[2.0]]])
    with pytest.raises(FuncovError, match="duplicate response"):
        SparseFunctionalDataset(["a"], ["y1", "y1"], [[[0.1], [0.2]]], [[[1.0], [2.0]]])
    with pytest.raises(FuncovError, match="mismatch"):
        SparseFunctionalDataset(["a"], ["y1"], [[[0.1, 0.2]]], [[[1.0]]])
    with pytest.raises(FuncovError, match="non-finite"):
        SparseFunctionalDataset(["a"], ["y1"], [[[np.nan]]], [[[1.0]]])
    with pytest.raises(FuncovError, match="response list"):
        SparseFunctionalDataset(["a"], ["y1", "y2"], [[[0.1]]], [[[1.0]]])
    # no observations is a valid dataset; the fit rejects it (below)
    empty = SparseFunctionalDataset(["a"], ["y1"], [[[]]], [[[]]])
    with pytest.raises(FuncovError, match="no observations"):
        empty.time_range()


def test_validation_names_the_first_offending_subject():
    # subject b's non-finite value comes before subject c's length mismatch,
    # and within one cell a length mismatch is reported first
    times = [[[0.1]], [[0.2, 0.3]], [[0.4]]]
    with pytest.raises(FuncovError, match="non-finite observation for subject 'b'"):
        SparseFunctionalDataset(["a", "b", "c"], ["y1"], times, [[[1.0]], [[np.inf, 2.0]], [[]]])
    with pytest.raises(FuncovError, match="length mismatch for subject 'b'"):
        SparseFunctionalDataset(["a", "b", "c"], ["y1"], times, [[[1.0]], [[np.nan]], [[]]])


@pytest.mark.parametrize("domain", [None, (0.0, 1.0)], ids=["observed-range", "explicit"])
def test_dataset_without_observations_is_rejected_by_the_fit(domain):
    empty = SparseFunctionalDataset(["a", "b"], ["y1", "y2"], [[[], []]] * 2, [[[], []]] * 2)
    assert empty.n_subjects == 2 and empty.m(1, 1) == 0
    assert list(empty.iter_rows()) == []
    message = "dataset contains no observations" if domain is None else "no observations"
    with pytest.raises(FuncovError, match=message):
        fit_covariance_model(empty, FitSettings(domain=domain, workers=1))


def test_pooled_arrays_are_stored_once_and_read_only():
    ds = toy()
    for k in range(ds.n_responses):
        first, again = ds.pooled(k), ds.pooled(k)
        assert all(a is b for a, b in zip(first, again))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
    t, v = ds.obs(1, 0)
    assert not t.flags.writeable and not v.flags.writeable
    assert np.shares_memory(t, ds.pooled(0)[0])


def test_csv_round_trip_preserves_floats(tmp_path):
    rng = np.random.default_rng(5)
    subjects = [f"s{i}" for i in range(4) for _ in range(3)]
    responses = (["y1", "y2", "y1"] * 4)[: len(subjects)]
    times = rng.random(len(subjects))
    values = rng.standard_normal(len(subjects))
    ds = SparseFunctionalDataset.from_long(subjects, responses, times, values)
    path = tmp_path / "d.csv"
    ds.to_csv(path)
    back = SparseFunctionalDataset.from_csv(path)
    assert back.subjects == ds.subjects
    assert back.responses == ds.responses
    for i in range(ds.n_subjects):
        for k in range(ds.n_responses):
            t0, v0 = ds.obs(i, k)
            t1, v1 = back.obs(i, k)
            np.testing.assert_array_equal(t0, t1)
            np.testing.assert_array_equal(v0, v1)
    # writing the loaded copy reproduces the file byte for byte
    path2 = tmp_path / "d2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_and_empty(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(DataFormatError, match="empty file"):
        SparseFunctionalDataset.from_csv(p)
    p.write_text("subject,response,value,time\na,y1,0.1,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        SparseFunctionalDataset.from_csv(p)
    p.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        SparseFunctionalDataset.from_csv(p)
    assert SparseFunctionalDataset.from_csv(p, allow_empty=True) is None


def test_csv_malformed_rows_reported_with_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "subject,response,time,value\n"
        "a,y1,0.1,1.0\n"
        "a,y1,0.2\n"
        "a,,0.3,2.0\n"
        "a,y1,zebra,3.0\n"
        "a,y1,inf,4.0\n"
    )
    with pytest.raises(DataFormatError) as exc:
        SparseFunctionalDataset.from_csv(p)
    rows = exc.value.rows
    assert [n for n, _ in rows] == [3, 4, 5, 6]
    assert "expected 4 fields" in rows[0][1]
    assert "empty subject or response" in rows[1][1]
    assert "not numeric" in rows[2][1]
    assert "not finite" in rows[3][1]


def test_csv_blank_lines_skipped(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("subject,response,time,value\n\na,y1,0.1,1.0\n\n")
    ds = SparseFunctionalDataset.from_csv(p)
    assert ds.n_subjects == 1 and ds.m(0, 0) == 1
