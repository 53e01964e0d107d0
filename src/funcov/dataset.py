"""Container for multivariate sparse functional observations.

Data arrive in long format: one row per observation carrying a subject
label, a response label, a time and a value. Each subject may be observed
at different (and very few) times in each response, and may be missing a
response entirely.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataFormatError, FuncovError

CSV_HEADER = ("subject", "response", "time", "value")


class SparseFunctionalDataset:
    """Sparse multivariate functional data in long format.

    Observations are grouped per subject and response. Subject order
    follows first appearance in the input; response order is the sorted
    label order unless an explicit ordering is supplied. Within a subject
    and response the input row order is preserved.
    """

    def __init__(self, subjects, responses, times, values):
        """Build a dataset from per-subject, per-response arrays.

        Parameters
        ----------
        subjects : list of str
            Subject labels, one per subject.
        responses : list of str
            Response labels, one per response.
        times, values : list of list of ndarray
            ``times[i][k]`` holds subject i's observation times in
            response k (possibly empty), ``values[i][k]`` the matching
            values.
        """
        self.subjects = [str(s) for s in subjects]
        self.responses = [str(r) for r in responses]
        if len(set(self.subjects)) != len(self.subjects):
            raise FuncovError("duplicate subject labels")
        if len(set(self.responses)) != len(self.responses):
            raise FuncovError("duplicate response labels")
        self._times = [
            [np.asarray(t, dtype=float).ravel() for t in row] for row in times
        ]
        self._values = [
            [np.asarray(v, dtype=float).ravel() for v in row] for row in values
        ]
        if len(self._times) != len(self.subjects) or len(self._values) != len(self.subjects):
            raise FuncovError("times/values do not match the subject list")
        total = 0
        for i in range(len(self.subjects)):
            if len(self._times[i]) != len(self.responses):
                raise FuncovError("times/values do not match the response list")
            for k in range(len(self.responses)):
                t, v = self._times[i][k], self._values[i][k]
                if t.shape != v.shape:
                    raise FuncovError(
                        f"times/values length mismatch for subject {self.subjects[i]!r}"
                    )
                if t.size and not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
                    raise FuncovError(
                        f"non-finite observation for subject {self.subjects[i]!r}"
                    )
                total += t.size
        if total == 0:
            raise FuncovError("dataset contains no observations")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_responses(self) -> int:
        return len(self.responses)

    def m(self, i: int, k: int) -> int:
        """Number of observations of subject i in response k."""
        return self._times[i][k].size

    def obs(self, i: int, k: int):
        """(times, values) arrays for subject i, response k."""
        return self._times[i][k], self._values[i][k]

    def time_range(self):
        """(min, max) over all observation times."""
        lo = min(t.min() for row in self._times for t in row if t.size)
        hi = max(t.max() for row in self._times for t in row if t.size)
        return float(lo), float(hi)

    def pooled(self, k: int):
        """Response k pooled across subjects in subject order.

        Returns (times, values, counts): the concatenated observation
        arrays and each subject's observation count (zero when the
        subject does not observe response k).
        """
        times = [self._times[i][k] for i in range(self.n_subjects)]
        values = [self._values[i][k] for i in range(self.n_subjects)]
        counts = np.array([t.size for t in times], dtype=np.intp)
        return np.concatenate(times), np.concatenate(values), counts

    def iter_rows(self):
        """Yield (subject, response, time, value) in storage order."""
        for i, s in enumerate(self.subjects):
            for k, r in enumerate(self.responses):
                for t, v in zip(self._times[i][k], self._values[i][k]):
                    yield s, r, float(t), float(v)

    @classmethod
    def from_long(cls, subjects, responses, times, values, response_order=None):
        """Build from parallel long-format arrays.

        Subject order follows first appearance. ``response_order`` fixes
        the response ordering (and rejects labels outside it); by default
        responses are ordered by sorted label.
        """
        subjects = [str(s) for s in subjects]
        responses = [str(r) for r in responses]
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if not (len(subjects) == len(responses) == times.size == values.size):
            raise FuncovError("long-format columns have unequal lengths")
        if response_order is None:
            resp_labels = sorted(set(responses))
        else:
            resp_labels = [str(r) for r in response_order]
            unknown = sorted(set(responses) - set(resp_labels))
            if unknown:
                raise DataFormatError(
                    f"unknown response labels: {', '.join(unknown)}"
                )
        subj_labels = list(dict.fromkeys(subjects))
        si = {s: i for i, s in enumerate(subj_labels)}
        ri = {r: k for k, r in enumerate(resp_labels)}
        t_nested = [[[] for _ in resp_labels] for _ in subj_labels]
        v_nested = [[[] for _ in resp_labels] for _ in subj_labels]
        for s, r, t, v in zip(subjects, responses, times, values):
            t_nested[si[s]][ri[r]].append(t)
            v_nested[si[s]][ri[r]].append(v)
        return cls(subj_labels, resp_labels, t_nested, v_nested)

    @classmethod
    def from_csv(cls, path, response_order=None, allow_empty=False):
        """Load a dataset from a ``subject,response,time,value`` CSV file.

        Malformed rows are collected and reported together with their
        line numbers in a :class:`DataFormatError`. With ``allow_empty``
        a file holding only the header yields ``None`` instead of an
        error.
        """
        subjects, responses, times, values = [], [], [], []
        bad = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            if [h.strip() for h in header] != list(CSV_HEADER):
                raise DataFormatError(
                    f"{path}: header must be {','.join(CSV_HEADER)}",
                    rows=[(1, "bad header")],
                )
            for line_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    bad.append((line_no, f"expected 4 fields, got {len(row)}"))
                    continue
                s, r, t_raw, v_raw = (f.strip() for f in row)
                if not s or not r:
                    bad.append((line_no, "empty subject or response label"))
                    continue
                try:
                    t = float(t_raw)
                    v = float(v_raw)
                except ValueError:
                    bad.append((line_no, "time/value not numeric"))
                    continue
                if not (np.isfinite(t) and np.isfinite(v)):
                    bad.append((line_no, "time/value not finite"))
                    continue
                subjects.append(s)
                responses.append(r)
                times.append(t)
                values.append(v)
        if bad:
            shown = "; ".join(f"line {n}: {msg}" for n, msg in bad[:10])
            more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
            raise DataFormatError(f"{path}: malformed rows: {shown}{more}", rows=bad)
        if not subjects:
            if allow_empty:
                return None
            raise DataFormatError(f"{path}: no data rows")
        return cls.from_long(subjects, responses, times, values, response_order)

    def to_csv(self, path):
        """Write the dataset in long format."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for s, r, t, v in self.iter_rows():
                writer.writerow([s, r, repr(t), repr(v)])
