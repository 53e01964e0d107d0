"""Fit time with ``workers`` 2 and 1, under the caller's BLAS setting.

Run from the root of a source checkout:

    python scripts/time_workers.py --n 1000 2000 5000 --runs 9

Unlike ``bench/run.py``, which pins BLAS to one thread, this leaves the
BLAS thread variables as the caller set them; with none set, OpenBLAS
starts a thread per core, which is what a user gets. Each n fits the
benchmark's sparse design (3-7 points per curve, rho 0.9, snr 2,
seed 1, domain [0, 1]) once as a warm-up, then once per ``workers``
count per run, alternating, so a slow spell of the host hits both.
Prints each count's median and range of wall seconds.
"""

import argparse
import os
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import funcov  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
WORKERS = (2, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 5000])
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args()
    blas = {var: os.environ[var] for var in BLAS_VARS if var in os.environ}
    print(f"BLAS variables: {blas or 'none set'}; default workers: {funcov.FitSettings().workers}")
    warnings.simplefilter("ignore", RuntimeWarning)  # a clipped noise variance
    for n in args.n:
        train, _ = funcov.generate(
            funcov.SimDesign(n=n, rho=0.9, snr=2.0, m_min=3, m_max=7, seed=1, n_test=0)
        )

        def fit(workers):
            settings = funcov.FitSettings(domain=(0.0, 1.0), workers=workers)
            t0 = perf_counter()
            funcov.fit_covariance_model(train, settings)
            return perf_counter() - t0

        fit(WORKERS[0])  # warm-up
        times = {w: [] for w in WORKERS}
        for _ in range(args.runs):
            for w in WORKERS:
                times[w].append(fit(w))
        for w, ts in times.items():
            print(f"n={n} workers={w}: median {statistics.median(ts):.2f} s "
                  f"({min(ts):.2f}-{max(ts):.2f}, {len(ts)} runs)")


if __name__ == "__main__":
    main()
