"""Benchmark of funcov fitting and prediction.

Run from the root of a source checkout:

    python3 bench/run.py --workload fit_sparse --seed 1 --seconds 40 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned. BLAS runs single-threaded (see README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run. Every
operation's result is checked against reference fingerprints; the line
before the result holds machine info, raw samples and any mismatch.
"""

import os

# Must precede the first numpy import to take effect.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Least seconds of prediction passes after each set-up (and fit, when one
# is made); a round's passes last as long as its set-up when that is more.
# Short rounds give a run several set-ups, and spread each kind of
# operation over the whole run rather than one stretch of it.
PASS_SECONDS = 1.0


def import_package():
    if not (SRC / "funcov" / "__init__.py").is_file():
        sys.exit(f"error: no funcov sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import funcov

    if Path(funcov.__file__).resolve().parent != SRC / "funcov":
        sys.exit(f"error: imported funcov from {funcov.__file__}, not {SRC}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np):
    info = {"threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def machine_info(seed):
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "funcov").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def fit_once(w, train, truth, checker, fit_s):
    """Fit, append its seconds to ``fit_s`` and check it; None if it raised."""
    t0 = perf_counter()
    try:
        res = w.fit(train)
    except Exception as exc:
        checker.fail("fit", exc)
        return None
    fit_s.append(perf_counter() - t0)
    checker.check("fit", w.fit_fingerprint(res, truth))
    return res


def prediction_passes(w, res, batches, budget, checker):
    """Alternate ``mise`` and ``ape`` passes for ``budget`` seconds.

    A pass calls the kind once per batch of held-out subjects and is
    checked as one operation. Each kind runs at least once, and the kind
    with less time so far goes next, so both get about half of the budget.
    Returns, per kind, the per-batch seconds of each successful pass.
    """
    spent = dict.fromkeys(w.PREDICT_OPS, 0.0)
    done = {kind: [] for kind in w.PREDICT_OPS}
    while min(spent.values()) == 0.0 or sum(spent.values()) < budget:
        kind = min(spent, key=spent.get)
        op = w.PREDICT_OPS[kind]
        start = perf_counter()
        outs, calls = [], []
        try:
            for batch in batches:
                t0 = perf_counter()
                outs.append(op(res, batch))
                calls.append(perf_counter() - t0)
        except Exception as exc:
            checker.fail(kind, exc)
        else:
            done[kind].append(calls)
            checker.check(kind, w.pass_fingerprint(kind, outs))
        spent[kind] += perf_counter() - start
    return done


def pass_seconds(passes):
    """A typical whole pass: each batch at its median over the run's passes.

    Every batch counts, and a slow spell of the host moves a batch's
    median only if it covers most of that batch's calls.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def timed_run(name, seed, seconds, checker):
    """Time the workload's operations for ``seconds`` in total.

    Each round sets up (``generate``, plus the fit on the predict
    workload), fits on the fit workloads, then runs prediction passes.
    A fit workload fits again only while its fits stay within half of
    ``seconds``, so passes get the other half; later rounds reuse the
    last model, which is the same model since the inputs are the same. The last round's passes take
    whatever time is left.
    """
    import workloads as w

    wl = w.WORKLOADS[name]
    setup_s, fit_s = [], []
    passes = {kind: [] for kind in w.PREDICT_OPS}
    first_pass = {kind: [] for kind in w.PREDICT_OPS}
    res = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        t0 = perf_counter()
        train, truth = w.make_inputs(name, seed)
        if wl.timed == "predict":
            fitted = fit_once(w, train, truth, checker, fit_s)
            setup_s.append(perf_counter() - t0)
        else:
            setup_s.append(perf_counter() - t0)
            fitted = None
            if not fit_s or sum(fit_s) + fit_s[-1] <= seconds / 2:
                fitted = fit_once(w, train, truth, checker, fit_s)
        res = fitted or res
        if res is None:
            continue
        per_round = max(PASS_SECONDS, setup_s[-1])
        left = deadline - perf_counter()
        budget = left if left < 2 * per_round + setup_s[-1] else per_round
        done = prediction_passes(w, res, w.batches(truth), budget, checker)
        for kind, calls in done.items():
            passes[kind] += calls
            if fitted is not None and calls:
                first_pass[kind].append(sum(calls[0]))
    if not fit_s or not all(passes.values()):
        sys.exit("error: every operation of one kind failed")

    n_test = truth.test_data.n_subjects
    metrics = {
        "fit_s": ("s", statistics.median(fit_s)),
        "predict_grid_subj_per_s": ("1/s", n_test / pass_seconds(passes["mise"])),
        "predict_obs_subj_per_s": ("1/s", n_test / pass_seconds(passes["ape"])),
        "setup_s": ("s", statistics.median(setup_s)),
        "peak_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    samples = {"setup_s": setup_s, "fit_s": fit_s}
    # The first pass after each fit is kept apart, so that costs paid once
    # per model show even where the medians leave them out.
    for kind in passes:
        samples[f"{kind}_pass_s"] = [sum(calls) for calls in passes[kind]]
        samples[f"{kind}_first_pass_s"] = first_pass[kind]
    return metrics, {"samples": samples}


def traced_run(name, seed, checker):
    """One traced pass over the workload's operations.

    Fit workloads trace one fit. The predict workload traces its set-up
    fit, then one ``mise`` and one ``ape`` pass over the held-out
    batches. Each of these calls is a root span, and is also timed on
    its own, outside the tracer, so that the self times can be checked
    against it.
    """
    import tracing
    import workloads as w

    tracer = tracing.Tracer()
    train, truth = w.make_inputs(name, seed)
    wall = 0.0

    def call(span, fn, *args):
        nonlocal wall
        t0 = perf_counter()
        with tracer.span(span):
            out = fn(*args)
        wall += perf_counter() - t0
        return out

    outs = {}
    with tracing.installed(tracer):
        res = call("pipeline.fit_covariance_model", w.fit, train)
        if w.WORKLOADS[name].timed == "predict":
            batches = w.batches(truth)
            for kind, op in w.PREDICT_OPS.items():
                outs[kind] = [call(f"simulate.{kind}", op, res, b) for b in batches]
    # Checked outside the tracer: RISE evaluates the basis too.
    checker.check("fit", w.fit_fingerprint(res, truth))
    for kind, out in outs.items():
        checker.check(kind, w.pass_fingerprint(kind, out))

    metrics = tracing.layer_metrics(tracer, wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"workload": name, "seed": seed, "spans": tracer.dump()}))
    extra = {"spans_file": str(spans_file.relative_to(ROOT)), "warnings": sorted(set(tracer.warnings))}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    checker = workloads.Checker(args.workload, args.seed)
    if args.trace:
        metrics, extra = traced_run(args.workload, args.seed, checker)
    else:
        metrics, extra = timed_run(args.workload, args.seed, args.seconds, checker)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "reference": "missing" if checker.reference is None else "checked",
        "problems": checker.problems,
        **extra,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
