"""Command-line interface.

Four subcommands cover the full workflow:

``fit``
    Estimate a model from a long-format CSV and write the model file
    plus grid-evaluated eigenfunctions and correlation surfaces.
``predict``
    Load a model, condition on a CSV of observations, and write
    per-subject predictions with bands plus a score table.
``simulate``
    Write replicate datasets from the built-in trivariate design.
``evaluate``
    Run the full simulate/fit/score loop and write per-replicate
    metrics with summary quantiles.

Flags mirror :class:`funcov.config.RunConfig`; ``--config file.json``
overrides flags. Failures exit nonzero with a JSON error payload on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import repeat

import numpy as np

from .config import RunConfig, merge_config
from .dataset import CSV_HEADER, SparseFunctionalDataset
from .errors import DataFormatError, DomainError, FuncovError
from .fpca import eval_covariance, eval_eigenfunction
from .model_io import load_model, save_model
from .pipeline import fit_covariance_model
from .predict import predict_batch
from .simulate import SimDesign, generate, replicate_metrics
from . import __version__


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message, code=2)


def _fail(kind: str, message: str, detail=None, code: int = 1):
    payload = {"error": kind, "message": message}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    raise SystemExit(code)


def _add_fit_flags(sp):
    sp.add_argument("--order", type=int, help="spline order (degree + 1)")
    sp.add_argument("--n-interior-mean", dest="n_interior_mean", type=int)
    sp.add_argument("--n-interior-cov", dest="n_interior_cov", type=int)
    sp.add_argument("--pve", type=float, help="explained-variance target")
    sp.add_argument("--npc", type=int, help="force the component count")
    sp.add_argument(
        "--workers",
        type=int,
        help="threads for a fit's independent mean and covariance-block tasks "
        "(default: usable cores // BLAS threads, 1 when BLAS threads are unset; "
        "evaluate runs replicates in order)",
    )
    sp.add_argument("--grid-size", dest="grid_size", type=int)


def _add_design_flags(sp):
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--snr", type=float)
    sp.add_argument("--m-min", dest="m_min", type=int)
    sp.add_argument("--m-max", dest="m_max", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--n-test", dest="n_test", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="funcov", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "predict", "simulate", "evaluate"):
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file; overrides flags")
        if name == "fit":
            sp.add_argument("--data", required=True, help="long-format CSV")
            sp.add_argument("--out", required=True, help="model file to write")
            sp.add_argument("--domain", help="a,b time interval")
            sp.add_argument("--responses", help="comma-separated response labels")
            _add_fit_flags(sp)
        elif name == "predict":
            sp.add_argument("--model", required=True)
            sp.add_argument("--data", required=True, help="observations CSV")
            sp.add_argument("--out", required=True, help="predictions CSV to write")
            sp.add_argument(
                "--times",
                choices=("grid", "observed"),
                help="predict on a uniform grid or at each subject's own times",
            )
            sp.add_argument("--grid-size", dest="grid_size", type=int)
            sp.add_argument("--npc", type=int)
            sp.add_argument("--level", type=float)
        elif name == "simulate":
            sp.add_argument("--n", type=int)
            _add_design_flags(sp)
        else:
            sp.add_argument("--n", help="training sizes, comma separated")
            _add_design_flags(sp)
            sp.add_argument(
                "--compare-zero-cross",
                dest="compare_zero_cross",
                action="store_true",
                help="also score predictions with cross blocks zeroed",
            )
            _add_fit_flags(sp)
    return parser


def _config_from_args(args) -> RunConfig:
    flag_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "data", "out", "model", "out_dir", "times")
    }
    if "domain" in flag_values:
        try:
            a, b = map(float, flag_values["domain"].split(","))
        except ValueError:  # not two numbers
            raise FuncovError("--domain expects 'a,b'") from None
        flag_values["domain"] = (a, b)
    if "responses" in flag_values:
        flag_values["responses"] = [
            r.strip() for r in flag_values["responses"].split(",") if r.strip()
        ]
    if "n" in flag_values and isinstance(flag_values["n"], str):
        try:
            values = [int(v) for v in flag_values["n"].split(",") if v.strip()]
        except ValueError:  # not integers
            values = []
        if not values:
            raise FuncovError("--n expects one or more integers")
        flag_values["n"] = values[0]
        flag_values["n_values"] = values
    return merge_config(flag_values, getattr(args, "config", None))


# The SimDesign fields a run config sets, besides n and the seed.
DESIGN_FIELDS = ("rho", "snr", "m_min", "m_max", "n_test")


def _sim_design(cfg: RunConfig, n: int, seed) -> SimDesign:
    return SimDesign(n=n, seed=seed, **{key: getattr(cfg, key) for key in DESIGN_FIELDS})


def _design_record(cfg: RunConfig, *extra) -> dict:
    """The simulation settings written to truth.json and summary.json."""
    keys = DESIGN_FIELDS + ("seed", "replicates") + extra
    return {key: getattr(cfg, key) for key in keys}


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    data = SparseFunctionalDataset.from_csv(args.data, response_order=cfg.responses)
    res = fit_covariance_model(data, cfg)
    save_model(args.out, res.model, res.eig)

    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    a, b = res.model.ws.domain
    grid = np.linspace(a, b, cfg.grid_size)
    labels = res.model.response_labels
    # each cell's text is formatted once, from Python floats
    times = [repr(t) for t in grid.tolist()]
    with open(f"{stem}.eigenfunctions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["response", "component", "time", "value"])
        for ell in range(res.npc):
            for k, label in enumerate(labels):
                vals = eval_eigenfunction(res.eig, ell, k, grid).tolist()
                writer.writerows(zip(repeat(label), repeat(ell + 1), times, map(repr, vals)))
    with open(f"{stem}.correlations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["response_i", "response_j", "s", "t", "value"])
        autos = [eval_covariance(res.model, k, k, grid, grid) for k in range(len(labels))]
        diag = [np.sqrt(np.clip(np.diag(surf), 0, None)) for surf in autos]
        s_col, t_col = [s for s in times for _ in times], times * len(times)
        for k, lk in enumerate(labels):
            for kp, lkp in enumerate(labels):
                surf = autos[k] if k == kp else eval_covariance(res.model, k, kp, grid, grid)
                denom = np.outer(diag[k], diag[kp])
                with np.errstate(divide="ignore", invalid="ignore"):
                    corr = np.where(denom > 0, surf / denom, np.nan)
                cells = map(repr, corr.ravel().tolist())
                writer.writerows(zip(repeat(lk), repeat(lkp), s_col, t_col, cells))
    print(
        json.dumps(
            {
                "model": args.out,
                "npc": res.npc,
                "eigenvalues": [float(v) for v in res.eig.d],
                "sigma2": [float(v) for v in res.model.sigma2],
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    model, eig = load_model(args.model)
    mode = getattr(args, "times", "grid")
    data = SparseFunctionalDataset.from_csv(
        args.data, response_order=model.response_labels, allow_empty=True
    )
    scores_path = (
        args.out[:-4] + ".scores.csv" if args.out.endswith(".csv") else args.out + ".scores.csv"
    )
    pred_header = ["subject", "response", "time", "xhat", "variance", "lower95", "upper95", "error"]
    a, b = model.ws.domain
    with open(args.out, "w", newline="") as fh, open(scores_path, "w", newline="") as sh:
        writer = csv.writer(fh)
        writer.writerow(pred_header)
        score_writer = csv.writer(sh)
        score_writer.writerow(["subject", "component", "score"])
        if data is None:
            return 0
        n, labels = data.n_subjects, model.response_labels
        # observations outside the fitted domain are dropped and reported
        times_in, values_in, dropped = [], [], []
        for i in range(n):
            t_row, v_row, out = [], [], []
            for k, label in enumerate(labels):
                t, v = data.obs(i, k)
                ok = (t >= a) & (t <= b)
                t_row.append(t[ok])
                v_row.append(v[ok])
                out += [(label, repr(x)) for x in t[~ok].tolist()]
            times_in.append(t_row)
            values_in.append(v_row)
            dropped.append(out)
        in_domain = SparseFunctionalDataset(data.subjects, data.responses, times_in, values_in)
        grid = np.linspace(a, b, cfg.grid_size) if mode == "grid" else None
        pred = predict_batch(model, eig, in_domain, grid, cfg.npc, cfg.level)
        scores = pred.scores.tolist()
        if grid is not None:
            grid_cells = list(map(repr, grid.tolist()))
        else:
            # each subject's rows of the pooled observed-time output
            owners = np.concatenate(
                [np.repeat(np.arange(n), in_domain.pooled(k)[2]) for k in range(model.p)]
            )
            ends = np.cumsum(np.bincount(owners, minlength=n))
            subject_rows = np.split(np.argsort(owners, kind="stable"), ends[:-1])
        reason = f"time outside fitted domain [{a!r}, {b!r}]"
        for i, subject in enumerate(data.subjects):
            # converted per subject, so the batch is never held twice as lists
            if grid is not None:
                time_cells, at = grid_cells, i
            else:
                rows = subject_rows[i]
                new_times, first = np.unique(pred.times[rows], return_index=True)
                time_cells, at = list(map(repr, new_times.tolist())), (slice(None), rows[first])
            cells = [x[at].tolist() for x in (pred.xhat, pred.var, pred.lower, pred.upper)]
            if time_cells:
                for k, label in enumerate(labels):
                    writer.writerows(
                        zip(
                            repeat(subject),
                            repeat(label),
                            time_cells,
                            *(map(repr, x[k]) for x in cells),
                            repeat(""),
                        )
                    )
                score_writer.writerows(
                    zip(repeat(subject), range(1, len(scores[i]) + 1), map(repr, scores[i]))
                )
            writer.writerows(
                [subject, label, t, "", "", "", "", reason] for label, t in dropped[i]
            )
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    # a bad design flag fails the command before anything is written
    designs = [
        _sim_design(cfg, cfg.n, seed)
        for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    for r, design in enumerate(designs):
        train, truth = generate(design)
        train.to_csv(os.path.join(args.out_dir, f"replicate_{r:03d}.csv"))
        if truth.test_data is not None:
            truth.test_data.to_csv(
                os.path.join(args.out_dir, f"replicate_{r:03d}_test.csv")
            )
    # the spectrum and noise variance depend on the design alone, not the seed
    with open(os.path.join(args.out_dir, "truth.json"), "w") as fh:
        json.dump(
            {
                "design": _design_record(cfg, "n"),
                "eigenvalues": [float(v) for v in truth.d],
                "sigma_eps2": truth.sigma_eps2,
            },
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    return 0


METRIC_COLUMNS = (
    "rise",
    "ise_1",
    "ise_2",
    "ratio_1",
    "ratio_2",
    "mise",
    "mise_zero_cross",
)


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    n_values = cfg.n_values or [cfg.n]
    seeds = iter(np.random.SeedSequence(cfg.seed).spawn(len(n_values) * cfg.replicates))
    # a bad design flag fails the command before anything is written
    runs = [
        (n, r, _sim_design(cfg, n, next(seeds))) for n in n_values for r in range(cfg.replicates)
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    rows, failures = [], []
    for n, r, design in runs:
        try:
            metrics = replicate_metrics(
                design, cfg, grid_size=cfg.grid_size, compare_zero_cross=cfg.compare_zero_cross
            )
        except Exception as exc:  # noqa: BLE001 - recorded per replicate
            failures.append({"n": n, "replicate": r, "error": str(exc)})
            continue
        rows.append((n, r, metrics))

    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "replicate"] + list(METRIC_COLUMNS))
        for n, r, m in rows:
            writer.writerow(
                [n, r]
                + [repr(float(m[c])) if c in m else "" for c in METRIC_COLUMNS]
            )

    per_n = []
    for n in n_values:
        group = [m for nn, _, m in rows if nn == n]
        summary = {}
        for col in METRIC_COLUMNS:
            vals = np.array([m[col] for m in group if col in m], dtype=float)
            if vals.size == 0:
                continue
            summary[col] = {
                "median": float(np.median(vals)),
                "q25": float(np.quantile(vals, 0.25)),
                "q75": float(np.quantile(vals, 0.75)),
            }
        per_n.append({"n": n, "replicates_done": len(group), "metrics": summary})
    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "design": _design_record(cfg),
                "per_n": per_n,
                "failures": failures,
            },
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    print(json.dumps({"metrics": metrics_path, "summary": summary_path}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": cmd_fit,
        "predict": cmd_predict,
        "simulate": cmd_simulate,
        "evaluate": cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except DataFormatError as exc:
        _fail("data-format", str(exc), detail=[[n, m] for n, m in exc.rows] or None)
    except DomainError as exc:
        _fail("domain", str(exc))
    except FuncovError as exc:
        _fail("invalid", str(exc))
    except OSError as exc:
        _fail("io", str(exc))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
