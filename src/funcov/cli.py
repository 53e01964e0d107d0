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
from dataclasses import fields

import numpy as np

from ._linalg import eigh_desc
from .config import RunConfig, merge_config
from .dataset import CSV_HEADER, SparseFunctionalDataset
from .errors import DataFormatError, DomainError, FuncovError
from .fpca import eval_covariance, eval_eigenfunction
from .model_io import load_model, save_model
from .pipeline import FitSettings, fit_covariance_model
from .predict import _predict
from .simulate import (
    SimDesign,
    coupling_matrix,
    generate,
    noise_variance,
    replicate_metrics,
)
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


def _fmt(x) -> str:
    """Deterministic shortest round-trip formatting for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _add_fit_flags(sp):
    sp.add_argument("--order", type=int, help="spline order (degree + 1)")
    sp.add_argument("--n-interior-mean", dest="n_interior_mean", type=int)
    sp.add_argument("--n-interior-cov", dest="n_interior_cov", type=int)
    sp.add_argument("--pve", type=float, help="explained-variance target")
    sp.add_argument("--npc", type=int, help="force the component count")
    sp.add_argument(
        "--workers",
        type=int,
        help="threads for a fit's independent mean and covariance-block tasks; "
        "pays only with single-threaded BLAS (evaluate runs replicates in order)",
    )
    sp.add_argument("--grid-size", dest="grid_size", type=int)


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
            sp.add_argument("--out-dir", required=True)
            sp.add_argument("--n", type=int)
            sp.add_argument("--rho", type=float)
            sp.add_argument("--snr", type=float)
            sp.add_argument("--m-min", dest="m_min", type=int)
            sp.add_argument("--m-max", dest="m_max", type=int)
            sp.add_argument("--seed", type=int)
            sp.add_argument("--replicates", type=int)
            sp.add_argument("--n-test", dest="n_test", type=int)
        else:
            sp.add_argument("--out-dir", required=True)
            sp.add_argument("--n", help="training sizes, comma separated")
            sp.add_argument("--rho", type=float)
            sp.add_argument("--snr", type=float)
            sp.add_argument("--m-min", dest="m_min", type=int)
            sp.add_argument("--m-max", dest="m_max", type=int)
            sp.add_argument("--seed", type=int)
            sp.add_argument("--replicates", type=int)
            sp.add_argument("--n-test", dest="n_test", type=int)
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
        parts = flag_values["domain"].split(",")
        if len(parts) != 2:
            raise FuncovError("--domain expects 'a,b'")
        flag_values["domain"] = (float(parts[0]), float(parts[1]))
    if "responses" in flag_values:
        flag_values["responses"] = [
            r.strip() for r in flag_values["responses"].split(",") if r.strip()
        ]
    if "n" in flag_values and isinstance(flag_values["n"], str):
        values = [int(v) for v in flag_values["n"].split(",") if v.strip()]
        if not values:
            raise FuncovError("--n expects one or more integers")
        flag_values["n"] = values[0]
        flag_values["n_values"] = values
    return merge_config(flag_values, getattr(args, "config", None))


def _fit_settings(cfg: RunConfig) -> FitSettings:
    return FitSettings(**{f.name: getattr(cfg, f.name) for f in fields(FitSettings)})


def _sim_design(cfg: RunConfig, n: int, seed) -> SimDesign:
    return SimDesign(
        n=n,
        rho=cfg.rho,
        snr=cfg.snr,
        m_min=cfg.m_min,
        m_max=cfg.m_max,
        seed=seed,
        n_test=cfg.n_test,
    )


def _design_record(cfg: RunConfig, *extra) -> dict:
    """The simulation settings written to truth.json and summary.json."""
    keys = ("rho", "snr", "m_min", "m_max", "seed", "replicates", "n_test") + extra
    return {key: getattr(cfg, key) for key in keys}


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    data = SparseFunctionalDataset.from_csv(args.data, response_order=cfg.responses)
    res = fit_covariance_model(data, _fit_settings(cfg))
    save_model(args.out, res.model, res.eig)

    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    a, b = res.model.ws.domain
    grid = np.linspace(a, b, cfg.grid_size)
    labels = res.model.response_labels
    with open(f"{stem}.eigenfunctions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["response", "component", "time", "value"])
        for ell in range(res.npc):
            for k, label in enumerate(labels):
                vals = eval_eigenfunction(res.eig, ell, k, grid)
                for t, v in zip(grid, vals):
                    writer.writerow([label, ell + 1, _fmt(float(t)), _fmt(float(v))])
    with open(f"{stem}.correlations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["response_i", "response_j", "s", "t", "value"])
        diag = [
            np.sqrt(np.clip(np.diag(eval_covariance(res.model, k, k, grid, grid)), 0, None))
            for k in range(len(labels))
        ]
        for k, lk in enumerate(labels):
            for kp, lkp in enumerate(labels):
                surf = eval_covariance(res.model, k, kp, grid, grid)
                denom = np.outer(diag[k], diag[kp])
                with np.errstate(divide="ignore", invalid="ignore"):
                    corr = np.where(denom > 0, surf / denom, np.nan)
                for i_s, s_val in enumerate(grid):
                    for j_t, t_val in enumerate(grid):
                        writer.writerow(
                            [lk, lkp, _fmt(float(s_val)), _fmt(float(t_val)), _fmt(float(corr[i_s, j_t]))]
                        )
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
        p, n = model.p, data.n_subjects
        # observations outside the fitted domain are dropped and reported
        pooled, owners, dropped = [], [], [[] for _ in range(n)]
        for k in range(p):
            t, v, counts = data.pooled(k)
            owner = np.repeat(np.arange(n), counts)
            ok = (t >= a) & (t <= b)
            for i, t_bad in zip(owner[~ok], t[~ok]):
                dropped[i].append((k, float(t_bad)))
            pooled.append((t[ok], v[ok], np.bincount(owner[ok], minlength=n)))
            owners.append(owner[ok])
        grid = np.linspace(a, b, cfg.grid_size) if mode == "grid" else None
        pred = _predict(model, eig, pooled, grid, cfg.npc, cfg.level, full_cov=False)
        # each subject's rows of the pooled observed-time output
        owners = np.concatenate(owners)
        ends = np.cumsum(np.bincount(owners, minlength=n))
        subject_rows = np.split(np.argsort(owners, kind="stable"), ends[:-1])
        for i, subject in enumerate(data.subjects):
            if grid is not None:
                new_times = grid
                xhat, var, lower, upper = pred.xhat[i], pred.var[i], pred.lower[i], pred.upper[i]
            else:
                rows = subject_rows[i]
                new_times, first = np.unique(pred.times[rows], return_index=True)
                cols = rows[first]
                xhat, var = pred.xhat[:, cols], pred.var[:, cols]
                lower, upper = pred.lower[:, cols], pred.upper[:, cols]
            if new_times.size:
                for k, label in enumerate(model.response_labels):
                    for j, t in enumerate(new_times):
                        writer.writerow(
                            [
                                subject,
                                label,
                                _fmt(float(t)),
                                _fmt(float(xhat[k, j])),
                                _fmt(float(var[k, j])),
                                _fmt(float(lower[k, j])),
                                _fmt(float(upper[k, j])),
                                "",
                            ]
                        )
                for ell, value in enumerate(pred.scores[i]):
                    score_writer.writerow([subject, ell + 1, _fmt(float(value))])
            for k, t_bad in dropped[i]:
                writer.writerow(
                    [
                        subject,
                        model.response_labels[k],
                        _fmt(t_bad),
                        "",
                        "",
                        "",
                        "",
                        f"time outside fitted domain [{a!r}, {b!r}]",
                    ]
                )
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.replicates)
    d, _ = eigh_desc(coupling_matrix(cfg.rho))
    for r in range(cfg.replicates):
        train, truth = generate(_sim_design(cfg, cfg.n, children[r]))
        train.to_csv(os.path.join(args.out_dir, f"replicate_{r:03d}.csv"))
        if truth.test_data is not None:
            truth.test_data.to_csv(
                os.path.join(args.out_dir, f"replicate_{r:03d}_test.csv")
            )
    with open(os.path.join(args.out_dir, "truth.json"), "w") as fh:
        json.dump(
            {
                "design": _design_record(cfg, "n"),
                "eigenvalues": [float(v) for v in d],
                "sigma_eps2": noise_variance(d, cfg.snr),
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
    os.makedirs(args.out_dir, exist_ok=True)
    n_values = cfg.n_values or [cfg.n]
    settings = _fit_settings(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(n_values) * cfg.replicates)
    rows, failures = [], []
    for i, n in enumerate(n_values):
        for r in range(cfg.replicates):
            try:
                metrics = replicate_metrics(
                    _sim_design(cfg, n, children[i * cfg.replicates + r]),
                    settings,
                    grid_size=cfg.grid_size,
                    compare_zero_cross=cfg.compare_zero_cross,
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
                + [_fmt(float(m[c])) if c in m else "" for c in METRIC_COLUMNS]
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
