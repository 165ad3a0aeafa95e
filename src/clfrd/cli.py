"""Command-line interface.

Subcommands: ``fit`` (single-model MLE report), ``compare`` (all-model
goodness-of-fit table), ``simulate`` (Monte Carlo recovery study),
``sample`` (variate generation), ``curve`` (empirical vs fitted survival
as CSV data), and ``props`` (reliability-measure report for a parameter
triple).

Datasets are referenced as ``builtin:<name>`` or as a CSV/JSON file path.
Output renders as text, CSV or JSON (``--format`` takes only the formats
a subcommand renders), to stdout or a file (``--out``).  JSON carries a
metadata block (tool version, seed, timestamp) unless ``--no-meta`` is
given, which makes repeated runs byte-identical.  The default seed comes
from the ``CLFRD_SEED`` environment variable when set; explicit ``--seed``
wins, and without it a ``CLFRD_SEED`` that is not an integer is a usage
error.

Exit codes: 0 success, 2 usage, 3 I/O, 4 non-convergence, 5 domain/data.

Each subcommand imports the modules it needs when it runs, so ``clfrd
sample`` and ``clfrd --version`` load numpy but not scipy; only the
commands that fit (``fit``, ``compare``, ``curve``, ``simulate``) or
report the measures (``props``, ``scipy.special`` alone) load scipy.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
# perfbench's tracer wraps ``compare_models`` and ``builtin`` in this namespace
from .datasets import builtin, load_csv, load_json, BUILTIN_NAMES
from .distributions import Clfrd, DEFAULT_PARAMETER_SETS, MODEL_REGISTRY
from .gof import compare_models
from .sampling import DEFAULT_SEED, SeededStream, sample_compound, sample_inverse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONVERGENCE = 4
EXIT_DOMAIN = 5

_MODEL_CHOICES = tuple(MODEL_REGISTRY)


def _meta(seed=None) -> dict:
    meta = {"tool": "clfrd", "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict, seed=None) -> None:
    # strict JSON: a NaN or infinity raises ValueError rather than writing a bare token
    if not args.no_meta:
        payload = {"meta": _meta(seed), **payload}
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)


def _rows_to_csv(fieldnames, rows) -> str:
    buf = io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _load_data(ref: str, raw: bool = False):
    if ref.startswith("builtin:"):
        return builtin(ref.split(":", 1)[1], raw=raw)
    if not os.path.exists(ref):
        raise FileNotFoundError(f"no such data file: {ref}")
    if ref.endswith(".json"):
        return load_json(ref)
    return load_csv(ref)


def _render_fit_text(fit) -> str:
    lines = [f"model: {fit.model.name}"]
    for name, value in fit.params.items():
        se = f"  stderr {fit.std_errors[name]:.6g}" if fit.std_errors else ""
        band = ""
        if fit.ci:
            lo, hi = fit.ci[name]
            band = f"  ci[{fit.ci_level:.0%}] ({lo:.6g}, {hi:.6g})"
        lines.append(f"  {name} = {value:.6g}{se}{band}")
    lines.append(f"loglik = {fit.loglik:.6f}   -2*loglik = {fit.neg2_loglik:.6f}")
    if fit.covariance is not None:
        lines.append("covariance:")
        for row in fit.covariance:
            lines.append("  " + "  ".join(f"{v: .6e}" for v in row))
    else:
        lines.append("covariance: unavailable")
    lines.append(f"converged: {fit.converged}" + (f"  [{fit.message}]" if fit.message else ""))
    return "\n".join(lines) + "\n"


def _cmd_fit(args) -> int:
    from .estimation import fit_model

    data = _load_data(args.data, args.raw)
    fit = fit_model(args.model, data.values, args.level)
    if args.format == "json":
        _emit_json(args, {
            "model": fit.model.name,
            "params": fit.params,
            "loglik": fit.loglik,
            "neg2_loglik": fit.neg2_loglik,
            "std_errors": fit.std_errors,
            "ci_level": fit.ci_level,
            "ci": {k: list(v) for k, v in fit.ci.items()} if fit.ci else None,
            "covariance": fit.covariance.tolist() if fit.covariance is not None else None,
            "converged": fit.converged,
            "boundary": fit.boundary,
            "iterations": fit.iterations,
            "message": fit.message,
        })
    else:
        _emit(_render_fit_text(fit), args.out)
    return EXIT_OK


_COMPARE_FIELDS = ("model", "neg2_loglik", "ks_stat", "ks_pvalue",
                   "aic_standard", "aic_reduced", "ad_stat", "cm_stat", "error")


def _cmd_compare(args) -> int:
    data = _load_data(args.data, args.raw)
    models = tuple(args.models.split(",")) if args.models else _MODEL_CHOICES
    for name in models:
        if name not in MODEL_REGISTRY:
            raise ValueError(f"unknown model {name!r}")
    reports = compare_models(data.values, models)
    rows = [
        {
            "model": r.model_name,
            "neg2_loglik": round(r.neg2_loglik, 6),
            "ks_stat": round(r.ks_stat, 6),
            "ks_pvalue": round(r.ks_pvalue, 6),
            "aic_standard": round(r.aic_standard, 6),
            "aic_reduced": round(r.aic_reduced, 6),
            "ad_stat": round(r.ad_stat, 6),
            "cm_stat": round(r.cm_stat, 6),
            "error": r.error or "",
        }
        for r in reports
    ]
    if args.format == "json":
        # a failed model's statistics are NaN, written as null
        rows = [{k: None if v != v else v for k, v in row.items()} for row in rows]
        _emit_json(args, {"dataset": args.data, "rows": rows})
    elif args.format == "csv":
        _emit(_rows_to_csv(_COMPARE_FIELDS, rows), args.out)
    else:
        header = f"{'model':6} {'-2logL':>10} {'K-S':>8} {'p':>8} {'AIC':>10} {'AIC-red':>10} {'AD':>9} {'CM':>8}"
        lines = [header]
        for r in rows:
            lines.append(
                f"{r['model']:6} {r['neg2_loglik']:10.3f} {r['ks_stat']:8.4f} {r['ks_pvalue']:8.4f} "
                f"{r['aic_standard']:10.3f} {r['aic_reduced']:10.3f} {r['ad_stat']:9.4f} {r['cm_stat']:8.4f}"
                + (f"  ! {r['error']}" if r["error"] else "")
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_STUDY_FIELDS = ("set_id", "alpha", "beta", "lambda", "n", "param",
                 "mle", "bias", "sd", "mse", "low", "up", "ciw", "failures")


def _cmd_simulate(args) -> int:
    from .simulation import StudyConfig, run_study, study_rows

    labels = tuple(range(1, len(DEFAULT_PARAMETER_SETS) + 1))
    sets = DEFAULT_PARAMETER_SETS
    if args.sets:
        labels = tuple(sorted({int(s) for s in args.sets.split(",")}))
        if any(s < 1 or s > len(DEFAULT_PARAMETER_SETS) for s in labels):
            raise ValueError(f"--sets entries must lie in 1..{len(DEFAULT_PARAMETER_SETS)}")
        sets = tuple(DEFAULT_PARAMETER_SETS[s - 1] for s in labels)
    sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else (100, 200, 300)
    cfg = StudyConfig(
        parameter_sets=sets,
        sample_sizes=sizes,
        replications=args.reps,
        base_seed=args.seed,
        ci_level=args.level,
        set_labels=labels,
    )
    summaries = run_study(cfg) if sizes else []
    rows = study_rows(summaries)
    if args.format == "json":
        _emit_json(args, {
            "rows": rows,
            "cells": [
                {"set_id": s.set_id, "n": s.n, "failures": s.failures,
                 "failure_reasons": s.failure_reasons, "at_bound": s.at_bound}
                for s in summaries
            ],
            "degenerate_cells": [
                {"set_id": s.set_id, "n": s.n, "failures": s.failures}
                for s in summaries if s.degenerate
            ],
        }, args.seed)
    else:
        _emit(_rows_to_csv(_STUDY_FIELDS, rows), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = Clfrd(args.alpha, args.beta, getattr(args, "lambda"))
    stream = SeededStream(args.seed)
    draw = sample_inverse if args.method == "inverse" else sample_compound
    values = draw(model, args.n, stream)
    if args.format == "json":
        _emit_json(args, {"method": args.method, "values": [float(v) for v in values]}, args.seed)
    else:
        _emit("\n".join(repr(float(v)) for v in values) + "\n", args.out)
    return EXIT_OK


def _cmd_curve(args) -> int:
    from .estimation import fit_model

    data = _load_data(args.data, args.raw)
    models = tuple(args.models.split(",")) if args.models else _MODEL_CHOICES
    x = np.sort(data.values)
    hi = args.grid_max if args.grid_max is not None else 1.05 * float(x.max())
    grid = np.linspace(args.grid_min, hi, args.grid_points)
    # right-continuous empirical survival, 1 - edf
    emp = 1.0 - np.searchsorted(x, grid, side="right") / x.size
    columns: dict[str, np.ndarray] = {"x": grid, "empirical": emp}
    for name in models:
        fit = fit_model(name, data.values)
        columns[name] = np.asarray(fit.model.sf(grid), dtype=float)
    fields = list(columns)
    rows = [{k: repr(float(columns[k][i])) for k in fields} for i in range(grid.size)]
    _emit(_rows_to_csv(fields, rows), args.out)
    return EXIT_OK


def _cmd_props(args) -> int:
    from .properties import hazard_shape, median, mit, mrl, pdf_shape, raw_moment

    model = Clfrd(args.alpha, args.beta, getattr(args, "lambda"))
    at = args.at
    report = {
        "params": model.params(),
        "pdf_shape": pdf_shape(model).value,
        "hazard_shape": hazard_shape(model).value,
        "median": median(model),
        "mean": raw_moment(model, 1),
        "second_moment": raw_moment(model, 2),
        "at": at,
        "mrl": mrl(model, at),
        "mit": mit(model, at) if at > 0 else None,
    }
    report["variance"] = report["second_moment"] - report["mean"] ** 2
    if args.format == "json":
        _emit_json(args, report)
    else:
        lines = [f"parameters: {report['params']}"]
        lines.append(f"pdf shape:    {report['pdf_shape']}")
        lines.append(f"hazard shape: {report['hazard_shape']}")
        lines.append(f"median:       {report['median']:.7f}")
        lines.append(f"mean:         {report['mean']:.7f}")
        lines.append(f"variance:     {report['variance']:.7f}")
        lines.append(f"mrl({at}):    {report['mrl']:.7f}")
        if report["mit"] is not None:
            lines.append(f"mit({at}):    {report['mit']:.7f}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, formats=("text", "json")) -> None:
    # the formats the subcommand renders, its default first
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--no-meta", action="store_true", help="omit metadata (stable output bytes)")


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--lambda", type=float, required=True, dest="lambda")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clfrd",
                                     description="Compounded linear failure rate toolkit")
    parser.add_argument("--version", action="version", version=f"clfrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of one model")
    p_fit.add_argument("--data", required=True, help=f"builtin:{{{','.join(BUILTIN_NAMES)}}} or a file path")
    p_fit.add_argument("--model", choices=_MODEL_CHOICES, default="clfrd")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--raw", action="store_true", help="disable builtin dataset scaling")
    _add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", help="goodness-of-fit comparison across models")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--models", default=None, help="comma-separated subset of models")
    p_cmp.add_argument("--raw", action="store_true")
    _add_common(p_cmp, ("text", "csv", "json"))
    p_cmp.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="Monte Carlo parameter-recovery study")
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=os.environ.get("CLFRD_SEED") or DEFAULT_SEED)
    p_sim.add_argument("--sets", default=None, help="comma-separated set ids, e.g. 1,4,8")
    p_sim.add_argument("--sizes", default=None, help="comma-separated sample sizes")
    p_sim.add_argument("--level", type=float, default=0.95)
    _add_common(p_sim, ("csv", "json"))
    p_sim.set_defaults(func=_cmd_simulate)

    p_smp = sub.add_parser("sample", help="draw random variates")
    _add_params(p_smp)
    p_smp.add_argument("-n", "--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=os.environ.get("CLFRD_SEED") or DEFAULT_SEED)
    p_smp.add_argument("--method", choices=("inverse", "compound"), default="inverse")
    _add_common(p_smp)
    p_smp.set_defaults(func=_cmd_sample)

    p_crv = sub.add_parser("curve", help="empirical vs fitted survival curves as CSV")
    p_crv.add_argument("--data", required=True)
    p_crv.add_argument("--models", default=None)
    p_crv.add_argument("--grid-min", type=float, default=0.0)
    p_crv.add_argument("--grid-max", type=float, default=None)
    p_crv.add_argument("--grid-points", type=int, default=200)
    p_crv.add_argument("--raw", action="store_true")
    _add_common(p_crv, ("csv",))
    p_crv.set_defaults(func=_cmd_curve)

    p_prp = sub.add_parser("props", help="reliability measures for a parameter triple")
    _add_params(p_prp)
    p_prp.add_argument("--at", type=float, default=0.5, help="age for residual-life measures")
    _add_common(p_prp)
    p_prp.set_defaults(func=_cmd_props)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/--version itself
        return int(exc.code or 0)
    return _dispatch(args, parser)


def _dispatch(args, parser) -> int:
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"clfrd: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        # NonConvergenceError is a RuntimeError, imported here so that a command
        # that does not fit never loads estimation
        from .estimation import NonConvergenceError

        if not isinstance(exc, NonConvergenceError):
            raise
        print(f"clfrd: fit did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"clfrd: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
