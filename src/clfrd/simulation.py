"""Monte Carlo parameter-recovery study for the compounded model.

For each (parameter set, sample size) cell: draw ``replications`` samples
by inverse transform, fit each one, and summarize the estimates per
parameter (mean, bias, SD, MSE, normal-theory band of the estimate
distribution).  By construction ``mse = bias^2 + sd^2`` and
``ciw = 2 z sd`` with ``z`` the 97.5% normal quantile.

Each replication runs ``estimation.fit_clfrd_block``, a bounded
quasi-Newton search started at the true parameters: the study measures
the sampling behaviour of the local MLE, so the start removes multistart
selection effects.  Each replication draws its uniforms from its own
stream, and one quantile call per cell maps the ``(reps, n)`` block to
samples; since the quantile does not depend on its batch, each row is
what ``sample_inverse`` draws from that stream.  The block is then
validated once and fitted in one call, which steps one L-BFGS-B state per
replication in lockstep and evaluates all pending points in one numpy
pass.  Every estimate is the one that call gives for that sample alone,
bit for bit.

The likelihood's compounding ridge means a few samples have no interior
optimum; replications whose fit does not converge (almost always at the
iteration cap) are counted as failures and excluded, and a cell with more
than 20% failures is flagged degenerate.  Fits that converge with an
estimate pinned at the lower bound are kept.  Each summary counts its
failures by stop (``failure_reasons``) and its kept estimates at the
bound (``at_bound``); the JSON output lists both per cell.

Replications are keyed by ``(cell seed, replication index)`` streams, so
results are bit-identical for a given ``base_seed`` no matter how the
work is scheduled.

The default study runs the eight published triples,
``distributions.DEFAULT_PARAMETER_SETS``, from ``sampling.DEFAULT_SEED``.
Both live with the objects they parametrize rather than here, since this
module imports ``estimation`` and so scipy's L-BFGS-B extension.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .distributions import DEFAULT_PARAMETER_SETS, Clfrd
from .estimation import LocalFits, fit_clfrd_block
from .estimation import fit_clfrd  # noqa: F401  perfbench's tracer wraps it in this namespace
from .sampling import DEFAULT_SEED, SeededStream
from .sampling import sample_inverse  # noqa: F401  perfbench's tracer wraps it in this namespace

__all__ = [
    "StudyConfig",
    "ParamSummary",
    "SimulationSummary",
    "run_cell",
    "run_study",
    "study_rows",
    "study_to_csv",
    "study_to_json",
]

_DEGENERATE_FRACTION = 0.2

_CSV_COLUMNS = (
    "set_id", "alpha", "beta", "lambda", "n", "param",
    "mle", "bias", "sd", "mse", "low", "up", "ciw", "failures",
)


@dataclass
class StudyConfig:
    parameter_sets: Sequence[Clfrd] = DEFAULT_PARAMETER_SETS
    sample_sizes: Sequence[int] = (100, 200, 300)
    replications: int = 500
    base_seed: int = DEFAULT_SEED
    ci_level: float = 0.95
    set_labels: Sequence[int] | None = None  # defaults to 1..len(parameter_sets)

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("StudyConfig: need at least 2 replications")
        if any(n < 10 for n in self.sample_sizes):
            raise ValueError("StudyConfig: sample sizes below 10 are not supported")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("StudyConfig: ci_level must lie in (0, 1)")
        if self.set_labels is not None and len(self.set_labels) != len(self.parameter_sets):
            raise ValueError("StudyConfig: set_labels must match parameter_sets in length")


@dataclass
class ParamSummary:
    mean_mle: float
    bias: float
    sd: float
    mse: float
    ci_low: float
    ci_up: float
    ciw: float


@dataclass
class SimulationSummary:
    set_id: int
    params: Clfrd
    n: int
    replications: int
    failures: int
    degenerate: bool
    per_param: dict[str, ParamSummary] = field(default_factory=dict)
    # failed replications by how L-BFGS-B stopped: "iteration_cap" or "other"
    failure_reasons: dict[str, int] = field(default_factory=dict)
    # kept estimates with a parameter at the local fit's 1e-10 lower bound
    at_bound: int = 0


def _cell_seed(base_seed: int, set_label: int, n: int) -> int:
    # keyed by the set's label and the sample size, so a subset run
    # reproduces exactly the cells of the full study
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(set_label, n))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fit_replications(params: Clfrd, n: int, seed: int, replications) -> LocalFits:
    # each row's uniforms from its own stream, one quantile call for the
    # (reps, n) block, then one lockstep fit of the block from the truth
    u = np.vstack([SeededStream(seed, r).generator().random(n) for r in replications])
    samples = params.quantile(u)
    return fit_clfrd_block(samples, params.to_vector())


def run_cell(params: Clfrd, n: int, reps: int, seed: int,
             set_id: int = 0, ci_level: float = 0.95) -> SimulationSummary:
    """Run one (parameter set, sample size) cell of the recovery study."""
    if reps < 2:
        raise ValueError("run_cell: need at least 2 replications")
    truth = params.to_vector()
    fits = _fit_replications(params, n, seed, range(reps))
    converged = fits.converged
    est = fits.theta[converged]
    failures = int(reps - converged.sum())
    at_cap = int(np.sum(fits.at_iteration_cap))
    summary = SimulationSummary(
        set_id=set_id, params=params, n=n, replications=reps,
        failures=failures, degenerate=failures > _DEGENERATE_FRACTION * reps,
        failure_reasons={"iteration_cap": at_cap, "other": failures - at_cap},
        at_bound=int(np.sum(fits.at_bound[converged])),
    )
    if est.shape[0] >= 2:
        z = NormalDist().inv_cdf(0.5 + ci_level / 2.0)
        mean = est.mean(axis=0)
        sd = est.std(axis=0, ddof=1)
        bias = mean - truth
        mse = bias * bias + sd * sd
        for idx, name in enumerate(params.param_names):
            summary.per_param[name] = ParamSummary(
                mean_mle=float(mean[idx]),
                bias=float(bias[idx]),
                sd=float(sd[idx]),
                mse=float(mse[idx]),
                ci_low=float(mean[idx] - z * sd[idx]),
                ci_up=float(mean[idx] + z * sd[idx]),
                ciw=float(2.0 * z * sd[idx]),
            )
    return summary


def run_study(cfg: StudyConfig | None = None) -> list[SimulationSummary]:
    """Cartesian product of parameter sets and sample sizes.

    Deterministic for a given ``base_seed``: every cell derives its own
    seed from (set label, sample size ``n``), and every replication gets an
    independent stream, so aggregation order cannot matter.
    """
    cfg = cfg or StudyConfig()
    labels = cfg.set_labels or range(1, len(cfg.parameter_sets) + 1)
    out: list[SimulationSummary] = []
    for label, params in zip(labels, cfg.parameter_sets):
        for n in cfg.sample_sizes:
            seed = _cell_seed(cfg.base_seed, int(label), int(n))
            out.append(
                run_cell(params, int(n), cfg.replications, seed,
                         set_id=int(label), ci_level=cfg.ci_level)
            )
    return out


def study_rows(summaries: Sequence[SimulationSummary]) -> list[dict]:
    """Flatten summaries to one row per (set, size, parameter)."""
    rows = []
    for s in summaries:
        for pname, ps in s.per_param.items():
            rows.append({
                "set_id": s.set_id,
                "alpha": s.params.alpha,
                "beta": s.params.beta,
                "lambda": s.params.lam,
                "n": s.n,
                "param": pname,
                "mle": ps.mean_mle,
                "bias": ps.bias,
                "sd": ps.sd,
                "mse": ps.mse,
                "low": ps.ci_low,
                "up": ps.ci_up,
                "ciw": ps.ciw,
                "failures": s.failures,
            })
    return rows


def study_to_csv(summaries: Sequence[SimulationSummary]) -> str:
    buf = io.StringIO()
    buf.write(",".join(_CSV_COLUMNS) + "\n")
    for row in study_rows(summaries):
        buf.write(",".join(_format_cell(row[c]) for c in _CSV_COLUMNS) + "\n")
    return buf.getvalue()


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else "nan"
    return str(value)


def study_to_json(summaries: Sequence[SimulationSummary], meta: dict | None = None) -> str:
    payload: dict = {}
    if meta:
        payload["meta"] = meta
    payload["rows"] = study_rows(summaries)
    payload["cells"] = [
        {"set_id": s.set_id, "n": s.n, "failures": s.failures,
         "failure_reasons": s.failure_reasons, "at_bound": s.at_bound}
        for s in summaries
    ]
    payload["degenerate_cells"] = [
        {"set_id": s.set_id, "n": s.n, "failures": s.failures}
        for s in summaries if s.degenerate
    ]
    return json.dumps(payload, indent=2)
