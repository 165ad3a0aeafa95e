"""The three workloads: study, compare and surface.

Each workload runs in cycles.  A cycle visits every input of the workload
once, calls the library through its public functions (looked up as
module attributes at call time, so a tracer's wrappers see the calls),
times the calls, and then checks every output against the published
tables.  Checks run outside the timed region.

Every workload's first timed cycle repeats the inputs of the warm-up
cycle, and every output is compared with the output the same input gave
before: a result that is not bit-identical for the same seed fails.

Every timed call runs between two host speed probes (``speed``) and its
time is scaled to the reference host speed; the raw times are kept too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov

import clfrd
import clfrd.cli
from clfrd import properties, sampling, simulation

import inputs
import reference as ref
import speed

# the two samplers must agree by a two-sample K-S test at this level; it is
# loose because every run tests eight fresh pairs of 1e5 draws
SAMPLER_KS_LEVEL = 1e-6
ROUND_TRIP_TOL = 1e-9
CDF_SF_TOL = 1e-14
SERIES_TOL = 1e-10


def plain_call(_name, fn, *args):
    return fn(*args)


@dataclass
class Cycle:
    ops: int
    seconds: float  # time inside the library calls, at the reference host speed
    latencies_ms: list[float]  # per latency sample, at the reference host speed
    raw_seconds: float
    speeds: list[float]  # speed factor of each call
    kernels_ms: float = 0.0
    measures_ms: float = 0.0


@dataclass
class Workload:
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # input key -> output digest
    call: object = plain_call  # the tracer swaps in a recording call

    def timed(self, name: str, fn, *args):
        """Call ``fn`` between speed probes: (result, raw seconds, speed factor)."""
        return speed.scaled(self.call, name, fn, *args)

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def same_as_before(self, key, digest: str) -> list[str]:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"output differs from the first run of {key}"]

    def digest(self) -> str:
        """One digest over the outputs of the warm-up cycle."""
        h = hashlib.sha256()
        for key in sorted(self.digests, key=str):
            h.update(f"{key}={self.digests[key]};".encode())
        return h.hexdigest()

    def at_boundary(self) -> bool:
        """Whether the run may stop after the current cycle."""
        return True


# ---------------------------------------------------------------------------
# study: run_study on four cells of the published grid


def _study_digest(summaries) -> str:
    parts = []
    for s in summaries:
        parts.append(f"{s.set_id},{s.n},{s.failures},{s.degenerate}")
        for name, ps in s.per_param.items():
            values = (ps.mean_mle, ps.bias, ps.sd, ps.mse, ps.ci_low, ps.ci_up, ps.ciw)
            parts.append(name + ":" + ",".join(float(v).hex() for v in values))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def check_study_call(s) -> list[str]:
    """The criterion-6 identities of one run_study cell, and that it is not degenerate."""
    problems = []
    if s.degenerate:
        problems.append(f"degenerate cell ({s.failures} of {s.replications} fits failed)")
    for name in ("alpha", "beta", "lambda"):
        ps = s.per_param.get(name)
        if ps is None:
            problems.append(f"{name}: no estimates")
            continue
        if not abs(ps.mse - (ps.bias ** 2 + ps.sd ** 2)) <= ref.IDENTITY_TOL:
            problems.append(f"{name}: mse != bias^2 + sd^2")
        if not abs(ps.ciw - 2.0 * ref.Z_975 * ps.sd) <= ref.IDENTITY_TOL * max(1.0, ps.ciw):
            problems.append(f"{name}: ciw != 2 z sd")
    return problems


def check_study_block(label: int, n: int, replications: int, means) -> list[str]:
    """Criterion 6 on a pooled block: |mean - published| <= 4 SD / sqrt(replications)."""
    problems = []
    ref_mean, ref_sd = ref.STUDY_TABLE[label][n]
    for j, name in enumerate(("alpha", "beta", "lambda")):
        tol = ref.STUDY_MEAN_SDS * ref_sd[j] / math.sqrt(replications)
        if not abs(means[j] - ref_mean[j]) <= tol:
            problems.append(f"{name} mean {means[j]:.4f} vs published {ref_mean[j]} (tol {tol:.4f})")
    return problems


@dataclass
class Study(Workload):
    cycles_run: int = 0
    pooled: dict = field(default_factory=dict)  # cell -> [replications, converged, sums of estimates]

    def cycle(self) -> Cycle:
        # the warm-up runs round 0 and the first timed cycle runs it again;
        # only timed rounds join the pooled blocks, so no sample counts twice
        round_index = max(self.cycles_run - 1, 0)
        warm_up = self.cycles_run == 0
        self.cycles_run += 1
        raw = norm = 0.0
        speeds = []
        for label, n in inputs.study_cells():
            cfg = inputs.study_config(self.seed, round_index, label, n)
            (s,), seconds, factor = self.timed("simulation", simulation.run_study, cfg)
            raw += seconds
            norm += seconds * factor
            speeds.append(factor)
            label_text = f"round {round_index} cell (set {label}, n={n})"
            self.check(label_text, check_study_call(s)
                       + self.same_as_before((round_index, label, n), _study_digest([s])))
            if not warm_up:
                self._pool(label, n, s)
        # one latency sample per cycle: the mean replication latency over
        # the four cells, whose costs differ too much to pool per call
        reps = inputs.STUDY_REPS * len(speeds)
        return Cycle(reps, norm, [1e3 * norm / reps], raw, speeds)

    def _pool(self, label: int, n: int, s) -> None:
        reps, converged, sums = self.pooled.setdefault((label, n), [0, 0, np.zeros(3)])
        if s.per_param:  # else check_study_call has already failed the call
            kept = s.replications - s.failures
            sums += kept * np.array([s.per_param[p].mean_mle for p in ("alpha", "beta", "lambda")])
            converged += kept
        reps += s.replications
        self.pooled[(label, n)] = [reps, converged, sums]
        if reps >= inputs.STUDY_BLOCK_REPS:
            block = f"block of {reps} replications, cell (set {label}, n={n})"
            self.check(block, check_study_block(label, n, reps, sums / max(converged, 1)))
            del self.pooled[(label, n)]

    def at_boundary(self) -> bool:
        # stop only on whole blocks, so every timed replication is checked
        return not self.pooled


# ---------------------------------------------------------------------------
# compare: `clfrd compare --format json --no-meta` on the built-in datasets


def check_compare_output(dataset: str, code: int, text: str) -> list[str]:
    """Criteria 3 and 4 on one comparison table printed by the CLI."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        rows = {row["model"]: row for row in json.loads(text)["rows"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    table = ref.COMPARISON_TABLES[dataset]
    if set(rows) != set(table):
        return [f"models {sorted(rows)} != {sorted(table)}"]
    problems = []
    for model, published in table.items():
        row = rows[model]
        if row["error"]:
            problems.append(f"{model}: {row['error']}")
            continue
        if model == "clfrd" and not row["neg2_loglik"] <= published[0] + ref.NEG2_SLACK:
            problems.append(f"clfrd -2logL {row['neg2_loglik']} > {published[0]} + {ref.NEG2_SLACK}")
        if dataset == "devices" and model == "clfrd":
            # the published devices triple is not a stationary point: the fit
            # reaches a higher likelihood on the compounding ridge, so only
            # the -2 log L bound and the AIC identity apply to this row
            if not abs(row["aic_reduced"] - (row["neg2_loglik"] + 4.0)) <= 2e-6:
                problems.append("clfrd: aic_reduced != -2logL + 4")
            continue
        for (column, tol), value in zip(ref.COMPARISON_TOLS.items(), published[1:]):
            if not abs(row[column] - value) <= tol:
                problems.append(f"{model} {column} {row[column]} vs published {value} (tol {tol})")
    return problems


@dataclass
class Compare(Workload):
    argvs: list = field(default_factory=list)

    def __post_init__(self):
        self.argvs = inputs.compare_argvs(self.seed)

    def cycle(self) -> Cycle:
        latencies, speeds = [], []
        raw = 0.0
        for argv in self.argvs:
            dataset = argv[2].split(":", 1)[1]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code, seconds, factor = self.timed("cli", clfrd.cli.main, argv)
            raw += seconds
            speeds.append(factor)
            latencies.append(1e3 * seconds * factor)
            text = out.getvalue()
            problems = check_compare_output(dataset, code, text)
            problems += self.same_as_before(dataset, hashlib.sha256(text.encode()).hexdigest())
            self.check(dataset, problems)
        return Cycle(len(latencies), 1e-3 * sum(latencies), latencies, raw, speeds)


# ---------------------------------------------------------------------------
# surface: bulk kernels, both samplers and the reliability measures


def two_sample_ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov p-value."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(gap)))
    return float(kolmogorov(math.sqrt(a.size * b.size / (a.size + b.size)) * d))


def _surface_op(model, q, inverse_seed, compound_seed):
    """Bulk kernels and samplers, then the measures: (arrays, measures, kernel seconds)."""
    t0 = time.perf_counter()
    x = model.quantile(q)
    arrays = {
        "x": x, "pdf": model.pdf(x), "cdf": model.cdf(x), "sf": model.sf(x), "hazard": model.hazard(x),
        "inverse": sampling.sample_inverse(model, q.size, clfrd.SeededStream(inverse_seed)),
        "compound": sampling.sample_compound(model, q.size, clfrd.SeededStream(compound_seed)),
    }
    kernel_seconds = time.perf_counter() - t0
    measures = {
        "median": properties.median(model),
        "pdf_shape": properties.pdf_shape(model).value,
        "hazard_shape": properties.hazard_shape(model).value,
        "mrl": properties.mrl(model, inputs.AGE),
        "mit": properties.mit(model, inputs.AGE),
        "mean": properties.raw_moment(model, 1),
        "second_moment": properties.raw_moment(model, 2),
        "mit_series": properties.mit_series(model, inputs.AGE),
        "mrl_series": properties.mrl_series(model, inputs.AGE),
    }
    return arrays, measures, kernel_seconds


def _surface_digest(arrays, measures) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    h.update(repr(sorted(measures.items())).encode())
    return h.hexdigest()


def check_surface_output(triple, q, arrays, measures) -> list[str]:
    """Tables 1-2 at age 0.5 and the kernel identities for one triple."""
    problems = []
    key = tuple(triple)
    if not abs(measures["mrl"] - ref.MRL_TABLE[key]) <= ref.TABLE_TOL:
        problems.append(f"mrl {measures['mrl']:.7f} vs published {ref.MRL_TABLE[key]}")
    if not abs(measures["mit"] - ref.MIT_TABLE[key]) <= ref.TABLE_TOL:
        problems.append(f"mit {measures['mit']:.7f} vs published {ref.MIT_TABLE[key]}")
    cdf, sf = arrays["cdf"], arrays["sf"]
    if not np.max(np.abs(cdf - q)) <= ROUND_TRIP_TOL:
        problems.append(f"quantile round trip error {np.max(np.abs(cdf - q)):.2e}")
    if not np.max(np.abs(cdf + sf - 1.0)) <= CDF_SF_TOL:
        problems.append("cdf + sf != 1")
    if not (np.all(arrays["pdf"] >= 0.0) and np.all(np.isfinite(arrays["hazard"]))
            and np.all(arrays["hazard"] > 0.0)):
        problems.append("pdf negative or hazard not finite and positive")
    series = measures["mit_series"]
    if not (series.converged and abs(series.value - measures["mit"]) <= SERIES_TOL):
        problems.append(f"mit_series {series.value} disagrees with mit {measures['mit']}")
    series = measures["mrl_series"]
    if not abs(series.value - measures["mrl"]) <= max(1e-8, 3.0 * series.tail_estimate):
        problems.append("mrl_series outside its own truncation-error estimate")
    if not measures["second_moment"] > measures["mean"] ** 2 > 0.0:
        problems.append("raw moments give a nonpositive variance")
    return problems


@dataclass
class Surface(Workload):
    q: np.ndarray | None = None
    triples: list = field(default_factory=list)
    sampler_pvalues: dict = field(default_factory=dict)

    def __post_init__(self):
        self.q, self.triples = inputs.surface_inputs(self.seed)

    def cycle(self) -> Cycle:
        latencies, speeds = [], []
        raw = kernels = 0.0
        for model, inverse_seed, compound_seed in self.triples:
            (arrays, measures, kernel_seconds), seconds, factor = self.timed(
                "surface", _surface_op, model, self.q, inverse_seed, compound_seed)
            raw += seconds
            speeds.append(factor)
            latencies.append(1e3 * seconds * factor)
            kernels += 1e3 * kernel_seconds * factor
            triple = tuple(model.to_vector())
            problems = check_surface_output(triple, self.q, arrays, measures)
            problems += self.same_as_before(triple, _surface_digest(arrays, measures))
            if triple not in self.sampler_pvalues:
                self.sampler_pvalues[triple] = two_sample_ks_pvalue(arrays["inverse"], arrays["compound"])
            if not self.sampler_pvalues[triple] >= SAMPLER_KS_LEVEL:
                problems.append(f"samplers disagree, K-S p = {self.sampler_pvalues[triple]:.2e}")
            self.check(f"triple {triple}", problems)
        # one latency sample per cycle, the mean over the eight triples: their
        # costs differ by 3x, and a median over eight fixed costs would sit
        # in the gap between the fourth and fifth
        n = len(latencies)
        mean_ms = sum(latencies) / n
        return Cycle(n, 1e-3 * sum(latencies), [mean_ms], raw, speeds,
                     kernels / n, mean_ms - kernels / n)


WORKLOADS = {"study": Study, "compare": Compare, "surface": Surface}
