"""Per-layer metrics of the traced run.

``instrument`` wraps the library's public functions in the namespaces
where their callers look them up; ``PER_LAYER`` names every metric the
traced run prints, its unit, which direction is better, and the
end-to-end metric and workload it should move.  Span counts and times are
divided by the operations the traced phase completed (a replication, a
dataset comparison or a surface triple), so they do not grow with run
length or speed.
"""

from __future__ import annotations

from clfrd import cli, distributions, estimation, gof, properties, sampling, simulation

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("estimation.clfrd_loglik.calls", "1/op", "lower", "study ops_per_s"),
    ("estimation.clfrd_loglik.busy_ms", "ms/op", "lower", "study ops_per_s; compare op_ms_p50 a little"),
    ("estimation.loglik_per_fit", "1/fit", "lower", "study ops_per_s"),
    ("estimation.minimize.calls", "1/op", "lower", "study ops_per_s; compare op_ms_p50"),
    ("estimation.fit_clfrd.self_ms", "ms/op", "lower", "study ops_per_s"),
    ("estimation.converged_frac", "frac", "higher", "study ops_per_s (fewer wasted fits)"),
    ("estimation.fit_model.clfrd.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("estimation.fit_model.lfrd.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("estimation.fit_model.rd.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("estimation.fit_model.ed.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("estimation.fit_model.ged.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("gof.ks_test.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("gof.ad_stat.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("gof.cm_stat.busy_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("cli.self_ms", "ms/op", "lower", "compare op_ms_p50"),
    ("datasets.builtin.calls", "1/op", "lower", "nothing (one load per comparison)"),
    ("simulation.self_ms", "ms/op", "lower", "study ops_per_s"),
    ("sampling.sample_inverse.calls", "1/op", "lower", "study ops_per_s"),
    ("sampling.sample_inverse.busy_ms", "ms/op", "lower", "study ops_per_s; surface ops_per_s"),
    ("sampling.sample_compound.busy_ms", "ms/op", "lower", "surface ops_per_s"),
    ("distributions.quantile.busy_ms", "ms/op", "lower", "surface ops_per_s"),
    ("distributions.eval.busy_ms", "ms/op", "lower", "surface ops_per_s"),
    ("special.lambert_w0.calls", "1/op", "lower", "surface ops_per_s; study ops_per_s a little"),
    ("special.lambert_w0.busy_ms", "ms/op", "lower", "surface ops_per_s; study ops_per_s a little"),
    ("special.gamma.calls", "1/op", "lower", "surface ops_per_s"),
    ("special.gamma.busy_ms", "ms/op", "lower", "surface ops_per_s"),
    ("properties.quadrature.busy_ms", "ms/op", "lower", "surface op_ms_p50"),
    ("properties.quad.calls", "1/op", "lower", "surface op_ms_p50"),
    ("properties.series.busy_ms", "ms/op", "lower", "surface op_ms_p50"),
    ("surface.kernels_ms", "ms/op", "lower", "surface ops_per_s"),
    ("surface.measures_ms", "ms/op", "lower", "surface ops_per_s"),
    ("import.total_ms", "ms", "lower", "setup_s on every workload"),
    ("import.scipy_stats_ms", "ms", "lower", "setup_s on every workload"),
    ("import.scipy_optimize_ms", "ms", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "frac", "lower", "nothing (tracing cost: 1 - traced/untraced ops_per_s)"),
)


def instrument(tracer) -> None:
    wrap = tracer.wrap
    wrap(estimation, "clfrd_loglik", "estimation.clfrd_loglik")
    wrap(estimation, "minimize", "estimation.minimize")
    for owner in (estimation, simulation):
        wrap(owner, "fit_clfrd", "estimation.fit_clfrd", on_result=tracer.count_fit)
    wrap(estimation, "fit_model", lambda name, *_: f"estimation.fit_model.{name}")
    for fn in ("ks_test", "ad_stat", "cm_stat"):
        wrap(gof, fn, f"gof.{fn}")
    wrap(cli, "compare_models", "gof.compare_models")
    wrap(cli, "builtin", "datasets.builtin")
    for owner in (simulation, sampling):
        wrap(owner, "sample_inverse", "sampling.sample_inverse")
    wrap(sampling, "sample_compound", "sampling.sample_compound")
    wrap(distributions.Clfrd, "quantile", "distributions.quantile")
    for method in ("log_pdf", "pdf", "cdf", "sf", "hazard"):
        wrap(distributions.Clfrd, method, "distributions.eval")
    for owner in (distributions, properties):
        wrap(owner, "lambert_w0", "special.lambert_w0")
    for fn in ("ln_gamma", "regularized_gamma_p", "regularized_gamma_q"):
        wrap(properties, fn, "special.gamma")
    for fn in ("mrl", "mit", "raw_moment"):
        wrap(properties, fn, "properties.quadrature")
    wrap(properties, "quad", "properties.quad")
    for fn in ("mit_series", "mrl_series"):
        wrap(properties, fn, "properties.series")


def metrics(summary: dict, ops: int, fits_converged: int, speed_factor: float,
            extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies the ones not read from spans.

    Span times are scaled by ``speed_factor`` to the reference host speed.
    """
    out = {}
    fit = summary.get("estimation.fit_clfrd", {}).get("calls", 0)
    for name, _, _, _ in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        elif name == "estimation.loglik_per_fit":
            loglik = summary.get("estimation.clfrd_loglik", {}).get("calls", 0)
            out[name] = loglik / fit if fit else 0.0
        elif name == "estimation.converged_frac":
            out[name] = fits_converged / fit if fit else 0.0
        else:
            span, field = name.rsplit(".", 1)
            scale = 1.0 if field == "calls" else speed_factor
            out[name] = scale * summary.get(span, {}).get(field, 0) / ops
    return out
