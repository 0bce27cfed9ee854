"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``smoke.py`` checks that a run
emits each of them with the unit given here.
"""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_gmean_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

ESTIMATORS = ("mle_h", "mle_hh", "mle_t", "igmm", "igmm_hh", "delta_only")
STUDY_ESTIMATORS = ("median", "gaussian_mle", "igmm", "lambertw_mle", "delta_mle")
CLI_COMMANDS = ("simulate", "fit", "fit_hh", "gaussianize", "transform")

PER_LAYER = (
    ("lambertw.calls", "count", "lower"),
    ("lambertw.elements", "count", "lower"),
    ("lambertw.self_s", "s", "lower"),
    ("lambertw.ns_per_elem", "ns", "lower"),
    ("transform.self_s", "s", "lower"),
    ("transform.w_tau.ns_per_elem", "ns", "lower"),
    ("transform.h_tau.ns_per_elem", "ns", "lower"),
    *((f"transform.w_evals_per_point.{k}", "count", "lower")
      for k in ("w_tau", "loglik", "logpdf", "pdf", "cdf")),
    *((f"distributions.{k}.ns_per_elem", "ns", "lower")
      for k in ("cdf", "pdf", "logpdf", "quantile")),
    ("distributions.self_s", "s", "lower"),
    *(m for e in ESTIMATORS for m in (
        (f"estimation.{e}.p50_s", "s", "lower"),
        (f"estimation.{e}.loglik_calls", "count", "lower"),
        (f"estimation.{e}.w_evals_per_point", "count", "lower"),
        (f"estimation.{e}.iterations", "count", "lower"),
    )),
    ("estimation.loglik.self_s", "s", "lower"),
    ("estimation.converged_ratio", "ratio", "higher"),
    ("gaussianize.fit_transform.p50_s", "s", "lower"),
    ("simulate.rlambertw.ns_per_elem", "ns", "lower"),
    ("simulate.study.busy_cores", "cores", "higher"),
    ("simulate.study.fit_share", "share", "higher"),
    ("simulate.study.redraw_ratio", "ratio", "lower"),
    *((f"simulate.study.cell_s.{e}", "s", "lower") for e in STUDY_ESTIMATORS),
    ("simulate.study.speedup_2_threads", "x", "higher"),
    ("normality.anderson_darling.self_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"cli.main_s.{c}", "s", "lower") for c in CLI_COMMANDS),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Counts and count ratios repeat exactly for the same seed and code; they
# are taken from the first traced pass instead of a median over passes.
EXACT_UNITS = ("count", "ratio")
