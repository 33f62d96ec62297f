"""Every metric the benchmark reports, with its unit and direction.

End-to-end metrics come from untraced runs and carry a regression bound: the
share of the parent commit's median by which they may worsen. Per-layer
metrics come from the traced run; each names its layer and the end-to-end
metric and workload it should move. ``BENCHMARK.json`` at the repository
root restates the names, units, directions and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "import paperlens, assemble the annotation and filter bundles, build the client"),
    EndToEnd("pipeline_s", "s", "lower", 0.25,
             "wall time from the start of ingest to the stats report and CSV being written"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "user plus system CPU time of the run's process over the pipeline interval"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1, "ru_maxrss of the run's process"),
    EndToEnd("verdict_agreement", "ratio", "higher", 0.05,
             "share of labelled quotes whose matched verdict equals the label's"),
    EndToEnd("completed_ops_share", "ratio", "higher", 0.05,
             "1 - failed_ops_share: provider calls failed after retries plus sampled documents lost, "
             "over provider calls attempted plus documents sampled"),
)

_P = PerLayer
PER_LAYER = (
    _P("corpus.ingest_s", "s", "lower", "corpus", "pipeline_s and cpu_s on study-5k; none on provider-bound"),
    _P("corpus.ingest_docs_per_s", "1/s", "higher", "corpus", "pipeline_s and cpu_s on study-5k"),
    _P("corpus.sample_s", "s", "lower", "corpus", "pipeline_s on study-5k"),
    _P("corpus.manifest_io_s", "s", "lower", "corpus", "pipeline_s on study-5k"),
    _P("runner.plan_s", "s", "lower", "runner", "pipeline_s on study-5k"),
    _P("runner.annotate_s", "s", "lower", "runner", "pipeline_s on provider-bound"),
    _P("runner.annotate_self_s", "s", "lower", "runner", "pipeline_s on provider-bound"),
    _P("runner.annotate_efficiency", "ratio", "higher", "runner", "pipeline_s on provider-bound"),
    _P("runner.filter_s", "s", "lower", "runner", "pipeline_s on provider-bound; none on quote-audit"),
    _P("runner.filter_self_s", "s", "lower", "runner", "pipeline_s on provider-bound; none on quote-audit"),
    _P("runner.filter_efficiency", "ratio", "higher", "runner", "pipeline_s on provider-bound; none on quote-audit"),
    _P("runner.resume_s", "s", "lower", "runner", "pipeline_s on provider-bound"),
    _P("runner.resume_skipped", "count", "higher", "runner", "pipeline_s on provider-bound"),
    _P("provider.calls", "count", "lower", "provider", "completed_ops_share on provider-bound"),
    _P("provider.retries", "count", "lower", "provider", "completed_ops_share on provider-bound"),
    _P("provider.call_p50_ms", "ms", "lower", "provider", "pipeline_s on provider-bound"),
    _P("provider.call_p90_ms", "ms", "lower", "provider", "pipeline_s on provider-bound"),
    _P("provider.overhead_ms", "ms", "lower", "provider, prompts", "cpu_s on provider-bound"),
    _P("provider.inflight_high_water", "count", "higher", "provider", "pipeline_s on provider-bound"),
    _P("records.parse_s", "s", "lower", "records", "pipeline_s on provider-bound"),
    _P("records.parse_records_per_s", "1/s", "higher", "records", "pipeline_s on provider-bound"),
    _P("records.dataset_io_s", "s", "lower", "records", "pipeline_s on provider-bound"),
    _P("verify.verify_s", "s", "lower", "verify", "pipeline_s and cpu_s on quote-audit; none on provider-bound"),
    _P("verify.verify_self_s", "s", "lower", "verify", "pipeline_s and cpu_s on quote-audit; none on provider-bound"),
    _P("verify.best_match_calls", "count", "lower", "verify", "pipeline_s on quote-audit"),
    _P("verify.best_match_p50_ms", "ms", "lower", "verify", "pipeline_s on quote-audit"),
    _P("verify.best_match_p90_ms", "ms", "lower", "verify", "pipeline_s on quote-audit"),
    _P("verify.exact_share", "ratio", "higher", "verify", "explains which workloads bypass the DP"),
    _P("verify.review_band", "count", "lower", "verify", "verdict_agreement on quote-audit"),
    _P("verify.similarity_max_err", "ratio", "lower", "verify", "verdict_agreement on every workload"),
    _P("verify.normalize_ms", "ms", "lower", "verify", "pipeline_s on study-5k"),
    _P("verify.best_match_20k_q100_ms", "ms", "lower", "verify", "pipeline_s on quote-audit"),
    _P("verify.best_match_20k_q600_ms", "ms", "lower", "verify", "pipeline_s on quote-audit"),
    _P("records.parse_batch_output_ms", "ms", "lower", "records", "pipeline_s on provider-bound"),
    _P("analytics.stats_s", "s", "lower", "analytics, taxonomy", "pipeline_s on study-5k"),
    _P("bench.generate_s", "s", "lower", "bench", "none (bookkeeping)"),
    _P("bench.trace_overhead_s", "s", "lower", "bench", "none (bookkeeping)"),
    _P("bench.unstaged_s", "s", "lower", "bench", "none (traced pipeline_s outside every stage span)"),
)
