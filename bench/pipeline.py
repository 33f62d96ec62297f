"""One measured run of the paperlens pipeline, in a fresh process.

``run.py`` starts this script once per measured run, so that set-up time and
peak RSS belong to that run alone, and reads the JSON object it prints last.

    python3 bench/pipeline.py setup   --inputs DIR --work DIR
    python3 bench/pipeline.py run     --inputs DIR --work DIR [--trace]
    python3 bench/pipeline.py kernels --inputs DIR --work DIR

``setup`` only measures set-up. ``run`` runs ingest -> sample -> plan ->
annotate (and resume) -> filter -> parse -> verify -> stats on the generated
inputs, then checks the outputs against the truth file. With ``--trace`` it
records spans around the calls into each layer and reports per-layer
metrics. ``kernels`` times fixed-input kernels and measures the matcher's
similarity error against the exhaustive definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import gate
import generate
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _setup(truth: dict, fixtures: Path):
    """Import the program, assemble both prompt bundles and build the client."""
    start = time.perf_counter()
    import paperlens
    from paperlens.provider import StubScript

    bundle = paperlens.build_annotation_prompt()
    paperlens.build_filter_prompt("No relevant examples were found in this batch.")
    config = paperlens.ProviderConfig(
        dialect="stub",
        fixtures_dir=str(fixtures),
        max_inflight=truth["max_inflight"],
        max_retries=truth["max_retries"],
        backoff_base_ms=truth["backoff_base_ms"],
    )
    client = paperlens.StubChatClient(config, script=StubScript(dict(truth["script"])))
    client.send_delay_s = truth["send_delay_s"]
    elapsed = time.perf_counter() - start

    source = Path(paperlens.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"paperlens imported from {source}, not from this checkout's src/")
    return elapsed, paperlens, bundle, client


def _record_calls(client, tracer, calls: list[dict], provider_error) -> None:
    """Log every ``complete`` call (kind, refs, wall time, attempts) around the client."""
    inner = client.complete

    def complete(bundle, payload_text=""):
        entry = {"key": f"{bundle.kind.value}-{generate.stub_key(bundle.kind.value, bundle.payload_refs)}"}
        start = time.perf_counter()
        try:
            with tracer.span("provider.complete"):
                response = inner(bundle, payload_text)
        except provider_error as exc:
            entry.update(wall=time.perf_counter() - start, ok=False, attempts=getattr(exc, "attempts", 1))
            calls.append(entry)
            raise
        entry.update(wall=time.perf_counter() - start, ok=True, attempts=response.attempts)
        calls.append(entry)
        return response

    client.complete = complete


def _usage() -> dict:
    """CPU seconds, blocks read and context switches of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu": ru.ru_utime + ru.ru_stime, "inblock": ru.ru_inblock,
            "nvcsw": ru.ru_nvcsw, "nivcsw": ru.ru_nivcsw}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _batch_index(path: Path) -> int:
    return int(path.name.split("_")[1])


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def run_pipeline(pl, truth: dict, inputs: Path, work: Path, bundle, client, tracer) -> dict:
    from paperlens.provider import ProviderError

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run_dir, stats_dir = work / "run", work / "stats"
    full_path, sample_path = work / "corpus.manifest.jsonl", work / "sample.manifest.jsonl"
    parsed_path, verified_path = work / "parsed.records.jsonl", work / "verified.records.jsonl"
    calls: list[dict] = []
    _record_calls(client, tracer, calls, ProviderError)
    span = tracer.span

    usage0, t0 = _usage(), time.perf_counter()
    with span("stage.ingest"):
        with span("corpus.ingest"):
            full = pl.ingest(inputs / "corpus").manifest
        with span("corpus.manifest_io"):
            pl.save_manifest(full, full_path)
    with span("stage.sample"):
        with span("corpus.manifest_io"):
            full = pl.load_manifest(full_path)
        with span("corpus.sample"):
            smp = pl.sample(full, truth["sample_n"], truth["sample_seed"])
        with span("corpus.manifest_io"):
            pl.save_manifest(smp, sample_path)
            digest = pl.manifest_digest(smp)
    with span("stage.plan"):
        run_cfg = pl.RunnerConfig(batch_size=truth["batch_size"], output_dir=str(run_dir))
        resume_cfg = replace(run_cfg, resume=True)
        with span("runner.plan"):
            full_plan = pl.plan_batches(full, run_cfg, client.config, bundle.estimated_tokens)
            jobs = pl.plan_batches(smp, run_cfg, client.config, bundle.estimated_tokens)
            resume_jobs = pl.plan_batches(smp, resume_cfg, client.config, bundle.estimated_tokens)
    with span("stage.annotate"):
        first = jobs[: truth["first_pass_batches"]]
        with span("runner.annotate"):
            first_summary = pl.run_annotation(first, bundle, smp, client, run_cfg)
        first_keys = [c["key"] for c in calls]
        with span("runner.resume"):
            resume_summary = pl.run_annotation(resume_jobs, bundle, smp, client, resume_cfg)
        resume_keys = [c["key"] for c in calls[len(first_keys):]]
    with span("stage.filter"):
        attempts_before = client.calls
        with span("runner.filter"):
            retention = pl.run_filter(run_dir, client)
        filter_attempts = client.calls - attempts_before
    with span("stage.parse"):
        records = []
        for path in sorted(run_dir.glob("batch_*_filtered.txt"), key=_batch_index):
            text = path.read_text(encoding="utf-8")
            with span("records.parse"):
                parsed, _ = pl.parse_batch_output(text, _batch_index(path))
            records.extend(parsed)
        dataset = pl.Dataset(records=records, source_manifest_hash=digest, filter_pass_count=retention.pass_number)
        with span("records.dataset_io"):
            pl.save_dataset(dataset, parsed_path)
    with span("stage.verify"):
        with span("records.dataset_io"):
            dataset = pl.load_dataset(parsed_path, digest)
        with span("verify.verify"):
            verified, vsummary = pl.verify_dataset(dataset, smp, truth["threshold"])
        with span("records.dataset_io"):
            pl.save_dataset(verified, verified_path)
    with span("stage.stats"):
        with span("records.dataset_io"):
            verified = pl.load_dataset(verified_path, digest)
        with span("analytics.stats"):
            corpus_table = pl.corpus_distribution(full)
            dataset_table = pl.dataset_distribution(verified, full)
            prevalence = pl.prevalence_estimate(dataset_table.total, corpus_table.total)
            report_path, csv_path = pl.emit_report(corpus_table, dataset_table, prevalence, stats_dir)
    pipeline_s = time.perf_counter() - t0
    usage = {k: v - usage0[k] for k, v in _usage().items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Correctness gate; nothing below is timed.
    job_states = [
        {"doc_ids": list(j.doc_ids), "status": j.status.value} for j in resume_jobs
    ]
    errors = gate.check_documents(truth, [r.doc_id for r in smp.documents], job_states)
    if len(full_plan) != truth["full_plan_batches"]:
        errors.append(f"full plan has {len(full_plan)} batches, expected {truth['full_plan_batches']}")
    as_dicts = [{f: getattr(r, f) for f in gate.RECORD_FIELDS} for r in verified.records]
    errors += gate.check_records(truth, as_dicts, retention.per_batch)
    matched = [bool(r.verification and r.verification.matched) for r in verified.records]
    agreement, verdict_errors = gate.verdict_agreement(truth, matched)
    errors += verdict_errors
    errors += gate.check_stats(
        truth,
        csv_path.read_text(encoding="utf-8"),
        report_path.read_text(encoding="utf-8"),
        {
            "contributing": prevalence.contributing_papers,
            "total": prevalence.total_papers,
            "clear_rate": prevalence.clear_rate,
            "borderline_or_better_rate": prevalence.borderline_or_better_rate,
        },
    )
    errors += gate.check_resume(truth, first_keys, resume_keys, resume_summary.skipped)

    failed_calls = sum(1 for c in calls if not c["ok"])
    done = {d for j in resume_jobs if j.status.value == "done" for d in j.doc_ids}
    failed_docs = {d for index, _ in resume_summary.failures for d in resume_jobs[index].doc_ids}
    lost = len(set(truth["sample"]) - done - failed_docs)
    attempted = len(calls) + len(truth["sample"])

    outputs = {
        p.name: _sha256(p)
        for p in (full_path, sample_path, run_dir / "checkpoint.json", run_dir / "filter_state.json",
                  parsed_path, verified_path, report_path, csv_path)
    }
    batch_files = hashlib.sha256()
    for path in sorted(run_dir.glob("batch_*.txt")):
        batch_files.update(path.name.encode() + b"\0" + path.read_bytes())
    outputs["batch_*.txt"] = batch_files.hexdigest()

    result = {
        "pipeline_s": pipeline_s,
        "cpu_s": usage.pop("cpu"),
        "peak_rss_mb": peak_rss_mb,
        "usage": usage,
        "verdict_agreement": agreement,
        "attempted": attempted,
        "failed": failed_calls + lost,
        "errors": errors,
        "outputs": outputs,
    }
    if isinstance(tracer, Tracer):
        kept = gate.kept_records(truth)
        result["layers"] = _layers(
            tracer, truth, calls, pipeline_s,
            n_docs=len(full.documents),
            n_records=len(records),
            annotate_attempts=first_summary.provider_calls,
            filter_attempts=filter_attempts,
            resume_skipped=resume_summary.skipped,
            high_water=client.inflight_high_water,
            review_band=len(vsummary.review_records),
            exact_share=sum(r["exact"] for r in kept) / len(kept),
        )
    return result


def _layers(tracer: Tracer, truth: dict, calls: list[dict], pipeline_s: float, *, n_docs: int,
            n_records: int, annotate_attempts: int, filter_attempts: int, resume_skipped: int,
            high_water: int, review_band: int, exact_share: float) -> dict:
    """Per-layer metrics of one traced run, from its spans and the program's counters."""
    def self_time(name: str) -> float:
        return sum(tracer.self_time(s) for s in tracer.named(name))

    def efficiency(attempts: int, elapsed: float) -> float:
        ideal = truth["send_delay_s"] * attempts / truth["max_inflight"]
        return ideal / elapsed if elapsed else 0.0

    delay = truth["send_delay_s"]
    walls = [c["wall"] * 1000 for c in calls]
    overheads = [(c["wall"] - delay) * 1000 for c in calls if c["ok"] and c["attempts"] == 1]
    matches = [s.duration * 1000 for s in tracer.named("verify.best_match")]
    stages = sum(s.duration for s in tracer.spans if s.name.startswith("stage.") and s.parent is None)
    ingest_s, parse_s = tracer.total("corpus.ingest"), tracer.total("records.parse")
    annotate_s, filter_s = tracer.total("runner.annotate"), tracer.total("runner.filter")
    return {
        "corpus.ingest_s": ingest_s,
        "corpus.ingest_docs_per_s": n_docs / ingest_s,
        "corpus.sample_s": tracer.total("corpus.sample"),
        "corpus.manifest_io_s": tracer.total("corpus.manifest_io"),
        "runner.plan_s": tracer.total("runner.plan"),
        "runner.annotate_s": annotate_s,
        "runner.annotate_self_s": self_time("runner.annotate"),
        "runner.annotate_efficiency": efficiency(annotate_attempts, annotate_s),
        "runner.filter_s": filter_s,
        "runner.filter_self_s": self_time("runner.filter"),
        "runner.filter_efficiency": efficiency(filter_attempts, filter_s),
        "runner.resume_s": tracer.total("runner.resume"),
        "runner.resume_skipped": resume_skipped,
        "provider.calls": len(calls),
        "provider.retries": sum(c["attempts"] - 1 for c in calls),
        "provider.call_p50_ms": _pct(walls, 0.5),
        "provider.call_p90_ms": _pct(walls, 0.9),
        "provider.overhead_ms": statistics.fmean(overheads) if overheads else 0.0,
        "provider.inflight_high_water": high_water,
        "records.parse_s": parse_s,
        "records.parse_records_per_s": n_records / parse_s if parse_s else 0.0,
        "records.dataset_io_s": tracer.total("records.dataset_io"),
        "verify.verify_s": tracer.total("verify.verify"),
        "verify.verify_self_s": self_time("verify.verify"),
        "verify.best_match_calls": len(matches),
        "verify.best_match_p50_ms": _pct(matches, 0.5),
        "verify.best_match_p90_ms": _pct(matches, 0.9),
        "verify.exact_share": exact_share,
        "verify.review_band": review_band,
        "analytics.stats_s": tracer.total("analytics.stats"),
        "bench.unstaged_s": pipeline_s - stages,
    }


def _timed(fn, budget_s: float, max_reps: int = 200) -> float:
    """Median wall time of ``fn`` in ms, repeated until ``budget_s`` is spent."""
    samples: list[float] = []
    spent = 0.0
    while not samples or (spent < budget_s and len(samples) < max_reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples) * 1000


def kernels() -> dict:
    import oracle
    import paperlens

    fixed = generate.kernel_inputs()
    probes = generate.similarity_probes()
    err = 0.0
    for quote, doc in probes:
        reported = paperlens.best_match(quote, doc).similarity
        exact = oracle.window_similarity(paperlens.normalize(quote), paperlens.normalize(doc))
        err = max(err, abs(reported - exact))
    return {
        "verify.normalize_ms": _timed(lambda: paperlens.normalize(fixed["normalize_doc"]), 0.5),
        "verify.best_match_20k_q100_ms": _timed(lambda: paperlens.best_match(fixed["q100"], fixed["doc20k"]), 1.0),
        "verify.best_match_20k_q600_ms": _timed(lambda: paperlens.best_match(fixed["q600"], fixed["doc20k"]), 1.0),
        "records.parse_batch_output_ms": _timed(lambda: paperlens.parse_batch_output(fixed["batch_output"]), 0.5),
        "verify.similarity_max_err": err,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "kernels"))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "kernels":
        print(json.dumps(kernels()))
        return 0
    truth = json.loads((args.inputs / "truth.json").read_text(encoding="utf-8"))
    setup_s, pl, bundle, client = _setup(truth, args.inputs / "fixtures")
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(run_id=args.work.name) if args.trace else NullTracer()
    verify_module = sys.modules["paperlens.verify"]
    untraced_best_match = verify_module.best_match
    if args.trace:
        def best_match(*a, **kw):
            with tracer.span("verify.best_match"):
                return untraced_best_match(*a, **kw)

        verify_module.best_match = best_match
    try:
        result = run_pipeline(pl, truth, args.inputs, args.work, bundle, client, tracer)
    finally:
        verify_module.best_match = untraced_best_match
    result["setup_s"] = setup_s
    if args.trace:
        (args.work / "trace.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
