"""Command-line entry point wiring the pipeline end to end.

Subcommands follow the workflow order: ingest -> sample -> annotate ->
filter -> parse -> verify -> stats -> query. Logs go to stderr; data goes
to files only. Exit codes: 0 success, 1 user error, 2 partial failure (a
failed batch, or a source ``verify`` could not read). All randomness
(sampling) requires an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import analytics, corpus, prompts, provider, records, runner, taxonomy, verify
from .atomic import PaperlensError, write_atomic
from .config import OVERRIDABLE, GlobalConfig, apply_overrides, load_config

logger = logging.getLogger("paperlens")


class CliError(PaperlensError):
    """A user error that should exit with code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; user errors are exit 1 here.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> argparse._ArgumentGroup:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="path to a JSON config file")
    return group


def _add_provider_flags(group: argparse._ArgumentGroup) -> None:
    group.add_argument("--dialect", choices=provider.DIALECTS, help="provider dialect")
    group.add_argument("--base-url", dest="base_url", help="provider base URL")
    group.add_argument("--model", dest="model_name", help="model name")
    group.add_argument("--api-key-env", dest="api_key_env", help="env var holding the API key")
    group.add_argument("--context-window", dest="context_window_tokens", type=int,
                       help="provider context window in tokens")
    group.add_argument("--max-output-tokens", dest="max_output_tokens", type=int,
                       help="maximum output tokens per call")
    group.add_argument("--max-retries", dest="max_retries", type=int,
                       help="retry attempts for transient failures")
    group.add_argument("--backoff-base-ms", dest="backoff_base_ms", type=int,
                       help="base backoff delay in milliseconds")
    group.add_argument("--max-inflight", dest="max_inflight", type=int,
                       help="maximum concurrent provider calls")
    group.add_argument("--temperature", dest="temperature", type=float,
                       help="sampling temperature")
    group.add_argument("--timeout-s", dest="timeout_s", type=float,
                       help="per-request transport timeout in seconds")
    group.add_argument("--fixtures-dir", dest="fixtures_dir",
                       help="stub dialect: directory of canned responses")
    group.add_argument("--prompts-dir", dest="prompts_dir",
                       help="directory of prompt template sections")


def _config_from_args(args: argparse.Namespace) -> GlobalConfig:
    """The --config file's settings, overridden by each flag named after a config field."""
    overrides = {name: getattr(args, name, None) for name in OVERRIDABLE}
    return apply_overrides(load_config(args.config), **overrides)


def _parse_tiers(spec: str) -> analytics.TierFractions:
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliError(f"--tiers expects three comma-separated fractions, got {spec!r}")
    try:
        high, borderline, low = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"--tiers: {exc}") from exc
    return analytics.TierFractions(high=high, borderline=borderline, low=low)


def build_parser() -> _Parser:
    parser = _Parser(prog="paperlens", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", parents=[], help="build a manifest from a directory of papers")
    p.add_argument("--source", required=True, help="directory of PDFs with .txt sidecars")
    p.add_argument("--metadata", help="doc_id-keyed metadata file (JSON lines)")
    p.add_argument("--extract-cmd", dest="extract_cmd",
                   help="external command producing missing sidecars; use {pdf} and {txt}")
    p.add_argument("--out", required=True, help="manifest file to write")

    p = sub.add_parser("sample", help="draw a reproducible random sample from a manifest")
    p.add_argument("--manifest", required=True, help="input manifest file")
    p.add_argument("--n", required=True, type=int, help="sample size")
    p.add_argument("--seed", required=True, type=int, help="sampling seed (required; no implicit entropy)")
    p.add_argument("--out", required=True, help="manifest file to write")

    p = sub.add_parser("annotate", help="run the annotation prompt over document batches")
    group = _add_config_flags(p)
    _add_provider_flags(group)
    group.add_argument("--batch-size", dest="batch_size", type=int,
                       help="documents per annotation batch")
    p.add_argument("--manifest", required=True, help="manifest of documents to annotate")
    p.add_argument("--out", required=True, help="output directory for batch files")
    p.add_argument("--resume", action="store_true",
                   help="skip batches the checkpoint records with the current plan's digest")
    p.add_argument("--context-asset", dest="context_asset",
                   help="file with the context excerpt appended to the prompt")
    p.add_argument("--context-description", dest="context_description",
                   help="how the prompt should describe the context excerpt")
    p.add_argument("--skip-oversize", dest="skip_oversize", action="store_true",
                   help="skip documents that alone exceed the context window")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="print the batch plan and token estimates; no provider calls")
    p.add_argument("--audit", action="store_true",
                   help="log full request/response bodies, without credentials, to an audit file")

    p = sub.add_parser("filter", help="apply the strict quality filter to batch outputs")
    _add_provider_flags(_add_config_flags(p))
    p.add_argument("--dir", required=True, help="directory containing batch_*_output.txt")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="print the next pass, its input files and token estimates; no provider calls")
    p.add_argument("--audit", action="store_true",
                   help="log full request/response bodies, without credentials, to an audit file")

    p = sub.add_parser("parse", help="parse batch outputs into a structured dataset")
    p.add_argument("--dir", required=True, help="directory containing batch files")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--manifest", help="manifest to record a digest of")
    p.add_argument("--filtered", action="store_true",
                   help="parse each batch's latest filter pass (its raw output before the first)")

    p = sub.add_parser("verify", help="check record quotes against their source documents")
    p.add_argument("--dataset", required=True, help="dataset file to verify")
    p.add_argument("--manifest", required=True, help="manifest resolving source documents")
    p.add_argument("--threshold", type=float,
                   help="similarity threshold (default: the config's, else 0.85)")
    p.add_argument("--out", help="write the annotated dataset here")
    p.add_argument("--report", help="write the verification summary as JSON here")
    _add_config_flags(p)

    p = sub.add_parser("stats", help="compute distributions, richness, and prevalence")
    p.add_argument("--manifest", required=True, help="corpus manifest")
    p.add_argument("--dataset", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="directory for report.txt and richness.csv")
    p.add_argument("--tiers", help="quality tier fractions high,borderline,low (default 0.2,0.6,0.2)")
    p.add_argument("--taxonomy", help="JSON file overriding the tag-to-area table")

    p = sub.add_parser("query", help="ask a follow-up question over a dataset")
    _add_provider_flags(_add_config_flags(p))
    p.add_argument("--dataset", required=True, help="dataset file to attach")
    p.add_argument("--question", required=True, help="the follow-up question")
    p.add_argument("--log", help="transcript file (default: alongside the dataset)")
    p.add_argument("--audit", action="store_true",
                   help="log full request/response bodies, without credentials, to an audit file")

    p = sub.add_parser("export", help="render a dataset as a human-readable document")
    p.add_argument("--dataset", required=True, help="dataset file to render")
    p.add_argument("--out", required=True, help="document file to write")

    p = sub.add_parser("prompts", help="inspect assembled prompt templates")
    p.add_argument("action", choices=["show"], help="what to do")
    p.add_argument("--kind", required=True, choices=["annotation", "filter", "query"],
                   help="which prompt to show")
    p.add_argument("--prompts-dir", dest="prompts_dir",
                   help="directory of prompt template sections")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    result = corpus.ingest(args.source, args.metadata, extract_cmd=args.extract_cmd)
    corpus.save_manifest(result.manifest, args.out)
    print(
        f"ingested {len(result.manifest)} documents "
        f"({len(result.skipped)} skipped) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    manifest = corpus.load_manifest(args.manifest)
    sampled = corpus.sample(manifest, args.n, args.seed)
    corpus.save_manifest(sampled, args.out)
    print(
        f"sampled {len(sampled)} of {sampled.parent_size} documents "
        f"(seed {args.seed}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _make_client(cfg: GlobalConfig, args: argparse.Namespace, out_dir: Path) -> provider.ChatClient:
    # The runner makes or reads out_dir before its first call, which writes the audit file.
    audit_path = out_dir / "audit.jsonl" if args.audit else None
    return provider.make_client(cfg.provider, audit_path=audit_path)


def _cmd_annotate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    manifest = corpus.load_manifest(args.manifest)
    # --batch-size, --resume and --skip-oversize reach cfg.runner as overrides.
    run_cfg = replace(cfg.runner, output_dir=args.out)

    asset = None
    if args.context_asset:
        asset = prompts.ContextAsset.from_file(args.context_asset, args.context_description)
    bundle = prompts.build_annotation_prompt(asset=asset, templates_dir=cfg.prompts_dir)

    jobs = runner.plan_batches(manifest, run_cfg, cfg.provider, bundle.estimated_tokens)

    if args.dry_run:
        print(f"plan: {len(jobs)} batches over {len(manifest)} documents")
        print(f"prompt estimate: {bundle.estimated_tokens} tokens")
        for job in jobs:
            print(f"  batch {job.index}: {len(job.doc_ids)} docs, ~{job.tokens} doc tokens "
                  f"-> {runner.batch_path(run_cfg.output_dir, job.index, 'output')}")
        return 0

    client = _make_client(cfg, args, Path(args.out))
    summary = runner.run_annotation(jobs, bundle, manifest, client, run_cfg)
    print(
        f"annotation run: {summary.completed}/{summary.total} batches done, "
        f"{summary.skipped} resumed, {summary.failed} failed, "
        f"{summary.provider_calls} provider calls",
        file=sys.stderr,
    )
    return 0 if summary.ok else 2


def _cmd_filter(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    directory = Path(args.dir)

    if args.dry_run:
        plan = runner.plan_filter(directory)
        print(f"plan: filter pass {plan.pass_number} over {len(plan.inputs)} batch files")
        for _, path, text in plan.inputs:
            print(f"  {path.name}: ~{provider.estimate_tokens(text)} payload tokens")
        return 0

    client = _make_client(cfg, args, directory)
    stats = runner.run_filter(directory, client, templates_dir=cfg.prompts_dir)
    print(
        f"filter pass {stats.pass_number}: kept {stats.records_kept}/{stats.records_in} records "
        f"(retention {stats.overall_retention:.2f})",
        file=sys.stderr,
    )
    return 0 if not stats.failures else 2


def _cmd_parse(args: argparse.Namespace) -> int:
    run = runner.parse_run(args.dir, args.filtered)
    for warning in run.warnings + run.lagging:
        print(f"warning: {warning}", file=sys.stderr)
    manifest_hash = corpus.manifest_digest(corpus.load_manifest(args.manifest)) if args.manifest else ""
    ds = records.Dataset(records=run.records, source_manifest_hash=manifest_hash,
                         filter_pass_count=run.filter_pass_count)
    records.save_dataset(ds, args.out)
    print(
        f"parsed {len(run.records)} records from {run.files} files "
        f"({len(run.warnings)} warnings) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    threshold = _config_from_args(args).threshold
    manifest = corpus.load_manifest(args.manifest)
    ds = records.load_dataset(args.dataset, corpus.manifest_digest(manifest))

    annotated, summary = verify.verify_dataset(ds, manifest, threshold)

    print(f"{'result':<12}{'count':>8}")
    for name, count in summary.counts.items():
        print(f"{name:<12}{count:>8}")
    if summary.review_records:
        print(f"\nnear-misses for human review (similarity within {verify.REVIEW_BAND} of threshold):")
        for record in summary.review_records:
            sim = record.verification.similarity if record.verification else 0.0
            print(f"  {record.source_doc_id}: similarity {sim:.3f}")
    if summary.unverified_records:
        print("\nunverified records:")
        for record in summary.unverified_records:
            sim = record.verification.similarity if record.verification else 0.0
            quote = (record.quote or "")[:60]
            print(f"  batch {record.batch_index} {record.source_doc_id}: {sim:.3f} {quote!r}")

    if args.out:
        records.save_dataset(annotated, args.out)
        print(f"annotated dataset -> {args.out}", file=sys.stderr)
    if args.report:
        report = {
            "threshold": threshold,
            "counts": summary.counts,
            "skipped_doc_ids": summary.skipped_doc_ids,
            "unreadable_doc_ids": summary.unreadable_doc_ids,
            "unverified": [
                {
                    "source_doc_id": r.source_doc_id,
                    "batch_index": r.batch_index,
                    "similarity": r.verification.similarity if r.verification else 0.0,
                }
                for r in summary.unverified_records
            ],
        }
        write_atomic(args.report, json.dumps(report, indent=2) + "\n")
        print(f"verification report -> {args.report}", file=sys.stderr)
    return 2 if summary.unreadable_doc_ids else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    manifest = corpus.load_manifest(args.manifest)
    ds = records.load_dataset(args.dataset, corpus.manifest_digest(manifest))
    tiers = _parse_tiers(args.tiers) if args.tiers else analytics.TierFractions()

    table = taxonomy.load_table(args.taxonomy) if args.taxonomy else None

    corpus_table = analytics.corpus_distribution(manifest, table)
    dataset_table = analytics.dataset_distribution(ds, manifest, table)
    contributors = dataset_table.total
    prevalence = analytics.prevalence_estimate(contributors, corpus_table.total, tiers)

    report_path, csv_path = analytics.emit_report(
        corpus_table, dataset_table, prevalence, args.out
    )
    print(f"report -> {report_path}\ncsv -> {csv_path}", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg, args, Path(args.dataset).parent)
    answer = runner.run_query(
        args.dataset, args.question, client, log_path=args.log, templates_dir=cfg.prompts_dir
    )
    print(answer)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    ds = records.load_dataset(args.dataset)
    write_atomic(args.out, records.export_document(ds))
    print(f"exported {len(ds.records)} records -> {args.out}", file=sys.stderr)
    return 0


def _cmd_prompts(args: argparse.Namespace) -> int:
    kind = prompts.PromptKind(args.kind)
    if kind is prompts.PromptKind.ANNOTATION:
        bundle = prompts.build_annotation_prompt(templates_dir=args.prompts_dir)
    elif kind is prompts.PromptKind.FILTER:
        bundle = prompts.build_filter_prompt("[batch output goes here]", templates_dir=args.prompts_dir)
    else:
        sections = prompts.load_sections(kind, templates_dir=args.prompts_dir)
        print(sections["framing"])
        return 0
    print(bundle.text)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "sample": _cmd_sample,
    "annotate": _cmd_annotate,
    "filter": _cmd_filter,
    "parse": _cmd_parse,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "export": _cmd_export,
    "prompts": _cmd_prompts,
}


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 1
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return dispatch(argv)
    except PaperlensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
