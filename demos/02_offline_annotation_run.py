"""Run the full annotation + filter pipeline offline against the stub provider.

The stub replays canned responses keyed by (prompt kind, sorted doc ids), so
this demo fabricates two batch responses, runs the annotation pass with
checkpointing, re-runs with resume to show zero provider calls, applies the
strict filter pass, and parses the filtered records.

Run: python demos/02_offline_annotation_run.py
"""

import tempfile
from pathlib import Path

import paperlens.runner
from paperlens import (
    ExampleRecord,
    ProviderConfig,
    RunnerConfig,
    StubChatClient,
    build_annotation_prompt,
    ingest,
    plan_batches,
    render_record,
    run_annotation,
    run_filter,
    write_stub_fixture,
)

work_dir = tempfile.TemporaryDirectory(prefix="paperlens-demo-")
work = Path(work_dir.name)
src = work / "corpus"
src.mkdir()
for i in range(6):
    (src / f"paper{i}.pdf").write_bytes(b"%PDF-1.4\n%demo\n%%EOF")
    (src / f"paper{i}.txt").write_text(
        f"Paper {i} argues that the identity holds because of a hidden symmetry, case {i}.",
        encoding="utf-8",
    )
manifest = ingest(src).manifest

# The plan is budgeted against the context window of the client that sends it.
fixtures = work / "fixtures"
client = StubChatClient(ProviderConfig(dialect="stub", fixtures_dir=str(fixtures)))
bundle = build_annotation_prompt()
print(f"annotation prompt estimate: {bundle.estimated_tokens} tokens")

run_cfg = RunnerConfig(batch_size=3, output_dir=str(work / "run"))
jobs = plan_batches(manifest, run_cfg, client.config, bundle.estimated_tokens)
print(f"planned {len(jobs)} batches: {[len(j.doc_ids) for j in jobs]} docs each, "
      f"~{[j.tokens for j in jobs]} doc tokens each")


# Canned model responses: labeled-bullet items, half of which survive filtering.
def fake_items(job, count):
    return [
        ExampleRecord(
            source_doc_id=job.doc_ids[k],
            title=f"Paper {job.doc_ids[k][-1]}",
            finding="The symmetry is offered as the reason the identity holds.",
            quote=f"the identity holds because of a hidden symmetry, case {job.doc_ids[k][-1]}",
            commentary="Explicit reason-why phrasing.",
            batch_index=job.index,
        )
        for k in range(count)
    ]


for job in jobs:
    items = fake_items(job, 2)
    write_stub_fixture(
        fixtures, "annotation", list(job.doc_ids),
        "\n\n".join(render_record(r) for r in items),
    )
    write_stub_fixture(
        fixtures, "filter", [f"batch_{job.index}_output.txt"],
        render_record(items[0]),
    )

summary = run_annotation(jobs, bundle, manifest, client, run_cfg)
print(f"run: {summary.completed} done, {summary.failed} failed, "
      f"{summary.provider_calls} provider calls")
print(f"outputs: {sorted(p.name for p in (work / 'run').glob('batch_*_output.txt'))}")

# Resume after completion: the checkpoint makes this a no-op.
resume_cfg = RunnerConfig(batch_size=3, output_dir=str(work / "run"), resume=True)
resumed = run_annotation(
    plan_batches(manifest, resume_cfg, client.config, bundle.estimated_tokens),
    bundle, manifest, client, resume_cfg,
)
print(f"resume: {resumed.skipped} batches skipped, {resumed.provider_calls} provider calls")

# Strict filter pass; the stub keeps one of two records per batch.
stats = run_filter(work / "run", client)
print(f"filter pass {stats.pass_number}: kept {stats.records_kept}/{stats.records_in} "
      f"records (retention {stats.overall_retention:.2f}, "
      f"quota warning: {stats.quota_warning})")

# Parse the records each batch holds after its filter pass.
parsed = paperlens.runner.parse_run(work / "run", filtered=True)
print(f"parsed {len(parsed.records)} filtered records "
      f"(filter_pass_count {parsed.filter_pass_count})")

work_dir.cleanup()  # removes every file the demo wrote
