"""Batch planning, checkpointed runs, filter passes, and query tests."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_output_text, make_record, make_stub, synthetic_manifest, write_corpus
from paperlens.corpus import ingest
from paperlens.prompts import ContextAsset, build_annotation_prompt
from paperlens.provider import ContextOverflow, HttpChatClient, ProviderConfig, stub_key, write_stub_fixture
from paperlens.runner import (
    CheckpointMismatch,
    JobStatus,
    RunnerConfig,
    RunnerError,
    plan_batches,
    run_annotation,
    run_filter,
    run_query,
)

BUNDLE = build_annotation_prompt(overrides={
    "persona": "You are a test assistant.",
    "phenomena": "Watch for the target concept.",
    "proof_types": "Any.",
    "instructions": "Report items as labeled bullets.",
})


# --- plan_batches --------------------------------------------------------------


def test_plan_5000_docs_in_batches_of_25():
    manifest = synthetic_manifest(5000)
    jobs = plan_batches(manifest, RunnerConfig(batch_size=25, output_dir="out"))
    assert len(jobs) == 200
    assert all(len(j.doc_ids) == 25 for j in jobs)


def test_plan_empty_manifest_is_error():
    from paperlens.corpus import CorpusManifest

    with pytest.raises(RunnerError, match="empty"):
        plan_batches(CorpusManifest(documents=()), RunnerConfig())


def test_plan_remainder_batch():
    manifest = synthetic_manifest(26)
    jobs = plan_batches(manifest, RunnerConfig(batch_size=25, output_dir="out"))
    assert [len(j.doc_ids) for j in jobs] == [25, 1]


def test_plan_output_paths_zero_based(tmp_path):
    manifest = synthetic_manifest(30)
    jobs = plan_batches(manifest, RunnerConfig(batch_size=25, output_dir=str(tmp_path)))
    assert jobs[0].output_path.endswith("batch_0_output.txt")
    assert jobs[1].output_path.endswith("batch_1_output.txt")


@settings(max_examples=40, deadline=None)
@given(
    n_docs=st.integers(min_value=1, max_value=300),
    batch_size=st.integers(min_value=1, max_value=40),
)
def test_plan_partition_properties(n_docs, batch_size):
    manifest = synthetic_manifest(n_docs)
    jobs = plan_batches(manifest, RunnerConfig(batch_size=batch_size, output_dir="out"))
    all_ids = [d for j in jobs for d in j.doc_ids]
    assert all_ids == [r.doc_id for r in manifest.documents]  # cover, order, disjoint
    assert all(1 <= len(j.doc_ids) <= batch_size for j in jobs)
    assert [j.index for j in jobs] == list(range(len(jobs)))


def test_plan_splits_batches_over_token_budget():
    # Each doc ~ 1000 chars -> ~275 tokens + header; window fits about 3 docs.
    manifest = synthetic_manifest(12)
    provider_cfg = ProviderConfig(
        dialect="stub", context_window_tokens=1500, max_output_tokens=400
    )
    jobs = plan_batches(manifest, RunnerConfig(batch_size=25), provider_cfg, prompt_tokens=50)
    assert len(jobs) > 1
    assert [d for j in jobs for d in j.doc_ids] == [r.doc_id for r in manifest.documents]


def test_plan_oversize_document_is_error():
    from paperlens.corpus import CorpusManifest, DocumentRef

    big = DocumentRef(doc_id="huge", path="p", text_path="t", char_count=10_000_000)
    manifest = CorpusManifest.build([big])
    provider_cfg = ProviderConfig(dialect="stub", context_window_tokens=10_000, max_output_tokens=1000)
    with pytest.raises(RunnerError, match="huge"):
        plan_batches(manifest, RunnerConfig(), provider_cfg)
    jobs = plan_batches(manifest, RunnerConfig(skip_oversize=True), provider_cfg)
    assert jobs == []


# --- run_annotation ------------------------------------------------------------


def _corpus_on_disk(tmp_path, n=4):
    docs = {f"doc{i}": f"Document {i} body text explaining why result {i} holds." for i in range(n)}
    src = write_corpus(tmp_path / "src", docs)
    return ingest(src).manifest


def _fixtures_for_jobs(fixtures_dir, jobs, text_fn):
    for job in jobs:
        write_stub_fixture(fixtures_dir, "annotation", list(job.doc_ids), text_fn(job))


def test_run_annotation_end_to_end(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"analysis for batch {j.index}")
    client = make_stub(fixtures)

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert summary.completed == 2 and summary.failed == 0
    assert (out / "batch_0_output.txt").read_text() == "analysis for batch 0"
    assert (out / "batch_1_output.txt").read_text() == "analysis for batch 1"
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["completed"] == [0, 1]


def test_run_annotation_payload_headers(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: "ok")
    client = make_stub(fixtures)
    client.audit_path = tmp_path / "audit.jsonl"

    run_annotation(jobs, BUNDLE, manifest, client, cfg)

    body = json.loads((tmp_path / "audit.jsonl").read_text().splitlines()[0])["request_body"]
    assert "=== FILE: doc0 " in body
    assert "Document 0 body text" in body


def test_resume_skips_completed(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert client.calls == 2

    # Rerun with resume: all jobs done, zero provider calls.
    jobs2 = plan_batches(manifest, cfg)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(jobs2, BUNDLE, manifest, client, cfg_resume)
    assert client.calls == 2
    assert summary.provider_calls == 0
    assert summary.skipped == 2


@pytest.mark.parametrize("text", ["{not json", "[]", '{"completed": ["x"]}'])
def test_resume_with_damaged_checkpoint_names_it(tmp_path, text):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    out.mkdir()
    (out / "checkpoint.json").write_text(text, encoding="utf-8")
    cfg = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    with pytest.raises(RunnerError, match="checkpoint.json"):
        run_annotation(plan_batches(manifest, cfg), BUNDLE, manifest, make_stub(tmp_path), cfg)


def test_resume_runs_only_missing(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    key1 = f"annotation-{stub_key('annotation', list(jobs[1].doc_ids))}"
    client.script.fail_counts[key1] = -1

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert summary.completed == 1 and summary.failed == 1

    client.script.fail_counts.clear()
    calls_before = client.calls
    jobs2 = plan_batches(manifest, cfg)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary2 = run_annotation(jobs2, BUNDLE, manifest, client, cfg_resume)
    assert summary2.completed == 2 and summary2.skipped == 1
    assert client.calls - calls_before == 1  # only the failed batch re-ran


def test_permanent_failure_recorded_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    client.script.fail_counts[f"annotation-{stub_key('annotation', list(jobs[1].doc_ids))}"] = -1

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert jobs[0].status is JobStatus.DONE
    assert jobs[1].status is JobStatus.FAILED
    assert not summary.ok
    assert summary.failures[0][0] == 1
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["completed"] == [0]


class _Reply:
    status_code = 200
    text = ""

    def __init__(self, content):
        self._body = {"choices": [{"message": {"content": content}}]}

    def json(self):
        return self._body


class _SurrogateSession:
    """Answers every request; the one about document 1 gets a lone surrogate in its reply."""

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        return _Reply("ok \ud83d" if "Document 1 " in prompt else "ok")


def test_reply_that_cannot_be_written_fails_only_its_batch(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    client = HttpChatClient(
        ProviderConfig(dialect="openai", api_key_env="TEST_API_KEY", backoff_base_ms=1),
        session=_SurrogateSession(),
    )

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert [index for index, _ in summary.failures] == [0]
    assert "malformed response body" in summary.failures[0][1]
    assert jobs[1].status is JobStatus.DONE
    assert sorted(p.name for p in out.iterdir()) == ["batch_1_output.txt", "checkpoint.json"]


def test_checkpoint_mismatch_detected(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: "x")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)

    other = synthetic_manifest(6)
    other_jobs = plan_batches(other, cfg)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    with pytest.raises(CheckpointMismatch):
        run_annotation(other_jobs, BUNDLE, other, client, cfg_resume)


def test_checkpoint_never_references_missing_output(tmp_path, monkeypatch):
    """Fault injection: crash after writing the output but before the
    checkpoint update leaves the previous checkpoint intact."""
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)

    from paperlens.runner import Checkpoint

    real_save = Checkpoint.save
    crashes = {"armed": True}

    def crashing_save(self, path):
        if crashes["armed"] and 1 in self.completed:
            crashes["armed"] = False
            raise KeyboardInterrupt("simulated crash mid-checkpoint")
        real_save(self, path)

    monkeypatch.setattr(Checkpoint, "save", crashing_save)
    with pytest.raises(KeyboardInterrupt):
        run_annotation(jobs, BUNDLE, manifest, client, cfg)

    checkpoint = Checkpoint.load(out / "checkpoint.json")
    for index in checkpoint.completed:
        assert (out / f"batch_{index}_output.txt").exists()


def test_resume_after_batch_size_change_annotates_every_document(tmp_path):
    """A checkpoint written under batch_size=2 must not mark the first batch
    of a batch_size=3 plan as done: that batch now holds doc2 as well."""
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    fixtures = tmp_path / "fixtures"
    cfg2 = RunnerConfig(batch_size=2, output_dir=str(out))
    cfg3 = RunnerConfig(batch_size=3, output_dir=str(out), resume=True)
    jobs2, jobs3 = plan_batches(manifest, cfg2), plan_batches(manifest, cfg3)
    _fixtures_for_jobs(fixtures, jobs2 + jobs3, lambda j: "annotated " + ",".join(j.doc_ids))
    client = make_stub(fixtures)
    run_annotation(jobs2[:1], BUNDLE, manifest, client, cfg2)
    assert json.loads((out / "checkpoint.json").read_text())["completed"] == [0]

    summary = run_annotation(jobs3, BUNDLE, manifest, client, cfg3)

    assert summary.skipped == 0 and summary.completed == 2
    assert summary.provider_calls == 2
    assert "doc2" in (out / "batch_0_output.txt").read_text()


def test_resume_with_changed_context_asset_reruns_every_batch(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    bundles = []
    for name in ("first", "second"):
        asset_path = tmp_path / f"{name}_excerpt.txt"
        asset_path.write_text(f"The {name} survey excerpt.", encoding="utf-8")
        bundles.append(build_annotation_prompt(asset=ContextAsset.from_file(asset_path)))
    run_annotation(jobs, bundles[0], manifest, client, cfg)

    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan_batches(manifest, cfg_resume), bundles[1], manifest, client, cfg_resume)

    assert summary.skipped == 0
    assert summary.provider_calls == len(jobs)


def test_resume_reruns_batch_whose_output_is_missing(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)
    (out / "batch_1_output.txt").unlink()

    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan_batches(manifest, cfg_resume), BUNDLE, manifest, client, cfg_resume)

    assert summary.skipped == 1 and summary.provider_calls == 1
    assert (out / "batch_1_output.txt").read_text() == "batch 1"


def test_checkpoint_records_every_batch_under_contention(tmp_path):
    """More workers than cores and a short switch interval: every completion
    must reach checkpoint.json with its digest."""
    manifest = _corpus_on_disk(tmp_path, 48)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    finally:
        sys.setswitchinterval(interval)

    assert summary.completed == len(jobs) == 24
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["completed"] == list(range(len(jobs)))
    assert sorted(int(i) for i in checkpoint["digests"]) == list(range(len(jobs)))
    assert len(set(checkpoint["digests"].values())) == len(jobs)


def test_batch_is_sent_while_another_waits_through_backoff(tmp_path):
    """A worker sleeping through a retry backoff holds no in-flight slot, so
    the next batch goes out during that wait even at max_inflight=1."""
    manifest = _corpus_on_disk(tmp_path, 4)
    cfg = RunnerConfig(batch_size=2, output_dir=str(tmp_path / "out"))
    jobs = plan_batches(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1, backoff_base_ms=300)
    keys = [f"annotation-{stub_key('annotation', list(job.doc_ids))}" for job in jobs]
    client.script.fail_counts[keys[0]] = 1
    sends = []
    real_send = client._send

    def recording_send(prompt, key):
        sends.append(key)
        return real_send(prompt, key)

    client._send = recording_send
    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert summary.completed == 2 and summary.failed == 0
    assert sorted(sends) == sorted([keys[0], keys[0], keys[1]])
    assert sends[-1] == keys[0]  # batch 1 went out during batch 0's backoff
    assert client.inflight_high_water == 1


# --- run_filter ------------------------------------------------------------------


def _write_batch_outputs(out: Path, per_batch: dict[int, int]) -> dict[int, list]:
    """Write batch_{i}_output.txt files with n rendered records each."""
    out.mkdir(parents=True, exist_ok=True)
    made = {}
    for index, count in per_batch.items():
        recs = [make_record(100 * index + k, batch_index=index) for k in range(count)]
        (out / f"batch_{index}_output.txt").write_text(batch_output_text(recs), encoding="utf-8")
        made[index] = recs
    return made


def test_filter_half_retention_no_warning(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 6, 1: 4})
    fixtures = tmp_path / "fixtures"
    for index, recs in made.items():
        write_stub_fixture(
            fixtures, "filter", [f"batch_{index}_output.txt"],
            batch_output_text(recs[: len(recs) // 2]),
        )
    client = make_stub(fixtures)

    stats = run_filter(out, client)

    assert stats.per_batch == {0: (3, 6), 1: (2, 4)}
    assert stats.overall_retention == 0.5
    assert not stats.quota_warning
    assert (out / "batch_0_filtered.txt").exists()
    assert (out / "batch_1_filtered.txt").exists()


def test_filter_full_retention_warns(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 4})
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(
        fixtures, "filter", ["batch_0_output.txt"], batch_output_text(made[0])
    )
    client = make_stub(fixtures)
    stats = run_filter(out, client)
    assert stats.overall_retention == 1.0
    assert stats.quota_warning


def test_filter_skips_empty_batch_file(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 2})
    (out / "batch_1_output.txt").write_text("", encoding="utf-8")
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(fixtures, "filter", ["batch_0_output.txt"], batch_output_text(made[0][:1]))
    client = make_stub(fixtures)
    stats = run_filter(out, client)
    assert stats.skipped == ["batch_1_output.txt"]
    assert 0 in stats.per_batch and 1 not in stats.per_batch


def test_filter_no_outputs_is_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(RunnerError, match="no batch output files"):
        run_filter(empty, make_stub(tmp_path))


def test_filter_pass_count_recorded_and_reapplies(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 4})
    fixtures = tmp_path / "fixtures"
    kept_first = made[0][:2]
    write_stub_fixture(fixtures, "filter", ["batch_0_output.txt"], batch_output_text(kept_first))
    # Second pass reads the filtered file; retain one of the two.
    write_stub_fixture(fixtures, "filter", ["batch_0_filtered.txt"], batch_output_text(kept_first[:1]))
    client = make_stub(fixtures)

    first = run_filter(out, client)
    assert first.pass_number == 1
    assert first.per_batch[0] == (2, 4)

    second = run_filter(out, client)
    assert second.pass_number == 2
    assert second.per_batch[0] == (1, 2)
    state = json.loads((out / "filter_state.json").read_text())
    assert state["passes"] == 2


@pytest.mark.parametrize("text", ["{not json", "[]", '{"batch_passes": []}'])
def test_filter_with_damaged_state_names_it(tmp_path, text):
    out = tmp_path / "out"
    _write_batch_outputs(out, {0: 2})
    (out / "filter_state.json").write_text(text, encoding="utf-8")
    with pytest.raises(RunnerError, match="filter_state.json"):
        run_filter(out, make_stub(tmp_path))


def _two_pass_fixtures(fixtures: Path, made: dict[int, list]) -> None:
    """Pass 1 keeps the first two records of a batch, pass 2 the first one."""
    for index, recs in made.items():
        write_stub_fixture(fixtures, "filter", [f"batch_{index}_output.txt"], batch_output_text(recs[:2]))
        write_stub_fixture(fixtures, "filter", [f"batch_{index}_filtered.txt"], batch_output_text(recs[:1]))


def test_filter_failed_batch_keeps_its_pass_number(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 4, 1: 4})
    fixtures = tmp_path / "fixtures"
    _two_pass_fixtures(fixtures, made)
    client = make_stub(fixtures, max_retries=0)
    run_filter(out, client)
    client.script.fail_counts[f"filter-{stub_key('filter', ['batch_1_filtered.txt'])}"] = -1

    second = run_filter(out, client)

    assert second.pass_number == 2
    assert [index for index, _ in second.failures] == [1]
    state = json.loads((out / "filter_state.json").read_text())
    assert state["passes"] == 2
    assert state["batch_passes"] == {"0": 2, "1": 1}


def test_filter_finishes_a_failed_pass_before_starting_the_next(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 4, 1: 4})
    fixtures = tmp_path / "fixtures"
    _two_pass_fixtures(fixtures, made)
    client = make_stub(fixtures, max_retries=0)
    run_filter(out, client)
    key1 = f"filter-{stub_key('filter', ['batch_1_filtered.txt'])}"
    client.script.fail_counts[key1] = -1
    run_filter(out, client)
    client.script.fail_counts.clear()
    calls_before = client.calls

    resumed = run_filter(out, client)

    assert client.calls - calls_before == 1  # only the lagging batch
    assert resumed.pass_number == 2
    assert resumed.per_batch == {1: (1, 2)}
    assert not resumed.failures
    state = json.loads((out / "filter_state.json").read_text())
    assert state["passes"] == 2
    assert state["batch_passes"] == {"0": 2, "1": 2}
    assert (out / "batch_0_filtered.txt").read_text() == batch_output_text(made[0][:1])
    assert (out / "batch_1_filtered.txt").read_text() == batch_output_text(made[1][:1])


def test_filter_uses_max_inflight_without_changing_results(tmp_path):
    def run(max_inflight: int):
        out = tmp_path / f"out{max_inflight}"
        made = _write_batch_outputs(out, {i: 2 + i for i in range(4)})
        fixtures = tmp_path / f"fixtures{max_inflight}"
        for index, recs in made.items():
            write_stub_fixture(fixtures, "filter", [f"batch_{index}_output.txt"], batch_output_text(recs[:1]))
        client = make_stub(fixtures, max_inflight=max_inflight)
        client.send_delay_s = 0.05
        stats = run_filter(out, client)
        files = {p.name: p.read_bytes() for p in sorted(out.glob("batch_*.txt"))}
        return client, stats, files

    serial_client, serial, serial_files = run(1)
    pooled_client, pooled, pooled_files = run(2)

    assert serial_client.inflight_high_water == 1
    assert pooled_client.inflight_high_water == 2
    assert list(pooled.per_batch.items()) == list(serial.per_batch.items())
    assert pooled.skipped == serial.skipped
    assert pooled.failures == serial.failures
    assert pooled_files == serial_files


# --- run_query -------------------------------------------------------------------


def test_query_returns_answer_and_logs(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text('{"format": "paperlens-records/1"}\n', encoding="utf-8")
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(fixtures, "query", ["data.records.jsonl"], "seven interesting cases")
    client = make_stub(fixtures)

    answer = run_query(ds, "list tradeoff cases", client)
    assert answer == "seven interesting cases"

    log = tmp_path / ("data.records.jsonl" + ".query_log.jsonl")
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["question"] == "list tradeoff cases"
    assert entries[0]["answer"] == "seven interesting cases"

    run_query(ds, "list tradeoff cases", client)
    assert len(log.read_text().splitlines()) == 2  # append-only


def test_query_log_lines_have_sorted_keys(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text('{"format": "paperlens-records/1"}\n', encoding="utf-8")
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(fixtures, "query", ["data.records.jsonl"], "answer")
    log = tmp_path / "q.jsonl"
    run_query(ds, "question", make_stub(fixtures), log_path=log)
    assert list(json.loads(log.read_text(encoding="utf-8"))) == ["answer", "question", "ts"]


def test_query_oversized_dataset_names_tokens(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text("x" * 50_000, encoding="utf-8")
    client = make_stub(tmp_path, context_window_tokens=5_000, max_output_tokens=1_000)
    with pytest.raises(ContextOverflow) as err:
        run_query(ds, "anything", client)
    assert err.value.required > 5_000
    assert err.value.available == 5_000
    assert "shard" in str(err.value)
    assert client.calls == 0
