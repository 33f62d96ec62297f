"""Batch planning, checkpointed runs, filter passes, and query tests."""

import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import batch_output_text, make_record, make_stub, synthetic_manifest, traced_peak, write_corpus
from paperlens.corpus import CorpusManifest, DocumentRef, ingest, load_text
from paperlens.prompts import PromptBundle, PromptKind, build_annotation_prompt, build_query_prompt
from paperlens.records import DOC_HEADER
from paperlens.provider import (
    ContextOverflow,
    HttpChatClient,
    ProviderConfig,
    StubFixtureMissing,
    estimate_tokens,
    stub_key,
    write_stub_fixture,
)
from paperlens import prompts, runner
from paperlens.runner import (
    CheckpointMismatch,
    JobStatus,
    RunnerConfig,
    RunnerError,
    _batch_request,
    _doc_tokens,
    plan_batches,
    run_annotation,
    run_filter,
    run_query,
)

BUNDLE = PromptBundle(
    kind=PromptKind.ANNOTATION,
    text="You are a test assistant.\n\n"
         "Watch for the target concept.\n\nAny.\n\nReport items as labeled bullets.",
)


def plan(manifest, cfg):
    """The plan for BUNDLE's requests to a provider with the default context window."""
    return plan_batches(manifest, cfg, ProviderConfig(), BUNDLE.estimated_tokens)


# --- plan_batches --------------------------------------------------------------


def test_plan_5000_docs_in_batches_of_25():
    manifest = synthetic_manifest(5000)
    jobs = plan(manifest, RunnerConfig(batch_size=25, output_dir="out"))
    assert len(jobs) == 200
    assert all(len(j.doc_ids) == 25 for j in jobs)


def test_plan_empty_manifest_is_error():
    with pytest.raises(RunnerError, match="empty"):
        plan(CorpusManifest(documents=()), RunnerConfig())


def test_plan_remainder_batch():
    manifest = synthetic_manifest(26)
    jobs = plan(manifest, RunnerConfig(batch_size=25, output_dir="out"))
    assert [len(j.doc_ids) for j in jobs] == [25, 1]


def test_plan_output_paths_zero_based(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 30)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=25, output_dir=str(out))
    jobs = plan(manifest, cfg)
    _fixtures_for_jobs(tmp_path / "fixtures", jobs, lambda j: f"analysis for batch {j.index}")
    run_annotation(jobs, BUNDLE, manifest, make_stub(tmp_path / "fixtures"), cfg)
    assert _batch_names(out) == ["batch_0_output.txt", "batch_1_output.txt"]


@settings(max_examples=40, deadline=None)
@given(
    n_docs=st.integers(min_value=1, max_value=300),
    batch_size=st.integers(min_value=1, max_value=40),
)
def test_plan_partition_properties(n_docs, batch_size):
    manifest = synthetic_manifest(n_docs)
    jobs = plan(manifest, RunnerConfig(batch_size=batch_size, output_dir="out"))
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


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=9000), min_size=1, max_size=8),
    k=st.integers(min_value=1, max_value=8),
)
@example(sizes=[7992] * 8, k=2)
@example(sizes=[8000] * 8, k=4)
def test_planned_batches_pass_the_send_time_check(sizes, k):
    # The window fits exactly the first k documents by the planner's own
    # estimate; every batch it plans must then pass ChatClient.complete's check,
    # and the job's own token estimate must bound its request from above.
    bundle = build_annotation_prompt()
    max_output = 1000
    with tempfile.TemporaryDirectory() as tmp:
        refs = []
        for i, size in enumerate(sizes):
            text_path = Path(tmp) / f"doc{i}.txt"
            text_path.write_text("x" * size, encoding="utf-8")
            refs.append(DocumentRef(doc_id=f"doc{i}", path=f"doc{i}.pdf", text_path=str(text_path),
                                    title=f"Paper {i}", char_count=size))
        manifest = CorpusManifest.build(refs)
        window = max_output + bundle.estimated_tokens + sum(map(_doc_tokens, manifest.documents[:k]))
        provider_cfg = ProviderConfig(dialect="stub", context_window_tokens=window, max_output_tokens=max_output)
        jobs = plan_batches(manifest, RunnerConfig(skip_oversize=True), provider_cfg, bundle.estimated_tokens)
        by_id = {ref.doc_id: ref for ref in refs}
        for job in jobs:
            sent = estimate_tokens(_batch_request(bundle, job, by_id).text)
            assert sent <= bundle.estimated_tokens + job.tokens <= window - max_output, job.doc_ids


def test_plan_oversize_document_is_error():
    big = DocumentRef(doc_id="huge", path="p", text_path="t", char_count=10_000_000)
    manifest = CorpusManifest.build([big])
    provider_cfg = ProviderConfig(dialect="stub", context_window_tokens=10_000, max_output_tokens=1000)
    with pytest.raises(RunnerError, match="huge"):
        plan_batches(manifest, RunnerConfig(), provider_cfg, 0)
    # Skipped, the one document leaves no batch, which is an error too.
    with pytest.raises(RunnerError, match="all 1 documents alone exceed"):
        plan_batches(manifest, RunnerConfig(skip_oversize=True), provider_cfg, 0)


def test_plan_that_skips_every_document_is_error():
    # Each paper alone exceeds the budget, though the budget is positive.
    # An empty plan would delete every batch already in the run directory.
    refs = [DocumentRef(doc_id=f"big{i}", path="p", text_path="t", char_count=20_000) for i in range(3)]
    provider_cfg = ProviderConfig(dialect="stub", context_window_tokens=5000, max_output_tokens=1000)
    with pytest.raises(RunnerError, match="all 3 documents alone exceed the context window"):
        plan_batches(CorpusManifest.build(refs), RunnerConfig(skip_oversize=True), provider_cfg, 0)
    # One paper that fits leaves a plan of one batch.
    refs.append(DocumentRef(doc_id="small", path="p", text_path="t", char_count=100))
    jobs = plan_batches(CorpusManifest.build(refs), RunnerConfig(skip_oversize=True), provider_cfg, 0)
    assert [job.doc_ids for job in jobs] == [("small",)]


@pytest.mark.parametrize("skip_oversize", [False, True])
@pytest.mark.parametrize("prompt_tokens", [500, 501])
def test_plan_with_no_room_for_documents_is_error(skip_oversize, prompt_tokens):
    # Skipping every document would plan no batch, and annotating an empty plan
    # deletes the batches already in the run directory.
    provider_cfg = ProviderConfig(dialect="stub", context_window_tokens=1500, max_output_tokens=1000)
    with pytest.raises(RunnerError) as raised:
        plan_batches(synthetic_manifest(3), RunnerConfig(skip_oversize=skip_oversize), provider_cfg, prompt_tokens)
    message = str(raised.value)
    assert f"~{prompt_tokens} tokens" in message and "max_output_tokens (1000)" in message, message
    assert "1500-token context window" in message and "doc0" not in message, message


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
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"analysis for batch {j.index}")
    client = make_stub(fixtures)

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert summary.completed == 2 and summary.failed == 0
    assert (out / "batch_0_output.txt").read_text() == "analysis for batch 0"
    assert (out / "batch_1_output.txt").read_text() == "analysis for batch 1"
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert list(checkpoint["digests"]) == ["0", "1"]


def test_run_annotation_payload_headers(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
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
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert client.calls == 2

    # Rerun with resume: all jobs done, zero provider calls.
    jobs2 = plan(manifest, cfg)
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
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, make_stub(tmp_path), cfg)


@pytest.mark.parametrize("text, reason", [
    ('{"manifest_hash": "h", "digests": {"0": true}}', "digests.0 must be str, got True"),
    ('{"manifest_hash": "h", "digests": {"0": 1.5}}', "digests.0 must be str, got 1.5"),
    ('{"manifest_hash": 2}', "manifest_hash must be str, got 2"),
    ('{"manifest_hash": "h", "digests": {"x": "d"}}', "digests.x is not an integer key"),
    ('{"completed": [0], "digests": {"0": "d"}}', "missing key 'manifest_hash'"),
])
def test_resume_with_checkpoint_value_of_wrong_type_names_the_field(tmp_path, text, reason):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    out.mkdir()
    (out / "checkpoint.json").write_text(text, encoding="utf-8")
    cfg = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    with pytest.raises(RunnerError, match=f"checkpoint.json: {reason}"):
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, make_stub(tmp_path), cfg)


def test_resume_runs_only_missing(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    key1 = f"annotation-{stub_key('annotation', list(jobs[1].doc_ids))}"
    client.script.fail_counts[key1] = -1

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert summary.completed == 1 and summary.failed == 1

    client.script.fail_counts.clear()
    calls_before = client.calls
    jobs2 = plan(manifest, cfg)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary2 = run_annotation(jobs2, BUNDLE, manifest, client, cfg_resume)
    assert summary2.completed == 2 and summary2.skipped == 1
    assert client.calls - calls_before == 1  # only the failed batch re-ran


def test_permanent_failure_recorded_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setattr("paperlens.provider.time.sleep", lambda s: None)
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
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
    assert list(checkpoint["digests"]) == ["0"]


def test_unreadable_document_fails_only_its_batch(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 6)
    sidecar = Path(manifest.documents[0].text_path)
    text = sidecar.read_text(encoding="utf-8")
    sidecar.unlink()
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert [index for index, _ in summary.failures] == [0]
    assert "'doc0'" in summary.failures[0][1]
    assert [job.status for job in jobs] == [JobStatus.FAILED, JobStatus.DONE, JobStatus.DONE]
    assert summary.provider_calls == 2
    assert list(json.loads((out / "checkpoint.json").read_text())["digests"]) == ["1", "2"]
    assert (out / "batch_2_output.txt").read_text() == "batch 2"

    sidecar.write_text(text, encoding="utf-8")
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    resumed = run_annotation(plan(manifest, cfg_resume), BUNDLE, manifest, client, cfg_resume)
    assert resumed.ok and resumed.skipped == 2 and resumed.provider_calls == 1
    assert (out / "batch_0_output.txt").read_text() == "batch 0"


def test_job_naming_a_document_outside_the_manifest_is_an_error(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg) + [runner.BatchJob(index=1, doc_ids=("doc0", "nowhere"), tokens=1)]

    with pytest.raises(RunnerError, match=r"batch 1 references unknown documents: \['nowhere'\]"):
        run_annotation(jobs, BUNDLE, manifest, make_stub(tmp_path / "fixtures"), cfg)
    assert not (out / "checkpoint.json").exists()


def test_programming_error_in_a_batch_propagates(tmp_path, monkeypatch):
    manifest = _corpus_on_disk(tmp_path, 6)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)
    real_load_text = runner.load_text

    def load_text(ref):
        if ref.doc_id == "doc0":
            raise KeyError(ref.doc_id)
        return real_load_text(ref)

    monkeypatch.setattr(runner, "load_text", load_text)
    with pytest.raises(KeyError):
        run_annotation(jobs, BUNDLE, manifest, client, cfg)


class _Reply:
    status_code = 200
    text = ""

    def __init__(self, content, **choice):
        self._body = {"choices": [{"message": {"content": content}, **choice}]}

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
    jobs = plan(manifest, cfg)
    client = HttpChatClient(
        ProviderConfig(dialect="openai", api_key_env="TEST_API_KEY", backoff_base_ms=1),
        session=_SurrogateSession(),
    )

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)
    assert [index for index, _ in summary.failures] == [0]
    assert "malformed response body" in summary.failures[0][1]
    assert jobs[1].status is JobStatus.DONE
    assert sorted(p.name for p in out.iterdir()) == ["batch_1_output.txt", "checkpoint.json"]


class _CutOffSession:
    """Answers every request; the reply about document 1 stops at the output limit."""

    def post(self, url, json=None, headers=None, timeout=None):
        if "Document 1 " in json["messages"][0]["content"]:
            return _Reply("- Title: A reason\n- Quote: we can now see why the sq", finish_reason="length")
        return _Reply("ok", finish_reason="stop")


def test_reply_cut_off_at_the_output_limit_fails_only_its_batch(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "k")
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    client = HttpChatClient(
        ProviderConfig(dialect="openai", api_key_env="TEST_API_KEY", backoff_base_ms=1),
        session=_CutOffSession(),
    )

    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert [index for index, _ in summary.failures] == [0]
    assert "finish reason 'length'" in summary.failures[0][1]
    assert summary.provider_calls == 2
    assert jobs[1].status is JobStatus.DONE
    assert sorted(p.name for p in out.iterdir()) == ["batch_1_output.txt", "checkpoint.json"]
    assert list(json.loads((out / "checkpoint.json").read_text())["digests"]) == ["1"]


def test_checkpoint_mismatch_detected(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: "x")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)

    other = synthetic_manifest(6)
    other_jobs = plan(other, cfg)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    with pytest.raises(CheckpointMismatch):
        run_annotation(other_jobs, BUNDLE, other, client, cfg_resume)


def test_checkpoint_never_references_missing_output(tmp_path, monkeypatch):
    """Fault injection: crash after writing the output but before the
    checkpoint update leaves the previous checkpoint intact."""
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)

    real_write_json = runner.write_json
    crashes = {"armed": True}

    def crashing_write_json(path, obj):
        if crashes["armed"] and 1 in obj.digests:
            crashes["armed"] = False
            raise KeyboardInterrupt("simulated crash mid-checkpoint")
        real_write_json(path, obj)

    monkeypatch.setattr(runner, "write_json", crashing_write_json)
    with pytest.raises(KeyboardInterrupt):
        run_annotation(jobs, BUNDLE, manifest, client, cfg)

    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert not crashes["armed"]
    for index in checkpoint["digests"]:
        assert (out / f"batch_{index}_output.txt").exists()


def test_resume_after_batch_size_change_annotates_every_document(tmp_path):
    """A checkpoint written under batch_size=2 must not mark the first batch
    of a batch_size=3 plan as done: that batch now holds doc2 as well."""
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    fixtures = tmp_path / "fixtures"
    cfg2 = RunnerConfig(batch_size=2, output_dir=str(out))
    cfg3 = RunnerConfig(batch_size=3, output_dir=str(out), resume=True)
    jobs2, jobs3 = plan(manifest, cfg2), plan(manifest, cfg3)
    _fixtures_for_jobs(fixtures, jobs2 + jobs3, lambda j: "annotated " + ",".join(j.doc_ids))
    client = make_stub(fixtures)
    run_annotation(jobs2[:1], BUNDLE, manifest, client, cfg2)
    assert list(json.loads((out / "checkpoint.json").read_text())["digests"]) == ["0"]

    summary = run_annotation(jobs3, BUNDLE, manifest, client, cfg3)

    assert summary.skipped == 0 and summary.completed == 2
    assert summary.provider_calls == 2
    assert "doc2" in (out / "batch_0_output.txt").read_text()


def test_resume_with_changed_context_asset_reruns_every_batch(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    bundles = [build_annotation_prompt(f"The {name} survey excerpt.") for name in ("first", "second")]
    run_annotation(jobs, bundles[0], manifest, client, cfg)

    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan(manifest, cfg_resume), bundles[1], manifest, client, cfg_resume)

    assert summary.skipped == 0
    assert summary.provider_calls == len(jobs)


def test_resume_reruns_batch_whose_output_is_missing(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)
    (out / "batch_1_output.txt").unlink()

    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan(manifest, cfg_resume), BUNDLE, manifest, client, cfg_resume)

    assert summary.skipped == 1 and summary.provider_calls == 1
    assert (out / "batch_1_output.txt").read_text() == "batch 1"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_resume_reruns_batch_whose_document_text_changed(tmp_path):
    # A batch's request digest hashes its doc ids, not their texts, so a
    # sidecar rewritten since the run is carried over with its old output.
    manifest = _corpus_on_disk(tmp_path, 4)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    run_annotation(jobs, BUNDLE, manifest, client, cfg)
    refs = {ref.doc_id: ref for ref in manifest.documents}
    sidecar = Path(refs[jobs[1].doc_ids[0]].text_path)
    old = sidecar.read_text(encoding="utf-8")
    new = old.replace("why", "how")
    assert new != old and len(new) == len(old)
    sidecar.write_text(new, encoding="utf-8")

    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan(manifest, cfg_resume), BUNDLE, manifest, client, cfg_resume)

    assert summary.provider_calls == 1 and summary.skipped == 1


def test_checkpoint_records_every_batch_under_contention(tmp_path):
    """More workers than cores and a short switch interval: every completion
    must reach checkpoint.json with its digest."""
    manifest = _corpus_on_disk(tmp_path, 48)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    jobs = plan(manifest, cfg)
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
    assert [int(i) for i in checkpoint["digests"]] == list(range(len(jobs)))
    assert len(set(checkpoint["digests"].values())) == len(jobs)


def test_batch_is_sent_while_another_waits_through_backoff(tmp_path):
    """A worker sleeping through a retry backoff holds no in-flight slot, so
    the next batch goes out during that wait even at max_inflight=1."""
    manifest = _corpus_on_disk(tmp_path, 4)
    cfg = RunnerConfig(batch_size=2, output_dir=str(tmp_path / "out"))
    jobs = plan(manifest, cfg)
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


def _recording_load_text(monkeypatch, on_load=None):
    """Wrap ``runner.load_text``; returns the (doc id, thread id) of each read, in order."""
    reads = []
    real_load_text = runner.load_text

    def load_text(ref):
        reads.append((ref.doc_id, threading.get_ident()))
        if on_load is not None:
            on_load(ref)
        return real_load_text(ref)

    monkeypatch.setattr(runner, "load_text", load_text)
    return reads


def test_requests_are_built_on_the_thread_that_runs_the_batches(tmp_path, monkeypatch):
    # Built on pool threads, a request's freed pages stayed in each worker's
    # own allocator arena; pool threads now only send and write.
    manifest = _corpus_on_disk(tmp_path, 8)
    cfg = RunnerConfig(batch_size=2, output_dir=str(tmp_path / "out"))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    reads = _recording_load_text(monkeypatch)

    summary = run_annotation(jobs, BUNDLE, manifest, make_stub(fixtures, max_inflight=2), cfg)

    assert summary.completed == len(jobs) == 4
    assert [doc_id for doc_id, _ in reads] == [ref.doc_id for ref in manifest.documents]
    assert {thread for _, thread in reads} == {threading.get_ident()}


@pytest.mark.parametrize("max_inflight", [1, 2])
def test_at_most_twice_max_inflight_requests_are_built_ahead(tmp_path, monkeypatch, max_inflight):
    manifest = _corpus_on_disk(tmp_path, 10)
    cfg = RunnerConfig(batch_size=1, output_dir=str(tmp_path / "out"))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=max_inflight)
    bound = 2 * max_inflight
    enough = threading.Event()
    reads = _recording_load_text(monkeypatch, lambda ref: len(reads) >= bound and enough.set())
    built_at_return = []
    real_send = client._send

    def blocking_send(prompt, key):
        if not built_at_return:
            enough.wait(timeout=10)
            time.sleep(0.05)  # room for a request built beyond the bound to show
        response = real_send(prompt, key)
        built_at_return.append(len(reads))
        return response

    client._send = blocking_send
    summary = run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert summary.completed == len(jobs) == 10
    assert built_at_return[0] == bound


def test_annotation_request_is_the_prompt_and_payload_joined(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 5)
    cfg = RunnerConfig(batch_size=2, output_dir=str(tmp_path / "out"))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures)
    sent = {}
    real_send = client._send

    def recording_send(prompt, key):
        sent[key] = prompt
        return real_send(prompt, key)

    client._send = recording_send
    run_annotation(jobs, BUNDLE, manifest, client, cfg)

    refs = {ref.doc_id: ref for ref in manifest.documents}
    for job in jobs:
        payload = "\n\n".join(
            part
            for doc_id in job.doc_ids
            for part in (DOC_HEADER.format(doc_id=doc_id, title=refs[doc_id].title), load_text(refs[doc_id]))
        )
        key = f"annotation-{stub_key('annotation', list(job.doc_ids))}"
        assert sent[key] == BUNDLE.text + "\n\n" + payload


def test_a_sidecar_emptied_since_ingest_adds_no_empty_part(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    doc0, doc1 = manifest.documents
    Path(doc0.text_path).write_text("", encoding="utf-8")
    job = plan(manifest, RunnerConfig(batch_size=2))[0]
    request = _batch_request(BUNDLE, job, {ref.doc_id: ref for ref in manifest.documents})
    assert request.text == "\n\n".join([
        BUNDLE.text,
        DOC_HEADER.format(doc_id="doc0", title=doc0.title),
        DOC_HEADER.format(doc_id="doc1", title=doc1.title),
        load_text(doc1),
    ])
    assert request.payload_refs == ("doc0", "doc1")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_stub_misses_once_an_annotation_template_line_changes(tmp_path):
    # The stub keys a reply by the kind and the payload refs alone, so it
    # answers the changed prompt with the reply recorded for the old one.
    manifest = _corpus_on_disk(tmp_path, 2)
    templates = tmp_path / "templates"
    (templates / "annotation").mkdir(parents=True)
    for name, text in prompts.load_sections(PromptKind.ANNOTATION).items():
        (templates / "annotation" / f"{name}.txt").write_text(text, encoding="utf-8")
    job = plan(manifest, RunnerConfig(batch_size=2))[0]
    refs = {ref.doc_id: ref for ref in manifest.documents}
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, [job], lambda j: "reply to the old prompt")
    client = make_stub(fixtures)
    request = _batch_request(build_annotation_prompt(templates_dir=templates), job, refs)
    assert client.complete(request).text == "reply to the old prompt"

    instructions = templates / "annotation" / "instructions.txt"
    first, *rest = instructions.read_text(encoding="utf-8").splitlines()
    instructions.write_text("\n".join([first + " Quote at most two sentences.", *rest]), encoding="utf-8")
    with pytest.raises(StubFixtureMissing):
        client.complete(_batch_request(build_annotation_prompt(templates_dir=templates), job, refs))


def test_bug_in_a_sent_batch_stops_building_requests(tmp_path, monkeypatch):
    manifest = _corpus_on_disk(tmp_path, 6)
    cfg = RunnerConfig(batch_size=1, output_dir=str(tmp_path / "out"))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)
    reads = _recording_load_text(monkeypatch)

    def failing_send(prompt, key):
        raise RuntimeError("bug in the first call")

    client._send = failing_send
    with pytest.raises(RuntimeError, match="bug in the first call"):
        run_annotation(jobs, BUNDLE, manifest, client, cfg)

    # The first call to finish raised; only the two requests built before it ran.
    assert [doc_id for doc_id, _ in reads] in (["doc0"], ["doc0", "doc1"])


def test_interrupt_while_building_a_request_cancels_the_rest(tmp_path, monkeypatch):
    manifest = _corpus_on_disk(tmp_path, 6)
    out = tmp_path / "out"
    cfg = RunnerConfig(batch_size=1, output_dir=str(out))
    jobs = plan(manifest, cfg)
    fixtures = tmp_path / "fixtures"
    _fixtures_for_jobs(fixtures, jobs, lambda j: f"batch {j.index}")
    client = make_stub(fixtures, max_inflight=1)

    def interrupt(ref):
        if ref.doc_id == "doc2":
            # Batch 1 was submitted before this build; wait until a worker has
            # started it, or under load it is still queued and gets cancelled.
            deadline = time.monotonic() + 10
            while client.calls < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            raise KeyboardInterrupt

    reads = _recording_load_text(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_annotation(jobs, BUNDLE, manifest, client, cfg)

    assert [doc_id for doc_id, _ in reads] == ["doc0", "doc1", "doc2"]
    assert client.calls == 2
    assert sorted(p.name for p in out.glob("batch_*")) == ["batch_0_output.txt", "batch_1_output.txt"]
    assert list(json.loads((out / "checkpoint.json").read_text())["digests"]) == ["0", "1"]


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
    # Its pass has its file, which the next pass reads.
    assert (out / "batch_1_filtered.txt").read_text(encoding="utf-8") == ""
    assert runner.plan_filter(out).inputs[1][1] == out / "batch_1_filtered.txt"


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
    assert state == {"batch_passes": {"0": 2}}


@pytest.mark.parametrize("text", ["{not json", "[]", '{"batch_passes": []}'])
def test_filter_with_damaged_state_names_it(tmp_path, text):
    out = tmp_path / "out"
    _write_batch_outputs(out, {0: 2})
    (out / "filter_state.json").write_text(text, encoding="utf-8")
    with pytest.raises(RunnerError, match="filter_state.json"):
        run_filter(out, make_stub(tmp_path))


def test_filter_state_without_batch_passes_is_rejected(tmp_path):
    out = tmp_path / "out"
    _write_batch_outputs(out, {0: 2})
    (out / "filter_state.json").write_text('{"passes": 1}', encoding="utf-8")
    with pytest.raises(RunnerError, match="filter_state.json: missing key 'batch_passes'"):
        run_filter(out, make_stub(tmp_path))


@pytest.mark.parametrize("text, reason", [
    ('{"batch_passes": {"0": true}}', "batch_passes.0 must be int, got True"),
    ('{"batch_passes": {"0": 1.5}}', "batch_passes.0 must be int, got 1.5"),
    ('{"batch_passes": {"0": "2"}}', "batch_passes.0 must be int, got '2'"),
    ('{"batch_passes": {"x": 1}, "passes": 1}', "batch_passes.x is not an integer key"),
])
def test_filter_state_value_of_wrong_type_names_the_field(tmp_path, text, reason):
    out = tmp_path / "out"
    _write_batch_outputs(out, {0: 2})
    (out / "filter_state.json").write_text(text, encoding="utf-8")
    with pytest.raises(RunnerError, match=f"filter_state.json: {reason}"):
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
    assert state == {"batch_passes": {"0": 2, "1": 1}}


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
    assert state == {"batch_passes": {"0": 2, "1": 2}}
    assert (out / "batch_0_filtered.txt").read_text() == batch_output_text(made[0][:1])
    assert (out / "batch_1_filtered.txt").read_text() == batch_output_text(made[1][:1])


def test_filter_reads_its_template_once_and_sends_each_prompt_as_built(tmp_path, monkeypatch):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {i: 2 for i in range(4)})
    fixtures = tmp_path / "fixtures"
    for index, recs in made.items():
        write_stub_fixture(fixtures, "filter", [f"batch_{index}_output.txt"], batch_output_text(recs[:1]))
    client = make_stub(fixtures)
    sent, reads = [], []
    send, read_text = client._send, prompts.read_text

    def recording_send(prompt, key):
        sent.append(prompt)
        return send(prompt, key)

    def recording_read_text(path, *args):
        reads.append(Path(str(path)))
        return read_text(path, *args)

    monkeypatch.setattr(client, "_send", recording_send)
    monkeypatch.setattr(prompts, "read_text", recording_read_text)
    stats = run_filter(out, client)

    assert [path.parts[-2:] for path in reads] == [("filter", "body.txt")]
    assert sorted(stats.per_batch) == [0, 1, 2, 3]
    texts = [(out / f"batch_{index}_output.txt").read_text(encoding="utf-8") for index in range(4)]
    assert sorted(sent) == sorted(prompts.build_filter_prompt(text).text for text in texts)


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


# --- memory held by a pass ---------------------------------------------------------

MiB = 1 << 20


def _mib_reply(index: int) -> str:
    """A reply of about 1 MiB holding one record of batch ``index``: a long preamble, then the record."""
    return batch_output_text([make_record(index, batch_index=index)], preamble="x" * MiB)


def _annotate_mib_replies(tmp_path, n=20):
    """Annotate ``n`` one-document batches whose replies are 1 MiB each, at max_inflight 2;
    returns the summary, the pass's traced peak, the run directory and the fixtures directory."""
    manifest = _corpus_on_disk(tmp_path, n)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg = RunnerConfig(batch_size=1, output_dir=str(out))
    jobs = plan(manifest, cfg)
    _fixtures_for_jobs(fixtures, jobs, lambda j: _mib_reply(j.index))
    client = make_stub(fixtures, max_inflight=2)
    summary, peak = traced_peak(lambda: run_annotation(jobs, BUNDLE, manifest, client, cfg))
    return summary, peak, out, fixtures


def test_annotate_pass_holds_only_the_replies_in_flight(tmp_path):
    summary, peak, _, _ = _annotate_mib_replies(tmp_path)

    assert summary.completed == 20 and summary.ok
    assert peak < 10 * MiB, f"peak {peak / MiB:.1f} MiB"


def test_filter_pass_holds_its_inputs_and_only_the_replies_in_flight(tmp_path):
    _, _, out, fixtures = _annotate_mib_replies(tmp_path)
    for index in range(20):
        write_stub_fixture(fixtures, "filter", [f"batch_{index}_output.txt"], _mib_reply(index))
    client = make_stub(fixtures, max_inflight=2)

    stats, peak = traced_peak(lambda: run_filter(out, client))

    assert stats.per_batch == {index: (1, 1) for index in range(20)} and not stats.failures
    assert peak < 40 * MiB, f"peak {peak / MiB:.1f} MiB"


# --- one plan per run directory -----------------------------------------------------


def _batch_names(out: Path) -> list[str]:
    return sorted(p.name for p in out.glob("batch_*"))


def _annotation_fixtures(fixtures: Path, jobs, first: int) -> dict[int, list]:
    """Four records per batch, numbered from ``first``; the filter keeps two of a raw output."""
    made = {}
    for job in jobs:
        recs = [make_record(first + 10 * job.index + k, batch_index=job.index) for k in range(4)]
        write_stub_fixture(fixtures, "annotation", list(job.doc_ids), batch_output_text(recs))
        write_stub_fixture(fixtures, "filter", [f"batch_{job.index}_output.txt"], batch_output_text(recs[:2]))
        write_stub_fixture(fixtures, "filter", [f"batch_{job.index}_filtered.txt"], batch_output_text(recs[:2]))
        made[job.index] = recs
    return made


def test_reannotated_batches_are_filtered_from_their_new_output(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    client = make_stub(fixtures)
    _annotation_fixtures(fixtures, plan(manifest, cfg), first=0)
    run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    assert run_filter(out, client).pass_number == 1

    # A new prompt re-sends both batches, which now hold other records.
    new_prompt = PromptBundle(kind=PromptKind.ANNOTATION, text=BUNDLE.text + "\n\nA revised instruction.")
    made = _annotation_fixtures(fixtures, plan(manifest, cfg), first=500)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    summary = run_annotation(plan(manifest, cfg_resume), new_prompt, manifest, client, cfg_resume)
    assert summary.provider_calls == 2
    assert runner.FilterState.load(out).batch_passes == {}

    stats = run_filter(out, client)

    assert stats.pass_number == 1
    assert stats.per_batch == {0: (2, 4), 1: (2, 4)}
    parsed = runner.parse_run(out, filtered=True)
    assert [r.quote for r in parsed.records] == [r.quote for i in (0, 1) for r in made[i][:2]]
    assert parsed.filter_pass_count == 1 and parsed.lagging == []


def test_filter_after_reannotation_starts_again_at_pass_one(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    client = make_stub(fixtures)
    _annotation_fixtures(fixtures, plan(manifest, cfg), first=0)
    run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    assert [run_filter(out, client).pass_number for _ in range(2)] == [1, 2]
    new_prompt = PromptBundle(kind=PromptKind.ANNOTATION, text=BUNDLE.text + "\n\nA revised instruction.")
    _annotation_fixtures(fixtures, plan(manifest, cfg), first=500)
    cfg_resume = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    run_annotation(plan(manifest, cfg_resume), new_prompt, manifest, client, cfg_resume)

    stats = run_filter(out, client)

    assert stats.pass_number == 1
    assert json.loads((out / "filter_state.json").read_text()) == {"batch_passes": {"0": 1, "1": 1}}
    assert runner.parse_run(out, filtered=True).lagging == []
    assert runner.plan_filter(out).pass_number == 2


def _held(out: Path, batches) -> dict[int, int]:
    """The filter pass each of ``batches`` holds, 0 for one missing from ``filter_state.json``."""
    passes = runner.FilterState.load(out).batch_passes
    return {i: passes.get(i, 0) for i in batches}


@settings(max_examples=60, deadline=None)
@given(
    n_batches=st.integers(min_value=1, max_value=3),
    steps=st.lists(
        st.tuples(st.sampled_from(["filter", "reannotate"]), st.sets(st.integers(min_value=0, max_value=2))),
        max_size=6,
    ),
)
# Three batches at passes 2, 1 and 0 before the last call.
@example(n_batches=3, steps=[("filter", set()), ("filter", {1, 2}), ("reannotate", {2}), ("filter", set())])
# A failed first pass: batch 0 has no filtered file, and still counts.
@example(n_batches=2, steps=[("filter", {0})])
@example(n_batches=1, steps=[("filter", {0})])
def test_each_filter_call_takes_the_lowest_pass_one_further(n_batches, steps):
    """Filter calls in which the chosen batches fail, and re-annotations that
    re-send the chosen batches, in any order."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        manifest = _corpus_on_disk(tmp_path, n_batches)
        out, fixtures = tmp_path / "out", tmp_path / "fixtures"
        cfg = RunnerConfig(batch_size=1, output_dir=str(out), resume=True)
        _annotation_fixtures(fixtures, plan(manifest, cfg), first=0)
        client = make_stub(fixtures, max_retries=0)
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
        batches = range(n_batches)
        for kind, chosen in steps:
            chosen = {i for i in chosen if i < n_batches}
            before = _held(out, batches)
            if kind == "reannotate":
                for i in chosen:
                    runner.batch_path(out, i, "output").unlink()
                run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
                after = _held(out, batches)
                assert after == {i: 0 if i in chosen else n for i, n in before.items()}
                continue

            client.script.fail_counts = {
                f"filter-{stub_key('filter', [f'batch_{i}_{suffix}.txt'])}": -1
                for i in chosen
                for suffix in ("output", "filtered")
            }
            stats = run_filter(out, client)

            lowest = min(before.values())
            sent = {i for i, n in before.items() if n == lowest}
            assert stats.pass_number == lowest + 1
            assert {i for i, _ in stats.failures} == sent & chosen
            after = _held(out, batches)
            assert after == {i: stats.pass_number if i in sent - chosen else n for i, n in before.items()}
            parsed = runner.parse_run(out, filtered=True)
            highest = max(1, *after.values())
            assert parsed.files == n_batches
            assert parsed.filter_pass_count == min(after.values())
            assert [int(line.split()[1]) for line in parsed.lagging] == [
                i for i, n in after.items() if n < highest
            ]


def test_jobs_run_into_the_directory_of_the_run_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the planning config's default output_dir lies
    manifest = _corpus_on_disk(tmp_path, 4)
    jobs = plan(manifest, RunnerConfig(batch_size=2))
    _fixtures_for_jobs(tmp_path / "fixtures", jobs, lambda j: f"analysis for batch {j.index}")
    cfg = RunnerConfig(batch_size=2, output_dir=str(tmp_path / "run"))

    summary = run_annotation(jobs, BUNDLE, manifest, make_stub(tmp_path / "fixtures"), cfg)

    assert summary.completed == 2 and summary.failed == 0
    assert _batch_names(tmp_path / "run") == ["batch_0_output.txt", "batch_1_output.txt"]
    assert not (tmp_path / "runs").exists()


def test_failed_batch_of_a_new_plan_leaves_no_old_output(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg1 = RunnerConfig(batch_size=1, output_dir=str(out))
    cfg2 = RunnerConfig(batch_size=2, output_dir=str(out), resume=True)
    jobs2 = plan(manifest, cfg2)
    _fixtures_for_jobs(fixtures, plan(manifest, cfg1) + jobs2, lambda j: "annotated " + ",".join(j.doc_ids))
    client = make_stub(fixtures, max_retries=0)
    run_annotation(plan(manifest, cfg1), BUNDLE, manifest, client, cfg1)
    assert len(_batch_names(out)) == 4
    client.script.fail_counts[f"annotation-{stub_key('annotation', list(jobs2[1].doc_ids))}"] = -1

    summary = run_annotation(jobs2, BUNDLE, manifest, client, cfg2)

    assert summary.completed == 1 and summary.failed == 1
    assert _batch_names(out) == ["batch_0_output.txt"]
    assert runner.parse_run(out).files == 1


def test_replan_to_fewer_batches_drops_the_others_and_their_filter_passes(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 4)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg1 = RunnerConfig(batch_size=1, output_dir=str(out))
    cfg4 = RunnerConfig(batch_size=4, output_dir=str(out), resume=True)
    _annotation_fixtures(fixtures, plan(manifest, cfg1), first=0)
    made = _annotation_fixtures(fixtures, plan(manifest, cfg4), first=500)
    client = make_stub(fixtures)
    run_annotation(plan(manifest, cfg1), BUNDLE, manifest, client, cfg1)
    run_filter(out, client)
    assert len(_batch_names(out)) == 8

    run_annotation(plan(manifest, cfg4), BUNDLE, manifest, client, cfg4)

    assert _batch_names(out) == ["batch_0_output.txt"]
    assert runner.FilterState.load(out).batch_passes == {}
    assert [r.quote for r in runner.parse_run(out).records] == [r.quote for r in made[0]]


def test_crash_after_dropping_filter_passes_leaves_a_lagging_batch(tmp_path, monkeypatch):
    """Filter entries go before files: a stale filtered file is never read as a pass."""
    manifest = _corpus_on_disk(tmp_path, 2)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    client = make_stub(fixtures)
    _annotation_fixtures(fixtures, plan(manifest, cfg), first=0)
    run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    run_filter(out, client)

    def crash(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "unlink", crash)
    with pytest.raises(KeyboardInterrupt):
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    monkeypatch.undo()

    assert _batch_names(out) == ["batch_0_filtered.txt", "batch_0_output.txt"]
    assert runner.plan_filter(out).inputs[0][1].name == "batch_0_output.txt"
    assert len(runner.parse_run(out, filtered=True).lagging) == 1


# --- parse_run reads the batches plan_filter reads ------------------------------------


def _assert_batch_1_lags_at_pass_0(parsed, batch_0: list, batch_1: list) -> None:
    assert [r.quote for r in parsed.records] == [r.quote for r in batch_0 + batch_1]
    assert parsed.files == 2
    assert parsed.filter_pass_count == 0
    assert parsed.lagging == ["batch 1 holds filter pass 0 of 1; re-run filter to bring it level"]


def test_parse_filtered_reads_the_output_of_a_batch_without_a_filter_pass(tmp_path):
    out = tmp_path / "out"
    made = _write_batch_outputs(out, {0: 4, 1: 3})
    (out / "batch_0_filtered.txt").write_text(batch_output_text(made[0][:2]), encoding="utf-8")
    (out / "filter_state.json").write_text('{"batch_passes": {"0": 1}}', encoding="utf-8")

    parsed = runner.parse_run(out, filtered=True)

    _assert_batch_1_lags_at_pass_0(parsed, made[0][:2], made[1])


def _two_annotated_batches(tmp_path: Path):
    """Two one-document batches, annotated; a stub whose filter calls never retry."""
    manifest = _corpus_on_disk(tmp_path, 2)
    out, fixtures = tmp_path / "out", tmp_path / "fixtures"
    cfg = RunnerConfig(batch_size=1, output_dir=str(out), resume=True)
    made = _annotation_fixtures(fixtures, plan(manifest, cfg), first=0)
    client = make_stub(fixtures, max_retries=0)
    run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    return manifest, out, cfg, client, made


def test_parse_filtered_keeps_a_batch_whose_first_filter_call_failed(tmp_path):
    _, out, _, client, made = _two_annotated_batches(tmp_path)
    client.script.fail_counts[f"filter-{stub_key('filter', ['batch_1_output.txt'])}"] = -1
    assert [i for i, _ in run_filter(out, client).failures] == [1]

    parsed = runner.parse_run(out, filtered=True)

    _assert_batch_1_lags_at_pass_0(parsed, made[0][:2], made[1])


def test_parse_filtered_keeps_a_batch_reannotated_after_its_filter_pass(tmp_path):
    manifest, out, cfg, client, made = _two_annotated_batches(tmp_path)
    assert run_filter(out, client).pass_number == 1
    runner.batch_path(out, 1, "output").unlink()
    assert run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg).provider_calls == 1

    parsed = runner.parse_run(out, filtered=True)

    _assert_batch_1_lags_at_pass_0(parsed, made[0][:2], made[1])


def test_annotate_with_damaged_filter_state_names_it(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    out.mkdir()
    (out / "filter_state.json").write_text("{not json", encoding="utf-8")
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    with pytest.raises(RunnerError, match="filter_state.json"):
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, make_stub(tmp_path), cfg)
    assert not (out / "checkpoint.json").exists()


def test_batch_file_that_cannot_be_removed_names_it(tmp_path):
    manifest = _corpus_on_disk(tmp_path, 2)
    out = tmp_path / "out"
    (out / "batch_5_output.txt").mkdir(parents=True)
    cfg = RunnerConfig(batch_size=2, output_dir=str(out))
    client = make_stub(tmp_path)
    with pytest.raises(RunnerError) as err:
        run_annotation(plan(manifest, cfg), BUNDLE, manifest, client, cfg)
    assert str(err.value) == f"cannot remove {out / 'batch_5_output.txt'}: Is a directory"
    assert client.calls == 0


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


def test_query_sends_the_question_then_the_dataset_named_by_its_file(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text('{"format": "paperlens-records/1"}\n', encoding="utf-8")
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(fixtures, "query", ["data.records.jsonl"], "answer")
    client = make_stub(fixtures)
    sent = []
    complete = client.complete
    client.complete = lambda request: sent.append(request) or complete(request)

    run_query(ds, "find tradeoff cases", client)

    assert [request.payload_refs for request in sent] == [("data.records.jsonl",)]
    assert sent[0].text == build_query_prompt("find tradeoff cases").text + "\n\n" + ds.read_text(encoding="utf-8")


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
