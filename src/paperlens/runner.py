"""Plan document batches and execute annotation, filter, and query runs.

Annotation and filter passes run on one executor: batches go to the provider
on up to ``max_inflight`` threads, and each output is written atomically
(temp-then-rename) before its completion is recorded, so a crash between
jobs never leaves a checkpoint referencing a missing output file.
Completion is keyed by a digest of what the batch sends, so a resumed run
skips only batches the current plan would send unchanged. Failed batches
are recorded and do not halt the remaining jobs; long runs must survive
transient faults.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

from . import provider
from .atomic import append_jsonl, read_json, write_atomic, write_json
from .corpus import CorpusManifest, DocumentRef, load_text, manifest_digest
from .prompts import PromptBundle, build_filter_prompt, build_query_prompt
from .records import parse_batch_output

logger = logging.getLogger(__name__)

CHECKPOINT_FILE = "checkpoint.json"
FILTER_STATE_FILE = "filter_state.json"
QUERY_LOG_SUFFIX = ".query_log.jsonl"

# Models are told to cite filenames, so each document in a batch payload is
# introduced by a header naming it.
_DOC_HEADER = "=== FILE: {doc_id} ({title}) ==="


class RunnerError(Exception):
    """Raised for planning and execution preconditions."""


class CheckpointMismatch(RunnerError):
    """The checkpoint on disk belongs to a different manifest."""


class JobStatus(enum.Enum):
    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"


@dataclass
class BatchJob:
    """One resumable unit of annotation work."""

    index: int
    doc_ids: tuple[str, ...]
    output_path: str
    status: JobStatus = JobStatus.PENDING


@dataclass(frozen=True)
class RunnerConfig:
    """Batching and output settings for a run."""

    batch_size: int = 25
    output_dir: str = "runs"
    resume: bool = False
    skip_oversize: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class Checkpoint:
    """Which planned batches have completed, bound to a manifest digest.

    ``digests`` maps each completed batch index to the digest of the request
    it sent (see ``_batch_digest``); a resumed run trusts a completion only
    when that digest matches the current plan's.
    """

    manifest_hash: str
    completed: set[int] = field(default_factory=set)
    digests: dict[int, str] = field(default_factory=dict)

    def mark(self, index: int, digest: str) -> None:
        self.completed.add(index)
        self.digests[index] = digest

    def save(self, path: str | Path) -> None:
        write_json(path, {
            "manifest_hash": self.manifest_hash,
            "completed": sorted(self.completed),
            "digests": {str(i): d for i, d in self.digests.items()},
        })

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        return read_json(path, RunnerError, lambda raw: cls(
            manifest_hash=raw.get("manifest_hash", ""),
            completed=set(int(i) for i in raw.get("completed", [])),
            digests={int(i): str(d) for i, d in raw.get("digests", {}).items()},
        ))


@dataclass
class RunSummary:
    """Outcome of one annotation run."""

    total: int
    completed: int
    failed: int
    skipped: int
    provider_calls: int
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _doc_tokens(ref: DocumentRef) -> int:
    header = _DOC_HEADER.format(doc_id=ref.doc_id, title=ref.title)
    return provider.tokens_for_chars(ref.char_count) + provider.estimate_tokens(header)


def plan_batches(
    manifest: CorpusManifest,
    cfg: RunnerConfig,
    provider_cfg: provider.ProviderConfig | None = None,
    prompt_tokens: int = 0,
) -> list[BatchJob]:
    """Partition the manifest into consecutive batches of at most batch_size.

    Batches are disjoint and cover the manifest in canonical order. When a
    provider config is given, any batch whose token estimate would overflow
    the context window is split further, never dropped; a single document
    that alone exceeds the window is an error unless ``skip_oversize`` is
    set, in which case it is excluded with a warning.
    """
    if len(manifest) == 0:
        raise RunnerError("cannot plan batches over an empty manifest")

    budget: int | None = None
    if provider_cfg is not None:
        budget = provider_cfg.context_window_tokens - provider_cfg.max_output_tokens - prompt_tokens

    out_dir = Path(cfg.output_dir)
    jobs: list[BatchJob] = []
    batch: list[str] = []
    batch_tokens = 0

    def close_batch() -> None:
        nonlocal batch, batch_tokens
        if batch:
            index = len(jobs)
            jobs.append(
                BatchJob(
                    index=index,
                    doc_ids=tuple(batch),
                    output_path=str(out_dir / f"batch_{index}_output.txt"),
                )
            )
            batch = []
            batch_tokens = 0

    for ref in manifest.documents:
        tokens = _doc_tokens(ref) if budget is not None else 0
        if budget is not None and tokens > budget:
            if cfg.skip_oversize:
                logger.warning(
                    "document %s alone exceeds the context window (~%d tokens); skipped",
                    ref.doc_id,
                    tokens,
                )
                continue
            raise RunnerError(
                f"document {ref.doc_id!r} alone exceeds the context window "
                f"(~{tokens} tokens against a budget of {budget}); "
                "re-run with --skip-oversize to exclude it"
            )
        if len(batch) >= cfg.batch_size or (budget is not None and batch and batch_tokens + tokens > budget):
            close_batch()
        batch.append(ref.doc_id)
        batch_tokens += tokens
    close_batch()
    return jobs


def _batch_payload(job: BatchJob, refs: dict[str, DocumentRef]) -> str:
    parts = []
    for doc_id in job.doc_ids:
        ref = refs[doc_id]
        parts.append(_DOC_HEADER.format(doc_id=doc_id, title=ref.title))
        parts.append(load_text(ref))
    return "\n\n".join(parts)


def _prompt_without_payload(bundle: PromptBundle) -> str:
    return replace(bundle, payload_text="").render()


def _batch_digest(parts: Iterable[str], prompt: str, config: provider.ProviderConfig) -> str:
    """sha256 identifying one batch request: its payload identity (doc ids or
    input text), the rendered prompt without payload, the model and dialect.

    Each field is length-prefixed so that no two field lists collide.
    """
    h = hashlib.sha256()
    for part in (*parts, prompt, config.model_name, config.dialect):
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


# A batch that fails with one of these is recorded and the run continues.
_BATCH_ERRORS = (provider.ProviderError, RunnerError, OSError, KeyError)


@dataclass(frozen=True)
class _Batch:
    """One planned provider call of an annotation or filter pass."""

    index: int
    digest: str
    output_path: Path
    request: Callable[[], tuple[PromptBundle, str]]  # -> (bundle, payload text)


def _run_batches(
    batches: list[_Batch],
    client: provider.ChatClient,
    record: Callable[[_Batch], None],
) -> tuple[dict[int, str], list[tuple[int, str]]]:
    """Send every batch on up to ``max_inflight`` threads.

    Each response is written to the batch's output path before ``record``
    runs for it under a lock, so a checkpoint saved by ``record`` never names
    a missing file. Returns the response texts by index and the failures as
    ``(index, error)``, both in batch-index order whichever call finishes
    first. Errors outside ``_BATCH_ERRORS`` (and interrupts) cancel the
    batches not yet started and propagate.
    """
    ordered = sorted(batches, key=lambda b: b.index)
    responses: dict[int, str] = {}
    failures: list[tuple[int, str]] = []
    if not ordered:
        return responses, failures
    lock = threading.Lock()

    def execute(batch: _Batch) -> str:
        bundle, payload = batch.request()
        text = client.complete(bundle, payload).text
        write_atomic(batch.output_path, text)
        with lock:
            record(batch)
        return text

    with ThreadPoolExecutor(max_workers=min(client.config.max_inflight, len(ordered))) as pool:
        futures = [pool.submit(execute, batch) for batch in ordered]
        try:
            for batch, future in zip(ordered, futures):
                try:
                    responses[batch.index] = future.result()
                except _BATCH_ERRORS as exc:
                    failures.append((batch.index, str(exc)))
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    for index, error in failures:
        logger.error("batch %d failed: %s", index, error)
    return responses, failures


def run_annotation(
    jobs: list[BatchJob],
    bundle: PromptBundle,
    manifest: CorpusManifest,
    client: provider.ChatClient,
    cfg: RunnerConfig,
) -> RunSummary:
    """Execute pending annotation jobs, checkpointing after each.

    With ``resume`` set, a job is skipped without provider calls only when
    the checkpoint (which must belong to the same manifest) records it with
    the digest the current plan gives it and its output file exists; every
    other job runs. Failed jobs are recorded and the run continues. Jobs
    execute concurrently up to the provider's in-flight limit; checkpoint
    updates are serialized.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / CHECKPOINT_FILE
    digest = manifest_digest(manifest)

    previous = Checkpoint(manifest_hash=digest)
    if cfg.resume and ck_path.exists():
        previous = Checkpoint.load(ck_path)
        if previous.manifest_hash != digest:
            raise CheckpointMismatch(
                f"checkpoint in {out_dir} belongs to a different manifest; "
                "re-plan or clear the output directory"
            )

    refs = {ref.doc_id: ref for ref in manifest.documents}
    for job in jobs:
        missing = [d for d in job.doc_ids if d not in refs]
        if missing:
            raise RunnerError(f"batch {job.index} references unknown documents: {missing}")

    prompt = _prompt_without_payload(bundle)
    checkpoint = Checkpoint(manifest_hash=digest)
    pending: list[_Batch] = []
    for job in jobs:
        job_digest = _batch_digest(job.doc_ids, prompt, client.config)
        if previous.digests.get(job.index) == job_digest and Path(job.output_path).exists():
            checkpoint.mark(job.index, job_digest)
            job.status = JobStatus.DONE
            continue
        pending.append(
            _Batch(
                index=job.index,
                digest=job_digest,
                output_path=Path(job.output_path),
                request=lambda job=job: (bundle.with_payload_refs(job.doc_ids), _batch_payload(job, refs)),
            )
        )
    checkpoint.save(ck_path)

    def record(batch: _Batch) -> None:
        checkpoint.mark(batch.index, batch.digest)
        checkpoint.save(ck_path)

    calls_before = client.calls
    _, failures = _run_batches(pending, client, record)
    failed = {index for index, _ in failures}
    for job in jobs:
        job.status = JobStatus.FAILED if job.index in failed else JobStatus.DONE
    return RunSummary(
        total=len(jobs),
        completed=sum(1 for j in jobs if j.status is JobStatus.DONE),
        failed=len(failures),
        skipped=len(jobs) - len(pending),
        provider_calls=client.calls - calls_before,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Filter pass
# ---------------------------------------------------------------------------


@dataclass
class RetentionStats:
    """How many records survived the filter, per batch and overall."""

    per_batch: dict[int, tuple[int, int]] = field(default_factory=dict)  # index -> (kept, total)
    skipped: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    pass_number: int = 1

    @property
    def records_in(self) -> int:
        return sum(total for _, total in self.per_batch.values())

    @property
    def records_kept(self) -> int:
        return sum(kept for kept, _ in self.per_batch.values())

    @property
    def overall_retention(self) -> float:
        total = self.records_in
        return self.records_kept / total if total else 0.0

    @property
    def quota_warning(self) -> bool:
        """True when less than half of the input examples were excluded."""
        return self.records_in > 0 and self.overall_retention > 0.5


def _batch_files(directory: Path, suffix: str) -> list[tuple[int, Path]]:
    """The ``batch_{n}_{suffix}.txt`` files in a directory as (n, path), by n.

    Only names the runner writes count; a stray ``batch_old_output.txt`` or
    ``batch_1_x_output.txt`` is not a batch file.
    """
    name = re.compile(rf"batch_(0|[1-9][0-9]*)_{suffix}\.txt")
    found = []
    for path in directory.glob(f"batch_*_{suffix}.txt"):
        m = name.fullmatch(path.name)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


@dataclass
class FilterState:
    """Filter progress of one output directory (``filter_state.json``).

    ``passes`` is the number of the latest pass started; ``batch_passes``
    maps each batch index to the pass its ``batch_{n}_filtered.txt`` holds
    (a batch whose input was empty counts as filtered without a file);
    ``digests`` maps each batch to the digest of its latest filter request.
    """

    passes: int = 0
    batch_passes: dict[int, int] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)

    def lagging(self, indices: Iterable[int]) -> list[int]:
        """Batches among ``indices`` that have not finished the latest pass."""
        return [i for i in indices if self.batch_passes.get(i, 0) < self.passes]

    def save(self, path: str | Path) -> None:
        write_json(path, {
            "passes": self.passes,
            "batch_passes": {str(i): n for i, n in self.batch_passes.items()},
            "digests": {str(i): d for i, d in self.digests.items()},
        })

    @classmethod
    def load(cls, directory: str | Path) -> "FilterState":
        directory = Path(directory)
        path = directory / FILTER_STATE_FILE
        if not path.exists():
            return cls()

        def convert(raw: dict) -> "FilterState":
            passes = int(raw.get("passes", 0))
            if "batch_passes" in raw:
                batch_passes = {int(i): int(n) for i, n in raw["batch_passes"].items()}
            else:  # written before per-batch passes were recorded
                batch_passes = {i: passes for i, _ in _batch_files(directory, "filtered")}
            digests = {int(i): str(d) for i, d in raw.get("digests", {}).items()}
            return cls(passes=passes, batch_passes=batch_passes, digests=digests)

        return read_json(path, RunnerError, convert)


@dataclass
class FilterPlan:
    """What the next ``run_filter`` call over a directory will do."""

    pass_number: int
    inputs: list[tuple[int, Path]]  # (batch index, input file), index order
    state: FilterState


def plan_filter(output_dir: str | Path) -> FilterPlan:
    """Choose the filter pass and input files for the next filter call.

    When the latest pass left batches behind (they failed, or their batch
    output appeared later), the call finishes that pass over the lagging
    batches only. Otherwise it starts the next pass over every batch. A
    batch's input is its filtered file once it has passed the filter, and
    its raw ``batch_{n}_output.txt`` before that.
    """
    directory = Path(output_dir)
    indices = [i for i, _ in _batch_files(directory, "output")]
    if not indices:
        raise RunnerError(f"no batch output files found in {directory}")
    state = FilterState.load(directory)
    lagging = state.lagging(indices)
    pass_number = state.passes if lagging else state.passes + 1
    inputs = []
    for index in lagging or indices:
        path = directory / f"batch_{index}_filtered.txt"
        if state.batch_passes.get(index, 0) < 1 or not path.exists():
            path = directory / f"batch_{index}_output.txt"
        inputs.append((index, path))
    return FilterPlan(pass_number=pass_number, inputs=inputs, state=state)


def run_filter(
    output_dir: str | Path,
    client: provider.ChatClient,
    templates_dir: str | Path | None = None,
) -> RetentionStats:
    """Apply the strict filter prompt to the batch files ``plan_filter`` picks.

    Writes ``batch_{n}_filtered.txt`` next to each ``batch_{n}_output.txt``
    and reports retention (kept / input records, counted by the parser). A
    warning is flagged when the overall exclusion rate falls short of the
    50% quota. Each call either finishes the latest pass for the batches it
    left behind or starts the next pass, whose inputs are the previously
    filtered files. Batches run concurrently up to the provider's in-flight
    limit; ``filter_state.json`` records each batch's pass as it completes.
    """
    directory = Path(output_dir)
    state_path = directory / FILTER_STATE_FILE
    plan = plan_filter(directory)
    state = plan.state
    state.passes = plan.pass_number
    stats = RetentionStats(pass_number=plan.pass_number)

    texts: dict[int, str] = {}
    pending: list[_Batch] = []
    for index, path in plan.inputs:
        text = path.read_text(encoding="utf-8")
        if not text.strip():
            logger.info("skipping empty batch file %s", path.name)
            stats.skipped.append(path.name)
            state.batch_passes[index] = state.batch_passes.get(index, 0) + 1
            continue
        bundle = build_filter_prompt(text, templates_dir=templates_dir).with_payload_refs((path.name,))
        texts[index] = text
        pending.append(
            _Batch(
                index=index,
                digest=_batch_digest((text,), _prompt_without_payload(bundle), client.config),
                output_path=directory / f"batch_{index}_filtered.txt",
                request=lambda bundle=bundle: (bundle, ""),
            )
        )
    state.save(state_path)

    def record(batch: _Batch) -> None:
        state.batch_passes[batch.index] = state.batch_passes.get(batch.index, 0) + 1
        state.digests[batch.index] = batch.digest
        state.save(state_path)

    responses, stats.failures = _run_batches(pending, client, record)
    for index, response in responses.items():
        total = len(parse_batch_output(texts[index], index)[0])
        kept = len(parse_batch_output(response, index)[0])
        stats.per_batch[index] = (kept, total)

    if stats.quota_warning:
        logger.warning(
            "filter retained %.0f%% of examples; the exclusion quota "
            "(at least 50%%) was not met",
            stats.overall_retention * 100,
        )
    return stats


# ---------------------------------------------------------------------------
# Dataset queries
# ---------------------------------------------------------------------------


def run_query(
    dataset_path: str | Path,
    question: str,
    client: provider.ChatClient,
    log_path: str | Path | None = None,
    templates_dir: str | Path | None = None,
) -> str:
    """Ask a follow-up question over a dataset file; returns the answer.

    The dataset must fit the provider window alongside the framing prompt;
    otherwise a ContextOverflow explains how much is needed and suggests
    sharding. Every query appends a transcript entry to the query log.
    """
    dataset_path = Path(dataset_path)
    bundle = build_query_prompt(dataset_path, question, templates_dir=templates_dir)
    dataset_text = dataset_path.read_text(encoding="utf-8")

    try:
        response = client.complete(bundle, dataset_text)
    except provider.ContextOverflow as exc:
        raise provider.ContextOverflow(
            exc.required,
            exc.available,
            hint="split the dataset into shards and query each shard separately",
        ) from exc

    log = Path(log_path) if log_path else dataset_path.with_name(dataset_path.name + QUERY_LOG_SUFFIX)
    append_jsonl(log, {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "question": question,
        "answer": response.text,
    })
    return response.text
