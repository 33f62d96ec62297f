"""Plan document batches and execute annotation, filter, and query runs.

Annotation and filter passes run on one executor: up to ``max_inflight``
batches are at the provider at once, and each output is written atomically
(temp-then-rename) before its completion is recorded, so a crash between
jobs never leaves a checkpoint referencing a missing output file.
An annotation batch's completion is keyed by a digest of what it sends,
so a resumed run skips only batches the current plan would send
unchanged. A run directory holds the batches of one plan: an annotation
run first deletes every batch it does not carry over. Failed batches are
recorded and do not halt the remaining jobs; long runs must survive
transient faults. Only this module reads a run directory (``plan_filter``
and ``parse_run``, through ``read_text``). A plan holds no paths:
``batch_path`` names a batch's files in the run's directory, whose
``filter_state.json`` holds one number per batch, the filter pass it holds.
"""

from __future__ import annotations

import enum
import logging
import re
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import provider
from .atomic import PaperlensError, append_jsonl, file_op, read_json, read_text, write_atomic, write_json
from .corpus import CorpusManifest, DocumentRef, load_text, manifest_digest
from .prompts import PAYLOAD_SEPARATOR, PromptBundle, build_query_prompt, filter_template
from .records import DOC_HEADER, ExampleRecord, parse_batch_output

logger = logging.getLogger(__name__)

CHECKPOINT_FILE = "checkpoint.json"
FILTER_STATE_FILE = "filter_state.json"
QUERY_LOG_SUFFIX = ".query_log.jsonl"


class RunnerError(PaperlensError):
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
    tokens: int  # the planner's estimate for the documents and their headers
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
    """Which planned batches have completed, bound to a manifest digest (``checkpoint.json``).

    ``digests`` maps each completed batch index to the digest of the request
    it sent (see ``provider.request_digest``); a resumed run trusts a
    completion only when that digest matches the current plan's.
    """

    manifest_hash: str
    digests: dict[int, str] = field(default_factory=dict)


@dataclass
class RunSummary:
    """Outcome of one annotation run."""

    total: int
    skipped: int
    provider_calls: int
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def completed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return not self.failures


def _doc_tokens(ref: DocumentRef) -> int:
    # One length for the header, the text and the two separators before them
    # in the request, so the estimates of a batch's documents and its prompt
    # add up to at least what ChatClient.complete counts for the whole.
    header = DOC_HEADER.format(doc_id=ref.doc_id, title=ref.title)
    return provider.tokens_for_chars(len(header) + ref.char_count + 2 * len(PAYLOAD_SEPARATOR))


def plan_batches(
    manifest: CorpusManifest,
    cfg: RunnerConfig,
    provider_cfg: provider.ProviderConfig,
    prompt_tokens: int,
) -> list[BatchJob]:
    """Partition the manifest into consecutive batches that each fit one request.

    Batches are disjoint and cover the manifest in canonical order. A batch
    closes at ``batch_size`` documents, or earlier when its request would
    overflow the context window of ``provider_cfg``, given the
    ``prompt_tokens`` sent ahead of the documents. A job's ``tokens`` plus
    ``prompt_tokens`` bound the estimate ``ChatClient.complete`` checks.
    A prompt and ``max_output_tokens`` that leave no room for documents are
    an error, as is a document that alone exceeds the window unless
    ``skip_oversize`` is set, in which case it is excluded with a warning.
    A plan left with no batch, every document excluded, is an error too:
    running it would delete every batch already in the output directory.
    """
    if len(manifest) == 0:
        raise RunnerError("cannot plan batches over an empty manifest")

    window, max_output = provider_cfg.context_window_tokens, provider_cfg.max_output_tokens
    budget = window - max_output - prompt_tokens
    if budget <= 0:
        raise RunnerError(
            f"the prompt (~{prompt_tokens} tokens) and max_output_tokens ({max_output}) leave no room "
            f"for documents in the {window}-token context window"
        )
    jobs: list[BatchJob] = []
    batch: list[str] = []
    batch_tokens = 0
    skipped = 0

    def close_batch() -> None:
        nonlocal batch, batch_tokens
        if batch:
            jobs.append(BatchJob(index=len(jobs), doc_ids=tuple(batch), tokens=batch_tokens))
            batch = []
            batch_tokens = 0

    for ref in manifest.documents:
        tokens = _doc_tokens(ref)
        if tokens > budget:
            if cfg.skip_oversize:
                logger.warning(
                    "document %s alone exceeds the context window (~%d tokens); skipped",
                    ref.doc_id,
                    tokens,
                )
                skipped += 1
                continue
            raise RunnerError(
                f"document {ref.doc_id!r} alone exceeds the context window "
                f"(~{tokens} tokens against a budget of {budget}); "
                "re-run with --skip-oversize to exclude it"
            )
        if len(batch) >= cfg.batch_size or batch_tokens + tokens > budget:
            close_batch()
        batch.append(ref.doc_id)
        batch_tokens += tokens
    close_batch()
    if not jobs:
        raise RunnerError(
            f"all {skipped} documents alone exceed the context window (a budget of ~{budget} tokens "
            "for documents); no batch is left to run"
        )
    return jobs


def _batch_request(bundle: PromptBundle, job: BatchJob, refs: dict[str, DocumentRef]) -> PromptBundle:
    """The annotation request for ``job``: the prompt, then each document's
    header and text as payload parts (an empty text adds none)."""
    parts = []
    for doc_id in job.doc_ids:
        ref = refs[doc_id]
        parts += DOC_HEADER.format(doc_id=doc_id, title=ref.title), load_text(ref)
    return bundle.with_payload(*parts, refs=job.doc_ids)


# A batch that fails with one of these is recorded and the run continues.
_BATCH_ERRORS = (PaperlensError, OSError)


@dataclass(frozen=True)
class _Batch:
    """One planned provider call of an annotation or filter pass."""

    index: int
    output_path: Path
    request: Callable[[], PromptBundle]  # -> the bundle to send, payload included


def _run_batches(
    batches: list[_Batch],
    client: provider.ChatClient,
    record: Callable[[int, str], None],
) -> list[tuple[int, str]]:
    """Send every batch, at most ``max_inflight`` of them in flight at once.

    The calling thread builds each batch's request, in index order, and
    submits it to a pool of twice ``max_inflight`` workers. While that many
    calls are unfinished it waits for one to finish before it builds the
    next request, so at most that many requests and replies are held, and
    requests take their memory from the calling thread's allocator rather
    than one kept per worker. The workers send, write outputs and sleep
    through retry backoff outside the ``max_inflight`` slots, which the
    client's gate alone limits. Each reply is written to the batch's output
    path before ``record(index, reply)`` runs under a lock, so a checkpoint
    saved by ``record`` never names a missing file; the reply is dropped
    after that. Returns the failures as ``(index, error)`` in batch-index
    order. A ``PaperlensError`` or ``OSError`` from building or sending a
    request fails its batch alone; any other error, being a bug, and an
    interrupt cancel the batches not yet started and propagate, while the
    calls already running finish and are recorded.
    """
    limit = 2 * client.config.max_inflight
    failures: list[tuple[int, str]] = []
    unfinished: dict[Future[None], int] = {}  # -> its batch index
    lock = threading.Lock()

    def execute(batch: _Batch, bundle: PromptBundle) -> None:
        reply = client.complete(bundle).text
        write_atomic(batch.output_path, reply)
        with lock:
            record(batch.index, reply)

    def settle(done: set[Future[None]]) -> None:
        for future in done:
            index = unfinished.pop(future)
            try:
                future.result()
            except _BATCH_ERRORS as exc:
                failures.append((index, str(exc)))

    with ThreadPoolExecutor(max_workers=limit) as pool:
        try:
            for batch in sorted(batches, key=lambda b: b.index):
                if len(unfinished) >= limit:
                    settle(wait(unfinished, return_when=FIRST_COMPLETED).done)
                try:
                    bundle = batch.request()
                except _BATCH_ERRORS as exc:
                    failures.append((batch.index, str(exc)))
                    continue
                unfinished[pool.submit(execute, batch, bundle)] = batch.index
            settle(wait(unfinished).done)
        except BaseException:
            for future in unfinished:
                future.cancel()
            raise
    failures.sort()
    for index, error in failures:
        logger.error("batch %d failed: %s", index, error)
    return failures


def run_annotation(
    jobs: list[BatchJob],
    bundle: PromptBundle,
    manifest: CorpusManifest,
    client: provider.ChatClient,
    cfg: RunnerConfig,
) -> RunSummary:
    """Execute pending annotation jobs, checkpointing after each.

    ``jobs`` is the output directory's whole plan. With ``resume`` set, a
    job is carried over without provider calls only when the checkpoint
    (which must belong to the same manifest) records it with the digest the
    current plan gives it and its output file exists; every other job runs.
    Before anything is sent, every batch not carried over loses its files
    and filter passes (see ``_drop_batches``). Failed jobs are recorded and
    the run continues. Jobs execute concurrently up to the provider's
    in-flight limit; checkpoint updates are serialized.
    """
    out_dir = Path(cfg.output_dir)
    with file_op("write", out_dir, RunnerError):
        out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / CHECKPOINT_FILE
    digest = manifest_digest(manifest)

    previous = Checkpoint(manifest_hash=digest)
    if cfg.resume and ck_path.exists():
        previous = read_json(ck_path, RunnerError, Checkpoint)
        if previous.manifest_hash != digest:
            raise CheckpointMismatch(
                f"checkpoint in {out_dir} belongs to a different manifest; "
                "re-plan or clear the output directory"
            )
    filter_state = FilterState.load(out_dir)  # read before any write, so a damaged one changes nothing

    refs = {ref.doc_id: ref for ref in manifest.documents}
    for job in jobs:
        missing = [d for d in job.doc_ids if d not in refs]
        if missing:
            raise RunnerError(f"batch {job.index} references unknown documents: {missing}")

    checkpoint = Checkpoint(manifest_hash=digest)
    planned: dict[int, str] = {}  # index -> digest of each batch to send
    pending: list[_Batch] = []
    for job in jobs:
        job_digest = provider.request_digest(client.config, job.doc_ids, bundle.text)
        output_path = batch_path(out_dir, job.index, "output")
        if previous.digests.get(job.index) == job_digest and output_path.exists():
            checkpoint.digests[job.index] = job_digest
            continue
        planned[job.index] = job_digest
        pending.append(
            _Batch(
                index=job.index,
                output_path=output_path,
                request=lambda job=job: _batch_request(bundle, job, refs),
            )
        )
    write_json(ck_path, checkpoint)
    _drop_batches(out_dir, filter_state, kept=set(checkpoint.digests))

    def record(index: int, reply: str) -> None:
        checkpoint.digests[index] = planned[index]
        write_json(ck_path, checkpoint)

    calls_before = client.calls
    failures = _run_batches(pending, client, record)
    failed = {index for index, _ in failures}
    for job in jobs:
        job.status = JobStatus.FAILED if job.index in failed else JobStatus.DONE
    return RunSummary(
        total=len(jobs),
        skipped=len(jobs) - len(pending),
        provider_calls=client.calls - calls_before,
        failures=failures,
    )


def _drop_batches(directory: Path, state: FilterState, kept: set[int]) -> None:
    """Delete every batch of ``directory`` outside ``kept``: its filter-state
    entry first, then its ``batch_{n}_output.txt`` and ``batch_{n}_filtered.txt``.

    A batch without an entry holds pass 0, so a crash in between leaves a
    filtered file that neither ``plan_filter`` nor ``parse_run`` reads (see
    ``_held``); the next filter call sends the batch through pass 1,
    starting from its new output.
    """
    passes = {index: n for index, n in state.batch_passes.items() if index in kept}
    if passes != state.batch_passes:
        state.batch_passes = passes
        write_json(directory / FILTER_STATE_FILE, state)
    for suffix in ("output", "filtered"):
        for index, path in _batch_files(directory, suffix):
            if index not in kept:
                with file_op("remove", path, RunnerError):
                    path.unlink()


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


def batch_path(directory: str | Path, index: int, suffix: str) -> Path:
    """``batch_{index}_{suffix}.txt`` in a run directory; ``suffix`` is ``output`` or ``filtered``."""
    return Path(directory) / f"batch_{index}_{suffix}.txt"


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

    ``batch_passes`` maps each batch index to the pass its
    ``batch_{n}_filtered.txt`` holds; a batch missing from it holds pass 0.
    """

    batch_passes: dict[int, int]

    @classmethod
    def load(cls, directory: str | Path) -> "FilterState":
        path = Path(directory) / FILTER_STATE_FILE
        if not path.exists():
            return cls(batch_passes={})
        return read_json(path, RunnerError, cls)


@dataclass
class FilterPlan:
    """What the next ``run_filter`` call over a directory will do."""

    pass_number: int
    inputs: list[tuple[int, Path, str]]  # (batch index, input file, its text), index order
    state: FilterState


def _held(directory: Path) -> tuple[FilterState, dict[int, tuple[int, Path]]]:
    """Each batch with a ``batch_{n}_output.txt``, by n: the pass it holds and
    the file holding that pass's records, its filtered file from pass 1 on
    and its output before that. Every recorded pass has its file, so a
    missing one fails when read: restore it, or delete the batch's output
    and run ``annotate --resume``, which resets the batch to pass 0."""
    outputs = _batch_files(directory, "output")
    if not outputs:
        raise RunnerError(f"no batch output files found in {directory}")
    state = FilterState.load(directory)
    held = {}
    for index, output in outputs:
        n = state.batch_passes.get(index, 0)
        held[index] = (n, batch_path(directory, index, "filtered") if n else output)
    return state, held


def plan_filter(output_dir: str | Path) -> FilterPlan:
    """Choose the filter pass and input files for the next filter call.

    The call sends the batches that hold the lowest pass among those with a
    ``batch_{n}_output.txt`` through the next pass, ``lowest + 1``. So a
    pass some batches missed (they failed, or were re-annotated) is
    finished before a later one starts. A batch's input is the file
    ``_held`` names. Each input is read here, so an unreadable one ends
    the call before anything is sent.
    """
    state, held = _held(Path(output_dir))
    lowest = min(n for n, _ in held.values())
    inputs = [(i, path, read_text(path, RunnerError)) for i, (n, path) in held.items() if n == lowest]
    return FilterPlan(pass_number=lowest + 1, inputs=inputs, state=state)


def run_filter(
    output_dir: str | Path,
    client: provider.ChatClient,
    templates_dir: str | Path | None = None,
) -> RetentionStats:
    """Apply the strict filter prompt to the batch files ``plan_filter`` picks.

    Writes ``batch_{n}_filtered.txt`` next to each ``batch_{n}_output.txt``
    and reports retention (kept / input records, counted by the parser). An
    empty input is copied through as its filtered file, with no provider
    call, before its pass is recorded, so every recorded pass has its file. A
    warning is flagged when the overall exclusion rate falls short of the
    50% quota. Each call takes the batches at the lowest pass through the
    next one (see ``plan_filter``), which names the call. The inputs and
    the template are read once, before anything is written; each batch's
    request is built only when it is sent. Batches run concurrently up to the
    provider's in-flight limit, and as each reply lands ``record(index,
    reply)`` (see ``_run_batches``) saves the batch's pass to
    ``filter_state.json`` and its (kept, total) counts to ``per_batch``;
    the reply itself is not kept.
    """
    directory = Path(output_dir)
    state_path = directory / FILTER_STATE_FILE
    plan = plan_filter(directory)
    state = plan.state
    stats = RetentionStats(pass_number=plan.pass_number)
    template = filter_template(templates_dir)  # an unreadable template fails here, before any write

    texts = {index: text for index, _, text in plan.inputs}
    pending: list[_Batch] = []
    for index, path, text in plan.inputs:
        if not text.strip():
            logger.info("skipping empty batch file %s", path.name)
            stats.skipped.append(path.name)
            write_atomic(batch_path(directory, index, "filtered"), text)
            state.batch_passes[index] = plan.pass_number
            continue
        pending.append(
            _Batch(
                index=index,
                output_path=batch_path(directory, index, "filtered"),
                request=lambda text=text, name=path.name: template.with_payload(text, refs=(name,)),
            )
        )
    write_json(state_path, state)

    def record(index: int, reply: str) -> None:
        state.batch_passes[index] = plan.pass_number
        write_json(state_path, state)
        total = len(parse_batch_output(texts[index], index)[0])
        kept = len(parse_batch_output(reply, index)[0])
        stats.per_batch[index] = (kept, total)

    stats.failures = _run_batches(pending, client, record)
    stats.per_batch = dict(sorted(stats.per_batch.items()))

    if stats.quota_warning:
        logger.warning(
            "filter retained %.0f%% of examples; the exclusion quota "
            "(at least 50%%) was not met",
            stats.overall_retention * 100,
        )
    return stats


@dataclass
class ParsedRun:
    """The records ``parse_run`` read from a run directory, and what to warn about."""

    records: list[ExampleRecord]
    files: int
    warnings: list[str]  # the parser's, in batch-index order
    lagging: list[str]  # one per parsed batch behind the highest filter pass
    filter_pass_count: int


def parse_run(output_dir: str | Path, filtered: bool = False) -> ParsedRun:
    """Parse each batch with a ``batch_{n}_output.txt``, in batch-index
    order: its output, or with ``filtered`` the file ``_held`` names.

    Filtered records are only as filtered as their least-filtered batch:
    the lowest pass any batch holds is ``filter_pass_count``, and each
    batch below the highest pass (at least 1, so a batch at pass 0 is
    named) is in ``lagging``.
    """
    directory = Path(output_dir)
    _, held = _held(directory)
    run = ParsedRun(records=[], files=len(held), warnings=[], lagging=[], filter_pass_count=0)
    for index, (_, path) in held.items():
        path = path if filtered else batch_path(directory, index, "output")
        parsed, warnings = parse_batch_output(read_text(path, RunnerError), index)
        run.records.extend(parsed)
        run.warnings.extend(warnings)
    if filtered:
        passes = {i: n for i, (n, _) in held.items()}
        run.filter_pass_count = min(passes.values())
        highest = max(1, *passes.values())
        run.lagging = [f"batch {i} holds filter pass {n} of {highest}; re-run filter to bring it level"
                       for i, n in passes.items() if n < highest]
    return run


# ---------------------------------------------------------------------------
# Dataset queries
# ---------------------------------------------------------------------------


def run_query(
    dataset_path: str | Path,
    question: str,
    client: provider.ChatClient,
    log_path: str | Path | None = None,
    templates_dir: str | Path | None = None,
    show: Callable[[str], object] | None = None,
) -> str:
    """Ask a follow-up question over a dataset file; returns the answer.

    The dataset must fit the provider window alongside the framing prompt;
    otherwise a ContextOverflow explains how much is needed and suggests
    sharding. Every query appends a transcript entry to the query log.
    ``show`` gets the answer before it is logged, so an unwritable log loses no answer.
    """
    dataset_path = Path(dataset_path)
    dataset_text = read_text(dataset_path, RunnerError)
    bundle = build_query_prompt(question, templates_dir=templates_dir)

    try:
        response = client.complete(bundle.with_payload(dataset_text, refs=(dataset_path.name,)))
    except provider.ContextOverflow as exc:
        raise provider.ContextOverflow(
            exc.required,
            exc.available,
            hint="split the dataset into shards and query each shard separately",
        ) from exc

    if show is not None:
        show(response.text)
    log = Path(log_path) if log_path else dataset_path.with_name(dataset_path.name + QUERY_LOG_SUFFIX)
    append_jsonl(log, {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "question": question,
        "answer": response.text,
    })
    return response.text
