"""LLM-assisted concept annotation over a research-paper corpus.

The pipeline ingests a directory of papers into a manifest, draws
reproducible samples, runs batched annotation and filter prompts against a
chat-completion provider (or an offline stub), parses the outputs into
structured records, verifies quoted passages against the source texts, and
computes subject-area distribution and prevalence statistics. The names
imported below are the package's public API, listed once.
"""

from .analytics import (
    DistributionTable,
    PrevalenceEstimate,
    RichnessRow,
    TierFractions,
    corpus_distribution,
    dataset_distribution,
    emit_report,
    prevalence_estimate,
    richness_table,
)
from .atomic import PaperlensError
from .corpus import (
    CorpusManifest,
    DocumentRef,
    IngestResult,
    ingest,
    load_manifest,
    load_text,
    manifest_digest,
    sample,
    save_manifest,
)
from .prompts import (
    PromptBundle,
    PromptKind,
    build_annotation_prompt,
    build_filter_prompt,
    build_query_prompt,
)
from .provider import (
    ChatClient,
    ContextOverflow,
    ModelResponse,
    ProviderConfig,
    StubChatClient,
    estimate_tokens,
    make_client,
    stub_key,
    write_stub_fixture,
)
from .records import (
    Dataset,
    ExampleRecord,
    export_document,
    load_dataset,
    parse_batch_output,
    render_record,
    save_dataset,
)
from .runner import (
    BatchJob,
    Checkpoint,
    RetentionStats,
    RunnerConfig,
    RunSummary,
    plan_batches,
    run_annotation,
    run_filter,
    run_query,
)
from .taxonomy import MAIN_AREAS, SubjectArea, classify_tag
from .verify import VerificationResult, VerificationSummary, best_match, normalize, verify_dataset

__version__ = "0.1.0"
