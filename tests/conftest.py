"""Shared fixtures: tiny corpora on disk and canned stub responses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import pytest

from paperlens.corpus import CorpusManifest, DocumentRef, ingest
from paperlens.provider import ProviderConfig, StubChatClient, StubScript
from paperlens.records import ExampleRecord, render_record

# A fake PDF is enough for everything except embedded-metadata scanning.
FAKE_PDF = b"%PDF-1.4\n%fake fixture document\n%%EOF\n"

SRC = Path(__file__).resolve().parents[1] / "src"


def write_corpus(root: Path, docs: dict[str, str]) -> Path:
    """Create a source directory with one PDF + text sidecar per entry."""
    root.mkdir(parents=True, exist_ok=True)
    for doc_id, text in docs.items():
        (root / f"{doc_id}.pdf").write_bytes(FAKE_PDF)
        (root / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    return root


def write_metadata(path: Path, entries: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(e, ensure_ascii=False) + "\n" for e in entries), encoding="utf-8"
    )
    return path


def synthetic_manifest(n: int, tag: str | None = "math.AG") -> CorpusManifest:
    """An in-memory manifest of n documents; no files behind it."""
    refs = [
        DocumentRef(
            doc_id=f"doc{i:05d}",
            path=f"/nowhere/doc{i:05d}.pdf",
            text_path=f"/nowhere/doc{i:05d}.txt",
            title=f"Synthetic paper {i}",
            category_tag=tag,
            char_count=1000,
        )
        for i in range(n)
    ]
    return CorpusManifest.build(refs)


def traced_peak(fn: Callable[[], Any]) -> tuple[Any, int]:
    """``fn()``'s result and the peak bytes allocated while it ran, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def run_python(code: str, *args: Any, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout, with
    ``env`` (by default this process's) as its environment."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def make_stub(fixtures_dir: Path | None = None, **config_overrides) -> StubChatClient:
    defaults = dict(
        dialect="stub",
        model_name="stub-model",
        context_window_tokens=1_000_000,
        max_output_tokens=4_096,
        max_retries=3,
        backoff_base_ms=1,
        max_inflight=4,
        fixtures_dir=str(fixtures_dir) if fixtures_dir else None,
    )
    defaults.update(config_overrides)
    return StubChatClient(ProviderConfig(**defaults), script=StubScript())


def make_record(i: int, doc_id: str = "", batch_index: int = 0) -> ExampleRecord:
    return ExampleRecord(
        source_doc_id=doc_id or f"paper{i:04d}",
        title=f"Result number {i}",
        finding=f"The authors give a structural reason for identity {i}.",
        quote=f"we can now see why identity {i} must hold",
        commentary=f"Explicit reason-why language around identity {i}.",
        page=i % 30 + 1,
        batch_index=batch_index,
    )


def batch_output_text(records: list[ExampleRecord], preamble: str = "") -> str:
    """Compose a plausible model batch output from rendered records."""
    parts = []
    if preamble:
        parts.append(preamble)
    for record in records:
        parts.append(render_record(record))
    return "\n\n".join(parts) + "\n"


@pytest.fixture
def tiny_corpus(tmp_path: Path) -> tuple[Path, CorpusManifest]:
    src = write_corpus(
        tmp_path / "src",
        {
            "paper-a": "Alpha text about proofs. This explains why the lemma holds.",
            "paper-b": "Beta text with combinatorial identities and bijections.",
            "paper-c": "Gamma text; a brute-force computation with no insight.",
        },
    )
    manifest = ingest(src).manifest
    return src, manifest
