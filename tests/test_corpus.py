"""Ingestion, sampling, text loading, and category resolution tests."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAKE_PDF, synthetic_manifest, write_corpus, write_metadata
from paperlens.corpus import (
    CorpusError,
    CorpusManifest,
    DocumentRef,
    ingest,
    load_manifest,
    load_text,
    manifest_digest,
    manifest_to_jsonl,
    sample,
    save_manifest,
)

# --- ingest ------------------------------------------------------------------


def test_ingest_three_docs(tmp_path):
    src = write_corpus(tmp_path / "src", {"c": "cc", "a": "aa", "b": "bb"})
    result = ingest(src)
    assert [r.doc_id for r in result.manifest.documents] == ["a", "b", "c"]
    assert result.skipped == ()
    assert all(r.char_count == 2 for r in result.manifest.documents)


def test_ingest_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = ingest(empty)
    assert len(result.manifest) == 0
    assert result.skipped == ()


def test_ingest_missing_sidecar_reported(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "aa", "b": "bb"})
    (src / "c.pdf").write_bytes(FAKE_PDF)  # no sidecar
    result = ingest(src)
    assert [r.doc_id for r in result.manifest.documents] == ["a", "b"]
    assert len(result.skipped) == 1
    assert result.skipped[0].doc_id == "c"
    assert "no extracted text" in result.skipped[0].reason


def test_ingest_unreadable_directory(tmp_path):
    with pytest.raises(CorpusError, match="not readable"):
        ingest(tmp_path / "does-not-exist")


def test_ingest_idempotent(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha", "b": "beta"})
    first = ingest(src).manifest
    second = ingest(src).manifest
    assert first == second
    assert manifest_to_jsonl(first) == manifest_to_jsonl(second)


def test_ingest_metadata_supplies_fields(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    meta = write_metadata(
        tmp_path / "meta.jsonl",
        [{"doc_id": "a", "title": "Alpha", "authors": ["X. Yz"], "category_tag": "math.NT"}],
    )
    result = ingest(src, meta)
    ref = result.manifest.documents[0]
    assert ref.title == "Alpha"
    assert ref.authors == ("X. Yz",)
    assert ref.category_tag == "math.NT"


def test_ingest_metadata_rescues_missing_sidecar(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.pdf").write_bytes(FAKE_PDF)
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("found me", encoding="utf-8")
    meta = write_metadata(tmp_path / "meta.jsonl", [{"doc_id": "a", "text_path": str(elsewhere)}])
    result = ingest(src, meta)
    assert len(result.manifest) == 1
    assert load_text(result.manifest.documents[0]) == "found me"


def test_ingest_malformed_metadata_reports_line(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"doc_id": "a"}\nnot json at all\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"meta\.jsonl:2"):
        ingest(src, meta)


def test_ingest_extractor_hook(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.pdf").write_bytes(FAKE_PDF)
    # Stands in for a real extractor: copies the pdf bytes into the sidecar.
    result = ingest(src, extract_cmd="cp {pdf} {txt}")
    assert len(result.manifest) == 1
    assert (src / "a.txt").exists()


def test_ingest_logs_counts(tmp_path, caplog):
    src = write_corpus(tmp_path / "src", {"a": "aa", "b": "bb"})
    (src / "c.pdf").write_bytes(FAKE_PDF)  # no sidecar: skipped
    with caplog.at_level("INFO", logger="paperlens.corpus"):
        ingest(src)
    assert any(m.startswith("ingest: 2 documents ingested, 1 skipped, ") for m in caplog.messages)


# --- sample ------------------------------------------------------------------


def test_sample_identity_when_n_equals_population():
    manifest = synthetic_manifest(50)
    out = sample(manifest, 50, seed=3)
    assert out.documents == manifest.documents
    assert out.parent_size == 50
    assert out.sample_seed == 3


def test_sample_deterministic_byte_identical():
    manifest = synthetic_manifest(2000)
    a = sample(manifest, 500, seed=7)
    b = sample(manifest, 500, seed=7)
    assert manifest_to_jsonl(a) == manifest_to_jsonl(b)


def test_sample_without_replacement():
    manifest = synthetic_manifest(10)
    out = sample(manifest, 3, seed=1)
    ids = [r.doc_id for r in out.documents]
    assert len(set(ids)) == 3
    assert set(ids) <= {r.doc_id for r in manifest.documents}


def test_sample_seed_changes_selection():
    manifest = synthetic_manifest(200)
    a = sample(manifest, 20, seed=1)
    b = sample(manifest, 20, seed=2)
    assert a.documents != b.documents


def test_sample_too_large_is_error():
    manifest = synthetic_manifest(5)
    with pytest.raises(CorpusError, match="exceeds corpus size"):
        sample(manifest, 6, seed=0)
    with pytest.raises(CorpusError, match="positive"):
        sample(manifest, 0, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    pop=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_sample_properties(pop, seed, data):
    manifest = synthetic_manifest(pop)
    n = data.draw(st.integers(min_value=1, max_value=pop))
    out = sample(manifest, n, seed)
    again = sample(manifest, n, seed)
    assert out == again
    ids = [r.doc_id for r in out.documents]
    assert len(ids) == n == len(set(ids))
    assert set(ids) <= {r.doc_id for r in manifest.documents}


# --- load_text ---------------------------------------------------------------


def test_load_text_passthrough(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "abc"})
    ref = ingest(src).manifest.documents[0]
    assert load_text(ref) == "abc"


def test_load_text_normalizes_crlf(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "line one\r\nline two\r\n"})
    ref = ingest(src).manifest.documents[0]
    text = load_text(ref)
    assert "\r" not in text
    assert text == "line one line two"


def test_load_text_missing_names_doc(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "abc"})
    ref = ingest(src).manifest.documents[0]
    (src / "a.txt").unlink()
    with pytest.raises(CorpusError, match="'a'"):
        load_text(ref)


def test_char_count_matches_loaded_text(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "mathe-\nmatics  here"})
    ref = ingest(src).manifest.documents[0]
    assert ref.char_count == len(load_text(ref))


# --- category resolution (ingest) --------------------------------------------


def test_metadata_entry_wins(tmp_path):
    src = write_corpus(tmp_path / "src", {"math0003117-math.CO": "x"})
    meta = write_metadata(
        tmp_path / "meta.jsonl",
        [{"doc_id": "math0003117-math.CO", "category_tag": "math.AG"}],
    )
    ref = ingest(src, meta).manifest.documents[0]
    assert ref.category_tag == "math.AG"


def test_filename_heuristic(tmp_path):
    src = write_corpus(tmp_path / "src", {"math0003117-math.CO": "x"})
    ref = ingest(src).manifest.documents[0]
    assert ref.category_tag == "math.CO"


def test_embedded_pdf_metadata(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    # Minimal PDF with an uncompressed info dictionary.
    pdf_bytes = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Title (Some Paper) /Subject (math.GT) >>\nendobj\n"
        b"trailer\n<< /Info 1 0 R >>\n%%EOF\n"
    )
    (src / "paper1.pdf").write_bytes(pdf_bytes)
    (src / "paper1.txt").write_text("text", encoding="utf-8")
    ref = ingest(src).manifest.documents[0]
    assert ref.category_tag == "math.GT"


def test_arxiv_stamp_fallback(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "p.pdf").write_bytes(b"%PDF-1.4\n(arXiv:math/0003117v1 [math.CO] 20 Mar 2000)\n%%EOF")
    (src / "p.txt").write_text("text", encoding="utf-8")
    assert ingest(src).manifest.documents[0].category_tag == "math.CO"


def _large_pdf(path, info_at: int) -> None:
    """A 3 MB PDF whose info dictionary starts ``info_at`` bytes in."""
    info = b"1 0 obj\n<< /Subject (math.CO) >>\nendobj\n"
    body = bytearray(b"%PDF-1.4\n" + b"%" * (3_000_000 - 16) + b"\n%%EOF\n")
    body[info_at : info_at + len(info)] = info
    path.write_bytes(bytes(body))


def test_embedded_pdf_metadata_in_the_last_megabyte(tmp_path):
    src = write_corpus(tmp_path / "src", {"p-math.AG": "text"})
    _large_pdf(src / "p-math.AG.pdf", info_at=2_500_000)
    assert ingest(src).manifest.documents[0].category_tag == "math.CO"


def test_embedded_pdf_metadata_mid_file_is_not_scanned(tmp_path):
    src = write_corpus(tmp_path / "src", {"p-math.AG": "text"})
    _large_pdf(src / "p-math.AG.pdf", info_at=1_500_000)
    assert ingest(src).manifest.documents[0].category_tag == "math.AG"


def test_large_pdf_is_not_read_whole(tmp_path):
    src = write_corpus(tmp_path / "src", {"p": "text"})
    with open(src / "p.pdf", "wb") as fh:
        fh.write(b"%PDF-1.4\n")
        fh.truncate(50_000_000)  # sparse: takes no disk space
    tracemalloc.start()
    try:
        ingest(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_no_source_resolves_to_unknown(tmp_path):
    src = write_corpus(tmp_path / "src", {"plainname": "x"})
    ref = ingest(src).manifest.documents[0]
    assert ref.category_tag is None


# --- manifest serialization --------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = CorpusManifest.build(
        [
            DocumentRef(
                doc_id="a",
                path="/x/a.pdf",
                text_path="/x/a.txt",
                title="Tést — unicode",
                authors=("A. One", "B. Two"),
                category_tag="math.AG",
                char_count=42,
            ),
            DocumentRef(doc_id="b", path="/x/b.pdf", text_path="/x/b.txt"),
        ],
        sample_seed=9,
        parent_size=100,
    )
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded == manifest
    save_manifest(loaded, tmp_path / "m2.jsonl")
    assert (tmp_path / "m.jsonl").read_bytes() == (tmp_path / "m2.jsonl").read_bytes()


def test_manifest_rejects_duplicates():
    ref = DocumentRef(doc_id="a", path="p", text_path="t")
    with pytest.raises(CorpusError, match="duplicate"):
        CorpusManifest(documents=(ref, ref))


def test_manifest_rejects_unsorted():
    refs = (
        DocumentRef(doc_id="b", path="p", text_path="t"),
        DocumentRef(doc_id="a", path="p", text_path="t"),
    )
    with pytest.raises(CorpusError, match="sorted"):
        CorpusManifest(documents=refs)


def test_manifest_digest_sensitive_to_content():
    a = synthetic_manifest(5)
    b = synthetic_manifest(6)
    assert manifest_digest(a) != manifest_digest(b)
    assert manifest_digest(a) == manifest_digest(synthetic_manifest(5))


def test_load_manifest_malformed_line(tmp_path):
    path = tmp_path / "m.jsonl"
    good = synthetic_manifest(1)
    save_manifest(good, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    with pytest.raises(CorpusError, match=r"m\.jsonl:3"):
        load_manifest(path)
