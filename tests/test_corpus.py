"""Ingestion, sampling, text loading, and category resolution tests."""

import contextlib
import hashlib
import os
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAKE_PDF, synthetic_manifest, traced_peak, write_corpus, write_metadata
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
from paperlens.verify import normalize

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


def test_ingest_reports_a_sidecar_whose_text_is_empty(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha", "b": "  \n", "c": ""})
    result = ingest(src)
    assert [r.doc_id for r in result.manifest.documents] == ["a"]
    assert [(s.doc_id, s.path, s.reason) for s in result.skipped] == [
        ("b", str(src / "b.pdf"), "extracted text is empty"),
        ("c", str(src / "c.pdf"), "extracted text is empty"),
    ]


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


@pytest.mark.parametrize("extract_cmd, reason", [
    ("false {pdf} {txt}", "extractor exited 1"),
    ("true {pdf} {txt}", "extractor wrote no sidecar"),
    ("./no-such-extractor {pdf} {txt}", "extractor failed: [Errno 2] "),
])
def test_ingest_extractor_failure_is_the_skip_reason(tmp_path, extract_cmd, reason):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.pdf").write_bytes(FAKE_PDF)
    result = ingest(src, extract_cmd=extract_cmd)
    assert len(result.manifest) == 0
    [skip] = result.skipped
    assert skip.doc_id == "a" and skip.reason.startswith(reason), skip.reason


def test_ingest_logs_counts(tmp_path, caplog):
    src = write_corpus(tmp_path / "src", {"a": "aa", "b": "bb"})
    (src / "c.pdf").write_bytes(FAKE_PDF)  # no sidecar: skipped
    with caplog.at_level("INFO", logger="paperlens.corpus"):
        ingest(src)
    assert any(m.startswith("ingest: 2 documents ingested, 1 skipped, ") for m in caplog.messages)


# Which entries are documents and which sidecars count: one directory listing
# decides both, with the semantics of Path.is_file(), Path.suffix and
# Path.exists().


def test_ingest_upper_case_pdf_suffix(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "X.PDF").write_bytes(FAKE_PDF)
    (src / "X.txt").write_text("upper", encoding="utf-8")
    result = ingest(src)
    assert [(r.doc_id, r.path, r.text_path) for r in result.manifest.documents] == [
        ("X", str(src / "X.PDF"), str(src / "X.txt"))
    ]
    assert result.skipped == ()


def test_ingest_ignores_a_directory_named_like_a_pdf(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    (src / "y.pdf").mkdir()
    (src / "y.txt").write_text("not a document", encoding="utf-8")
    result = ingest(src)
    assert [r.doc_id for r in result.manifest.documents] == ["a"]
    assert result.skipped == ()


def test_ingest_ignores_a_file_named_dot_pdf(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / ".pdf").write_bytes(FAKE_PDF)
    (src / ".txt").write_text("hidden", encoding="utf-8")
    result = ingest(src)
    assert len(result.manifest) == 0
    assert result.skipped == ()


def test_ingest_directory_sidecar_is_reported_unreadable(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    (src / "z.pdf").write_bytes(FAKE_PDF)
    (src / "z.txt").mkdir()
    meta = write_metadata(tmp_path / "meta.jsonl", [{"doc_id": "z", "text_path": str(src / "a.txt")}])
    result = ingest(src, meta)
    assert [r.doc_id for r in result.manifest.documents] == ["a"]
    assert [(s.doc_id, s.path) for s in result.skipped] == [("z", str(src / "z.pdf"))]
    assert result.skipped[0].reason.startswith("unreadable text file: ")


def test_ingest_broken_symlink_sidecar_falls_back_to_metadata(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "w.pdf").write_bytes(FAKE_PDF)
    (src / "w.txt").symlink_to(tmp_path / "gone.txt")
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("rescued", encoding="utf-8")
    meta = write_metadata(tmp_path / "meta.jsonl", [{"doc_id": "w", "text_path": str(elsewhere)}])
    result = ingest(src, meta)
    assert [(r.doc_id, r.text_path, r.char_count) for r in result.manifest.documents] == [
        ("w", str(elsewhere), len("rescued"))
    ]
    assert result.skipped == ()
    assert ingest(src).skipped[0].reason == "no extracted text found"


def test_ingest_checks_a_sidecar_missing_from_the_listing_on_disk(tmp_path, monkeypatch):
    # On a case-insensitive file system, X.PDF's sidecar X.txt is found as
    # X.TXT although the listing names no X.txt; here the listing hides it.
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    real_scandir = os.scandir

    @contextlib.contextmanager
    def scandir_hiding_the_sidecar(path):
        with real_scandir(path) as it:
            yield (dirent for dirent in it if dirent.name != "a.txt")

    monkeypatch.setattr(os, "scandir", scandir_hiding_the_sidecar)
    result = ingest(src)
    assert [(r.doc_id, r.text_path) for r in result.manifest.documents] == [("a", str(src / "a.txt"))]
    assert result.skipped == ()


def test_ingest_keeps_the_first_of_pdf_names_that_differ_only_in_case(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha", "b": "beta"})
    (src / "a.PDF").write_bytes(FAKE_PDF)
    if len(list(src.iterdir())) == 4:
        pytest.skip("the file system does not tell names apart by case")
    result = ingest(src)
    assert [(r.doc_id, r.path) for r in result.manifest.documents] == [
        ("a", str(src / "a.PDF")), ("b", str(src / "b.pdf"))
    ]
    assert [(s.doc_id, s.path, s.reason) for s in result.skipped] == [
        ("a", str(src / "a.pdf"), "duplicate doc_id: also a.PDF")
    ]


def test_ingest_memory_per_listed_file_is_bounded(tmp_path):
    # The listing keeps a name and a flag per file, not an os.DirEntry
    # (about 270 bytes a file here, with its full path).
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    listed = 5_000
    for i in range(listed):
        (src / f"orphan-sidecar-{i:05d}.txt").touch()
    ingest(src)  # one-time allocations (caches, lazy imports) land here
    result, peak = traced_peak(lambda: ingest(src))
    assert len(result.manifest) == 1
    assert peak / listed < 150


@pytest.mark.parametrize("source", [".", "src", "./src/", "src//"])
def test_ingest_paths_join_the_source_directory_as_pathlib_does(tmp_path, monkeypatch, source):
    write_corpus(tmp_path / "src", {"a": "alpha"})
    monkeypatch.chdir(tmp_path / "src" if source == "." else tmp_path)
    ref = ingest(source).manifest.documents[0]
    assert (ref.path, ref.text_path) == (str(Path(source) / "a.pdf"), str(Path(source) / "a.txt"))


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


# Pieces of sidecar bytes: every kind of line break, a break after a hyphen,
# a soft hyphen (U+00AD), the ligature U+FB01 whole and cut short, invalid
# UTF-8 around it, a byte-order mark, and word characters.
_SIDECAR_PIECES = [
    b"\r", b"\r\n", b"\n", b"-\r", b"-\r\n", b"-\n", b"\xc2\xad", b"\xc2\xad\r",
    b"\xef\xac\x81", b"\xef\xac", b"\xef", b"\xac\x81", b"\x81", b"\xff", b"\xc2",
    b"\xef\xbb\xbf", b" ", b"  ", b"\t", b"a", b"word", b"ed", b"-",
]


def _sidecar_bytes_read_three_ways(src, data):
    """(char_count, load_text, text-mode read) of a sidecar holding ``data``;
    one whose text is empty must be in the skip report, and reads as ``(0, "", "")``."""
    (src / "a.txt").write_bytes(data)
    result = ingest(src)
    as_text = normalize((src / "a.txt").read_text(encoding="utf-8", errors="replace"))
    if not as_text:
        assert [(s.doc_id, s.reason) for s in result.skipped] == [("a", "extracted text is empty")]
        return 0, "", as_text
    ref = result.manifest.documents[0]
    return ref.char_count, load_text(ref), as_text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SIDECAR_PIECES), max_size=30).map(b"".join))
@example(b"a hyphen-\rated word and\r\nmore")
def test_sidecar_reader_reads_as_text_mode_does(tmp_path_factory, data):
    src = tmp_path_factory.mktemp("src")
    (src / "a.pdf").write_bytes(FAKE_PDF)
    char_count, loaded, as_text = _sidecar_bytes_read_three_ways(src, data)
    assert loaded == as_text
    assert char_count == len(loaded)


def test_sidecar_reader_turns_a_lone_carriage_return_into_a_line_break(tmp_path):
    # The de-hyphenation pattern needs "\n": read as raw bytes, "-\r" keeps
    # its hyphen and the text is 28 characters long.
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.pdf").write_bytes(FAKE_PDF)
    char_count, loaded, as_text = _sidecar_bytes_read_three_ways(src, b"a hyphen-\rated word and\r\nmore")
    assert loaded == as_text == "a hyphenated word and more"
    assert char_count == 26


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
    _, peak = traced_peak(lambda: ingest(src))
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


def test_manifest_order_is_checked_in_linear_time():
    refs = [DocumentRef(doc_id=f"d{i:06d}", path="p", text_path="t") for i in range(50_000)]
    refs.insert(25_000, refs[25_000])
    started = time.perf_counter()
    with pytest.raises(CorpusError, match=r"duplicate doc_ids in manifest: \['d025000'\]"):
        CorpusManifest(documents=tuple(refs))
    assert time.perf_counter() - started < 2.0  # a count per id is quadratic: about 45 s here


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


# A manifest of 20,000 entries is about 3.8 MB on disk; saving or digesting it
# once held about 3.3 times that: the text, its lines and their bytes.
_TRANSIENT_BUDGET = 256 * 1024


def test_save_manifest_and_its_digest_hold_one_line_at_a_time(tmp_path):
    manifest = synthetic_manifest(20_000)
    path = tmp_path / "m.jsonl"
    save_manifest(synthetic_manifest(2), path)  # one-time allocations land here
    manifest_digest(synthetic_manifest(2))
    _, save_peak = traced_peak(lambda: save_manifest(manifest, path))
    digest, digest_peak = traced_peak(lambda: manifest_digest(manifest))
    assert path.stat().st_size > 3_000_000
    assert save_peak < _TRANSIENT_BUDGET
    assert digest_peak < _TRANSIENT_BUDGET
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text(encoding="utf-8") == manifest_to_jsonl(manifest)


def test_load_manifest_holds_little_beyond_what_it_returns(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest(synthetic_manifest(20_000), path)
    load_manifest(path)  # one-time allocations land here
    _, one = traced_peak(lambda: load_manifest(path))
    _, two = traced_peak(lambda: (load_manifest(path), load_manifest(path)))
    # Loading a second manifest while holding the first adds what one holds.
    held = two - one
    assert one - held < 0.25 * path.stat().st_size


def test_load_manifest_undecodable_byte_on_a_late_line_names_the_file(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest(synthetic_manifest(3_000), path)
    lines = path.read_bytes().split(b"\n")
    lines[2_999] = lines[2_999].replace(b"Synthetic", b"Synth\xffetic")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorpusError) as err:
        load_manifest(path)
    assert str(err.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_load_manifest_malformed_line(tmp_path):
    path = tmp_path / "m.jsonl"
    good = synthetic_manifest(1)
    save_manifest(good, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    with pytest.raises(CorpusError, match=r"m\.jsonl:3"):
        load_manifest(path)


@pytest.mark.parametrize("header", ["[]", "null"])
def test_load_manifest_header_not_an_object(tmp_path, header):
    path = tmp_path / "m.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"m\.jsonl:1"):
        load_manifest(path)


def test_load_manifest_entry_not_an_object(tmp_path):
    path = tmp_path / "m.jsonl"
    save_manifest(synthetic_manifest(1), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("[]\n")
    with pytest.raises(CorpusError, match=r"m\.jsonl:3"):
        load_manifest(path)


def test_load_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    manifest = synthetic_manifest(2)
    lines = manifest_to_jsonl(manifest).splitlines()
    path.write_text("\n" + "\n\n".join(lines) + "\n\n", encoding="utf-8")
    assert load_manifest(path) == manifest


def test_ingest_missing_metadata_file(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    with pytest.raises(CorpusError, match=r"no-meta\.jsonl"):
        ingest(src, tmp_path / "no-meta.jsonl")


@pytest.mark.parametrize(
    "field, value",
    [
        ("title", 5),
        ("text_path", ["x.txt"]),
        ("authors", "Ann"),
        ("authors", ["Ann", 3]),
        ("category_tag", 5),
    ],
)
def test_ingest_rejects_metadata_field_of_wrong_type(tmp_path, field, value):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    meta = write_metadata(tmp_path / "meta.jsonl", [{"doc_id": "b"}, {"doc_id": "a", field: value}])
    with pytest.raises(CorpusError, match=rf"meta\.jsonl:2: .*{field}"):
        ingest(src, meta)


def test_ingest_accepts_null_category_tag(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    meta = write_metadata(
        tmp_path / "meta.jsonl",
        [{"doc_id": "a", "title": "T", "authors": ["Ann", "Bo"], "category_tag": None}],
    )
    ref = ingest(src, meta).manifest.documents[0]
    assert (ref.title, ref.authors, ref.category_tag) == ("T", ("Ann", "Bo"), None)


def test_ingest_metadata_line_not_an_object(tmp_path):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"doc_id": "a"}\n\n["a"]\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"meta\.jsonl:3"):
        ingest(src, meta)
