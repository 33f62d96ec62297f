"""Corpus ingestion, manifests, reproducible sampling, and text access.

PDF text extraction is delegated: the pipeline consumes pre-extracted
``.txt`` sidecars next to each PDF (same basename). An optional external
command can be configured to produce missing sidecars at ingest time.
One reader (``_read_sidecar``) turns a sidecar into normalized text, for
``ingest``'s ``char_count`` and for ``load_text`` alike.
Manifests are immutable values with documents in canonical (doc_id-sorted)
order; all operations here are pure given the filesystem snapshot.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import re
import shlex
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

from .atomic import PaperlensError, jsonl_lines, jsonl_text, read_jsonl, write_jsonl
from .verify import normalize

logger = logging.getLogger(__name__)

MANIFEST_FORMAT = "paperlens-manifest/1"


class CorpusError(PaperlensError):
    """Raised for unreadable inputs and violated sampling preconditions."""


@dataclass(frozen=True, slots=True)
class DocumentRef:
    """Identity, location, and metadata of one corpus paper."""

    doc_id: str
    path: str
    text_path: str
    title: str = ""
    authors: tuple[str, ...] = ()
    category_tag: str | None = None
    char_count: int = 0


@dataclass(frozen=True)
class CorpusManifest:
    """An ordered, duplicate-free collection of document references."""

    documents: tuple[DocumentRef, ...]
    sample_seed: int | None = None
    parent_size: int = 0

    def __post_init__(self) -> None:
        # One pass over adjacent pairs when the order holds; only a manifest
        # that breaks it is looked at again, to name the rule it breaks.
        if all(a.doc_id < b.doc_id for a, b in pairwise(self.documents)):
            return
        if any(a.doc_id > b.doc_id for a, b in pairwise(self.documents)):
            raise CorpusError("manifest documents must be sorted by doc_id")
        counts = Counter(ref.doc_id for ref in self.documents)
        dupes = sorted(doc_id for doc_id, n in counts.items() if n > 1)
        raise CorpusError(f"duplicate doc_ids in manifest: {dupes}")

    @classmethod
    def build(
        cls,
        documents: list[DocumentRef] | tuple[DocumentRef, ...],
        sample_seed: int | None = None,
        parent_size: int | None = None,
    ) -> "CorpusManifest":
        """Construct a manifest, sorting documents into canonical order."""
        docs = tuple(sorted(documents, key=lambda r: r.doc_id))
        size = len(docs) if parent_size is None else parent_size
        return cls(documents=docs, sample_seed=sample_seed, parent_size=size)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class SkipReport:
    """One document that could not be ingested, and why."""

    doc_id: str
    path: str
    reason: str


@dataclass(frozen=True)
class IngestResult:
    """Manifest plus the documents that had to be skipped."""

    manifest: CorpusManifest
    skipped: tuple[SkipReport, ...] = ()


@dataclass(frozen=True)
class _Metadata:
    """One line of an ingest metadata file."""

    doc_id: str
    title: str = ""
    text_path: str = ""
    authors: tuple[str, ...] = ()
    category_tag: str | None = None


_NO_METADATA = _Metadata(doc_id="")


def _split_extract_cmd(extract_cmd: str) -> list[str]:
    """The words of an ``--extract-cmd`` template, each checked to format with ``{pdf}`` and ``{txt}``."""
    try:
        words = shlex.split(extract_cmd)
        if not words:
            raise ValueError("empty command")
        for word in words:
            word.format(pdf="", txt="")
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        reason = f"unknown placeholder {{{exc.args[0]}}}" if isinstance(exc, KeyError) else exc
        raise CorpusError(f"--extract-cmd: {reason}; use {{pdf}} and {{txt}}") from exc
    return words


def _run_extractor(words: list[str], pdf: Path, txt: Path) -> str | None:
    """Run the configured extraction command, split into ``words``, for one
    document; returns why it gave no sidecar, or None when it wrote one."""
    cmd = [word.format(pdf=str(pdf), txt=str(txt)) for word in words]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"extractor failed: {exc}"
    if proc.returncode != 0:
        return f"extractor exited {proc.returncode}"
    return None if txt.exists() else "extractor wrote no sidecar"


def _exists(listing: dict[str, bool], name: str, path: str) -> bool:
    """``Path(path).exists()`` for ``path``, the entry ``name`` of a directory listing.

    ``listing`` maps each listed name to whether it is a symlink. A listed
    entry that is not a symlink exists, with no stat. A name missing from
    the listing is still checked on disk, where a case-insensitive file
    system may find it under another case.
    """
    if listing.get(name, True):  # not listed, or a symlink
        return Path(path).exists()
    return True


def _read_sidecar(path: str) -> str:
    """A sidecar's normalized text: the file read as UTF-8 in text mode, then ``normalize``.

    Undecodable bytes become U+FFFD, and ``\\r\\n`` and a lone ``\\r``
    become ``\\n``, as ``open(path, encoding="utf-8", errors="replace")``
    reads them. The newlines matter: line-break de-hyphenation looks for
    ``\\n``. Raises ``OSError`` when the file cannot be read.

    Deliberately apart from ``atomic.read_text``: extracted text is read
    leniently, as ``docs/formats.md`` defines ``char_count``, and an
    unreadable sidecar fails only its document (``ingest`` skips it, and
    ``load_text``'s ``CorpusError`` fails one batch or one document's quotes).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return normalize(text)


def ingest(
    source_dir: str | Path,
    metadata_file: str | Path | None = None,
    extract_cmd: str | None = None,
) -> IngestResult:
    """Build a manifest from a directory of PDFs with extracted-text sidecars.

    Each ``x.pdf`` needs a readable ``x.txt`` sidecar, a ``text_path`` entry
    in the metadata file, or (when ``extract_cmd`` is set) a successful run
    of the external extractor. Documents without resolvable text, or whose
    normalized text is empty, appear in the skip report; they are never
    silently dropped. The metadata file may also supply title, authors, and
    category_tag per doc_id. A document's category tag is its metadata
    entry's, else the tag embedded in its PDF, else the one in its filename,
    else None (unknown is a value, not an error).
    """
    started = time.perf_counter()
    src = Path(source_dir)
    if not src.is_dir():
        raise CorpusError(f"source directory not readable: {src}")
    extractor = _split_extract_cmd(extract_cmd) if extract_cmd else None

    entries = read_jsonl(metadata_file, CorpusError, _Metadata)[1] if metadata_file else ()
    metadata = {entry.doc_id: entry for entry in entries}

    # One listing serves the PDF filter and the sidecar lookup. A DirEntry
    # knows its type from the listing, so only symlinks and sidecars missing
    # from it cost a stat; the listing keeps, per name, only whether it is a
    # symlink. Paths are strings: ``prefix + name`` is ``str(src / name)``.
    # A name is a PDF's when ``Path(name).suffix`` is ``.pdf`` in any case,
    # so ``.pdf`` itself is not; its stem is the rest.
    listing: dict[str, bool] = {}
    pdfs: list[tuple[str, str]] = []
    with os.scandir(src) as it:
        for dirent in it:
            name = dirent.name
            listing[name] = dirent.is_symlink()
            if len(name) > 4 and name[-4:].lower() == ".pdf" and dirent.is_file():
                pdfs.append((name[:-4], name))
    pdfs.sort()
    prefix = str(src / "_")[:-1]

    refs: list[DocumentRef] = []
    skipped: list[SkipReport] = []
    kept = ("", "")  # the doc_id and name of the PDF last kept
    for doc_id, name in pdfs:
        pdf = prefix + name
        # Names that differ only in the case of ".pdf" share a doc_id and a
        # sidecar; the first in sorted order is the document.
        if doc_id == kept[0]:
            skipped.append(SkipReport(doc_id, pdf, f"duplicate doc_id: also {kept[1]}"))
            continue
        kept = (doc_id, name)
        entry = metadata.get(doc_id, _NO_METADATA)
        sidecar_name = doc_id + ".txt"
        sidecar = prefix + sidecar_name
        if _exists(listing, sidecar_name, sidecar):
            text_path = sidecar
        elif entry.text_path and Path(entry.text_path).exists():
            text_path = str(Path(entry.text_path))
        elif extractor:
            failure = _run_extractor(extractor, Path(pdf), Path(sidecar))
            if failure is not None:
                skipped.append(SkipReport(doc_id, pdf, failure))
                continue
            text_path = sidecar
        else:
            skipped.append(SkipReport(doc_id, pdf, "no extracted text found"))
            continue
        try:
            text = _read_sidecar(text_path)
        except OSError as exc:
            skipped.append(SkipReport(doc_id, pdf, f"unreadable text file: {exc}"))
            continue
        if not text:
            skipped.append(SkipReport(doc_id, pdf, "extracted text is empty"))
            continue
        tag = entry.category_tag or _embedded_pdf_tag(pdf) or _filename_tag(doc_id)
        refs.append(
            DocumentRef(
                doc_id=doc_id,
                path=pdf,
                text_path=text_path,
                title=entry.title,
                authors=entry.authors,
                category_tag=tag,
                char_count=len(text),
            )
        )

    for skip in skipped:
        logger.warning("skipped %s: %s", skip.doc_id, skip.reason)

    logger.info(
        "ingest: %d documents ingested, %d skipped, %.2f s",
        len(refs), len(skipped), time.perf_counter() - started,
    )
    # Sorted by stem above, so the documents are already in canonical order.
    manifest = CorpusManifest(documents=tuple(refs), parent_size=len(refs))
    return IngestResult(manifest=manifest, skipped=tuple(skipped))


def sample(manifest: CorpusManifest, n: int, seed: int) -> CorpusManifest:
    """Draw n documents without replacement, deterministically for a seed.

    Runs a seeded Fisher-Yates prefix shuffle over the canonical order, so
    the same (manifest, n, seed) always yields the identical sample. The
    result records the seed and the size of the population sampled from.
    """
    if n <= 0:
        raise CorpusError(f"sample size must be positive, got {n}")
    docs = list(manifest.documents)
    if n > len(docs):
        raise CorpusError(f"sample size {n} exceeds corpus size {len(docs)}")

    rng = random.Random(seed)
    for i in range(n):
        j = rng.randrange(i, len(docs))
        docs[i], docs[j] = docs[j], docs[i]

    return CorpusManifest.build(docs[:n], sample_seed=seed, parent_size=len(manifest.documents))


def load_text(ref: DocumentRef) -> str:
    """Load a document's extracted text with matching normalization applied.

    Reads through ``_read_sidecar``, the reader ``ingest`` takes
    ``char_count`` from, so ``ref.char_count == len(load_text(ref))`` for an
    unchanged sidecar. Uses the same normalization rules as quote
    verification so that quotes checked against this text see identical
    bytes.
    """
    try:
        return _read_sidecar(ref.text_path)
    except OSError as exc:
        raise CorpusError(f"missing or unreadable text for document {ref.doc_id!r}: {exc}") from exc


# Category tags as they appear in metadata, PDF info dictionaries, and
# arXiv-style filenames.
_TAG_RE = re.compile(r"\b((?:math|cs|stat|nlin|econ|eess|q-bio|q-fin|physics)\.[A-Za-z]{2})\b")


def _canonical_tag(tag: str) -> str:
    archive, _, subject = tag.partition(".")
    return f"{archive.lower()}.{subject.upper()}"


#: Bytes of a large PDF's head, and of its tail, scanned for a category tag.
_PDF_SCAN_BYTES = 1_000_000


def _embedded_pdf_tag(pdf_path: str | Path) -> str | None:
    """Scan a PDF's raw bytes for a category tag in its info dictionary.

    Looks at /Subject and /Keywords values plus arXiv stamp text. Covers
    the common uncompressed-info case only; compressed metadata streams
    resolve to None and fall through to the filename heuristic.
    """
    # Info dictionaries sit near the head or the trailer; a file over twice
    # _PDF_SCAN_BYTES has only its head and its tail of that size read.
    try:
        with open(pdf_path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size > 2 * _PDF_SCAN_BYTES:
                data = fh.read(_PDF_SCAN_BYTES)
                fh.seek(-_PDF_SCAN_BYTES, os.SEEK_END)
                data += fh.read()
            else:
                data = fh.read()
    except OSError:
        return None
    text = data.decode("latin-1", errors="replace")
    for m in re.finditer(r"/(?:Subject|Keywords)\s*\(([^)]{0,400})\)", text):
        tag = _TAG_RE.search(m.group(1))
        if tag:
            return _canonical_tag(tag.group(1))
    stamp = re.search(r"arXiv:[^\s\]]{1,40}\s*\[([A-Za-z\-]+\.[A-Za-z]{2})\]", text)
    if stamp:
        return _canonical_tag(stamp.group(1))
    return None


def _filename_tag(stem: str) -> str | None:
    """Pull a category tag out of a filename stem like ``math0003117-math.CO``."""
    matches = _TAG_RE.findall(stem)
    if matches:
        return _canonical_tag(matches[-1])
    return None


# ---------------------------------------------------------------------------
# Manifest serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ManifestHeader:
    """Line 1 of a manifest file."""

    format: str = MANIFEST_FORMAT
    sample_seed: int | None = None
    parent_size: int | None = None


def _header(manifest: CorpusManifest) -> _ManifestHeader:
    return _ManifestHeader(sample_seed=manifest.sample_seed, parent_size=manifest.parent_size)


def manifest_to_jsonl(manifest: CorpusManifest) -> str:
    """Serialize a manifest to its canonical line-delimited form."""
    return jsonl_text(manifest.documents, _header(manifest))


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest atomically (temp file, then rename), one line at a time."""
    write_jsonl(path, manifest.documents, _header(manifest))


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load a manifest written by save_manifest."""
    header, refs = read_jsonl(path, CorpusError, DocumentRef, _ManifestHeader)
    size = len(refs) if header.parent_size is None else header.parent_size
    return CorpusManifest(documents=tuple(refs), sample_seed=header.sample_seed, parent_size=size)


def manifest_digest(manifest: CorpusManifest) -> str:
    """Stable digest of a manifest's canonical serialization, fed to sha256 one line at a time."""
    digest = hashlib.sha256()
    for line in jsonl_lines(manifest.documents, _header(manifest)):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
