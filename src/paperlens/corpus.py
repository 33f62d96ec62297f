"""Corpus ingestion, manifests, reproducible sampling, and text access.

PDF text extraction is delegated: the pipeline consumes pre-extracted
``.txt`` sidecars next to each PDF (same basename). An optional external
command can be configured to produce missing sidecars at ingest time.
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
from dataclasses import dataclass
from pathlib import Path

from .atomic import jsonl_text, read_jsonl, write_atomic
from .verify import normalize

logger = logging.getLogger(__name__)

MANIFEST_FORMAT = "paperlens-manifest/1"


class CorpusError(Exception):
    """Raised for unreadable inputs and violated sampling preconditions."""


@dataclass(frozen=True)
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
        ids = [ref.doc_id for ref in self.documents]
        if ids != sorted(ids):
            raise CorpusError("manifest documents must be sorted by doc_id")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
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


def _run_extractor(extract_cmd: str, pdf: Path, txt: Path) -> bool:
    """Run the configured extraction command for one document."""
    cmd = [part.format(pdf=str(pdf), txt=str(txt)) for part in shlex.split(extract_cmd)]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        logger.warning("extractor failed for %s: %s", pdf.name, exc)
        return False
    if proc.returncode != 0:
        logger.warning("extractor exited %d for %s", proc.returncode, pdf.name)
        return False
    return txt.exists()


def _exists(listing: dict[str, os.DirEntry], path: Path) -> bool:
    """``path.exists()`` for a path in a directory listing, with no stat for a listed non-symlink.

    A name missing from the listing is still checked on disk, where a
    case-insensitive file system may find it under another case.
    """
    dirent = listing.get(path.name)
    if dirent is None or dirent.is_symlink():
        return path.exists()
    return True


def ingest(
    source_dir: str | Path,
    metadata_file: str | Path | None = None,
    extract_cmd: str | None = None,
) -> IngestResult:
    """Build a manifest from a directory of PDFs with extracted-text sidecars.

    Each ``x.pdf`` needs a readable ``x.txt`` sidecar, a ``text_path`` entry
    in the metadata file, or (when ``extract_cmd`` is set) a successful run
    of the external extractor. Documents without resolvable text appear in
    the skip report; they are never silently dropped. The metadata file may
    also supply title, authors, and category_tag per doc_id. A document's
    category tag is its metadata entry's, else the tag embedded in its PDF,
    else the one in its filename, else None (unknown is a value, not an
    error).
    """
    started = time.perf_counter()
    src = Path(source_dir)
    if not src.is_dir():
        raise CorpusError(f"source directory not readable: {src}")

    entries = read_jsonl(metadata_file, CorpusError, _Metadata)[1] if metadata_file else ()
    metadata = {entry.doc_id: entry for entry in entries}

    # One listing serves the PDF filter and the sidecar lookup. A DirEntry
    # knows its type from the listing, so only symlinks and sidecars missing
    # from it cost a stat.
    with os.scandir(src) as it:
        listing = {dirent.name: dirent for dirent in it}
    pdfs = sorted(
        (
            Path(dirent.path)
            for name, dirent in listing.items()
            if Path(name).suffix.lower() == ".pdf" and dirent.is_file()
        ),
        key=lambda p: p.stem,
    )

    refs: list[DocumentRef] = []
    skipped: list[SkipReport] = []
    for pdf in pdfs:
        doc_id = pdf.stem
        entry = metadata.get(doc_id, _NO_METADATA)
        sidecar = pdf.with_suffix(".txt")
        text_path: Path | None = None
        if _exists(listing, sidecar):
            text_path = sidecar
        elif entry.text_path and Path(entry.text_path).exists():
            text_path = Path(entry.text_path)
        elif extract_cmd and _run_extractor(extract_cmd, pdf, sidecar):
            text_path = sidecar
        if text_path is None:
            skipped.append(SkipReport(doc_id, str(pdf), "no extracted text found"))
            continue
        try:
            raw = text_path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            skipped.append(SkipReport(doc_id, str(pdf), f"unreadable text file: {exc}"))
            continue
        tag = entry.category_tag or _embedded_pdf_tag(pdf) or _filename_tag(doc_id)
        refs.append(
            DocumentRef(
                doc_id=doc_id,
                path=str(pdf),
                text_path=str(text_path),
                title=entry.title,
                authors=entry.authors,
                category_tag=tag,
                char_count=len(normalize(raw)),
            )
        )

    for skip in skipped:
        logger.warning("skipped %s: %s", skip.doc_id, skip.reason)

    logger.info(
        "ingest: %d documents ingested, %d skipped, %.2f s",
        len(refs), len(skipped), time.perf_counter() - started,
    )
    return IngestResult(manifest=CorpusManifest.build(refs), skipped=tuple(skipped))


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

    Uses the same normalization rules as quote verification so that quotes
    checked against this text see identical bytes.
    """
    path = Path(ref.text_path)
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise CorpusError(f"missing or unreadable text for document {ref.doc_id!r}: {exc}") from exc
    return normalize(raw)


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


def manifest_to_jsonl(manifest: CorpusManifest) -> str:
    """Serialize a manifest to its canonical line-delimited form."""
    header = _ManifestHeader(sample_seed=manifest.sample_seed, parent_size=manifest.parent_size)
    return jsonl_text(manifest.documents, header)


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest atomically (temp file, then rename)."""
    write_atomic(path, manifest_to_jsonl(manifest))


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load a manifest written by save_manifest."""
    header, refs = read_jsonl(path, CorpusError, DocumentRef, format=_ManifestHeader)
    size = len(refs) if header.parent_size is None else header.parent_size
    return CorpusManifest(documents=tuple(refs), sample_seed=header.sample_seed, parent_size=size)


def manifest_digest(manifest: CorpusManifest) -> str:
    """Stable digest of a manifest's canonical serialization."""
    return hashlib.sha256(manifest_to_jsonl(manifest).encode("utf-8")).hexdigest()
