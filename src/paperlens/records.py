"""Parse model batch outputs into structured example records and persist them.

Model outputs arrive as labeled bullet items (Title / Example-or-Finding /
Quote / Context, with filename and page number where present), but the
formatting varies between runs: bold markup, reordered fields, label
synonyms, missing lines. The parser is total: unrecognizable stretches
produce warnings, never exceptions, and no field value is ever invented;
everything comes from the input text after markup stripping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import PaperlensError, read_jsonl, write_jsonl
from .verify import VerificationResult

DATASET_FORMAT = "paperlens-records/1"

QUALITY_LABELS = ("high", "borderline", "low")

# Models are told to cite filenames, so each document in a batch payload is
# introduced by a header naming it.
DOC_HEADER = "=== FILE: {doc_id} ({title}) ==="


class DatasetError(PaperlensError):
    """Raised for malformed dataset files."""


@dataclass
class ExampleRecord:
    """One parsed annotation: where it came from and what the model reported.

    ``quality_label`` is only ever set by explicit human input; the parser
    and the pipeline never assign one.
    """

    source_doc_id: str = ""
    title: str = ""
    authors: str | None = None
    finding: str = ""
    quote: str | None = None
    commentary: str = ""
    page: int | None = None
    batch_index: int = 0
    verification: VerificationResult | None = None
    quality_label: str | None = None

    def __post_init__(self) -> None:
        if self.quality_label is not None and self.quality_label not in QUALITY_LABELS:
            raise ValueError(f"invalid quality_label {self.quality_label!r}")


@dataclass
class Dataset:
    """An ordered collection of example records plus provenance."""

    records: list[ExampleRecord] = field(default_factory=list)
    source_manifest_hash: str = ""
    filter_pass_count: int = 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Label synonyms observed across runs: Example == Finding, Context == Commentary.
_LABEL_FIELDS = {
    "title": "title",
    "example": "finding",
    "finding": "finding",
    "quote": "quote",
    "context": "commentary",
    "commentary": "commentary",
    "file": "file",
    "filename": "file",
    "source": "file",
    "author": "authors",
    "authors": "authors",
    "page": "page",
}

# A label may follow a bullet or a list number ("1.", "2)").
_LABEL_LINE = re.compile(r"^\s*(?:[-*•+]\s+|\d+[.)]\s+)?(?P<label>[A-Za-z]+)\s*:\s*(?P<value>.*)$")
_BULLET_RE = re.compile(r"^\s*(?:[-*•+]\s+)")
# A Markdown heading or rule: it ends an open field, as a blank line does.
_BREAK = re.compile(r"#{1,6}(?:\s.*)?|[-*_=]{3,}")
# A file context line: DOC_HEADER, whose title runs to the last ") ===", or a
# file name, bare or behind "=== FILE:".
_FILE_HEADER = re.compile(
    r"^\s*(?:=== FILE: (?P<doc_id>.+?) \(.*\) ===|(?:=+\s*FILE:\s*)?(?P<name>[\w\-. ]+\.pdf)\s*[:=]*)\s*$",
    re.IGNORECASE,
)
_BATCH_HEADER = re.compile(r"batch[_\s]*\d+[_\s]*(?:output|filtered)\.txt", re.IGNORECASE)
_NO_EXAMPLES = re.compile(
    r"\bno\s+(?:relevant|such|new)?\s*(?:examples|instances|findings|cases)\b", re.IGNORECASE
)
_PAGE_SUFFIX = re.compile(r"\s*\(\s*(?:pp?|page)\.?\s*(\d+)\s*\)\s*\.?\s*$", re.IGNORECASE)
_QUOTE_PAIRS = {'"': '"', "“": "”", "'": "'", "‘": "’"}

# Content fields: an item must carry at least one of these to become a record.
_CONTENT_FIELDS = ("finding", "quote", "commentary")


def _strip_markup(line: str) -> str:
    """Drop bold/italic markers so labels match regardless of styling."""
    return line.replace("**", "").replace("__", "")


def _strip_outer_quotes(text: str) -> str:
    if len(text) >= 2 and text[0] in _QUOTE_PAIRS and text.endswith(_QUOTE_PAIRS[text[0]]):
        return text[1:-1]
    return text


def _clean_doc_id(value: str) -> str:
    value = value.strip().strip("`'\"()")
    if value.lower().endswith(".pdf"):
        value = value[: -len(".pdf")]
    return value


def _item_to_record(
    item: dict[str, str],
    batch_index: int,
    ordinal: int,
    warnings: list[str],
) -> ExampleRecord | None:
    quote: str | None = None
    page: int | None = None

    raw_quote = item.get("quote", "").strip()
    if raw_quote:
        m = _PAGE_SUFFIX.search(raw_quote)
        if m:
            page = int(m.group(1))
            raw_quote = raw_quote[: m.start()].rstrip()
        quote = _strip_outer_quotes(raw_quote).strip()
        if not quote:
            quote = None

    if "page" in item and page is None:
        digits = re.search(r"\d+", item["page"])
        if digits:
            page = int(digits.group())

    title = item.get("title", "").strip()
    doc_id = _clean_doc_id(item.get("file", ""))
    if not doc_id:
        embedded = re.search(r"([\w\-.]+?)\.pdf\b", title, re.IGNORECASE)
        if embedded:
            doc_id = embedded.group(1)

    authors = item.get("authors", "").strip() or None
    finding = item.get("finding", "").strip()
    commentary = item.get("commentary", "").strip()

    if not (finding or quote or commentary):
        warnings.append(
            f"batch {batch_index} item {ordinal}: no finding, quote, or commentary; dropped"
        )
        return None
    if quote is None:
        warnings.append(f"batch {batch_index} item {ordinal}: no quote line")

    return ExampleRecord(
        source_doc_id=doc_id,
        title=title,
        authors=authors,
        finding=finding,
        quote=quote,
        commentary=commentary,
        page=page,
        batch_index=batch_index,
    )


def parse_batch_output(text: str, batch_index: int = 0) -> tuple[list[ExampleRecord], list[str]]:
    """Parse one batch output into records plus parse warnings.

    Total over all inputs: malformed stretches are reported as warnings and
    skipped. An output stating that no relevant examples were found parses
    to an empty list.
    """
    records: list[ExampleRecord] = []
    warnings: list[str] = []

    current: dict[str, str] = {}
    current_label: str | None = None
    file_context = ""
    stray: list[tuple[int, str]] = []
    ordinal = 0
    blank_since_field = False

    def flush_stray() -> None:
        nonlocal stray
        if stray:
            text_block = " ".join(line for _, line in stray)
            if not _NO_EXAMPLES.search(text_block):
                warnings.append(
                    f"batch {batch_index}: unrecognized text near line {stray[0][0]}: "
                    f"{text_block[:80]!r}"
                )
            stray = []

    def flush_item() -> None:
        nonlocal current, current_label, ordinal
        if current:
            if "file" not in current and file_context:
                current["file"] = file_context
            ordinal += 1
            record = _item_to_record(current, batch_index, ordinal, warnings)
            if record is not None:
                records.append(record)
        current = {}
        current_label = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_markup(raw_line)
        stripped = line.strip()

        if not stripped:
            current_label = None
            blank_since_field = True
            continue

        file_header = _FILE_HEADER.match(stripped)
        if file_header:
            flush_item()
            flush_stray()
            file_context = file_header["doc_id"] or _clean_doc_id(file_header["name"])
            continue

        label_match = _LABEL_LINE.match(line)
        if label_match and label_match.group("label").lower() in _LABEL_FIELDS:
            flush_stray()
            fld = _LABEL_FIELDS[label_match.group("label").lower()]
            value = label_match.group("value").strip()
            # A repeated label always opens a new item; Title or File after a
            # blank line does too. Within a contiguous stretch, fields may
            # arrive in any order and still belong to one item.
            starts_new = (fld in current) or (
                fld in ("title", "file")
                and blank_since_field
                and any(f in current for f in _CONTENT_FIELDS)
            )
            if starts_new:
                flush_item()
            blank_since_field = False
            if fld == "file":
                file_context = _clean_doc_id(value)
                current["file"] = file_context
                current_label = None
            else:
                current[fld] = value
                current_label = fld
            continue

        continues = current_label is not None and not _BULLET_RE.match(raw_line)
        # A batch file name outside a field line names the batch an item
        # list came from: it ends the item before it, unless the line
        # continues an open field past the name ("with batch_2_output.txt for").
        batch_name = _BATCH_HEADER.search(stripped)
        if batch_name and len(stripped) < 120 and not (continues and stripped[batch_name.end():].strip(": ")):
            flush_item()
            flush_stray()
            continue

        # Continuation of the current field, or an unrecognizable stretch.
        if continues and not _BREAK.fullmatch(raw_line.strip()):
            current[current_label] = current[current_label] + "\n" + stripped
        elif stripped.startswith("#") or set(stripped) <= set("-=*_"):
            current_label, blank_since_field = None, True  # headings and rules carry no content
        else:
            current_label = None
            stray.append((lineno, stripped))

    flush_item()
    flush_stray()
    return records, warnings


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_record(record: ExampleRecord) -> str:
    """Emit the canonical labeled-bullet form of a record.

    ``parse_batch_output(render_record(r))`` reproduces r's parsed fields;
    empty-string fields are treated as absent and get no line.
    """
    lines: list[str] = []
    if record.source_doc_id:
        lines.append(f"- **File:** {record.source_doc_id}")
    if record.title:
        lines.append(f"- **Title:** {record.title}")
    if record.authors:
        lines.append(f"- **Authors:** {record.authors}")
    if record.finding:
        lines.append(f"- **Finding:** {record.finding}")
    if record.quote is not None:
        line = f'- **Quote:** "{record.quote}"'
        if record.page is not None:
            line += f" (p. {record.page})."
        lines.append(line)
    elif record.page is not None:
        lines.append(f"- **Page:** {record.page}")
    if record.commentary:
        lines.append(f"- **Context:** {record.commentary}")
    return "\n".join(lines)


def export_document(ds: Dataset) -> str:
    """Render a whole dataset as one human-readable document.

    Records are grouped under their source batch file, mirroring the raw
    output layout.
    """
    out: list[str] = []
    last_batch: int | None = None
    for record in ds.records:
        if record.batch_index != last_batch:
            if out:
                out.append("")
            out.append(f"## batch_{record.batch_index}_output.txt")
            out.append("")
            last_batch = record.batch_index
        out.append(render_record(record))
        out.append("")
    return "\n".join(out).rstrip() + "\n" if out else ""


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DatasetHeader:
    """Line 1 of a dataset file."""

    format: str = DATASET_FORMAT
    manifest_hash: str = ""
    filter_pass_count: int = 0
    count: int | None = None


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as line-delimited records (atomic temp-then-rename)."""
    header = _DatasetHeader(
        manifest_hash=ds.source_manifest_hash, filter_pass_count=ds.filter_pass_count, count=len(ds.records)
    )
    write_jsonl(path, ds.records, header)


def load_dataset(path: str | Path, expect_manifest_hash: str | None = None) -> Dataset:
    """Load a dataset written by save_dataset.

    Malformed lines raise with their line number. A manifest digest passed
    in ``expect_manifest_hash`` that differs from a non-empty stored one
    raises: the dataset was parsed against another manifest.
    """
    header, records = read_jsonl(path, DatasetError, ExampleRecord, _DatasetHeader)
    if header.count is not None and header.count != len(records):
        raise DatasetError(
            f"{path}: truncated dataset: header says {header.count} records, found {len(records)}"
        )
    if expect_manifest_hash and header.manifest_hash not in ("", expect_manifest_hash):
        raise DatasetError(f"{path}: parsed against manifest {header.manifest_hash}, "
                           f"not the given manifest {expect_manifest_hash}")
    return Dataset(records, header.manifest_hash, header.filter_pass_count)
