"""Check that quoted passages actually occur in their claimed source texts.

Extracted text mangles typography (ligatures, line-break hyphenation, soft
hyphens, whitespace), so both the quote and the document are pushed through
the same normalization before matching. Matching slides windows of length
0.8x to 1.2x the quote over the document and scores them by normalized edit
distance; mathematical notation inside a quote is treated as a flexible gap
because extraction renders formulas unpredictably.
"""

from __future__ import annotations

import math
import re
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .corpus import CorpusManifest
    from .records import Dataset, ExampleRecord

_SOFT_HYPHEN = "­"
_DEHYPHEN_RE = re.compile(r"(?<=\w)[-­][ \t]*\r?\n\s*(?=\w)")
_WS_RE = re.compile(r"\s+")

# Inline math spans as they appear in model-reported quotes.
_MATH_SPAN_RE = re.compile(r"\$\$.+?\$\$|\$[^$\n]+\$|\\\(.+?\\\)|\\\[.+?\\\]", re.DOTALL)

# A math span may match a document stretch up to this multiple of its length.
_MATH_GAP_FACTOR = 3
# Literal fragments shorter than this carry no evidence and are skipped.
_MIN_SEGMENT_CHARS = 4


def normalize(text: str) -> str:
    """Normalize text for matching.

    Applies, in order: Unicode compatibility normalization (NFKC, which also
    expands the ligatures U+FB00-FB06), de-hyphenation of line-break hyphens,
    collapse of whitespace runs to single spaces, and soft-hyphen removal.
    Case is preserved. The result is idempotent under re-application.
    """
    text = unicodedata.normalize("NFKC", text)
    text = _DEHYPHEN_RE.sub("", text)
    text = _WS_RE.sub(" ", text)
    text = text.replace(_SOFT_HYPHEN, "")
    # Soft-hyphen removal can butt two spaces together; collapse once more.
    text = _WS_RE.sub(" ", text)
    return text.strip()


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of matching one quote against one document."""

    matched: bool
    similarity: float
    threshold_used: float
    span_start: int | None = None
    span_end: int | None = None

    def __post_init__(self) -> None:
        if self.matched != (self.similarity >= self.threshold_used):
            raise ValueError("matched flag inconsistent with similarity/threshold")
        if self.matched != (self.span_start is not None and self.span_end is not None):
            raise ValueError("span fields must be present exactly when matched")


def _codepoints(text: str) -> np.ndarray:
    if not text:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


def _window_scores(
    quote: str,
    doc_codes: np.ndarray,
    starts: np.ndarray,
    min_len: int,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best normalized similarity at each window start.

    For each start s, computes edit distances of the quote against every
    prefix d[s:s+j] in one DP sweep and returns the best similarity
    1 - dist/max(|quote|, j) over window lengths j in [min_len, max_len],
    along with the window end that achieves it.
    """
    m = len(quote)
    n = len(doc_codes)
    width = min(max_len, n)
    n_starts = len(starts)

    codes = np.full((n_starts, width), -1, dtype=np.int64)
    for i, s in enumerate(starts):
        chunk = doc_codes[s : s + width]
        codes[i, : len(chunk)] = chunk

    offsets = np.arange(width + 1, dtype=np.int32)
    prev = np.broadcast_to(offsets, (n_starts, width + 1)).copy()
    cur = np.empty_like(prev)
    for ch in quote:
        cost = (codes != ord(ch)).astype(np.int32)
        cur[:, 0] = prev[:, 0] + 1
        np.minimum(prev[:, :-1] + cost, prev[:, 1:] + 1, out=cur[:, 1:])
        cur -= offsets
        np.minimum.accumulate(cur, axis=1, out=cur)
        cur += offsets
        prev, cur = cur, prev

    lengths = np.arange(width + 1, dtype=np.int64)
    denom = np.maximum(m, lengths)
    sims = 1.0 - prev / denom

    # Mask window lengths outside [min_len, max_len] or past the document
    # end; when the remaining document is shorter than min_len the longest
    # available prefix is still allowed.
    remaining = (n - starts).reshape(-1, 1)
    valid = (lengths >= np.minimum(min_len, remaining)) & (lengths <= remaining)
    valid[:, 0] = False
    sims = np.where(valid, sims, -1.0)

    best_j = np.argmax(sims, axis=1)
    best_sim = sims[np.arange(n_starts), best_j]
    return best_sim, best_j


def _match_literal(quote: str, doc: str) -> tuple[float, int, int]:
    """Best window match of a literal (math-free) quote in a document.

    Returns (similarity, span_start, span_end) over the normalized document.
    Uses a coarse stride of |quote|/10 and refines around the best coarse
    hits with stride 1.
    """
    if not doc:
        return 0.0, 0, 0
    idx = doc.find(quote)
    if idx >= 0:
        return 1.0, idx, idx + len(quote)

    m = len(quote)
    min_len = max(1, math.floor(0.8 * m))
    max_len = max(1, math.ceil(1.2 * m))
    doc_codes = _codepoints(doc)
    n = len(doc_codes)

    coarse_stride = max(1, m // 10)
    last_start = max(0, n - min_len)
    coarse_starts = np.arange(0, last_start + 1, coarse_stride, dtype=np.int64)
    sims, ends = _window_scores(quote, doc_codes, coarse_starts, min_len, max_len)

    if coarse_stride == 1:
        best = int(np.argmax(sims))
        s = int(coarse_starts[best])
        return float(sims[best]), s, s + int(ends[best])

    # Refine around the strongest coarse hits so the stride cannot hide the
    # true optimum between samples.
    top = np.argsort(sims)[::-1][:3]
    fine: set[int] = set()
    for i in top:
        center = int(coarse_starts[i])
        lo = max(0, center - coarse_stride)
        hi = min(last_start, center + coarse_stride)
        fine.update(range(lo, hi + 1))
    fine_starts = np.array(sorted(fine), dtype=np.int64)
    sims_f, ends_f = _window_scores(quote, doc_codes, fine_starts, min_len, max_len)
    best = int(np.argmax(sims_f))
    s = int(fine_starts[best])
    return float(sims_f[best]), s, s + int(ends_f[best])


def _split_math(quote: str) -> list[tuple[str, int]]:
    """Split a quote into literal segments with the math-gap budget after each.

    Returns [(literal, gap_after), ...] where gap_after is the length of the
    math span following the literal (0 after the last segment).
    """
    parts: list[tuple[str, int]] = []
    pos = 0
    for m in _MATH_SPAN_RE.finditer(quote):
        parts.append((quote[pos : m.start()].strip(), m.end() - m.start()))
        pos = m.end()
    parts.append((quote[pos:].strip(), 0))
    return parts


def best_match(quote: str, doc_text: str, threshold: float = 0.85) -> VerificationResult:
    """Find the closest occurrence of a quote in a document.

    Both inputs are normalized first. An exact substring scores 1.0.
    Otherwise the similarity is the best over windows of 0.8x to 1.2x the
    quote length: 1 - edit_distance / max(window length, quote length).
    Quotes containing inline math are matched segment-by-segment, with each
    math span allowed to stand in for up to three times its length in the
    document.

    Span offsets refer to the normalized document text.
    """
    if not quote:
        raise ValueError("quote must be non-empty")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    q = normalize(quote)
    d = normalize(doc_text)
    if not q:
        return VerificationResult(matched=False, similarity=0.0, threshold_used=threshold)

    segments = _split_math(q)
    if len(segments) == 1:
        sim, start, end = _match_literal(q, d)
        return _result(sim, start, end, threshold)

    # Fragments too short to carry evidence are folded into the preceding
    # segment's gap budget rather than matched on their own.
    usable: list[list] = []
    for lit, gap in segments:
        if len(lit) >= _MIN_SEGMENT_CHARS:
            usable.append([lit, gap])
        elif usable:
            usable[-1][1] += len(lit) + gap
    if not usable:
        return VerificationResult(matched=False, similarity=0.0, threshold_used=threshold)

    # Anchor on the longest literal segment, then walk outward through the
    # remaining segments inside windows bounded by the math-gap budget.
    anchor_idx = max(range(len(usable)), key=lambda i: len(usable[i][0]))
    anchor_lit, _ = usable[anchor_idx]
    anchor_sim, anchor_start, anchor_end = _match_literal(anchor_lit, d)

    total = len(anchor_lit)
    weighted = anchor_sim * len(anchor_lit)
    span_start, span_end = anchor_start, anchor_end

    cursor = anchor_end
    for i in range(anchor_idx + 1, len(usable)):
        lit, _ = usable[i]
        gap_budget = _MATH_GAP_FACTOR * usable[i - 1][1] + 8
        window_end = min(len(d), cursor + gap_budget + math.ceil(1.2 * len(lit)))
        sim, _, end = _match_literal(lit, d[cursor:window_end])
        weighted += sim * len(lit)
        total += len(lit)
        if sim > 0:
            span_end = max(span_end, cursor + end)
            cursor = cursor + end

    cursor = anchor_start
    for i in range(anchor_idx - 1, -1, -1):
        lit, gap = usable[i]
        gap_budget = _MATH_GAP_FACTOR * gap + 8
        window_start = max(0, cursor - gap_budget - math.ceil(1.2 * len(lit)))
        sim, start, _ = _match_literal(lit, d[window_start:cursor])
        weighted += sim * len(lit)
        total += len(lit)
        if sim > 0:
            span_start = min(span_start, window_start + start)
            cursor = window_start + start

    return _result(weighted / total, span_start, span_end, threshold)


def _result(sim: float, start: int, end: int, threshold: float) -> VerificationResult:
    sim = max(0.0, min(1.0, sim))
    matched = sim >= threshold
    return VerificationResult(
        matched=matched,
        similarity=sim,
        threshold_used=threshold,
        span_start=start if matched else None,
        span_end=end if matched else None,
    )


#: Width of the band below the threshold flagged for human review.
REVIEW_BAND = 0.05


@dataclass
class VerificationSummary:
    """Counts and record lists from a dataset verification pass."""

    verified: int = 0
    unverified: int = 0
    skipped: int = 0
    no_quote: int = 0
    unverified_records: list["ExampleRecord"] = field(default_factory=list)
    review_records: list["ExampleRecord"] = field(default_factory=list)
    skipped_doc_ids: list[str] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "verified": self.verified,
            "unverified": self.unverified,
            "skipped": self.skipped,
            "no_quote": self.no_quote,
        }


def verify_dataset(
    ds: "Dataset",
    manifest: "CorpusManifest",
    threshold: float = 0.85,
) -> tuple["Dataset", VerificationSummary]:
    """Verify every quoted record in a dataset against its source document.

    Records whose source document is not in the manifest are skipped and
    reported; records without a quote are counted separately, not failed.
    Near-misses (similarity within REVIEW_BAND below the threshold) are
    additionally listed for human review. Matching runs in a thread pool,
    one task per record, with results merged in dataset order.
    """
    from .corpus import load_text
    from .records import Dataset

    refs = {ref.doc_id: ref for ref in manifest.documents}
    texts: dict[str, str] = {}
    for record in ds.records:
        doc_id = record.source_doc_id
        if record.quote and doc_id in refs and doc_id not in texts:
            texts[doc_id] = load_text(refs[doc_id])

    summary = VerificationSummary()

    def check(record: "ExampleRecord") -> "ExampleRecord":
        if not record.quote:
            return record
        doc_text = texts.get(record.source_doc_id)
        if doc_text is None:
            return record
        result = best_match(record.quote, doc_text, threshold)
        return replace(record, verification=result)

    with ThreadPoolExecutor() as pool:
        annotated = list(pool.map(check, ds.records))

    for record in annotated:
        if not record.quote:
            summary.no_quote += 1
        elif record.source_doc_id not in texts:
            summary.skipped += 1
            summary.skipped_doc_ids.append(record.source_doc_id)
        elif record.verification is not None and record.verification.matched:
            summary.verified += 1
        else:
            summary.unverified += 1
            summary.unverified_records.append(record)
            sim = record.verification.similarity if record.verification else 0.0
            if threshold - REVIEW_BAND <= sim < threshold:
                summary.review_records.append(record)

    annotated_ds = Dataset(
        records=annotated,
        source_manifest_hash=ds.source_manifest_hash,
        filter_pass_count=ds.filter_pass_count,
    )
    return annotated_ds, summary
