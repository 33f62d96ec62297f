"""Check that quoted passages actually occur in their claimed source texts.

Extracted text mangles typography (ligatures, line-break hyphenation, soft
hyphens, whitespace), so both the quote and the document are pushed through
the same normalization before matching. A quote scores 1 - k / |quote|,
where k is the least edit distance between the quote and any substring of
the document: Sellers' semi-global distance (1980), computed in one
bit-parallel pass (Myers 1999) over the document.
Mathematical notation inside a quote, and an ellipsis, stand for a bounded
gap: they split the quote into literals, placed in order with one pass per
literal, because extraction renders formulas unpredictably and an ellipsis
leaves text out.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import time
import unicodedata
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

# numpy's OpenBLAS starts a pool of worker threads when it loads, one per CPU
# less one, and they spin for a while even though paperlens runs no BLAS
# routine. OpenBLAS reads its thread count once, at load, from the first of
# OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that is set, so
# unless the caller set one of them it gets one thread here; the environment
# is put back right after, so child processes (``ingest --extract-cmd``) see
# it as the caller left it. A process that loaded numpy before paperlens
# keeps its pool.
_BLAS_THREADS_SET = ("OPENBLAS_NUM_THREADS" in os.environ or "GOTO_NUM_THREADS" in os.environ
                     or "OMP_NUM_THREADS" in os.environ)
if not _BLAS_THREADS_SET:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if not _BLAS_THREADS_SET:
        del os.environ["OPENBLAS_NUM_THREADS"]

if TYPE_CHECKING:
    from .corpus import CorpusManifest
    from .records import Dataset, ExampleRecord

logger = logging.getLogger(__name__)

_SOFT_HYPHEN = "\u00ad"
# A line-break hyphen after a word character, with the break and the indent.
# Led by the hyphen so that ``re`` searches for a literal. A match is one
# hyphen then whitespace, so the "-" pass neither makes nor breaks a "\u00ad" one.
_DEHYPHEN_RES = tuple(re.compile(rf"{h}(?<=\w{h})[ \t]*\r?\n\s*(?=\w)") for h in ("-", _SOFT_HYPHEN))

# What splits a quote into literals: inline math spans as they appear in
# model-reported quotes, and ellipses that mark left-out text (NFKC turns
# U+2026 into "...").
_GAP_RE = re.compile(r"\$\$.+?\$\$|\$[^$\n]+\$|\\\(.+?\\\)|\\\[.+?\\\]|(?P<ellipsis>\.\.\.)", re.DOTALL)

# A math span may stand for up to this multiple of its length, plus 8,
# document characters.
_MATH_GAP_FACTOR = 3
# An ellipsis may stand for up to this many document characters.
_ELLIPSIS_GAP = 2000


def normalize(text: str) -> str:
    """Normalize text for matching.

    Applies, in order: Unicode compatibility normalization (NFKC, which also
    expands the ligatures U+FB00-FB06), removal of line-break hyphens and of
    soft hyphens, NFKC again only if the removals took something out (they
    can join a letter to a combining mark, or two Hangul jamo), and one
    collapse of whitespace runs to single spaces, trimmed. That equals a
    collapse after each step: ``str.split`` and ``re``'s ``\\s`` take the
    same characters, and every whitespace character NFKC leaves is a starter
    it never composes. Case is preserved; the result is idempotent.

    The first NFKC (``_nfkc``) expands the ligatures before it normalizes,
    so a text whose only compatibility characters are ligatures passes
    NFKC's quick check (UAX #15) and is returned as it is. The expansion is
    exact: NFKD decomposes character by character, and a ligature's
    decomposition is ASCII letters, starters of combining class 0, so the
    text's NFKD, and with it its NFKC, is unchanged. Unicode's stability
    policy freezes decomposition mappings, so this holds on every version.
    The collapse (``_collapse_whitespace``) maps each
    ``str.isspace`` character to a space and merges runs of spaces.
    ``str.split`` splits at exactly those characters, so joining its words
    with one space is that collapse with the ends trimmed.
    """
    text = _nfkc(text)
    length = len(text)
    for pattern in _DEHYPHEN_RES:
        text = pattern.sub("", text)
    text = text.replace(_SOFT_HYPHEN, "")
    # With nothing removed, the text is still _nfkc's output, which is NFKC.
    if len(text) != length:
        text = unicodedata.normalize("NFKC", text)
    return _collapse_whitespace(text)


#: The Latin ligatures U+FB00-FB06, each with its NFKC form of ASCII letters.
_LIGATURES = tuple((chr(c), unicodedata.normalize("NFKC", chr(c))) for c in range(0xFB00, 0xFB07))


def _nfkc(text: str) -> str:
    """``unicodedata.normalize("NFKC", text)``, expanding ligatures first (see ``normalize``)."""
    for ligature, letters in _LIGATURES:
        text = text.replace(ligature, letters)
    return unicodedata.normalize("NFKC", text)


#: Every ``str.isspace`` character but the space itself.
_WHITESPACE = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


def _collapse_whitespace(text: str) -> str:
    """``" ".join(text.split())``, without building the words."""
    for ch in _WHITESPACE:
        if ch in text:
            text = text.replace(ch, " ")
    while "  " in text:
        text = text.replace("  ", " ")
    return text.strip(" ")


class _NormalizedDoc(str):
    """A document text that is ``normalize``'s output.

    ``best_match`` wraps a raw document once; ``verify_dataset`` wraps each
    source document once and passes it to ``best_match`` for each of the
    document's quotes, which then does not normalize it again. Its code
    points are encoded on the first match that is not an exact substring
    and kept for the document's later quotes; both go when
    ``verify_dataset`` drops the document after its last quote.
    """

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return np.frombuffer(self.encode("utf-32-le"), dtype=np.int32)


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


def _occurrence_mask(values: np.ndarray, c: int) -> int:
    """The int whose bit t is set exactly where ``values[t] == c``."""
    return int.from_bytes(np.packbits(values == c, bitorder="little").tobytes(), "little")


def _bits(x: int, count: int) -> np.ndarray:
    """Bits 0 .. count-1 of ``x`` as a 0/1 int8 array."""
    raw = np.frombuffer(x.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(np.int8)


def _edit_rows(quote: str, eq: dict[int, int], count: int, pv: int, mv: int) -> np.ndarray:
    """Bit-parallel edit-distance DP (Myers, J. ACM 46(3), 1999) of ``quote``
    against a text of ``count`` positions, one quote character per step, one
    bit per text position.

    Bit t of ``eq[c]`` is set where text position t holds code point c; a
    position set in no mask matches nothing. Row i of the table holds, at
    column t + 1, the cost of aligning ``quote[:i]`` with text ending at
    position t; column 0 rises by one per quote character. The bits of
    ``pv`` (``mv``) mark the columns where a row rises (falls) by one from
    the previous column; on entry they describe row 0, which may be any row
    whose steps are +1, 0 or -1. Returns the last row's steps, +1, 0 or -1
    per text position. ``eq`` is emptied before the steps are unpacked, so
    its masks are not held beside them.
    """
    mask = (1 << count) - 1
    for ch in quote:
        e = eq[ord(ch)]
        xv = e | mv
        xh = (((e & pv) + pv) ^ pv) | e
        # Complements are taken against ``mask``: CPython's bitwise
        # operations on negative ints are several times slower.
        ph = mv | (mask ^ (xh | pv))
        mh = ((pv & xh) << 1) & mask
        ph = ((ph << 1) | 1) & mask
        pv = mh | (mask ^ (xv | ph))
        mv = ph & xv
    eq.clear()
    steps = _bits(pv, count)
    steps -= _bits(mv, count)
    return steps


def _last_row(literal: str, codes: np.ndarray, pv: int, mv: int, first: int) -> np.ndarray:
    """``dist[e] = min_s row0[s] + editdistance(literal, doc[s:e])`` for ``e``
    in ``0..len(doc)``, where row 0 starts at ``first`` and steps as ``pv``
    and ``mv`` say (see ``_edit_rows``). With row 0 all zeros this is
    Sellers' semi-global distance (J. Algorithms 1(4), 1980).
    """
    eq = {c: _occurrence_mask(codes, c) for c in set(map(ord, literal))}
    steps = _edit_rows(literal, eq, len(codes), pv, mv)
    dist = np.empty(len(codes) + 1, dtype=np.int32)
    dist[0] = first + len(literal)
    dist[1:] = steps
    del steps
    # In place: a cumsum that casts the int8 steps would make an int32 copy.
    return np.cumsum(dist, out=dist)


def _window_min(values: np.ndarray, width: int) -> None:
    """In place, ``values[e] = min(values[max(0, e - width + 1) : e + 1])``.

    Each step takes the minimum with the value ``step`` places before, so
    the run of values each entry covers grows to up to twice its length
    (Hillis & Steele, CACM 29(12), 1986), ceil(log2 width) steps in all.
    numpy copies the overlapping operand, 4 bytes per entry.
    """
    width = min(width, len(values))
    covered = 1
    while covered < width:
        step = min(covered, width - covered)
        np.minimum(values[step:], values[:-step], out=values[step:])
        covered += step


def _chain(literals: list[str], gaps: list[int], codes: np.ndarray, anchored: bool = False) -> np.ndarray:
    """``dist[e]``: the least summed edit distance over in-order placements
    of ``literals`` in ``codes``, the last one ending at ``e``.

    A placement of a literal is a substring ``doc[s:e]``, scored by
    ``editdistance(literal, doc[s:e])``; the placement of literal i + 1
    starts 0 to ``gaps[i]`` characters after literal i ends. The first
    starts anywhere, or, when ``anchored``, at 0.

    One pass per literal: row 0 of each pass is the previous pass's last
    row after ``_window_min`` over the gap, the least total of a placement
    that leaves room for the literal to start at each column. That is a
    minimum over a window of a row whose steps are +1, 0 or -1, so its
    steps are too, and it fits the pass's encoding. Peak memory beside the
    text's code points is about 8 bytes per character, in ``_window_min``.
    """
    n = len(codes)
    dist = _last_row(literals[0], codes, (1 << n) - 1 if anchored else 0, 0, 0)
    for literal, gap in zip(literals[1:], gaps):
        _window_min(dist, gap + 1)
        steps = np.empty(n, dtype=np.int8)
        np.subtract(dist[1:], dist[:-1], out=steps, casting="unsafe")
        first = int(dist[0])
        del dist
        pv, mv = _occurrence_mask(steps, 1), _occurrence_mask(steps, -1)
        del steps
        dist = _last_row(literal, codes, pv, mv, first)
    return dist


def _segments(quote: str) -> tuple[list[str], list[int]]:
    """The literals of a normalized quote and the gap budget between each pair.

    Math spans and ellipses split the quote; each piece of text between
    them, stripped of spaces, is a literal unless it is empty. The budget
    between two literals adds up those of the spans and ellipses between
    them: ``_MATH_GAP_FACTOR * len(span) + 8`` for a math span,
    ``_ELLIPSIS_GAP`` for an ellipsis. Those before the first literal or
    after the last bound nothing.
    """
    literals: list[str] = []
    gaps: list[int] = []
    budget = pos = 0
    for m in [*_GAP_RE.finditer(quote), None]:
        literal = quote[pos : m.start() if m else None].strip()
        if literal:
            if literals:
                gaps.append(budget)
            literals.append(literal)
            budget = 0
        if m:
            budget += _ELLIPSIS_GAP if m["ellipsis"] else _MATH_GAP_FACTOR * len(m[0]) + 8
            pos = m.end()
    return literals, gaps


def best_match(quote: str, doc_text: str, threshold: float = 0.85) -> VerificationResult:
    """Find the closest occurrence of a quote in a document.

    Both inputs are normalized first; a ``_NormalizedDoc`` is taken as it
    is, and raw text is wrapped in one once. The similarity is
    1 - k / |q|, where k is the least edit distance between the quote q
    and any substring of the document (Sellers' semi-global distance; an
    exact substring scores 1.0).

    Inline math spans (``$...$``, ``$$...$$``, ``\\(...\\)``,
    ``\\[...\\]``) and ellipses (``...``) split the quote into literals,
    each stripped of spaces; empty ones are dropped. Each literal is placed
    on its own substring of the document, in order: the next one starts 0
    to ``3 * len(span) + 8`` characters after the previous one ends across
    a math span, and 0 to ``_ELLIPSIS_GAP`` (2,000) across an ellipsis;
    budgets add up across several with no literal between them, and spans
    before the first literal or after the last bound nothing. The
    similarity is 1 - (summed distance) / (summed literal length) over the
    best such placement. With no literal left it is 0.0.

    The span runs from the first literal's start to the last one's end, in
    the normalized document text: it ends at the earliest end of any best
    placement, and starts at the latest start of a best placement ending
    there. It is found by running the chain of ``_chain`` once more, over
    the reversed literals on the reversed text before that end, anchored at
    it.
    """
    if not quote:
        raise ValueError("quote must be non-empty")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    d = doc_text if isinstance(doc_text, _NormalizedDoc) else _NormalizedDoc(normalize(doc_text))
    literals, gaps = _segments(normalize(quote))
    if not literals:
        return VerificationResult(matched=False, similarity=0.0, threshold_used=threshold)
    if len(literals) == 1 and (start := d.find(literals[0])) >= 0:
        return VerificationResult(matched=True, similarity=1.0, threshold_used=threshold,
                                  span_start=start, span_end=start + len(literals[0]))

    dist = _chain(literals, gaps, d.codes)
    end = int(np.argmin(dist))
    k = int(dist[end])
    total = sum(map(len, literals))
    sim = 1.0 - k / total
    if sim < threshold:
        return VerificationResult(matched=False, similarity=sim, threshold_used=threshold)
    # A placement is at most its literal's length plus its distance long.
    lo = max(0, end - total - k - sum(gaps))
    back = _chain([lit[::-1] for lit in reversed(literals)], gaps[::-1], d.codes[lo:end][::-1], anchored=True)
    return VerificationResult(matched=True, similarity=sim, threshold_used=threshold,
                              span_start=end - int(np.argmin(back)), span_end=end)


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
    skipped_doc_ids: list[str] = field(default_factory=list)  # each once, in first-seen order
    unreadable_doc_ids: list[str] = field(default_factory=list)  # sources that could not be read

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

    Records whose source document is not in the manifest or cannot be read
    (logged once) are skipped and reported; records without a quote are
    counted separately, not failed.
    Near-misses (similarity within REVIEW_BAND below the threshold) are
    additionally listed for human review. Sources are handled one at a
    time, in the order the dataset first names them: each is read,
    normalized and encoded once, ``best_match`` runs once for each of its
    quoted records, and it is dropped before the next is read, so memory
    follows the largest cited document, not how many are cited. The
    annotated dataset and the summary keep dataset order.
    """
    from .corpus import CorpusError, load_text
    from .records import Dataset

    started = time.perf_counter()
    summary = VerificationSummary()
    refs = {ref.doc_id: ref for ref in manifest.documents}
    quoted_by_doc: dict[str, list[int]] = {}
    for i, record in enumerate(ds.records):
        if record.quote:
            quoted_by_doc.setdefault(record.source_doc_id, []).append(i)

    results: dict[int, VerificationResult] = {}
    read = 0
    for doc_id, indices in quoted_by_doc.items():
        if doc_id not in refs:
            continue
        try:
            # load_text returns normalize's output already.
            doc = _NormalizedDoc(load_text(refs[doc_id]))
        except CorpusError as exc:
            logger.error("%s; its quotes are skipped", exc)
            summary.unreadable_doc_ids.append(doc_id)
            continue
        read += 1
        for i in indices:
            results[i] = best_match(ds.records[i].quote, doc, threshold)
        del doc  # with its cached code points, before the next source is read

    annotated: list["ExampleRecord"] = []
    perfect = 0
    for i, record in enumerate(ds.records):
        if not record.quote:
            summary.no_quote += 1
            annotated.append(record)
            continue
        result = results.get(i)
        if result is None:
            summary.skipped += 1
            summary.skipped_doc_ids.append(record.source_doc_id)
            annotated.append(record)
            continue
        record = replace(record, verification=result)
        annotated.append(record)
        perfect += result.similarity == 1.0
        if result.matched:
            summary.verified += 1
        else:
            summary.unverified += 1
            summary.unverified_records.append(record)
            if threshold - REVIEW_BAND <= result.similarity < threshold:
                summary.review_records.append(record)

    summary.skipped_doc_ids = list(dict.fromkeys(summary.skipped_doc_ids))
    quoted = summary.verified + summary.unverified
    logger.info(
        "verify: %d quoted records against %d documents, %d at similarity 1.0, "
        "%d below, %d skipped, %.2f s",
        quoted, read, perfect, quoted - perfect, summary.skipped, time.perf_counter() - started,
    )
    annotated_ds = Dataset(
        records=annotated,
        source_manifest_hash=ds.source_manifest_hash,
        filter_pass_count=ds.filter_pass_count,
    )
    return annotated_ds, summary
