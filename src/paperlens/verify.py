"""Check that quoted passages actually occur in their claimed source texts.

Extracted text mangles typography (ligatures, line-break hyphenation, soft
hyphens, whitespace), so both the quote and the document are pushed through
the same normalization before matching. A quote scores the best normalized
edit distance over document windows of 0.8x to 1.2x its length; the score
and span are exactly those of checking every window, ties going to the
earliest start and then the shortest window. Bit-parallel edit distance
(Myers 1999) and semi-global passes (Sellers 1980) over the reversed quote
and document, which bound what each window start can reach, keep that
affordable on long documents. The passes that reward each spanned
character take their minimum over skipped document characters within the
longest window's length, by a log-step scan of elementwise minima (Hillis
& Steele 1986).
Mathematical notation inside a quote is treated as a flexible gap because
extraction renders formulas unpredictably.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import time
import unicodedata
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .corpus import CorpusManifest
    from .records import Dataset, ExampleRecord

logger = logging.getLogger(__name__)

_SOFT_HYPHEN = "\u00ad"
# A line-break hyphen after a word character, with the break and the indent.
# Led by the hyphen so that ``re`` searches for a literal. A match is one
# hyphen then whitespace, so the "-" pass neither makes nor breaks a "\u00ad" one.
_DEHYPHEN_RES = tuple(re.compile(rf"{h}(?<=\w{h})[ \t]*\r?\n\s*(?=\w)") for h in ("-", _SOFT_HYPHEN))

# Inline math spans as they appear in model-reported quotes.
_MATH_SPAN_RE = re.compile(r"\$\$.+?\$\$|\$[^$\n]+\$|\\\(.+?\\\)|\\\[.+?\\\]", re.DOTALL)

# A math span may match a document stretch up to this multiple of its length.
_MATH_GAP_FACTOR = 3
# Literal fragments shorter than this carry no evidence and are skipped.
_MIN_SEGMENT_CHARS = 4


def normalize(text: str) -> str:
    """Normalize text for matching.

    Applies, in order: Unicode compatibility normalization (NFKC, which also
    expands the ligatures U+FB00-FB06), removal of line-break hyphens and of
    soft hyphens, NFKC again only if the removals left text outside NFKC (a
    letter joined to a combining mark, or two Hangul jamo), and one collapse
    of whitespace runs to single spaces, trimmed. That equals a collapse after
    each step: ``str.split`` and ``re``'s ``\\s`` take the same characters,
    and every whitespace character NFKC leaves is a starter it never composes.
    Case is preserved; the result is idempotent.

    Two steps take a shorter road to the same string. The first NFKC
    (``_nfkc``) folds each compatibility character into its own NFKC form,
    whose full decomposition is the character's. NFKD decomposes character
    by character and then reorders marks, so the text's NFKD is unchanged
    (UAX #15), and NFKC, the canonical composition of NFKD, is unchanged
    too: when the exact ``is_normalized`` check holds for the folded text,
    that text is the NFKC. That check is skipped when every distinct
    non-ASCII character left is in NFKC by itself, is no combining mark, and
    is not in ``_COMPOSING``. A character outside NFKC by itself has the
    NFKC quick-check property NO; one that may compose with the character
    before it has MAYBE, and is a combining mark or in ``_COMPOSING``. So
    every character of such a text, ASCII included, has YES and combining
    class 0, and the quick check of UAX #15 answers YES: the text is NFKC.
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
    if len(text) != length and not unicodedata.is_normalized("NFKC", text):
        text = unicodedata.normalize("NFKC", text)
    return _collapse_whitespace(text)


#: The 128 ASCII bytes, which ``bytes.translate`` deletes to leave the
#: UTF-8 of the non-ASCII characters; ASCII text is always in NFKC.
_ASCII = bytes(range(128))

#: Texts with more distinct compatibility characters than this skip the fold
#: and go to NFKC at once. Each one folded costs a pass of ``str.replace``
#: over the text. On paper-like texts of 4k and 22k characters (Python 3.11,
#: 2 vCPUs) with fullwidth letters, one per 300 characters, ``_nfkc`` took
#: 0.11-0.18x NFKC's time with one distinct letter and 0.17-0.27x with
#: eight. What a higher limit gains is unmeasured. Each generated benchmark
#: document holds three (U+FB00-FB02); real papers are unmeasured.
_FOLD_MAX_CHARS = 8

#: The fold also needs non-ASCII characters to be rare: at most one per
#: ``_FOLD_SPAN`` characters of text, and at most one distinct one per
#: ``_FOLD_DISTINCT_SPAN``. Collecting the distinct characters costs up to
#: 0.14 us per non-ASCII character and checking each about 0.5 us, where
#: NFKC spends 15 ns or more per character of text.
_FOLD_SPAN = 16
_FOLD_DISTINCT_SPAN = 128

#: The starters (combining class 0) that can complete a canonical
#: composition with the character before them: the second characters of
#: two-character canonical decompositions in Bengali, Oriya, Tamil, Kannada,
#: Malayalam, Sinhala, Tibetan, Myanmar, Balinese, Chakma, Grantha, Tirhuta,
#: Siddham and Dives Akuru, taken over Unicode 13.0-15.1 (Python 3.10-3.13),
#: and the Hangul vowel and trailing consonant jamo.
_COMPOSING = frozenset(
    "\u09be\u09d7\u0b3e\u0b56\u0b57\u0bbe\u0bd7\u0cc2\u0cd5\u0cd6\u0d3e\u0d57\u0dcf\u0ddf"
    "\u0fb5\u0fb7\u102e\u1b35\U00011127\U0001133e\U00011357\U000114b0\U000114ba\U000114bd"
    "\U000115af\U00011930"
    + "".join(map(chr, range(0x1161, 0x1176)))
    + "".join(map(chr, range(0x11A8, 0x11C3)))
)


def _nfkc(text: str) -> str:
    """``unicodedata.normalize("NFKC", text)``, folding compatibility characters first.

    The fold gains only on a text with sparse compatibility characters: at
    most ``_FOLD_MAX_CHARS`` distinct ones, non-ASCII characters no denser
    than ``_FOLD_SPAN`` and ``_FOLD_DISTINCT_SPAN`` allow, and no combining
    mark left once folded. Any other text goes to NFKC at once. With a
    combining mark left, the quick check answers "maybe", and
    ``is_normalized`` normalizes the whole text to compare, which costs what
    NFKC itself does. The folded text is checked with ``is_normalized``
    unless its characters prove it NFKC (see ``normalize``).
    """
    if unicodedata.is_normalized("NFKC", text):
        return text
    rest = text.encode("utf-8", "surrogatepass").translate(None, _ASCII).decode("utf-8", "surrogatepass")
    if len(rest) * _FOLD_SPAN > len(text):
        return unicodedata.normalize("NFKC", text)
    chars = set(rest)
    if len(chars) * _FOLD_DISTINCT_SPAN > len(text):
        return unicodedata.normalize("NFKC", text)
    folds: list[tuple[str, str]] = []
    proven = True
    for ch in chars:
        form = ch
        if unicodedata.normalize("NFKD", ch) != unicodedata.normalize("NFD", ch):
            if len(folds) == _FOLD_MAX_CHARS:
                return unicodedata.normalize("NFKC", text)
            form = unicodedata.normalize("NFKC", ch)
            folds.append((ch, form))
        if any(map(unicodedata.combining, form)):
            return unicodedata.normalize("NFKC", text)
        proven = proven and _COMPOSING.isdisjoint(form) and unicodedata.is_normalized("NFKC", form)
    if not folds:
        return unicodedata.normalize("NFKC", text)
    for old, new in folds:
        text = text.replace(old, new)
    return text if proven or unicodedata.is_normalized("NFKC", text) else unicodedata.normalize("NFKC", text)


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

    ``verify_dataset`` wraps each source document once and passes it to
    ``best_match`` as the document text, which then does not normalize it
    again. Its code points are encoded on the first match that is not an
    exact substring, then kept. Slices are plain strings.
    """

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return _codepoints(self)


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
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.int32)


def _bitmask(flags: np.ndarray) -> int:
    """The int whose bit t is set exactly where ``flags[t]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _bits(x: int, count: int) -> np.ndarray:
    """Bits 0 .. count-1 of ``x`` as a 0/1 int8 array."""
    raw = np.frombuffer(x.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(np.int8)


def _edit_rows(quote: str, text: np.ndarray, pv: int, carry: int, mask: int) -> np.ndarray:
    """Bit-parallel edit-distance DP (Myers, J. ACM 46(3), 1999) of ``quote``
    against ``text``, one quote character per step, one bit per text position.

    Row i of the table holds, at column t + 1, the cost of aligning
    ``quote[:i]`` with text ending at position t. The bits of ``pv`` (and of
    the internal ``mv``) mark the columns where a row rises (falls) by one
    from the previous column; ``pv`` on entry describes row 0. Bits of
    ``carry`` mark the columns whose left neighbour is a column-0 cell,
    which rises by one per quote character; ``mask`` covers every column
    in use. Text codes of -1 match nothing. Returns the last row's steps,
    +1, 0 or -1 per text position.
    """
    count = len(text)
    eq = {c: _bitmask(text == c) for c in set(map(ord, quote))}
    mv = 0
    for ch in quote:
        e = eq[ord(ch)]
        xv = e | mv
        xh = (((e & pv) + pv) ^ pv) | e
        # Complements are taken against ``mask``: CPython's bitwise
        # operations on negative ints are several times slower.
        ph = mv | (mask ^ (xh | pv))
        mh = ((pv & xh) << 1) & mask
        ph = ((ph << 1) | carry) & mask
        pv = mh | (mask ^ (xv | ph))
        mv = ph & xv
    return _bits(pv, count) - _bits(mv, count)


def _best_end_distances(quote: str, codes: np.ndarray) -> np.ndarray:
    """``D[e] = min_s editdistance(quote, doc[s:e])`` for ``e`` in ``0..len(doc)``.

    Sellers' semi-global distance (J. Algorithms 1(4), 1980): row 0 is all
    zeros, so an alignment may start anywhere in the document.
    """
    steps = _edit_rows(quote, codes, 0, 1, (1 << len(codes)) - 1)
    dist = np.empty(len(codes) + 1, dtype=np.int32)
    dist[0] = len(quote)
    np.cumsum(steps, out=dist[1:])
    dist[1:] += len(quote)
    return dist


def _rewarded_end_costs(quote: str, codes: np.ndarray, num: int, den: int, max_len: int) -> np.ndarray:
    """A lower bound, for every end ``e``, on ``den * [editdistance(quote, w) - (num/den) * |w|]``
    over the windows ``w = doc[s:e]`` with ``|w| <= max_len``.

    Sellers' pass where each document character a window spans earns
    ``num/den``; scaling by ``den`` keeps the arithmetic in integers. Row i
    is stored as its cost minus ``den - num`` per column and minus
    ``i * den``, which makes the vertical moves (quote characters left out)
    free and the horizontal moves (document characters left out) a minimum
    over the row to the left.

    That minimum reaches back a bounded number of columns, not the whole
    row: a log-step prefix scan (Hillis & Steele, CACM 29(12), 1986) with
    shifts 1, 2, 4, ..., ``2**k``, the largest power of two no greater than
    ``min(max_len, n)``, reaches back ``2**(k+1) - 1`` columns, at least
    ``max_len`` or the whole row, in k + 1 elementwise minima. No run of
    characters left out of a window of at most ``max_len`` characters is
    longer, so every alignment with such a window is still a path of the
    pass, and the value at ``e`` is at most its cost. Only alignments with
    longer windows can be lost, so each value is at least the plain running
    minimum's, and equal to it when the reach spans the whole row. Every
    value the pass computes is the cost of a path, so it lies in
    ``[-den * (n + m), 0]``, which picks the dtype.
    """
    n, m = len(codes), len(quote)
    dtype = np.int32 if den * (n + m) < 2**31 else np.int64
    shifts = [1 << k for k in range(max(1, min(max_len, n)).bit_length())]
    # Column e lives at index pad + e of two buffers that take turns as
    # input and output. The pad holds the dtype's maximum, which no minimum
    # picks, so each shift is one ufunc call over whole buffers.
    pad = shifts[-1]
    found = {ch: np.flatnonzero(codes == ord(ch)) + (pad + 1) for ch in set(quote)}
    prev = np.full(pad + n + 1, np.iinfo(dtype).max, dtype=dtype)
    cur = prev.copy()
    prev[pad:] = (num - den) * np.arange(n + 1, dtype=dtype)
    cur[pad] = 0
    for ch in quote:
        # Stored, a diagonal move earns den, and den more on a match; a
        # vertical move keeps the value above.
        np.subtract(prev[pad:-1], den, out=cur[pad + 1 :])
        cur[found[ch]] -= den
        np.minimum(cur[pad:], prev[pad:], out=cur[pad:])
        for s in shifts:
            np.minimum(cur[s:], cur[:-s], out=prev[s:])
            prev, cur = cur, prev
        prev, cur = cur, prev
    return prev[pad:] + ((den - num) * np.arange(n + 1, dtype=dtype) + m * den)


def _window_scores(
    quote: str,
    doc_codes: np.ndarray,
    starts: np.ndarray,
    min_len: int,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best normalized similarity at each window start.

    For each start s, computes edit distances of the quote against every
    prefix d[s:s+j] and returns the best similarity
    1 - dist/max(|quote|, j) over window lengths j in [min_len, max_len],
    along with the shortest window length that achieves it. All starts run
    through one bit-parallel DP, each in its own slot of ``width + 1`` bits;
    the spare top bit of each slot is never set, so the DP's additions
    cannot carry from one window into the next.
    """
    m = len(quote)
    n = len(doc_codes)
    width = min(max_len, n)
    n_starts = len(starts)

    idx = starts.reshape(-1, 1) + np.arange(width + 1)
    windows = np.where(idx < n, doc_codes[np.minimum(idx, n - 1)], -1)
    windows[:, width] = -1
    slot = np.ones(width + 1, dtype=bool)
    slot[width] = False
    first = np.zeros(width + 1, dtype=bool)
    first[0] = True
    mask = _bitmask(np.tile(slot, n_starts))
    steps = _edit_rows(quote, windows.ravel(), mask, _bitmask(np.tile(first, n_starts)), mask)

    dist = np.empty((n_starts, width + 1), dtype=np.int32)
    dist[:, 0] = m
    np.cumsum(steps.reshape(n_starts, width + 1)[:, :width], axis=1, out=dist[:, 1:])
    dist[:, 1:] += m

    lengths = np.arange(width + 1, dtype=np.int64)
    sims = 1.0 - dist / np.maximum(m, lengths)

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


class _StartBounds:
    """Upper bounds on the similarity of every window starting at each position.

    Built from semi-global passes over the reversed quote and document, in
    which a window starting at s is one ending at len(doc) - s. ``short_lb``
    bounds the edit distance of windows no longer than the quote (whose
    score divides by |quote|); ``long_ub`` bounds the similarity of longer
    windows directly. Both are indexed by position in the reversed document.
    """

    def __init__(self, quote: str, codes: np.ndarray, min_len: int, max_len: int) -> None:
        self.quote, self.codes = quote[::-1], codes[::-1].copy()
        self.m, self.min_len, self.max_len = len(quote), min_len, max_len
        dist = _best_end_distances(self.quote, self.codes).astype(np.float64)
        self.short_lb = dist
        # A window of length j > |q| has distance >= max(D, j - |q|), so its
        # similarity 1 - max(D, j - |q|)/j peaks where those two meet.
        j = np.clip(self.m + dist, self.m + 1, max_len)
        self.long_ub = 1.0 - np.maximum(dist, j - self.m) / j

    def reward(self, num: int, den: int) -> None:
        """Tighten with the pass rewarding each spanned character by r = num/den.

        Every window of length j <= max_len has distance >= G + r*j, where G
        is that pass's value: so short windows have distance >= G + r*min_len,
        and long windows similarity <= 1 - r - G/j. The pass drops only the
        alignments of windows longer than max_len, which no start is scored
        on, so G is at least the value over all windows: the bounds stay
        valid and only fall.
        """
        r = num / den
        g = _rewarded_end_costs(self.quote, self.codes, num, den, self.max_len) / den
        np.maximum(self.short_lb, g + r * self.min_len, out=self.short_lb)
        # -G/j is largest at the longest window if G >= 0, else the shortest.
        j = np.where(g >= 0, self.max_len, self.m + 1)
        np.minimum(self.long_ub, 1.0 - r - g / j, out=self.long_ub)

    def bound(self) -> np.ndarray:
        """The bound at each start 0 .. len(doc) - min_len."""
        by_end = np.maximum(1.0 - self.short_lb / self.m, self.long_ub)
        return by_end[::-1][: len(self.codes) - self.min_len + 1]


#: Starts scored first, highest bound first. A document with no more
#: starts than this has every start scored and no bounding pass.
_PROBE_STARTS = 32
#: Upper limit on the bits one ``_window_scores`` call packs.
_BLOCK_BITS = 1 << 18
#: A rewarded pass runs only while more than this many times
#: len(doc) / max_len starts are left to score. On a 20k-character document
#: one pass costs as much as scoring 4 (100-character quote) to 8 (600)
#: times that many starts, but it also prunes every later round: 1 and 2
#: choose the same passes on the benchmark's fixed inputs and on two
#: quote-audit corpora, and 3 or 4 skip a pass there only to score 2.6x
#: the starts in no less time (Python 3.11, numpy 2.4, 2 vCPUs).
_PASS_COST = 2
#: Slack for float rounding when a bound is compared with a similarity.
_TOL = 1e-9


def _match_pruned(quote: str, codes: np.ndarray, min_len: int, max_len: int) -> tuple[float, int, int]:
    """The exact best window, scoring only starts whose bound can still win.

    Each start's bound comes from ``_StartBounds`` alone. A start is scored
    only while that bound is at least the best similarity found so far, so
    the first-best start of a full scan is always among those scored.
    """
    m, n = len(quote), len(codes)
    n_starts = n - min_len + 1
    starts = _StartBounds(quote, codes, min_len, max_len)
    bound = starts.bound()

    sims = np.full(n_starts, -1.0)
    lens = np.zeros(n_starts, dtype=np.int64)
    done = np.zeros(n_starts, dtype=bool)

    def score(live: np.ndarray, count: int) -> None:
        """Score the ``count`` live starts with the highest bounds."""
        if live.size > count:
            live = live[np.argpartition(-bound[live], count - 1)[:count]]
        live = np.sort(live)
        sims[live], lens[live] = _window_scores(quote, codes, live, min_len, max_len)
        done[live] = True

    score(np.arange(n_starts), _PROBE_STARTS)
    block = max(1, _BLOCK_BITS // (min(max_len, n) + 1))
    pass_starts = _PASS_COST * n // max_len
    # One rewarded pass per fall of the reward. The reward falls only when
    # the best rises, so the passes end.
    reward = 2.0
    while True:
        top = int(np.argmax(sims))
        best = sims[top]
        live = np.flatnonzero(~done & (bound >= best - _TOL))
        if not live.size:
            break
        if live.size > pass_starts:
            # Reward each spanned character by exactly 1 - best: a window
            # longer than the quote can beat the best only where that pass
            # is negative.
            den = max(m, int(lens[top]))
            num = round((1.0 - best) * den)
            if num / den < reward:
                reward = num / den
                starts.reward(num, den)
                bound = starts.bound()
                continue
        score(live, block)

    s = int(np.argmax(sims))
    return float(sims[s]), s, s + int(lens[s])


def _match_literal(quote: str, doc: str) -> tuple[float, int, int]:
    """Best window match of a literal (math-free) quote in a document.

    Returns (similarity, span_start, span_end) over the normalized document:
    exactly what scoring every window of 0.8x to 1.2x the quote length at
    every start would return, ties going to the earliest start and then the
    shortest window. Windows shorter than 0.8x count only when the whole
    document is that short. A long document is searched by ``_match_pruned``.
    """
    if not doc:
        return 0.0, 0, 0
    idx = doc.find(quote)
    if idx >= 0:
        return 1.0, idx, idx + len(quote)

    m = len(quote)
    min_len = max(1, math.floor(0.8 * m))
    max_len = max(1, math.ceil(1.2 * m))
    doc_codes = doc.codes if isinstance(doc, _NormalizedDoc) else _codepoints(doc)
    n = len(doc_codes)
    if n - min_len + 1 > _PROBE_STARTS:
        return _match_pruned(quote, doc_codes, min_len, max_len)
    starts = np.arange(max(0, n - min_len) + 1, dtype=np.int64)
    sims, ends = _window_scores(quote, doc_codes, starts, min_len, max_len)
    best = int(np.argmax(sims))
    return float(sims[best]), best, best + int(ends[best])


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
    Otherwise the similarity is the best over windows of
    floor(0.8 |q|) to ceil(1.2 |q|) characters of the document:
    1 - edit_distance / max(window length, quote length). It is exact:
    the value a check of every window at every start gives. Among equally
    good windows the span is the earliest-starting, then the shortest.
    Shorter windows count only when the whole document is shorter than
    floor(0.8 |q|); it is then scored as one window.
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
    d = doc_text if isinstance(doc_text, _NormalizedDoc) else normalize(doc_text)
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
    additionally listed for human review. Each source document is read,
    normalized and encoded once, then ``best_match`` runs once per quoted
    record, in dataset order.
    """
    from .corpus import load_text
    from .records import Dataset

    started = time.perf_counter()
    refs = {ref.doc_id: ref for ref in manifest.documents}
    docs: dict[str, _NormalizedDoc] = {}
    for record in ds.records:
        doc_id = record.source_doc_id
        if record.quote and doc_id in refs and doc_id not in docs:
            # load_text returns normalize's output already.
            docs[doc_id] = _NormalizedDoc(load_text(refs[doc_id]))

    summary = VerificationSummary()
    annotated: list["ExampleRecord"] = []
    perfect = 0
    for record in ds.records:
        if not record.quote:
            summary.no_quote += 1
            annotated.append(record)
            continue
        doc = docs.get(record.source_doc_id)
        if doc is None:
            summary.skipped += 1
            summary.skipped_doc_ids.append(record.source_doc_id)
            annotated.append(record)
            continue
        result = best_match(record.quote, doc, threshold)
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

    quoted = summary.verified + summary.unverified
    logger.info(
        "verify: %d quoted records against %d documents, %d at similarity 1.0, "
        "%d below, %d skipped, %.2f s",
        quoted, len(docs), perfect, quoted - perfect, summary.skipped, time.perf_counter() - started,
    )
    annotated_ds = Dataset(
        records=annotated,
        source_manifest_hash=ds.source_manifest_hash,
        filter_pass_count=ds.filter_pass_count,
    )
    return annotated_ds, summary
