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
    document's quotes, which then does not normalize it again. Every
    segment of a quote is matched on a range of it, by offsets, never on a
    slice. Its code points are encoded on the first match that is not an
    exact substring and kept for the document's later quotes; both go when
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


def _bitmask(flags: np.ndarray) -> int:
    """The int whose bit t is set exactly where ``flags[t]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _occurrences(codes: np.ndarray, c: int) -> np.ndarray:
    """The positions where ``codes`` holds c, in no set order.

    Compared in reverse and mapped back: the matcher passes reversed views
    (``_StartBounds``), so numpy's loops run in memory order, several times faster.
    """
    return len(codes) - 1 - np.flatnonzero(codes[::-1] == c)


def _occurrence_mask(codes: np.ndarray, c: int) -> int:
    """The int whose bit t is set exactly where ``codes[t] == c``.

    ``codes`` is compared in reverse and packed most significant bit
    first, as ``_occurrences`` does.
    """
    packed = np.packbits(codes[::-1] == c, bitorder="big").tobytes()
    return int.from_bytes(packed, "big") >> (-len(codes) % 8)


def _bits(x: int, count: int) -> np.ndarray:
    """Bits 0 .. count-1 of ``x`` as a 0/1 int8 array."""
    raw = np.frombuffer(x.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(np.int8)


def _edit_rows(quote: str, eq: dict[int, int], count: int, pv: int, carry: int, mask: int) -> np.ndarray:
    """Bit-parallel edit-distance DP (Myers, J. ACM 46(3), 1999) of ``quote``
    against a text of ``count`` positions, one quote character per step, one
    bit per text position.

    Bit t of ``eq[c]`` is set where text position t holds code point c; a
    position set in no mask matches nothing. Row i of the table holds, at
    column t + 1, the cost of aligning ``quote[:i]`` with text ending at
    position t. The bits of ``pv`` (and of the internal ``mv``) mark the
    columns where a row rises (falls) by one from the previous column;
    ``pv`` on entry describes row 0. Bits of ``carry`` mark the columns
    whose left neighbour is a column-0 cell, which rises by one per quote
    character; ``mask`` covers every column in use. Returns the last row's
    steps, +1, 0 or -1 per text position. ``eq`` is emptied before the steps
    are unpacked, so its masks are not held beside them.
    """
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
    eq.clear()
    steps = _bits(pv, count)
    steps -= _bits(mv, count)
    return steps


def _best_end_distances(quote: str, codes: np.ndarray) -> np.ndarray:
    """``D[e] = min_s editdistance(quote, doc[s:e])`` for ``e`` in ``0..len(doc)``.

    Sellers' semi-global distance (J. Algorithms 1(4), 1980): row 0 is all
    zeros, so an alignment may start anywhere in the document.
    """
    eq = {c: _occurrence_mask(codes, c) for c in set(map(ord, quote))}
    steps = _edit_rows(quote, eq, len(codes), 0, 1, (1 << len(codes)) - 1)
    dist = np.empty(len(codes) + 1, dtype=np.int32)
    dist[0] = len(quote)
    dist[1:] = steps
    del steps
    # In place: a cumsum that casts the int8 steps would make an int32 copy.
    return np.cumsum(dist, out=dist)


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

    The pass holds two rows, the second returned as the costs, and the
    int32 positions of the quote's characters in the document, each
    character's widened to intp only for the row that reads it: up to 12
    bytes per document character when the rows are int32.
    """
    n, m = len(codes), len(quote)
    dtype = np.int32 if den * (n + m) < 2**31 else np.int64
    shifts = [1 << k for k in range(max(1, min(max_len, n)).bit_length())]
    # Column e lives at index pad + e of two buffers that take turns as
    # input and output. The pad holds the dtype's maximum, which no minimum
    # picks, so each shift is one ufunc call over whole buffers.
    pad = shifts[-1]
    found = {}
    for ch in set(quote):
        found[ch] = _occurrences(codes, ord(ch)).astype(np.int32)
        found[ch] += pad + 1
    prev = np.full(pad + n + 1, np.iinfo(dtype).max, dtype=dtype)
    cur = prev.copy()
    _ramp(prev[pad:], 0, num - den)
    cur[pad] = 0
    for ch in quote:
        # Stored, a diagonal move earns den, and den more on a match; a
        # vertical move keeps the value above.
        np.subtract(prev[pad:-1], den, out=cur[pad + 1 :])
        cur[found[ch].astype(np.intp)] -= den
        np.minimum(cur[pad:], prev[pad:], out=cur[pad:])
        for s in shifts:
            np.minimum(cur[s:], cur[:-s], out=prev[s:])
            prev, cur = cur, prev
        prev, cur = cur, prev
    costs = _ramp(cur[pad:], m * den, den - num)
    costs += prev[pad:]
    return costs


def _ramp(out: np.ndarray, first: int, step: int) -> np.ndarray:
    """Fill ``out`` with ``first + step * e`` at index ``e``, in place, and return it.

    A running sum of integers, so each value is exact wherever ``out``'s
    dtype holds every partial sum.
    """
    out.fill(step)
    out[0] = first
    return np.cumsum(out, dtype=out.dtype, out=out)


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

    Each quote character's mask is gathered from a sliding-window view of
    one bool buffer over the stretch of the document the starts cover,
    which marks where the character occurs and is False past the
    document's end, so no copy of the code points is made. A call holds
    that buffer, 1 byte per covered document character, and per packed
    bit the masks (about 1/7.5 byte per distinct quote character), then
    the DP's int8 steps and the distances (int16, or int32 for quotes of
    about 15,000 characters or more). Windows are gathered ``_GATHER_BITS``
    bits at a time and similarities made a band of columns at a time, so
    neither step holds more than about 1 byte per bit. With a 600-character
    quote of 21 distinct characters the peak is 4.4 bytes per bit. Each
    array is released once read.
    """
    m = len(quote)
    n = len(doc_codes)
    width = min(max_len, n)
    n_starts = len(starts)
    count = n_starts * (width + 1)

    slot = np.ones(width + 1, dtype=bool)
    slot[width] = False
    first = np.zeros(width + 1, dtype=bool)
    first[0] = True
    mask = _bitmask(np.tile(slot, n_starts))
    carry = _bitmask(np.tile(first, n_starts))

    lo = int(starts.min())
    offsets = starts - lo
    covered = doc_codes[lo : int(starts.max()) + width]
    hits = np.zeros(int(starts.max()) - lo + width + 1, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(hits, width + 1)
    # Rows gathered at a time, a multiple of 8 so that each fills whole bytes.
    step = max(8, _GATHER_BITS // (width + 1) // 8 * 8)
    eq = {}
    for c in set(map(ord, quote)):
        np.equal(covered, c, out=hits[: len(covered)])
        packed = []
        for i in range(0, n_starts, step):
            gathered = windows[offsets[i : i + step]]
            gathered[:, width] = False
            packed.append(np.packbits(gathered, bitorder="little").tobytes())
        eq[c] = int.from_bytes(b"".join(packed), "little")
    del covered, hits, windows, gathered, packed
    steps = _edit_rows(quote, eq, count, mask, carry, mask)

    # Distances reach at most m + width.
    dist = np.empty((n_starts, width + 1), dtype=np.int16 if m + width < 2**15 else np.int32)
    dist[:, 0] = m
    dist[:, 1:] = steps.reshape(n_starts, width + 1)[:, :width]
    del steps
    np.cumsum(dist, axis=1, out=dist)

    # Window lengths outside [min_len, max_len] or past the document end
    # are skipped; when the remaining document is shorter than min_len the
    # longest available prefix is still allowed. A band of columns at a
    # time, a later one replacing the best only where it is strictly
    # better, takes the first best column, as an argmax over all would.
    remaining = (n - starts).reshape(-1, 1)
    shortest = np.minimum(min_len, remaining)
    best_sim = np.full(n_starts, -1.0)
    best_j = np.zeros(n_starts, dtype=np.intp)
    rows = np.arange(n_starts)
    # A band's float64 similarities take about 1 byte per packed bit, or
    # _GATHER_BITS bytes when there are few starts.
    band = max(1, (width + 1) // 8, _GATHER_BITS // 8 // n_starts)
    for a in range(max(1, int(shortest.min())), width + 1, band):
        lengths = np.arange(a, min(a + band, width + 1), dtype=np.int64)
        sims = dist[:, a : a + band].astype(np.float64)
        np.divide(sims, np.maximum(m, lengths), out=sims)
        np.subtract(1.0, sims, out=sims)
        sims[(lengths < shortest) | (lengths > remaining)] = -1.0
        j = np.argmax(sims, axis=1)
        top = sims[rows, j]
        better = top > best_sim
        best_sim[better] = top[better]
        best_j[better] = j[better] + a
    return best_sim, best_j


def _rounded_up(x: np.ndarray) -> np.ndarray:
    """``x`` as float32, each value no smaller than the one it stands for."""
    out = x.astype(np.float32)
    return np.nextafter(out, np.float32(np.inf), out=out)


def _f32_below(x: float) -> np.float32:
    """The largest float32 no greater than ``x``."""
    out = np.float32(x)
    return out if float(out) <= x else np.nextafter(out, np.float32(-np.inf))


#: Bits of windows ``_window_scores`` gathers into one bool array at once.
_GATHER_BITS = 1 << 16
#: Starts whose bounds one step of a scan over every start reads at once.
_CHUNK = 1 << 13


def _chunks(count: int) -> list[slice]:
    """Slices of at most ``_CHUNK`` that cover ``range(count)`` in order."""
    return [slice(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]


class _StartBounds:
    """Upper bounds on the similarity of every window starting at each position.

    Built from semi-global passes over the reversed quote and document, the
    document read through a reversed view, in which a window starting at s
    is one ending at len(doc) - s. ``short`` bounds from below the edit
    distance of every window, which bounds the similarity of windows no
    longer than the quote (whose score divides by |quote|); ``long`` bounds
    the similarity of longer windows directly. Both are kept in start
    order, for starts 0 .. len(doc) - min_len.

    Edit distances are integers, so ``short`` holds each bound rounded up to
    one, as int32; ``long`` holds each bound rounded up to a float32. That
    is 8 bytes per document character. Float64 bounds are made only a chunk
    of ``_CHUNK`` starts at a time, or for the starts ``bound`` is asked for.
    While ``reward`` runs, the pass (``_rewarded_end_costs``) adds up to 12
    bytes per document character; its costs are turned into bounds a chunk
    at a time.
    """

    def __init__(self, quote: str, codes: np.ndarray, min_len: int, max_len: int) -> None:
        self.quote, self.codes = quote[::-1], codes[::-1]
        self.m, self.min_len, self.max_len = len(quote), min_len, max_len
        # Index e of a pass over the reversed document is start len(doc) - e.
        self.short = _best_end_distances(self.quote, self.codes)[::-1][: len(codes) - min_len + 1].copy()
        # A window of length j > |q| has distance >= max(D, j - |q|), so its
        # similarity 1 - max(D, j - |q|)/j peaks where those two meet. That
        # depends on D alone, which the empty window holds to at most |q|.
        dist = np.arange(self.m + 1, dtype=np.float64)
        j = np.clip(self.m + dist, self.m + 1, max_len)
        self.long = _rounded_up(1.0 - np.maximum(dist, j - self.m) / j)[self.short]

    def reward(self, num: int, den: int) -> None:
        """Tighten with the pass rewarding each spanned character by r = num/den.

        Every window of length j <= max_len has distance >= G + r*j, where G
        is that pass's value: so short windows have distance >= G + r*min_len,
        and long windows similarity <= 1 - r - G/j. The pass drops only the
        alignments of windows longer than max_len, which no start is scored
        on, so G is at least the value over all windows: the bounds stay
        valid and only fall.
        """
        costs = _rewarded_end_costs(self.quote, self.codes, num, den, self.max_len)[::-1]
        for part in _chunks(len(self.short)):
            g = costs[part]  # den * G
            # The distance bound (den*G + num*min_len) / den, rounded up.
            np.maximum(self.short[part], -((-num * self.min_len - g) // den), out=self.short[part])
            # -G/j is largest at the longest window if G >= 0, else the shortest.
            j = np.where(g >= 0, self.max_len, self.m + 1)
            np.minimum(self.long[part], _rounded_up(1.0 - num / den - g / (den * j)), out=self.long[part])

    def bound(self, starts: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The float64 bound at ``starts``, every start by default."""
        by_start = self.short[starts] / self.m
        np.subtract(1.0, by_start, out=by_start)
        return np.maximum(by_start, self.long[starts], out=by_start)

    def live(self, part: slice, sim: float) -> np.ndarray:
        """Whether the bound at each start of ``part`` is at least ``sim - _TOL``,
        read from the stored bounds without making the float64 one."""
        alive = self.short[part] <= math.floor((1.0 - sim + _TOL) * self.m)
        alive |= self.long[part] >= _f32_below(sim - _TOL)
        return alive


#: Starts scored first, highest bound first. The probe round scores every
#: start of a range with no more starts than this, and no rewarded pass runs.
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

    Besides ``_StartBounds``, a call holds one bool per start for the
    starts scored; the best (similarity, start, length) is kept as each
    block's scores arrive. The starts to score next, the highest bounds
    first, are picked a chunk of ``_CHUNK`` starts at a time, from the
    stored bounds, so a call on a long document peaks in a rewarded pass:
    8 bytes of bounds, 1 of ``pending`` and 12 of the pass per document
    character, measured at 22.8 with a 600-character quote.
    """
    m, n = len(quote), len(codes)
    bounds = _StartBounds(quote, codes, min_len, max_len)
    pending = np.ones(len(bounds.short), dtype=bool)
    chunks = _chunks(len(pending))
    best = (-1.0, 0, 0)  # similarity, start, window length

    def score(live: np.ndarray) -> None:
        nonlocal best
        live = np.sort(live)
        sims, lens = _window_scores(quote, codes, live, min_len, max_len)
        pending[live] = False
        k = int(np.argmax(sims))
        # Ties go to the earliest start, as an argmax over every start would.
        if sims[k] > best[0] or (sims[k] == best[0] and live[k] < best[1]):
            best = float(sims[k]), int(live[k]), int(lens[k])

    def candidates(part: slice) -> np.ndarray:
        """Whether each start of ``part`` is still to score and can still reach the best."""
        alive = bounds.live(part, best[0])
        alive &= pending[part]
        return alive

    def pick(limit: int) -> np.ndarray:
        """The candidate starts, or the ``limit`` of them with the highest bounds."""
        picked = np.empty(0, dtype=np.intp)
        for part in chunks:
            picked = np.concatenate((picked, np.flatnonzero(candidates(part)) + part.start))
            if len(picked) > limit:
                picked = picked[np.argpartition(-bounds.bound(picked), limit - 1)[:limit]]
        return picked

    score(pick(_PROBE_STARTS))
    block = max(1, _BLOCK_BITS // (min(max_len, n) + 1))
    pass_starts = _PASS_COST * n // max_len
    # One rewarded pass per fall of the reward. The reward falls only when
    # the best rises, so the passes end.
    reward = 2.0
    while count := sum(int(np.count_nonzero(candidates(part))) for part in chunks):
        if count > pass_starts:
            # Reward each spanned character by exactly 1 - best: a window
            # longer than the quote can beat the best only where that pass
            # is negative.
            sim, _, length = best
            den = max(m, length)
            num = round((1.0 - sim) * den)
            if num / den < reward:
                reward = num / den
                bounds.reward(num, den)
                continue
        score(pick(block))

    sim, s, length = best
    return sim, s, s + length


def _match_literal(quote: str, doc: _NormalizedDoc, lo: int = 0, hi: int | None = None) -> tuple[float, int, int]:
    """Best window match of a literal (math-free) quote in ``doc[lo:hi]``.

    Returns (similarity, span_start, span_end), offsets into ``doc``:
    exactly what scoring every window of 0.8x to 1.2x the quote length at
    every start of the range would return, ties going to the earliest start
    and then the shortest window. Windows shorter than 0.8x count only when
    the whole range is that short. Every range without an exact occurrence
    is searched by ``_match_pruned``.
    """
    hi = len(doc) if hi is None else hi
    if lo == hi:
        return 0.0, lo, lo
    idx = doc.find(quote, lo, hi)
    if idx >= 0:
        return 1.0, idx, idx + len(quote)

    m = len(quote)
    min_len = max(1, math.floor(0.8 * m))
    max_len = max(1, math.ceil(1.2 * m))
    codes = doc.codes[lo:hi]
    # A range shorter than min_len has one start, scored over its whole length.
    sim, start, end = _match_pruned(quote, codes, min(min_len, len(codes)), max_len)
    return sim, lo + start, lo + end


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

    Both inputs are normalized first; a ``_NormalizedDoc`` is taken as it
    is, and raw text is wrapped in one once. An exact substring scores 1.0.
    Otherwise the similarity is the best over windows of
    floor(0.8 |q|) to ceil(1.2 |q|) characters of the document:
    1 - edit_distance / max(window length, quote length). It is exact:
    the value a check of every window at every start gives. Among equally
    good windows the span is the earliest-starting, then the shortest.
    Shorter windows count only when the whole document is shorter than
    floor(0.8 |q|); it is then scored as one window.

    A quote containing inline math is scored by a procedure, not a
    definition. Its math spans split it into literals; one shorter than
    ``_MIN_SEGMENT_CHARS`` adds its length to the gap before it. The
    longest literal, the earliest on ties, is matched on the whole
    document by the rule above; each other one, walking forward from it
    and then backward, on the range reaching ``_MATH_GAP_FACTOR * gap + 8
    + ceil(1.2 |literal|)`` characters from the previous match. The
    similarity is the length-weighted mean, and the span runs from the
    first to the last literal that scored above 0.

    Span offsets refer to the normalized document text.
    """
    if not quote:
        raise ValueError("quote must be non-empty")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    q = normalize(quote)
    d = doc_text if isinstance(doc_text, _NormalizedDoc) else _NormalizedDoc(normalize(doc_text))
    if not q:
        return VerificationResult(matched=False, similarity=0.0, threshold_used=threshold)

    segments = _split_math(q)
    if len(segments) == 1:
        return _result(*_match_literal(q, d), threshold)

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

    anchor = max(range(len(usable)), key=lambda i: len(usable[i][0]))
    lit = usable[anchor][0]
    sim, *span = _match_literal(lit, d)
    weighted, total = sim * len(lit), len(lit)
    # Walk forward from the anchor, then backward. Each literal is matched
    # within reach of the span's edge on its side, across the gap between
    # it and its neighbour towards the anchor; a match above 0 moves that edge.
    for step, side in ((1, 1), (-1, 0)):
        for i in range(anchor + step, len(usable) if step > 0 else -1, step):
            lit, gap = usable[i][0], usable[min(i, i - step)][1]
            reach = _MATH_GAP_FACTOR * gap + 8 + math.ceil(1.2 * len(lit))
            lo, hi = sorted((span[side], span[side] + step * reach))
            sim, *found = _match_literal(lit, d, max(lo, 0), min(hi, len(d)))
            weighted += sim * len(lit)
            total += len(lit)
            if sim > 0:
                span[side] = found[side]

    return _result(weighted / total, *span, threshold)


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
