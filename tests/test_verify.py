"""Normalization and quote-matching tests, checked against an independent
brute-force oracle where the spec pins one."""

import logging
import math
import random
import re
import sys
import types
import unicodedata

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from paperlens import corpus, verify
from paperlens.corpus import CorpusManifest, DocumentRef
from paperlens.records import Dataset, ExampleRecord
from paperlens.verify import VerificationResult, _StartBounds, best_match, normalize, verify_dataset

# --- independent oracle ------------------------------------------------------


def reference_levenshtein(a: str, b: str) -> int:
    """Plain DP edit distance, independent of the production matcher."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        cur = [i + 1]
        for j, cb in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (ca != cb)))
        prev = cur
    return prev[-1]


def codepoints(text: str) -> np.ndarray:
    """The int32 code points the matcher reads, as ``_NormalizedDoc`` encodes them."""
    return verify._NormalizedDoc(text).codes


def oracle_similarity(quote: str, doc: str) -> float:
    """Exhaustive best window similarity per the matching definition."""
    return exhaustive_best_window(quote, doc)[0]


def exhaustive_best_window(quote: str, doc: str) -> tuple[float, int, int]:
    """(similarity, start, end) of the first best window of a stride-1 scan.

    Starts run over 0 .. len(doc) - floor(0.8 |q|) in order and lengths over
    floor(0.8 |q|) .. ceil(1.2 |q|) shortest first; only a document shorter
    than the shortest window is taken whole. A later window replaces the
    best only when strictly better. The edit-distance table is filled cell
    by cell, each cell for all starts at once.
    """
    q, d = normalize(quote), normalize(doc)
    if q in d:
        return 1.0, d.index(q), d.index(q) + len(q)
    m, n = len(q), len(d)
    lo = max(1, math.floor(0.8 * m))
    hi = max(1, math.ceil(1.2 * m))
    starts, row = exhaustive_distance_table(q, d)
    best = (-1.0, 0, 0)
    for k, s in enumerate(starts):
        remaining = n - s
        for length in range(min(lo, remaining), min(hi, remaining) + 1):
            sim = 1.0 - int(row[length][k]) / max(m, length)
            if sim > best[0]:
                best = (sim, int(s), int(s) + length)
    return best


def exhaustive_distance_table(q: str, d: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Window starts 0 .. len(d) - floor(0.8 |q|) and the table ``row``, where
    ``row[j][k]`` is the edit distance of ``q`` against ``d[k : k + j]`` for
    ``j`` up to ``min(ceil(1.2 |q|), len(d))``; past the end of ``d`` the
    window matches nothing. Filled cell by cell, each cell for all starts.
    """
    lo = max(1, math.floor(0.8 * len(q)))
    hi = max(1, math.ceil(1.2 * len(q)))
    starts = np.arange(max(0, len(d) - lo) + 1)
    width = min(hi, len(d))
    codes = np.array([ord(c) for c in d] + [-1] * width)
    windows = [codes[starts + j] for j in range(width)]
    row = [np.full(len(starts), j) for j in range(width + 1)]  # dist(q[:0], window[:j])
    for i, ch in enumerate(q, start=1):
        new = [np.full(len(starts), i)]
        for j in range(1, width + 1):
            new.append(np.minimum(np.minimum(row[j] + 1, new[j - 1] + 1),
                                  row[j - 1] + (windows[j - 1] != ord(ch))))
        row = new
    return starts, row


_REFERENCE_DEHYPHEN_RE = re.compile(r"(?<=\w)[-\u00ad][ \t]*\r?\n\s*(?=\w)")
_REFERENCE_WS_RE = re.compile(r"\s+")


def reference_normalize(text: str) -> str:
    """Normalization one step at a time, whitespace collapsed after each.

    ``normalize`` folds these passes together and must return the same
    string for every input.
    """
    text = unicodedata.normalize("NFKC", text)
    text = _REFERENCE_DEHYPHEN_RE.sub("", text)
    text = _REFERENCE_WS_RE.sub(" ", text)
    text = text.replace("\u00ad", "")
    text = unicodedata.normalize("NFKC", text)
    text = _REFERENCE_WS_RE.sub(" ", text)
    return text.strip()


def reference_start_bound(
    quote: str, codes: np.ndarray, min_len: int, max_len: int, reward: tuple[int, int] | None = None
) -> np.ndarray:
    """``_StartBounds(quote, codes, min_len, max_len).bound()``, after
    ``reward(*reward)`` when given, with a fresh array for every expression.

    The distance bound is held as an integer, rounded up with Python
    integers; the long-window bound as a float32, rounded to the nearest
    and then one step up. ``_StartBounds`` stores both that way, so its
    bounds must equal these bit for bit.
    """
    q, c, m = quote[::-1], codes[::-1].copy(), len(quote)
    short = verify._best_end_distances(q, c).astype(np.int64)
    j = np.clip(m + short, m + 1, max_len)
    long = float32_up(1.0 - np.maximum(short, j - m) / j)
    if reward is not None:
        num, den = reward
        g = verify._rewarded_end_costs(q, c, num, den, max_len).astype(np.int64)
        ceiling = np.array([-(-(int(x) + num * min_len) // den) for x in g])
        short = np.maximum(short, ceiling)
        j = np.where(g >= 0, max_len, m + 1)
        long = np.minimum(long, float32_up((1.0 - num / den) - g / (den * j)))
    by_end = np.maximum(1.0 - short / m, long.astype(np.float64))
    return by_end[::-1][: len(c) - min_len + 1]


def float32_up(x: np.ndarray) -> np.ndarray:
    """Each value as the float32 one step above its nearest float32."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


def reference_window_scores(
    quote: str, doc_codes: np.ndarray, starts: np.ndarray, min_len: int, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_window_scores`` with its windows gathered through two int64 index
    matrices and a fresh array for every expression; it must return the
    same arrays bit for bit.
    """
    m, n = len(quote), len(doc_codes)
    width = min(max_len, n)
    n_starts = len(starts)
    idx = starts.reshape(-1, 1) + np.arange(width + 1)
    windows = np.where(idx < n, doc_codes[np.minimum(idx, n - 1)], -1)
    windows[:, width] = -1
    slot = np.ones(width + 1, dtype=bool)
    slot[width] = False
    first = np.zeros(width + 1, dtype=bool)
    first[0] = True
    mask = verify._bitmask(np.tile(slot, n_starts))
    text = windows.ravel()
    eq = {c: verify._bitmask(text == c) for c in set(map(ord, quote))}
    steps = verify._edit_rows(quote, eq, len(text), mask, verify._bitmask(np.tile(first, n_starts)), mask)
    dist = np.empty((n_starts, width + 1), dtype=np.int32)
    dist[:, 0] = m
    np.cumsum(steps.reshape(n_starts, width + 1)[:, :width], axis=1, out=dist[:, 1:])
    dist[:, 1:] += m
    lengths = np.arange(width + 1, dtype=np.int64)
    sims = 1.0 - dist / np.maximum(m, lengths)
    remaining = (n - starts).reshape(-1, 1)
    valid = (lengths >= np.minimum(min_len, remaining)) & (lengths <= remaining)
    valid[:, 0] = False
    sims = np.where(valid, sims, -1.0)
    best_j = np.argmax(sims, axis=1)
    return sims[np.arange(n_starts), best_j], best_j


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _substituted(rng: random.Random, text: str, share: float, alphabet: str) -> str:
    chars = list(text)
    for pos in rng.sample(range(len(chars)), int(share * len(chars))):
        chars[pos] = rng.choice(alphabet)
    return "".join(chars)


# --- normalize ---------------------------------------------------------------


def test_ligatures_expand():
    assert normalize("eﬃcient") == "efficient"
    assert normalize("deﬁne") == "define"


def test_dehyphenation_of_line_breaks():
    assert normalize("mathe-\nmatics") == "mathematics"
    assert normalize("mathe-\r\nmatics") == "mathematics"
    assert normalize("mathe- \nmatics") == "mathematics"  # trailing space before the break
    assert normalize("word -\nbreak") == "word - break"  # not attached to a word: kept


def test_whitespace_collapse():
    assert normalize("a  b\t\tc\n\nd") == "a b c d"


def test_soft_hyphen_removed():
    assert normalize("mathe­matics") == "mathematics"
    assert normalize("a ­ b") == "a b"


def test_crlf_removed():
    out = normalize("line one\r\nline two")
    assert "\r" not in out and "\n" not in out
    assert out == "line one line two"


def test_case_preserved():
    assert normalize("MiXeD Case") == "MiXeD Case"


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@pytest.mark.parametrize("text", ["e\u00ad\u0301", "\u1100-\n\u1161", "\u1100\u00ad\u1161"])
def test_normalize_idempotent_when_a_removed_hyphen_joins_composable_characters(text):
    once = normalize(text)
    assert once == unicodedata.normalize("NFC", once)
    assert normalize(once) == once


# Whitespace of every kind NFKC keeps or maps to a space, hyphens and line
# breaks, combining marks, Hangul jamo, ligatures, word characters, and
# compatibility characters of other kinds: a superscript, an ellipsis, a
# fullwidth and a mathematical letter, a compatibility jamo, a letter whose
# canonical parts hold one (U+1E9B), and one that folds to eighteen
# characters. U+0344 (a mark mapping to two marks) and the ohm sign have
# canonical mappings only; a lone surrogate has no mapping and no UTF-8
# encoding. U+0CBF U+0CD5 are two Kannada starters that compose.
_NORMALIZE_ALPHABET = (
    list(" \t\n\v\f\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u202f\u3000")
    + [chr(c) for c in range(0x2000, 0x200B)]
    + ["-", "\u00ad", "\r\n", "\u0301", "\u0308", "\u0323", "\u1100", "\u1161", "\u11a8", "\u0cbf", "\u0cd5"]
    + [chr(c) for c in range(0xFB00, 0xFB07)]
    + list("abzAZ\u00e909_")
    + list("\u00b2\u2026\uff21\U0001d400\u3131\u1e9b\u0344\ufdfa\u2126\ud83d")
)


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_NORMALIZE_ALPHABET), max_size=40).map("".join))
@example("mathe\u00ad\nmatics")  # a soft hyphen at a line break
@example("a\u00ad-\nb")  # removing the soft hyphen first would join a and b
@example("e\u00ad\u0301 \u1100-\n\u1161")  # removals that join composable characters
def test_normalize_equals_the_step_by_step_reference(text):
    assert normalize(text) == reference_normalize(text)


def test_regex_whitespace_is_str_whitespace():
    # normalize collapses the str.isspace characters; the definition is re's \s.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    by_re = [m.start() for m in re.finditer(r"\s", every)]
    assert by_re == [i for i, c in enumerate(every) if c.isspace()]


def test_whitespace_table_is_every_str_whitespace_but_the_space():
    every = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert len(verify._WHITESPACE) == len(set(verify._WHITESPACE))
    assert set(verify._WHITESPACE) == every - {" "}


@settings(max_examples=300)
@given(st.text(max_size=100) | st.lists(st.sampled_from(_NORMALIZE_ALPHABET), max_size=40).map("".join))
@example("\ufb01\u0cbf\u0cd5")  # expanded letters next to starters that compose
@example("\u1100\u1161\ufb02")
@example("\ufb01\u0301")  # the expanded i still composes with the accent: "f\u00ed"
def test_folded_nfkc_equals_nfkc(text):
    assert verify._nfkc(text) == unicodedata.normalize("NFKC", text)


def _spy_nfkc(monkeypatch) -> list[tuple[str, str]]:
    """Record each text ``verify`` passes to ``unicodedata.normalize``, all
    of them for NFKC, with the string returned."""
    calls = []

    def spy(form, s):
        assert form == "NFKC"
        calls.append((s, unicodedata.normalize(form, s)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "unicodedata", types.SimpleNamespace(normalize=spy))
    return calls


# Ligatures among non-ASCII characters that are NFKC by themselves: once the
# ligatures are expanded, NFKC's quick check returns the text itself.
@pytest.mark.parametrize("others", ["\u2264", "\u2208", "\u03b1\u03b2\u03a9", "\u2264\u2208\u03b3"])
def test_ligature_only_text_passes_nfkc_unchanged(monkeypatch, others):
    text = f"the \ufb01eld {others} is \ufb02at " + "word " * 400
    expected = reference_normalize(text)
    calls = _spy_nfkc(monkeypatch)
    assert normalize(text) == expected
    [(seen, returned)] = calls
    assert seen == text.replace("\ufb01", "fi").replace("\ufb02", "fl")
    assert returned is seen


def test_normalize_checks_again_only_after_a_removal(monkeypatch):
    # x with a circumflex has no precomposed form: the quick check says
    # "maybe", and NFKC normalizes the whole text.
    text = "let x\u0302 be " + "the estimate " * 300
    calls = _spy_nfkc(monkeypatch)
    assert normalize(text) == reference_normalize(text)
    assert [seen for seen, _ in calls] == [text]
    calls.clear()
    hyphenated = "mathe-\nmatics " + text
    assert normalize(hyphenated) == reference_normalize(hyphenated)
    assert [seen for seen, _ in calls] == [hyphenated, "mathematics " + text]


# --- best_match --------------------------------------------------------------

DOC = (
    "In this section we give a topological explanation why the orbit set "
    "carries a group structure for small dimensions. The argument uses "
    "homotopy classes of maps and standard obstruction theory, and we then "
    "discuss why the bound on the dimension is necessary for the result."
)


def test_exact_substring_scores_one():
    quote = "a topological explanation why the orbit set carries a group structure"
    result = best_match(quote, DOC, 0.85)
    assert result.matched
    assert result.similarity == 1.0
    norm_doc = normalize(DOC)
    assert norm_doc[result.span_start : result.span_end] == normalize(quote)


def test_extraction_noise_still_matches():
    # Line-break hyphenation plus a ligature, as extraction produces them.
    noisy_doc = DOC.replace("topological", "topo-\nlogical").replace("while", "while")
    noisy_doc = noisy_doc.replace("classes", "claﬁes")  # garbled ligature -> 'clafies'
    quote = "a topological explanation why the orbit set carries a group structure"
    result = best_match(quote, noisy_doc, 0.85)
    assert result.matched
    # Oracle agreement: manual normalization makes the hyphenation exact.
    assert result.similarity >= 0.95


def test_fabricated_quote_rejected():
    rng = random.Random(7)
    fabricated = "".join(rng.choice("QXZJ0123456789") for _ in range(50))
    result = best_match(fabricated, DOC, 0.85)
    assert not result.matched
    assert result.similarity < 0.5
    assert result.span_start is None and result.span_end is None
    # Dual route: the production similarity equals the exhaustive oracle's.
    assert result.similarity == pytest.approx(oracle_similarity(fabricated, DOC), abs=1e-9)


def test_matches_exhaustive_oracle_on_random_fixtures():
    rng = random.Random(123)
    words = "alpha beta gamma delta proof lemma shows that the why structure group".split()
    for _ in range(10):
        doc = " ".join(rng.choice(words) for _ in range(60))
        start = rng.randint(0, len(doc) - 30)
        quote = list(doc[start : start + 25])
        for _ in range(3):
            quote[rng.randrange(len(quote))] = rng.choice("xyz")
        quote = "".join(quote)
        got = best_match(quote, doc, 0.85).similarity
        assert got == pytest.approx(oracle_similarity(quote, doc), abs=1e-9)


# Documents several times the window length, so that a scan at a stride of
# |q|/10 skips window starts. Each case: (seed, doc chars, quote chars, share
# of the quote substituted, or None for a quote of random words). Seeds 99,
# 110, 148 and 193 are cases where a coarse scan refined around its top hits
# reports a lower similarity (99, 148, 193) or a later span (110).
STRIDED_CASES = [
    (1, 1200, 40, None),
    (99, 2500, 100, None),
    (110, 2500, 130, None),
    (148, 2500, 150, None),
    (193, 3000, 100, None),
    (5, 1500, 30, 0.4),
    (6, 2200, 80, 0.25),
    (7, 2800, 120, 0.1),
    (8, 1600, 320, 0.3),
]


@pytest.mark.parametrize("seed,doc_chars,quote_chars,share", STRIDED_CASES)
def test_strided_documents_match_exhaustive_oracle(seed, doc_chars, quote_chars, share):
    rng = random.Random(seed)
    words = ("orbit group bound proof lemma shows that the why structure class "
             "homotopy sharp counting argument symmetry forces").split()

    def text(chars: int) -> str:
        out = ""
        while len(out) < chars:
            out += rng.choice(words) + " "
        return out[:chars].strip()

    doc = text(doc_chars)
    if share is None:
        quote = text(quote_chars)
    else:
        start = rng.randrange(len(doc) - quote_chars)
        quote = _substituted(rng, doc[start : start + quote_chars], share, "xyzqj0123")
    want_sim, want_start, want_end = exhaustive_best_window(quote, doc)
    result = best_match(quote, doc, threshold=1e-9)
    assert result.similarity == pytest.approx(want_sim, abs=1e-12)
    assert (result.span_start, result.span_end) == (want_start, want_end)


def test_capped_blocks_of_starts_find_the_exhaustive_window(monkeypatch):
    # The cap on the starts one ``_window_scores`` call takes binds only on
    # long documents. A cap of 64 bits makes documents of 500-1,000
    # characters reach it, with quotes of the same words that leave many
    # starts near the best. The cap shows as an argpartition of the live
    # starts' bounds at ``block - 1``, here 0; the probe's is at 31.
    monkeypatch.setattr(verify, "_BLOCK_BITS", 64)
    kths = []
    real_argpartition = np.argpartition

    def argpartition(a, kth, *args, **kwargs):
        kths.append(kth)
        return real_argpartition(a, kth, *args, **kwargs)

    monkeypatch.setattr(verify.np, "argpartition", argpartition)
    rng = random.Random(464)
    words = "orbit group bound proof lemma shows that the why structure class homotopy sharp".split()
    for _ in range(15):
        doc = " ".join(rng.choice(words) for _ in range(200))[: rng.randrange(500, 1000)]
        quote = " ".join(rng.choice(words) for _ in range(30))[: rng.randrange(70, 150)]
        result = best_match(quote, doc, threshold=1e-9)
        assert (result.similarity, result.span_start, result.span_end) == pytest.approx(
            exhaustive_best_window(quote, doc), abs=1e-12)
    assert kths.count(0) > 0 and set(kths) == {0, verify._PROBE_STARTS - 1}


def _strided_case(seed: int, doc_chars: int, quote_chars: int, share: float | None) -> tuple[str, str]:
    """(quote, document) built as in ``test_strided_documents_match_exhaustive_oracle``."""
    rng = random.Random(seed)
    words = ("orbit group bound proof lemma shows that the why structure class "
             "homotopy sharp counting argument symmetry forces").split()

    def text(chars: int) -> str:
        out = ""
        while len(out) < chars:
            out += rng.choice(words) + " "
        return out[:chars].strip()

    doc = text(doc_chars)
    if share is None:
        return text(quote_chars), doc
    start = rng.randrange(len(doc) - quote_chars)
    return _substituted(rng, doc[start : start + quote_chars], share, "xyzqj0123"), doc


@pytest.mark.parametrize("seed,doc_chars,quote_chars,share", [STRIDED_CASES[i] for i in (1, 2, 5, 7)])
def test_start_bounds_hold_at_every_start(seed, doc_chars, quote_chars, share):
    quote, doc = _strided_case(seed, doc_chars, quote_chars, share)
    q, d = normalize(quote), normalize(doc)
    m, n = len(q), len(d)
    lo, hi = math.floor(0.8 * m), math.ceil(1.2 * m)
    starts, row = exhaustive_distance_table(q, d)
    lengths = np.arange(len(row)).reshape(-1, 1)
    valid = (lengths >= lo) & (lengths <= n - starts)
    sims = np.where(valid, 1.0 - np.array(row) / np.maximum(m, lengths), -np.inf)
    best_at = sims.max(axis=0)

    bounds = _StartBounds(q, codepoints(d), lo, hi)
    before = bounds.bound().copy()
    assert len(before) == len(starts)
    assert np.all(before >= best_at - 1e-9)
    assert_same_bits(before, reference_start_bound(q, codepoints(d), lo, hi))

    # The pass the matcher runs once the best is known: each spanned
    # character earns 1 - best.
    top = int(np.argmax(best_at))
    den = max(m, int(np.argmax(sims[:, top])))
    num = round((1.0 - best_at[top]) * den)
    bounds.reward(num, den)
    after = bounds.bound()
    assert np.all(after >= best_at - 1e-9)
    assert np.all(after <= before)
    assert np.any(after < before)
    assert_same_bits(after, reference_start_bound(q, codepoints(d), lo, hi, (num, den)))


def exhaustive_best_at_each_start(q: str, d: str) -> np.ndarray:
    """The best similarity of the windows of floor(0.8 |q|) to ceil(1.2 |q|)
    characters at each start 0 .. len(d) - floor(0.8 |q|), from the table."""
    m, n = len(q), len(d)
    starts, row = exhaustive_distance_table(q, d)
    lengths = np.arange(len(row)).reshape(-1, 1)
    valid = (lengths >= max(1, math.floor(0.8 * m))) & (lengths <= n - starts)
    return np.where(valid, 1.0 - np.array(row) / np.maximum(m, lengths), -np.inf).max(axis=0)


_BOUND_CASE = st.fixed_dictionaries({
    "quote": st.text("abc", min_size=1, max_size=4) | st.text("abc ", min_size=5, max_size=12),
    # Filler runs of one character the quote lacks make windows that only
    # longer quotes' bounds reach across.
    "doc": st.lists(st.text("abc ", max_size=6) | st.integers(1, 30).map("z".__mul__), max_size=8).map("".join),
    # Rewards num/den in [0, 1], in the order ``reward`` receives them.
    "rewards": st.lists(st.integers(1, 40).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den))),
                        max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(_BOUND_CASE)
# Bounds that equal the best at a start, where a float32 rounded to the
# nearest would fall below it: at init, and after a reward.
@example({"quote": "cbacb", "doc": "cabacb" + "z" * 10, "rewards": []})
@example({"quote": "ccaccacba", "doc": "ccccc aababcaa bb", "rewards": [(3, 10)]})
@example({"quote": "acccabbaa", "doc": "bcca ccbacbaaac" + "z" * 24, "rewards": [(9, 10)]})
def test_start_bounds_stay_above_the_exhaustive_best_at_every_start(case):
    quote, doc = case["quote"], case["doc"]
    min_len, max_len = max(1, math.floor(0.8 * len(quote))), math.ceil(1.2 * len(quote))
    assume(len(doc) >= min_len)
    best_at = exhaustive_best_at_each_start(quote, doc)
    bounds = _StartBounds(quote, codepoints(doc), min_len, max_len)
    assert np.all(bounds.bound() >= best_at)
    for num, den in case["rewards"]:
        bounds.reward(num, den)
        assert np.all(bounds.bound() >= best_at)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([STRIDED_CASES[i] for i in (1, 5, 8)] + ["short"]), data=st.data())
def test_window_scores_equal_the_index_matrix_reference(case, data):
    if case == "short":
        # A document shorter than the longest window: every window runs past its end.
        quote, doc = "the group hello world", "by the structure of the group hel"
    else:
        quote, doc = _strided_case(*case)
    q, codes = normalize(quote), codepoints(normalize(doc))
    m, n = len(q), len(codes)
    lo, hi = max(1, math.floor(0.8 * m)), max(1, math.ceil(1.2 * m))
    last = max(0, n - lo)
    # Starts within hi of the end read past it, where windows hold -1.
    start = st.integers(0, last) | st.integers(max(0, n - hi), last)
    starts = np.array(data.draw(st.lists(start, min_size=1, max_size=40, unique=True).map(sorted)))
    got = verify._window_scores(q, codes, starts, lo, hi)
    want = reference_window_scores(q, codes, starts, lo, hi)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def reference_rewarded_end_costs(quote: str, doc: str, num: int, den: int) -> list[int]:
    """``den * min_s [editdistance(quote, doc[s:e]) - (num/den) * (e - s)]`` for every
    end ``e``, over windows of any length: Sellers' DP over Python ints, cell by cell.
    """
    row = [0] * (len(doc) + 1)
    for i, ch in enumerate(quote, start=1):
        cur = [i * den]
        for e, dc in enumerate(doc, start=1):
            cur.append(min(row[e] + den, row[e - 1] + den * (ch != dc) - num, cur[e - 1] + den - num))
        row = cur
    return row


_REWARD_CASE = st.fixed_dictionaries({
    "quote": st.text("abc", min_size=1, max_size=4),
    # Filler runs of one character the quote lacks make documents longer
    # than the pass's window reach, so the window limit matters.
    "doc": st.lists(st.text("abc ", max_size=4) | st.integers(1, 24).map("z".__mul__), max_size=6).map("".join),
    "max_len": st.integers(1, 12),
    "den": st.integers(1, 40),
    # The share of den each spanned character earns; at 1, skipping
    # characters costs nothing and the longest windows win.
    "share": st.just(1) | st.fractions(0, 1),
})


@settings(max_examples=300, deadline=None)
@given(_REWARD_CASE)
# Windows of max_len whose best alignment leaves out max_len - 1 characters
# in one run: a pass that reaches back fewer columns loses them.
@example({"quote": "a", "doc": "bazz", "max_len": 3, "den": 3, "share": 1})
@example({"quote": "ab", "doc": "cab" + "z" * 9, "max_len": 12, "den": 5, "share": 1})
def test_rewarded_end_costs_bound_every_short_window(case):
    quote, doc, max_len, den = case["quote"], case["doc"], case["max_len"], case["den"]
    num = round(case["share"] * den)
    got = verify._rewarded_end_costs(quote, codepoints(doc), num, den, max_len).tolist()
    want = reference_rewarded_end_costs(quote, doc, num, den)
    assert len(got) == len(doc) + 1
    for e in range(len(doc) + 1):
        for s in range(max(0, e - max_len), e + 1):
            assert got[e] <= den * reference_levenshtein(quote, doc[s:e]) - num * (e - s)
    assert all(g >= w for g, w in zip(got, want))
    # The window reaches back at least 2**k - 1 columns, 2**k the first
    # power of two above max_len: on shorter documents nothing is lost.
    if len(doc) < 2 ** max_len.bit_length():
        assert got == want


def test_rewarded_end_costs_drop_only_windows_past_the_limit():
    # "a...b" aligns across the filler only in a window of 42 characters.
    quote, doc, den = "ab", "a" + "z" * 40 + "b", 5
    want = reference_rewarded_end_costs(quote, doc, den, den)
    assert want[-1] == -2 * den
    assert verify._rewarded_end_costs(quote, codepoints(doc), den, den, 42)[-1] == -2 * den
    assert verify._rewarded_end_costs(quote, codepoints(doc), den, den, 3)[-1] == -den


def test_rewarded_end_costs_widen_to_int64_before_int32_overflows():
    quote, doc = "abcab", "zzabcabzzcab" * 3
    # Rows are stored offset by up to -den * (len(doc) + len(quote)), which
    # is -41 * 2**27 < -2**31 here.
    den = 2**27
    num = den // 3
    got = verify._rewarded_end_costs(quote, codepoints(doc), num, den, 6)
    assert got.tolist() == reference_rewarded_end_costs(quote, doc, num, den)


def test_short_windows_count_only_when_the_document_is_short():
    quote = "the group hello world"  # 21 characters: windows of 16 to 26
    doc = "\u2026by the structure of the group hel"
    # The 13-character tail "the group hel" would score 1 - 8/21 = 0.619;
    # it is shorter than 16 characters, so the best window is a full one.
    result = best_match(quote, doc, 0.85)
    assert result.similarity == pytest.approx(10 / 21, abs=1e-12)
    full_windows = [
        1.0 - reference_levenshtein(normalize(quote), normalize(doc)[s : s + n]) / max(21, n)
        for s in range(len(normalize(doc)) - 16 + 1)
        for n in range(16, 27)
        if s + n <= len(normalize(doc))
    ]
    assert result.similarity == pytest.approx(max(full_windows), abs=1e-12)
    # A document shorter than the shortest window is scored whole.
    assert best_match(quote, "the group hel", 0.85).similarity == pytest.approx(13 / 21, abs=1e-12)


def test_empty_quote_is_an_error():
    with pytest.raises(ValueError):
        best_match("", DOC)


def test_quote_that_normalizes_to_empty_matches_nothing():
    result = best_match(" \n\u00ad ", DOC, 0.85)
    assert (result.matched, result.similarity, result.span_start) == (False, 0.0, None)


def test_threshold_validated():
    with pytest.raises(ValueError):
        best_match("abc", DOC, threshold=0.0)
    with pytest.raises(ValueError):
        best_match("abc", DOC, threshold=1.5)


def test_invariant_under_prenormalization():
    quote = "a topo-\nlogical explanation why the orbit set"
    raw = best_match(quote, DOC, 0.85)
    pre = best_match(normalize(quote), normalize(DOC), 0.85)
    assert raw.similarity == pre.similarity
    assert raw.matched == pre.matched


def test_deterministic():
    quote = "explanation why the orbit set carries"
    results = {best_match(quote, DOC, 0.85).similarity for _ in range(5)}
    assert len(results) == 1


def test_math_spans_match_flexibly():
    doc = (
        "Then one knows that for n >= 3 the orbit set Um n (A) / E n (A) is in "
        "bijective correspondence with the homotopy classes, which gives a "
        "topological explanation why a group structure exists."
    )
    quote = (
        "the orbit set $\\mathrm{Um}_n(A)/E_n(A)$ is in bijective correspondence "
        "with the homotopy classes"
    )
    result = best_match(quote, doc, 0.85)
    assert result.matched


def test_all_math_quote_cannot_verify():
    result = best_match("$x^2 + y^2$", DOC, 0.85)
    assert not result.matched
    assert result.similarity == 0.0


# Segmented quotes with their (similarity, span_start, span_end) at threshold
# 1e-9, as the segment walk computed them when it matched each segment on a
# slice of the document. The walk is a procedure, not a definition, so these
# pin its values rather than check them against an oracle.
SEGMENTED_PINS = [
    pytest.param(
        "fix a ring $A$ of dimension $d$. Then teh orbit set $\\mathrm{Um}_n(A)/E_n(A)$ is in "
        "bijective correspondance with the homotopy classes $[\\mathrm{Spec} A, X]$ for $n \\geq d+2$, "
        "which gives the group law",
        "We first fix a ring A of dimension d. Then the orbit set Um n (A) / E n (A) is in bijective "
        "correspondence with the homotopy classes [Spec A, X] for n >= d + 2, which gives a group law.",
        0.952, 9, 184,
        # A near-miss anchor with one literal after it and three before; "for"
        # is folded into the anchor's gap, and ". Then teh orbit set" is a
        # near miss on a range long enough to be pruned.
        id="anchor-in-the-middle",
    ),
    pytest.param(
        "abcdefghij $x$ the anchor literal is the longest one here",
        "abc the anchor literal is the longest one here and more text follows it",
        0.8653846153846154, 0, 46,
        # The range before the anchor is cut at the document's start to 4
        # characters, under floor(0.8 * 10), so it is scored whole.
        id="clipped-at-start",
    ),
    pytest.param(
        "text before: the anchor literal is the longest one here $y$ qrstuvwxyz",
        "some text before: the anchor literal is the longest one here qrs",
        0.8769230769230769, 5, 64,
        id="clipped-at-end",
    ),
    pytest.param(
        "the anchor literal is the longest one here $y$ more words",
        "text: the anchor literal is the longest one here",
        0.8076923076923077, 6, 48,
        # The anchor ends the document, so the range after it is empty.
        id="empty-range-after-the-anchor",
    ),
    pytest.param(
        "the bound is sharp $n$ by $m$ for every compact group in the class",
        "one shows the bound is sharp n by m matrices for every compact group in the class",
        1.0, 10, 81,
        id="short-literal-folded-into-its-gap",
    ),
    pytest.param(
        "$G$ acts freely on the orbit set $X/G$",
        "Here G acts freely on the orbit set X/G, hence the claim.",
        1.0, 7, 35,
        id="leading-and-trailing-math",
    ),
    pytest.param(
        "the lemma holds for $x$ and then the anchor literal is the longest one",
        "the lemma holds for all. Some filler text that is long enough to push things away from "
        "the start. the lemma holds for x and then the anchor literal is the longest one",
        1.0, 98, 166,
        # The literal before the anchor also occurs earlier, outside its range.
        id="literal-also-before-its-range",
    ),
    pytest.param(
        "we have $x$ the orbit set is big $y$ groups",
        "Thus we have x the orbit set is big y groupes here.",
        0.9740259740259739, 5, 45,
        # 20 + 6 * (6/7) + 7 summed in this order, anchor then forward then
        # backward; adding the backward term first gives 0.9740259740259741.
        id="summation-order",
    ),
    pytest.param("the orbit set $X$ carries a group structure", "", 0.0, None, None, id="empty-document"),
    pytest.param(
        "the orbit set carries a group structure $G$ QXZJ",
        "In this section the orbit set carries a group structure G, as shown.",
        0.9069767441860465, 16, 55,
        # QXZJ shares no character with the document: it scores 0 and does
        # not extend the span.
        id="literal-matches-nothing",
    ),
]


@pytest.mark.parametrize("quote,doc,similarity,span_start,span_end", SEGMENTED_PINS)
def test_segmented_quotes_keep_their_pinned_values(quote, doc, similarity, span_start, span_end):
    for text in (doc, verify._NormalizedDoc(normalize(doc))):
        result = best_match(quote, text, threshold=1e-9)
        assert (result.similarity, result.span_start, result.span_end) == (similarity, span_start, span_end)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_math_quote_matches_after_an_earlier_copy_of_its_anchor():
    # The longest literal, "Then there is", also occurs in the sentence in
    # front; the walk starts from that copy and the quote scores 0.833.
    quote = r"Let $x \in X$ and $\varepsilon > 0$. Then there is $\delta > 0$ such that $d(x,y) < \delta$."
    source = "Let x in X and eps > 0. Then there is delta > 0 such that d(x, y) < delta."
    assert best_match(quote, source).matched
    assert best_match(quote, "We recall the lemma. Then there is nothing more to prove in that case. " + source).matched


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_quote_shortened_with_an_ellipsis_matches():
    # Two genuine 105-character stretches, 400 characters apart, joined by
    # " ... ": the quote is scored as one window and reads 0.66.
    rng = random.Random(8)
    words = ("orbit group bound proof lemma shows that the why structure class "
             "homotopy sharp counting argument symmetry forces").split()
    text = ""
    while len(text) < 1626:
        text += rng.choice(words) + " "
    text = text[:1626]
    start = rng.randrange(1626 - 610)
    quote = text[start : start + 105] + " ... " + text[start + 505 : start + 610]
    assert best_match(quote, text).matched


#: No whitespace, so every slice of a text over it is normalized.
_RANGE_ALPHABET = "abcé"


@st.composite
def _ranged_literal(draw) -> tuple[str, str, int, int]:
    """(quote, document, lo, hi) with ``0 <= lo <= hi <= len(document)``."""
    # Long documents and quotes often enough that ranges reach the pruned search.
    doc = draw(st.text(_RANGE_ALPHABET, max_size=20) | st.text(_RANGE_ALPHABET, min_size=40, max_size=120))
    lo = draw(st.integers(0, len(doc)))
    hi = draw(st.integers(lo, len(doc)))
    quote = draw(st.text(_RANGE_ALPHABET, min_size=1, max_size=6) | st.text(_RANGE_ALPHABET, min_size=8, max_size=30))
    return quote, doc, lo, hi


@settings(max_examples=300, deadline=None)
@given(_ranged_literal())
@example(("abca", "cabbacab", 3, 3))  # an empty range
@example(("abcabcabca", "abcab" * 4, 5, 9))  # shorter than floor(0.8 * 10): scored whole
@example(("cab", "abc" * 30, 40, 90))  # an exact match, also before the range
@example(("acbacbbacaccab", "abc" * 30, 2, 88))  # a range long enough to be pruned
@example(("acbacbbaca", "abc" * 30, 3, 42))  # exactly _PROBE_STARTS starts
@example(("acbacbbaca", "abc" * 30, 3, 43))  # one start more
def test_match_literal_on_a_range_equals_the_oracle_on_its_slice(case):
    quote, doc, lo, hi = case
    sim, start, end = exhaustive_best_window(quote, doc[lo:hi])
    assert verify._match_literal(quote, verify._NormalizedDoc(doc), lo, hi) == (sim, lo + start, lo + end)


def test_a_range_of_at_most_probe_starts_is_scored_without_a_rewarded_pass(monkeypatch):
    passes = []
    rewarded_end_costs = verify._rewarded_end_costs
    monkeypatch.setattr(verify, "_rewarded_end_costs", lambda *args: passes.append(1) or rewarded_end_costs(*args))
    quote, doc = "acbacbbaca", verify._NormalizedDoc("abc" * 30)
    min_len = math.floor(0.8 * len(quote))
    for hi in range(4, 3 + min_len + verify._PROBE_STARTS):  # 1 to _PROBE_STARTS starts
        verify._match_literal(quote, doc, 3, hi)
    assert passes == []
    verify._match_literal(quote, doc)  # the whole document is pruned with a pass
    assert passes == [1]


def test_monotone_corruption_property():
    """Similarity is non-increasing in expectation as corruption grows, and
    drops below threshold once at least 30% of the quote is substituted."""
    rng = random.Random(2024)
    quote = "a topological explanation why the orbit set carries a group structure"
    levels = [0.0, 0.1, 0.2, 0.3, 0.5]
    trials = 20  # 20 trials x 5 levels = 100 matches
    mean_sims = []
    for level in levels:
        total = 0.0
        for _ in range(trials):
            chars = list(quote)
            n_swap = int(level * len(chars))
            for pos in rng.sample(range(len(chars)), n_swap):
                chars[pos] = rng.choice("QXZ0123456789")
            sim = best_match("".join(chars), DOC, 0.85).similarity
            total += sim
            if level >= 0.3:
                assert sim < 0.85
        mean_sims.append(total / trials)
    assert all(a >= b - 1e-9 for a, b in zip(mean_sims, mean_sims[1:]))


# --- verify_dataset ----------------------------------------------------------


def _disk_corpus(tmp_path, texts: dict[str, str]) -> CorpusManifest:
    refs = []
    for doc_id, text in texts.items():
        pdf = tmp_path / f"{doc_id}.pdf"
        txt = tmp_path / f"{doc_id}.txt"
        pdf.write_bytes(b"%PDF-1.4 fake")
        txt.write_text(text, encoding="utf-8")
        refs.append(
            DocumentRef(doc_id=doc_id, path=str(pdf), text_path=str(txt), char_count=len(text))
        )
    return CorpusManifest.build(refs)


def test_verify_dataset_all_exact(tmp_path):
    manifest = _disk_corpus(
        tmp_path,
        {
            "a": "The lemma holds because the symmetry forces cancellation.",
            "b": "We explain why the bound is sharp using a counting argument.",
        },
    )
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="a", finding="f", quote="the symmetry forces cancellation"),
            ExampleRecord(source_doc_id="b", finding="f", quote="explain why the bound is sharp"),
            ExampleRecord(source_doc_id="a", finding="f", quote="The lemma holds because"),
        ]
    )
    annotated, summary = verify_dataset(ds, manifest, 0.85)
    assert summary.counts == {"verified": 3, "unverified": 0, "skipped": 0, "no_quote": 0}
    assert all(r.verification and r.verification.matched for r in annotated.records)


def test_verify_dataset_flags_fabrication(tmp_path):
    manifest = _disk_corpus(tmp_path, {"a": "Honest text about proofs and structures." * 3})
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="a", finding="f", quote="Honest text about proofs"),
            ExampleRecord(source_doc_id="a", finding="f", quote="ZZXXQQ fabricated nonsense 9931"),
            ExampleRecord(source_doc_id="a", finding="f", quote="proofs and structures"),
        ]
    )
    _, summary = verify_dataset(ds, manifest, 0.85)
    assert summary.counts["verified"] == 2
    assert summary.counts["unverified"] == 1
    assert summary.unverified_records[0].quote == "ZZXXQQ fabricated nonsense 9931"


def test_verify_dataset_no_quote_and_skipped(tmp_path):
    manifest = _disk_corpus(tmp_path, {"a": "Some text."})
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="a", finding="finding only", quote=None),
            ExampleRecord(source_doc_id="missing-doc", finding="f", quote="anything at all"),
        ]
    )
    _, summary = verify_dataset(ds, manifest, 0.85)
    assert summary.counts["no_quote"] == 1
    assert summary.counts["skipped"] == 1
    assert summary.skipped_doc_ids == ["missing-doc"]


def test_verify_dataset_skips_only_the_documents_it_cannot_read(tmp_path, caplog):
    manifest = _disk_corpus(
        tmp_path,
        {"a": "The lemma holds because the symmetry forces cancellation.", "b": "Gone."},
    )
    (tmp_path / "b.txt").unlink()
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="b", finding="f", quote="Gone."),
            ExampleRecord(source_doc_id="a", finding="f", quote="the symmetry forces cancellation"),
            ExampleRecord(source_doc_id="b", finding="f", quote="Gone again."),
        ]
    )
    with caplog.at_level(logging.ERROR, logger="paperlens.verify"):
        annotated, summary = verify_dataset(ds, manifest, 0.85)
    assert summary.counts == {"verified": 1, "unverified": 0, "skipped": 2, "no_quote": 0}
    assert summary.skipped_doc_ids == ["b"]
    assert summary.unreadable_doc_ids == ["b"]
    assert [r.verification is None for r in annotated.records] == [True, False, True]
    (error,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert "'b'" in error and "No such file or directory" in error


def test_verify_dataset_agrees_with_best_match_on_raw_text(tmp_path):
    # The soft hyphen sits between a letter and its combining accent.
    text = "Le th\u00e9or\u00e8me est d\u00e9montr\u00e9 par la caf" + "e\u00ad\u0301 du coin."
    manifest = _disk_corpus(tmp_path, {"a": text})
    quote = "par la caf\u00e9 du coin"
    ds = Dataset(records=[ExampleRecord(source_doc_id="a", finding="f", quote=quote)])
    annotated, _ = verify_dataset(ds, manifest, 0.85)
    assert annotated.records[0].verification == best_match(quote, text, 0.85)
    assert annotated.records[0].verification.similarity == 1.0


def test_verify_dataset_logs_counts(tmp_path, caplog):
    manifest = _disk_corpus(tmp_path, {"a": "Honest text about proofs and structures." * 3})
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="a", finding="f", quote="Honest text about proofs"),
            ExampleRecord(source_doc_id="a", finding="f", quote="ZZXXQQ fabricated nonsense 9931"),
            ExampleRecord(source_doc_id="gone", finding="f", quote="anything at all"),
        ]
    )
    with caplog.at_level("INFO", logger="paperlens.verify"):
        verify_dataset(ds, manifest, 0.85)
    assert any(
        m.startswith("verify: 2 quoted records against 1 documents, 1 at similarity 1.0, 1 below, 1 skipped, ")
        for m in caplog.messages
    )


def test_verify_dataset_matches_each_source_before_reading_the_next(tmp_path, monkeypatch):
    manifest = _disk_corpus(
        tmp_path,
        {
            "a": "The lemma holds because the symmetry forces cancellation.",
            "b": "We explain why the bound is sharp using a counting argument.",
        },
    )
    events = []
    real_load_text, real_best_match = corpus.load_text, verify.best_match

    def load_text(ref):
        events.append(f"load {ref.doc_id}")
        return real_load_text(ref)

    def best_match(quote, doc_text, threshold):
        events.append("match")
        return real_best_match(quote, doc_text, threshold)

    monkeypatch.setattr(corpus, "load_text", load_text)
    monkeypatch.setattr(verify, "best_match", best_match)
    quotes = [
        "the symmetry forces cancellation",
        "explain why the bound is sharp",
        "The lemma holds because",
        "using a counting argument",
    ]
    ds = Dataset(records=[ExampleRecord(source_doc_id=d, finding="f", quote=q) for d, q in zip("abab", quotes)])
    annotated, summary = verify_dataset(ds, manifest, 0.85)
    assert events == ["load a", "match", "match", "load b", "match", "match"]
    assert [(r.source_doc_id, r.quote) for r in annotated.records] == list(zip("abab", quotes))
    assert summary.counts == {"verified": 4, "unverified": 0, "skipped": 0, "no_quote": 0}


def test_verify_dataset_memory_does_not_grow_with_cited_documents(tmp_path):
    quote, body = _strided_case(5, 20_000, 100, 0.05)

    def peak_bytes(n_docs: int) -> int:
        texts = {f"p{i:03d}": f"Paper {i:03d}. {body}" for i in range(n_docs)}
        root = tmp_path / str(n_docs)
        root.mkdir()
        manifest = _disk_corpus(root, texts)
        ds = Dataset(records=[ExampleRecord(source_doc_id=d, finding="f", quote=quote) for d in texts])
        (_, summary), peak = traced_peak(lambda: verify_dataset(ds, manifest, 0.85))
        assert summary.counts["verified"] + summary.counts["unverified"] == n_docs
        return peak

    peak_bytes(1)  # one-time allocations (caches, lazy imports) land here
    # One document's text (1 byte per ASCII character) plus its int32 code points.
    one_doc = 5 * len(body)
    assert abs(peak_bytes(40) - peak_bytes(10)) < one_doc


@pytest.mark.parametrize(
    "quote_chars,share,reverse,budget",
    [(100, None, False, 12), (100, 0.1, False, 11), (100, None, True, 25), (600, None, False, 25)],
    ids=["fabricated-100", "near-miss-100", "reversed-100", "fabricated-600"],
)
def test_best_match_memory_per_document_character(quote_chars, share, reverse, budget, monkeypatch):
    quote, text = _strided_case(5, 200_000, quote_chars, share)
    if reverse:
        # Read backwards, the quote is too unlike every window for the first
        # bounds to prune the search, so a short quote runs a rewarded pass too.
        quote = quote[::-1]
    doc = verify._NormalizedDoc(normalize(text))
    doc.codes  # encoded once per document, before its first quote is matched
    best_match(quote, doc, 0.85)  # one-time allocations (caches, lazy imports) land here
    passes = []
    rewarded_end_costs = verify._rewarded_end_costs
    monkeypatch.setattr(verify, "_rewarded_end_costs", lambda *args: passes.append(1) or rewarded_end_costs(*args))
    _, peak = traced_peak(lambda: best_match(quote, doc, 0.85))
    assert peak <= budget * len(doc), f"{peak / len(doc):.1f} bytes per document character"
    # The 25-byte budget is the rewarded pass's; the smaller ones hold searches without one.
    assert bool(passes) == (budget == 25)


def test_window_scores_memory_per_packed_bit():
    # A full block of starts for a 600-character quote, spread over a
    # 200k-character document as the highest bounds of a pruned search are.
    quote, text = _strided_case(5, 200_000, 600, None)
    q, codes = normalize(quote), codepoints(normalize(text))
    lo, hi = math.floor(0.8 * len(q)), math.ceil(1.2 * len(q))
    starts = np.linspace(0, len(codes) - lo, verify._BLOCK_BITS // (hi + 1)).astype(np.int64)
    bits = len(starts) * (hi + 1)
    assert verify._BLOCK_BITS - (hi + 1) < bits <= verify._BLOCK_BITS
    verify._window_scores(q, codes, starts, lo, hi)  # one-time allocations land here
    _, peak = traced_peak(lambda: verify._window_scores(q, codes, starts, lo, hi))
    assert peak <= 6 * bits, f"{peak / bits:.2f} bytes per packed bit"


def test_verification_result_invariants():
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.5, threshold_used=0.85,
                           span_start=0, span_end=5)
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.9, threshold_used=0.85)
