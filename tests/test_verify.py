"""Normalization and quote-matching tests, checked against an independent
brute-force oracle where the spec pins one."""

import math
import random
import re
import sys
import types
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paperlens import verify
from paperlens.corpus import CorpusManifest, DocumentRef
from paperlens.records import Dataset, ExampleRecord
from paperlens.verify import VerificationResult, _codepoints, _StartBounds, best_match, normalize, verify_dataset

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
# encoding.
_NORMALIZE_ALPHABET = (
    list(" \t\n\v\f\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u202f\u3000")
    + [chr(c) for c in range(0x2000, 0x200B)]
    + ["-", "\u00ad", "\r\n", "\u0301", "\u0308", "\u0323", "\u1100", "\u1161", "\u11a8"]
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
def test_folded_nfkc_equals_nfkc(text):
    assert verify._nfkc(text) == unicodedata.normalize("NFKC", text)
    # ASCII padding makes the non-ASCII characters sparse enough to fold.
    padded = text + "." * (verify._FOLD_DISTINCT_SPAN * len(text))
    assert verify._nfkc(padded) == unicodedata.normalize("NFKC", padded)


# Fullwidth letters fold to ASCII, so a text with up to _FOLD_MAX_CHARS of
# them is NFKC once folded; with one more, or with non-ASCII characters
# denser than _FOLD_SPAN or _FOLD_DISTINCT_SPAN allow, NFKC runs on the text
# itself. Padding sets the length: 2 non-ASCII characters (e acute, soft
# hyphen) besides the letters, each distinct.
@pytest.mark.parametrize(
    "distinct_letters, repeats, length, folded",
    [
        (verify._FOLD_MAX_CHARS, 1, 2_000, True),
        (verify._FOLD_MAX_CHARS + 1, 1, 2_000, False),
        (1, 45, (45 + 3) * verify._FOLD_SPAN, True),
        (1, 45, (45 + 3) * verify._FOLD_SPAN - 1, False),
        (1, 1, 3 * verify._FOLD_DISTINCT_SPAN, True),
        (1, 1, 3 * verify._FOLD_DISTINCT_SPAN - 1, False),
    ],
)
def test_fold_is_skipped_past_the_limit(monkeypatch, distinct_letters, repeats, length, folded):
    letters = "".join(chr(0xFF21 + i) for i in range(distinct_letters))
    text = f"Ende-\n {letters * repeats} x\u00e9 {letters}\u00ad"
    text += ("word " * length)[: length - len(text)]
    assert len(text) == length
    expected = reference_normalize(text)
    calls = []

    def spy(form, s):
        calls.append((form, s))
        return unicodedata.normalize(form, s)

    monkeypatch.setattr(verify, "unicodedata", types.SimpleNamespace(
        normalize=spy, is_normalized=unicodedata.is_normalized, combining=unicodedata.combining))
    assert normalize(text) == expected
    assert (("NFKC", text) not in calls) is folded


def _spy_is_normalized(monkeypatch) -> list[str]:
    """Record the whole texts, not single characters, ``verify`` passes to ``unicodedata.is_normalized``."""
    checked = []

    def spy(form, s):
        if len(s) > 100:
            checked.append(s)
        return unicodedata.is_normalized(form, s)

    monkeypatch.setattr(verify, "unicodedata", types.SimpleNamespace(
        normalize=unicodedata.normalize, is_normalized=spy, combining=unicodedata.combining))
    return checked


def test_composing_table_holds_every_starter_that_completes_a_composition():
    # The second characters of two-character canonical decompositions, plus
    # the jamo that compose with a Hangul leading consonant or LV syllable.
    composing = set()
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        parts = unicodedata.decomposition(ch).split()
        if len(parts) == 2 and not parts[0].startswith("<"):
            composing.add(chr(int(parts[1], 16)))
        if any(len(unicodedata.normalize("NFC", first + ch)) == 1 for first in ("\u1100", "\uac00")):
            composing.add(ch)
    starters = {ch for ch in composing if unicodedata.combining(ch) == 0}
    assert starters <= verify._COMPOSING
    assert all(unicodedata.combining(ch) == 0 for ch in verify._COMPOSING)


# Ligatures among non-ASCII characters that are NFKC by themselves and
# compose with nothing: the fold alone proves the text NFKC.
@pytest.mark.parametrize("others", ["\u2264", "\u2208", "\u03b1\u03b2\u03a9", "\u2264\u2208\u03b3"])
def test_folded_text_of_plain_characters_is_not_rescanned(monkeypatch, others):
    text = f"the \ufb01eld {others} is \ufb02at " + "word " * 400
    expected = unicodedata.normalize("NFKC", text)
    checked = _spy_is_normalized(monkeypatch)
    assert verify._nfkc(text) == expected
    assert checked == [text]


# A starter that can complete a composition leaves the folded text to the
# full check: U+1161 after U+1100 and U+0CD5 after U+0CBF both compose.
@pytest.mark.parametrize("composing", ["\u1161", "\u0cd5", "\u1100\u1161", "\u0cbf\u0cd5"])
def test_folded_text_with_a_composing_starter_is_rescanned(monkeypatch, composing):
    text = f"the \ufb01eld {composing} is \ufb02at " + "word " * 400
    expected = unicodedata.normalize("NFKC", text)
    checked = _spy_is_normalized(monkeypatch)
    assert verify._nfkc(text) == expected
    assert checked == [text, text.replace("\ufb01", "fi").replace("\ufb02", "fl")]


def test_normalize_checks_again_only_after_a_removal(monkeypatch):
    # x with a circumflex has no precomposed form: the quick check says
    # "maybe", and is_normalized normalizes the whole text to compare.
    text = "let x\u0302 be " + "the estimate " * 300
    checked = _spy_is_normalized(monkeypatch)
    assert normalize(text) == reference_normalize(text)
    assert checked == [text]
    checked.clear()
    hyphenated = "mathe-\nmatics " + text
    assert normalize(hyphenated) == reference_normalize(hyphenated)
    assert checked == [hyphenated, "mathematics " + text]


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

    bounds = _StartBounds(q, _codepoints(d), lo, hi)
    before = bounds.bound().copy()
    assert len(before) == len(starts)
    assert np.all(before >= best_at - 1e-9)

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
    got = verify._rewarded_end_costs(quote, _codepoints(doc), num, den, max_len).tolist()
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
    assert verify._rewarded_end_costs(quote, _codepoints(doc), den, den, 42)[-1] == -2 * den
    assert verify._rewarded_end_costs(quote, _codepoints(doc), den, den, 3)[-1] == -den


def test_rewarded_end_costs_widen_to_int64_before_int32_overflows():
    quote, doc = "abcab", "zzabcabzzcab" * 3
    # Rows are stored offset by up to -den * (len(doc) + len(quote)), which
    # is -41 * 2**27 < -2**31 here.
    den = 2**27
    num = den // 3
    got = verify._rewarded_end_costs(quote, _codepoints(doc), num, den, 6)
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


def test_verification_result_invariants():
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.5, threshold_used=0.85,
                           span_start=0, span_end=5)
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.9, threshold_used=0.85)
