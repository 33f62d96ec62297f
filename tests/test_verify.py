"""Normalization and quote-matching tests, checked against an independent
brute-force oracle where the spec pins one."""

import logging
import os
import random
import re
import shlex
import sys
import types
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAKE_PDF, run_python, traced_peak
from paperlens import corpus, verify
from paperlens.corpus import CorpusManifest, DocumentRef
from paperlens.records import Dataset, ExampleRecord
from paperlens.verify import VerificationResult, best_match, normalize, verify_dataset

# --- independent reference ---------------------------------------------------


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


def reference_rows(literal: str, codes: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The last row of the edit-distance table of ``literal`` against the text
    ``codes`` whose row 0 is ``row``: one plain DP row per literal character."""
    cols = np.arange(len(row))
    for ch in literal:
        cur = np.empty_like(row)
        cur[0] = row[0] + 1
        np.minimum(row[:-1] + (codes != ord(ch)), row[1:] + 1, out=cur[1:])
        # A move along the row costs 1: a running minimum of cur[e] - e.
        row = np.minimum.accumulate(cur - cols) + cols
    return row


def reference_chain(literals: list[str], gaps: list[int], codes: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Entry e: the least summed edit distance of in-order placements of the
    literals, the last ending at e, each next one starting 0 to its gap after
    the one before; ``row`` prices where the first one starts."""
    row = reference_rows(literals[0], codes, row)
    for literal, gap in zip(literals[1:], gaps):
        padded = np.concatenate((np.full(gap, row.max()), row))
        row = np.lib.stride_tricks.sliding_window_view(padded, gap + 1).min(axis=1)
        row = reference_rows(literal, codes, row)
    return row


def reference_match(literals: list[str], gaps: list[int], doc: str) -> tuple[float, int | None, int | None]:
    """(similarity, span_start, span_end) under the definition in ``best_match``,
    by the plain O(|q|·n) DP on a normalized document; no span at similarity 0.

    The span ends at the earliest end with the least total, and starts at the
    latest s from which a chain anchored at s reaches that end with that total.
    """
    if not literals:
        return 0.0, None, None
    codes = np.array([ord(c) for c in doc], dtype=np.int64)
    last = reference_chain(literals, gaps, codes, np.zeros(len(doc) + 1, dtype=np.int64))
    end = int(np.argmin(last))
    k = int(last[end])
    sim = 1.0 - k / sum(map(len, literals))
    if sim == 0.0:
        return sim, None, None
    start = next(s for s in range(end, -1, -1)
                 if reference_chain(literals, gaps, codes[s:end], np.arange(end - s + 1))[-1] == k)
    return sim, start, end


def reference_best_match(quote: str, doc: str) -> tuple[float, int | None, int | None]:
    """``reference_match`` of a quote split by ``verify._segments``."""
    return reference_match(*verify._segments(normalize(quote)), normalize(doc))


def matched_at(quote: str, doc: str) -> tuple[float, int | None, int | None]:
    """``best_match``'s (similarity, span_start, span_end) with every similarity above 0 matched."""
    result = best_match(quote, doc, threshold=1e-9)
    return result.similarity, result.span_start, result.span_end
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
    # Dual route: the production similarity equals the reference's.
    assert result.similarity == reference_best_match(fabricated, DOC)[0]


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
        assert matched_at(quote, doc) == reference_best_match(quote, doc)


# Documents several times the quote's length, with quotes of random words
# (share None) or substrings with a share of their characters substituted.
# Each case: (seed, doc chars, quote chars, share).
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


def _strided_case(seed: int, doc_chars: int, quote_chars: int, share: float | None) -> tuple[str, str]:
    """(quote, document) for one of ``STRIDED_CASES``."""
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


@pytest.mark.parametrize("seed,doc_chars,quote_chars,share", STRIDED_CASES)
def test_strided_documents_match_exhaustive_oracle(seed, doc_chars, quote_chars, share):
    quote, doc = _strided_case(seed, doc_chars, quote_chars, share)
    assert matched_at(quote, doc) == reference_best_match(quote, doc)


def test_a_quote_running_past_the_documents_end_scores_its_best_substring():
    quote = "the group hello world"
    doc = "\u2026by the structure of the group hel"
    # The tail "the group hel" is 8 edits from the quote, and no substring is closer.
    assert matched_at(quote, doc) == (1 - 8 / 21, 23, 36)
    assert reference_levenshtein(quote, normalize(doc)[23:36]) == 8
    assert matched_at(quote, "the group hel") == (1 - 8 / 21, 0, 13)


def test_the_span_ends_first_and_is_the_shortest_best_substring():
    # "abxd" and "abyd" are both one edit from "abcd"; "abxd" ends first, and
    # of the substrings ending there, "bxd" is also one edit away but costs two.
    assert matched_at("abcd", "zz abxd abyd") == (0.75, 3, 7)
    # Deleting the leading "q" or keeping it costs the same: the shorter span wins.
    assert matched_at("abcd", "qbcd") == (0.75, 1, 4)
    # The best substring can be longer than the quote: "abzcd" is one insertion away.
    assert matched_at("abcd", "xx abzcd yy") == (0.75, 3, 8)


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


@pytest.mark.parametrize("quote", ["...", "$x$ ... $y$", "\u2026"])
def test_a_quote_of_only_math_and_ellipses_cannot_verify(quote):
    result = best_match(quote, DOC, 0.85)
    assert not result.matched
    assert result.similarity == 0.0


def test_a_trailing_ellipsis_is_scored_on_its_literal_alone():
    assert matched_at("we give a topological explanation ...", DOC) == (1.0, 16, 49)
    assert matched_at("... we give a topological explanation \u2026", DOC) == (1.0, 16, 49)


def test_an_ellipsis_that_occurs_in_the_source_still_scores_one():
    assert matched_at("for x_1, ..., x_n in A", "Then for x_1, ..., x_n in A we have") == (1.0, 5, 27)


@pytest.mark.parametrize("separator,budget", [("$x$", 17), ("$$\\int f$$", 38), ("...", verify._ELLIPSIS_GAP)])
def test_each_gap_stands_for_at_most_its_budget(separator, budget):
    quote = f"the orbit set {separator} carries a group"
    # The gap holds the filler and the two spaces around it.
    doc = "so the orbit set " + "z" * (budget - 2) + " carries a group"
    assert matched_at(quote, doc) == (1.0, 3, len(doc))
    # One character more, and the best placement costs an edit of the 28 literal characters.
    assert matched_at(quote, doc.replace("z", "zz", 1))[0] == 1 - 1 / 28


def test_segments_split_at_math_and_ellipses():
    quote = "$G$ acts on $X$ and $Y$ ... hence $\\(x\\)$ $y$"
    assert verify._segments(quote) == (["acts on", "and", "hence"], [17, 17 + verify._ELLIPSIS_GAP])
    assert verify._segments("$x$ ...") == ([], [])


def _parts_segments(parts: list[str]) -> tuple[list[str], list[int]]:
    """The literals and gap budgets of ``" ".join(parts)``, read off its parts:
    ``"..."``, math spans ``$...$`` and literals of letters."""
    literals: list[str] = []
    gaps: list[int] = []
    words: list[str] = []
    budget = 0
    for part in [*parts, None]:
        if part is not None and part != "..." and not part.startswith("$"):
            words.append(part)
            continue
        if words:
            if literals:
                gaps.append(budget)
            literals.append(" ".join(words))
            words, budget = [], 0
        if part is not None:
            budget += verify._ELLIPSIS_GAP if part == "..." else 3 * len(part) + 8
    return literals, gaps


_PART = (
    st.text("abc", min_size=1, max_size=3)
    | st.text("abc", min_size=4, max_size=10)
    | st.text("xy+", min_size=1, max_size=5).map("${}$".format)
    | st.just("...")
)
# Filler runs of a character no literal holds make gaps that math budgets
# (17 characters and up) do not reach across.
_DOC = st.lists(
    st.text("abc ", max_size=6) | st.integers(1, 30).map("z".__mul__) | st.sampled_from(["x+y", "..."]),
    max_size=8,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_PART, min_size=1, max_size=6), doc=_DOC)
@example(parts=["$x$", "ab", "$y$"], doc="zz ab zz")  # leading and trailing math
@example(parts=["ab", "$x$", "c"], doc="ab" + "z" * 15 + "c abzc")  # a gap at its budget
@example(parts=["ab", "$x$", "c"], doc="ab" + "z" * 16 + "c abzc")  # one past it
@example(parts=["a", "...", "b", "$x$", "$y$", "c"], doc="a b" + "z" * 30 + "c")  # budgets add up
@example(parts=["abc", "...", "abc"], doc="")
@example(parts=["a", "$x$", "bc", "$x$", "a"], doc="a a a b a bc a a")  # the rarest literal in the middle
@example(parts=["ab", "$x$", "c"], doc="ab ab" + "z" * 20 + "ab c")  # early starts that never complete
@example(parts=["ab", "$x$", "c", "$x$", "ab"], doc="ab c" + "z" * 20 + "ab c ab")  # one that completes only later
@example(parts=["ab", "$x$", "c"], doc="ab ab" + "z" * 17 + "c ab c")  # the next start reaches c at the budget
@example(parts=["aa", "...", "b"], doc="aaab")  # overlapping occurrences
@example(parts=["aa", "$x$", "b"], doc="aaa" + "z" * 17 + "b aa b")  # the overlapping one completes
@example(parts=["aa", "$x$", "aa"], doc="aaa")
@example(parts=["ab", "...", "c"], doc="ab" + "z" * 2000 + "c")  # an ellipsis gap at its budget
@example(parts=["ab", "...", "c"], doc="ab" + "z" * 2001 + "c")  # one past it
@example(parts=["a", "$x$", "b"], doc="a a b")  # the latest of two starts ending at the same place
def test_best_match_equals_the_reference(parts, doc):
    want = reference_match(*_parts_segments(parts), normalize(doc))
    assert matched_at(" ".join(parts), doc) == want


@pytest.mark.parametrize(
    "quote",
    ["a topological explanation $w$ the orbit set carries a group structure",
     "we give a topological explanation ... homotopy classes of maps"],
    ids=["math", "ellipsis"],
)
def test_an_exact_chain_leaves_the_document_unencoded(quote):
    doc = verify._NormalizedDoc(normalize(DOC))
    found = matched_at(quote, doc)
    assert found == reference_best_match(quote, DOC)
    assert found[0] == 1.0
    assert "codes" not in doc.__dict__


@pytest.mark.parametrize(
    "quote,doc",
    [
        ("a topological explanation $w$ the orbit set carries a groop structure", DOC),
        # Both literals occur verbatim, but further apart than the math span stands for.
        ("we give $w$ homotopy classes of maps", DOC),
        # The one exact chain comes after more failed starts than the search tries.
        ("a $x$ b", ("a" + "c" * 18 + "b") * 200 + "a cc b"),
    ],
    ids=["altered-literal", "literals-too-far-apart", "search-gives-up"],
)
def test_a_quote_with_no_exact_chain_found_falls_back_to_the_passes(monkeypatch, quote, doc):
    calls = []
    real_chain = verify._chain

    def chain(*args, **kwargs):
        calls.append(args)
        return real_chain(*args, **kwargs)

    monkeypatch.setattr(verify, "_chain", chain)
    assert matched_at(quote, doc) == reference_best_match(quote, doc)
    assert len(calls) == 2  # the forward chain, and the backward one for the span's start


def _short_literal_document() -> str:
    """200,000 characters of a, b, z and spaces, with a c every 20,000 or so."""
    rng = random.Random(11)
    chars = rng.choices("abz ", weights=[4, 4, 1, 2], k=200_000)
    for pos in rng.sample(range(200_000), 10):
        chars[pos] = "c"
    return "".join(chars)


@pytest.mark.parametrize(
    "quote",
    ["ab $x$ ba $y$ a", "ab $x$ c $y$ ba", "zz $x$ b $y$ c", "z $x$ c $y$ zz b", "c $x$ ab $y$ cc", "ba ... c"],
    ids=["exact-at-once", "rare-in-the-middle", "exact-after-failed-starts", "no-exact-chain",
         "a-literal-never-occurs", "ellipsis"],
)
def test_a_long_document_of_short_literals_matches_the_reference(quote):
    doc = _short_literal_document()
    assert matched_at(quote, doc) == reference_best_match(quote, doc)


# Segmented quotes with their (similarity, span_start, span_end) at threshold
# 1e-9, each checked against the reference as well.
SEGMENTED_PINS = [
    pytest.param(
        "fix a ring $A$ of dimension $d$. Then teh orbit set $\\mathrm{Um}_n(A)/E_n(A)$ is in "
        "bijective correspondance with the homotopy classes $[\\mathrm{Spec} A, X]$ for $n \\geq d+2$, "
        "which gives the group law",
        "We first fix a ring A of dimension d. Then the orbit set Um n (A) / E n (A) is in bijective "
        "correspondence with the homotopy classes [Spec A, X] for n >= d + 2, which gives a group law.",
        0.953125, 9, 184,
        # Seven literals, two of them near misses; "for" is one of them.
        id="anchor-in-the-middle",
    ),
    pytest.param(
        "abcdefghij $x$ the anchor literal is the longest one here",
        "abc the anchor literal is the longest one here and more text follows it",
        0.8653846153846154, 0, 46,
        # The first literal runs into the document's start.
        id="clipped-at-start",
    ),
    pytest.param(
        "text before: the anchor literal is the longest one here $y$ qrstuvwxyz",
        "some text before: the anchor literal is the longest one here qrs",
        0.8923076923076922, 5, 64,
        # The last literal runs past the document's end.
        id="clipped-at-end",
    ),
    pytest.param(
        "the anchor literal is the longest one here $y$ more words",
        "text: the anchor literal is the longest one here",
        0.8076923076923077, 6, 48,
        # The document ends where the first literal does.
        id="empty-range-after-the-anchor",
    ),
    pytest.param(
        "the bound is sharp $n$ by $m$ for every compact group in the class",
        "one shows the bound is sharp n by m matrices for every compact group in the class",
        1.0, 10, 81,
        # A two-character literal is a segment of its own.
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
        # The first literal also occurs earlier, beyond the gap from the second.
        id="literal-also-before-its-range",
    ),
    pytest.param(
        "we have $x$ the orbit set is big $y$ groups",
        "Thus we have x the orbit set is big y groupes here.",
        0.9696969696969697, 5, 43,
        # One distance summed over the literals, divided once.
        id="summation-order",
    ),
    pytest.param("the orbit set $X$ carries a group structure", "", 0.0, None, None, id="empty-document"),
    pytest.param(
        "the orbit set carries a group structure $G$ QXZJ",
        "In this section the orbit set carries a group structure G, as shown.",
        0.9069767441860466, 16, 55,
        # QXZJ shares no character with the document.
        id="literal-matches-nothing",
    ),
]


@pytest.mark.parametrize("quote,doc,similarity,span_start,span_end", SEGMENTED_PINS)
def test_segmented_quotes_keep_their_pinned_values(quote, doc, similarity, span_start, span_end):
    assert reference_best_match(quote, doc) == (similarity, span_start, span_end)
    for text in (doc, verify._NormalizedDoc(normalize(doc))):
        assert matched_at(quote, text) == (similarity, span_start, span_end)


def test_math_quote_matches_after_an_earlier_copy_of_its_anchor():
    # The longest literal, "Then there is", also occurs in the sentence in front.
    quote = r"Let $x \in X$ and $\varepsilon > 0$. Then there is $\delta > 0$ such that $d(x,y) < \delta$."
    source = "Let x in X and eps > 0. Then there is delta > 0 such that d(x, y) < delta."
    assert best_match(quote, source).matched
    assert best_match(quote, "We recall the lemma. Then there is nothing more to prove in that case. " + source).matched


def test_quote_shortened_with_an_ellipsis_matches():
    # Two genuine 105-character stretches, 400 characters apart, joined by " ... ".
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


def test_reverifying_without_a_source_drops_its_old_verdicts(tmp_path):
    manifest = _disk_corpus(
        tmp_path,
        {"a": "The lemma holds because the symmetry forces cancellation.", "b": "Gone soon."},
    )
    ds = Dataset(
        records=[
            ExampleRecord(source_doc_id="b", finding="f", quote="Gone soon."),
            ExampleRecord(source_doc_id="a", finding="f", quote="the symmetry forces cancellation"),
        ]
    )
    verified, _ = verify_dataset(ds, manifest, 0.85)
    assert all(r.verification.matched for r in verified.records)
    without_b = CorpusManifest.build([ref for ref in manifest.documents if ref.doc_id != "b"])
    again, summary = verify_dataset(verified, without_b, 0.85)
    assert [r.verification for r in again.records] == [None, verified.records[1].verification]
    assert summary.counts == {"verified": 1, "unverified": 0, "skipped": 1, "no_quote": 0}
    assert summary.skipped_doc_ids == ["b"]


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


def _math_quote(text: str, altered: bool = False) -> str:
    """Three 200-character stretches of ``text`` joined by math spans that stand for the gaps between them;
    with ``altered``, the middle one has one character replaced by one the text does not hold."""
    middle = text[1205:1405]
    if altered:
        middle = middle[:100] + "#" + middle[101:]
    return f"{text[1000:1200]} $x_1$ {middle} $\\alpha$ {text[1410:1610]}"


@pytest.mark.parametrize(
    "quote_chars,share,math",
    [(100, None, None), (100, 0.1, None), (600, None, None), (600, None, "exact"), (600, None, "altered")],
    ids=["fabricated-100", "near-miss-100", "fabricated-600", "math-3-literals", "math-near-miss"],
)
def test_best_match_memory_per_document_character(quote_chars, share, math):
    quote, text = _strided_case(5, 200_000, quote_chars, share)
    doc = verify._NormalizedDoc(normalize(text))
    if math:
        quote = _math_quote(doc, altered=math == "altered")
    if math != "exact":
        doc.codes  # encoded once per document, before its first quote is matched
    best_match(quote, doc, 0.85)  # one-time allocations (caches, lazy imports) land here
    result, peak = traced_peak(lambda: best_match(quote, doc, 0.85))
    # The near misses and the math quotes match, so their spans are found too.
    assert result.matched == (share is not None or math is not None)
    assert peak <= 10 * len(doc), f"{peak / len(doc):.1f} bytes per document character"
    # The verbatim math quote is an exact chain: the document is never encoded.
    assert ("codes" in doc.__dict__) == (math != "exact")


def test_verification_result_invariants():
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.5, threshold_used=0.85,
                           span_start=0, span_end=5)
    with pytest.raises(ValueError):
        VerificationResult(matched=True, similarity=0.9, threshold_used=0.85)


# --- numpy's BLAS loads with one thread --------------------------------------

# The variables OpenBLAS takes its thread count from, first one set wins.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Prints the OS threads alive after the import, whether the environment is as
# it was before it, and how many CPUs this process may use.
_IMPORT_PROBE = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import paperlens, paperlens.cli\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before, len(os.sched_getaffinity(0)))"
)
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads"
)


def _env_without_blas_vars() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}


@needs_proc_tasks
def test_importing_the_package_starts_no_blas_threads_and_leaves_the_environment():
    proc = run_python(_IMPORT_PROBE, env=_env_without_blas_vars())
    assert proc.returncode == 0, proc.stderr
    threads, unchanged, _ = proc.stdout.split()
    assert (threads, unchanged) == ("1", "True")


@needs_proc_tasks
@pytest.mark.parametrize("name", _BLAS_VARS)
def test_a_callers_blas_thread_count_wins(name):
    proc = run_python(_IMPORT_PROBE, env={**_env_without_blas_vars(), name: "2"})
    assert proc.returncode == 0, proc.stderr
    threads, unchanged, cpus = proc.stdout.split()
    assert unchanged == "True"
    if int(cpus) >= 2:
        assert threads == "2"


def test_extract_cmd_children_see_the_callers_environment(tmp_path):
    # An extractor that runs its own BLAS work keeps its threads.
    src = tmp_path / "src"
    src.mkdir()
    (src / "paper.pdf").write_bytes(FAKE_PDF)
    script = "import os, pathlib, sys; pathlib.Path(sys.argv[1]).write_text(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"
    proc = run_python(
        "import sys; from paperlens.cli import main; sys.exit(main(sys.argv[1:]))",
        "ingest", "--source", src, "--out", tmp_path / "manifest.jsonl",
        "--extract-cmd", shlex.join([sys.executable, "-c", script]) + " {txt}",
        env=_env_without_blas_vars(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (src / "paper.txt").read_text(encoding="utf-8") == "unset"
