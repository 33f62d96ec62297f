"""Seeded synthetic inputs, with ground truth, for the pipeline benchmark.

``generate(workload, seed, out_dir)`` writes three things:

* ``corpus/``: ``x.pdf`` stubs and ``x.txt`` sidecars. The text carries
  extraction damage that ``normalize`` undoes: ligatures, line-break
  hyphenation, soft hyphens and hard wraps. Category tags arrive by
  filename, by the PDF ``/Subject`` entry, or not at all.
* ``fixtures/``: stub-provider responses for every planned annotation batch
  and every filter call, in the labelled-bullet form models produce.
* ``truth.json``: what the benchmark checks the program against. The
  program never reads it.

The same workload and seed give the same bytes. Sizes (document lengths,
quote lengths, the label of each quote slot) depend on the workload alone;
the seed changes the text, the tags, the sample and which quotes fail.

Every kept record's quote carries a label, and each label is built to a
verdict that holds under the similarity definition in ``verify.py``:

* ``exact``: a verbatim substring of the normalized document.
* ``noised``: a substring with OCR-style substitutions on at most 5% of its
  characters, plus ligature, soft-hyphen and line-break damage. Its
  planted window alone scores at least 0.95, so it matches.
* ``math``: two literal stretches around a ``$...$`` span whose rendering
  in the document differs from the LaTeX. Both stretches occur verbatim
  within the matcher's math-gap budget, so it matches.
* ``near-miss``: a substring with substitutions such that the similarity
  lies in ``NEAR_MISS_INTERVAL``, the review band below the threshold. The
  lower end is the planted window's score; the upper end is certified by
  ``oracle.similarity_upper_bound``. These are left out of the verdict gate.
* ``fabricated``: random words whose certified upper bound is below
  ``FABRICATED_CEILING``, so it cannot match or reach the review band.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

THRESHOLD = 0.85
NEAR_MISS_INTERVAL = (0.80, 0.85)
FABRICATED_CEILING = 0.75
MAX_INFLIGHT = 2
MAX_RETRIES = 3
BACKOFF_BASE_MS = 5

#: Verdict each label must get; near-misses are reported, not gated.
EXPECTED_MATCH = {"exact": True, "noised": True, "math": True, "fabricated": False}
LABELS = ("exact", "noised", "math", "near-miss", "fabricated")


@dataclass(frozen=True)
class Workload:
    """Sizes and provider behaviour of one benchmark workload."""

    name: str
    why: str
    n_docs: int
    doc_chars: tuple[int, int]
    sample_n: int
    batch_size: int
    contributors: int
    labels: tuple[tuple[str, int], ...]
    quote_chars: tuple[int, int]
    first_pass_share: float = 1.0
    send_delay_s: float = 0.0
    fail_once: int = 0
    fail_twice: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="study-5k",
            why="paper-scale corpus of 5000 documents: ingest and planning do the work, "
            "verify and provider do little",
            n_docs=5000,
            doc_chars=(2000, 8000),
            sample_n=300,
            batch_size=25,
            contributors=150,
            labels=(("exact", 200), ("noised", 10), ("math", 8), ("near-miss", 4), ("fabricated", 3)),
            quote_chars=(60, 140),
        ),
        Workload(
            name="quote-audit",
            why="long documents and 100 quotes in the full label mix: best_match does the work",
            n_docs=24,
            doc_chars=(20000, 60000),
            sample_n=24,
            batch_size=4,
            contributors=24,
            labels=(("exact", 40), ("math", 30), ("noised", 10), ("near-miss", 10), ("fabricated", 10)),
            quote_chars=(60, 120),
        ),
        Workload(
            name="provider-bound",
            why="60 batches against a slow, flaky stub: runner and provider waiting dominate",
            n_docs=120,
            doc_chars=(1200, 2000),
            sample_n=120,
            batch_size=2,
            contributors=120,
            labels=(("exact", 120),),
            quote_chars=(60, 100),
            first_pass_share=0.5,
            send_delay_s=0.05,
            fail_once=8,
            fail_twice=4,
        ),
    )
}

#: Tiny versions of each workload, run end to end by the benchmark's tests.
SMOKE: dict[str, Workload] = {
    "study-5k": replace(
        WORKLOADS["study-5k"],
        n_docs=60,
        sample_n=20,
        batch_size=5,
        contributors=10,
        labels=(("exact", 6), ("noised", 1), ("math", 1), ("near-miss", 1), ("fabricated", 1)),
    ),
    "quote-audit": replace(
        WORKLOADS["quote-audit"],
        n_docs=3,
        doc_chars=(3000, 5000),
        sample_n=3,
        batch_size=2,
        contributors=3,
        labels=(("exact", 2), ("math", 1), ("noised", 1), ("near-miss", 1), ("fabricated", 1)),
    ),
    "provider-bound": replace(
        WORKLOADS["provider-bound"],
        n_docs=8,
        sample_n=8,
        contributors=8,
        labels=(("exact", 8),),
        send_delay_s=0.01,
        fail_once=2,
        fail_twice=1,
    ),
}


def workload(name: str, size: str = "full") -> Workload:
    """The named workload at full size or in its smoke configuration."""
    table = SMOKE if size == "smoke" else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# Vocabulary, subject tags and formula renderings (fixed, seed-independent)
# ---------------------------------------------------------------------------

_SYLLABLES = (
    "al ge bra to po lo gy the o rem lem ma fin ite if fl ux off set in var i ant co ho mol "
    "sheaf ring field map fib er flow pro jec tive mor phism cat ego ry struc ture bound ed "
    "com pact lim it se ries sum ma ble con ver gent dif fer en tial func tor ker nel im age "
    "quo tient ideal prime mod ule vec tor space nor mal suf fi cient ef fect ive"
).split()


def _vocabulary() -> tuple[str, ...]:
    rng = random.Random("paperlens-bench-vocabulary")
    words: set[str] = set()
    while len(words) < 3000:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    return tuple(sorted(words))


VOCAB = _vocabulary()

#: Tags per subject area, written out independently of ``taxonomy.py``.
AREA_TAGS: dict[str, tuple[str, ...]] = {
    "geometry": ("math.AG", "math.DG", "math.MG", "math.SG"),
    "algebra": ("math.AC", "math.GR", "math.RA", "math.RT"),
    "analysis": ("math.AP", "math.CA", "math.FA", "math.DS"),
    "topology": ("math.AT", "math.GT", "math.GN"),
    "combinatorics": ("math.CO",),
    "number theory": ("math.NT",),
    "probability and statistics": ("math.PR", "math.ST"),
    "logic and set theory": ("math.LO",),
    "other": ("cs.LG", "stat.ML", "math.HO", "q-fin.ST"),
}
_AREA_WEIGHTS = (14, 14, 16, 8, 10, 9, 9, 5, 15)
_TAG_SOURCES = (("filename", 45), ("subject", 40), ("none", 15))

#: (LaTeX as a model quotes it, the same formula as PDF extraction renders it)
FORMULAS = (
    ("x^2 + y^2 = z^2", "x2 + y2 = z2"),
    ("\\sum_{i=1}^{n} a_i", "n X i=1 ai"),
    ("\\int_0^1 f(x)\\,dx", "Z 1 0 f(x)dx"),
    ("\\alpha \\leq \\beta", "α ≤ β"),
    ("\\mathbb{R}^n", "Rn"),
    ("e^{i\\pi} + 1 = 0", "eiπ + 1 = 0"),
    ("\\|T\\| \\leq C", "kT k ≤ C"),
)

_CONFUSABLE = {"l": "1", "o": "0", "e": "c", "i": "l", "s": "5", "a": "o", "n": "h",
               "m": "n", "r": "n", "t": "f", "u": "v", "c": "e", "g": "q", "b": "h"}


def stub_key(kind: str, refs: list[str] | tuple[str, ...]) -> str:
    """The stub provider's fixture key for a request (see docs/formats.md)."""
    material = kind + "|" + "|".join(sorted(refs))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def expected_sample(doc_ids: list[str], n: int, seed: int) -> list[str]:
    """The sample ``corpus.sample`` is specified to draw: a seeded Fisher-Yates prefix."""
    docs = sorted(doc_ids)
    rng = random.Random(seed)
    for i in range(n):
        j = rng.randrange(i, len(docs))
        docs[i], docs[j] = docs[j], docs[i]
    return sorted(docs[:n])


def _spread(lo: int, hi: int, i: int, n: int) -> int:
    return lo + (hi - lo) * i // max(1, n - 1)


def _counts(weights, n: int) -> list[int]:
    total = sum(weights)
    counts = [n * w // total for w in weights]
    for i in range(n - sum(counts)):
        counts[i % len(counts)] += 1
    return counts


def _slot_labels(labels: tuple[tuple[str, int], ...]) -> list[str]:
    """Labels interleaved evenly, in an order that depends on the counts only."""
    keyed = [((i + 0.5) / count, k, label) for k, (label, count) in enumerate(labels) for i in range(count)]
    return [label for _, _, label in sorted(keyed)]


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def _sentence(rng: random.Random, lo: int, hi: int) -> list[str]:
    words = rng.choices(VOCAB, k=rng.randint(lo, hi))
    words[0] = words[0].capitalize()
    words[-1] += "."
    return words


def _tokens(rng: random.Random, n_chars: int) -> list[str]:
    tokens: list[str] = []
    size = 0
    while size < n_chars:
        words = _sentence(rng, 6, 16)
        tokens.extend(words)
        size += sum(len(w) + 1 for w in words)
    return tokens


def _split_point(word: str) -> int | None:
    mid = len(word) // 2
    if len(word) >= 6 and word[mid - 1].isalpha() and word[mid].isalpha():
        return mid
    return None


def damage(rng: random.Random, tokens: list[str]) -> str:
    """Render tokens as extracted text; ``normalize`` maps it back to ``" ".join(tokens)``."""
    out: list[str] = []
    i = 0
    while i < len(tokens):
        chunk = list(tokens[i : i + rng.randint(9, 14)])
        i += len(chunk)
        if len(chunk) > 1 and rng.random() < 0.3:
            k = rng.randrange(len(chunk) - 1)
            mid = _split_point(chunk[k])
            if mid:
                chunk[k] = chunk[k][:mid] + "\u00ad" + chunk[k][mid:]
        sep = "\n"
        mid = _split_point(chunk[-1])
        if i < len(tokens) and mid and rng.random() < 0.35:
            chunk[-1] = chunk[-1][:mid] + "-\n" + chunk[-1][mid:]
            sep = " "
        line = " ".join(chunk)
        if rng.random() < 0.5:
            line = line.replace("ff", "ﬀ").replace("fi", "ﬁ").replace("fl", "ﬂ")
        out.append(line)
        out.append(sep)
    return "".join(out[:-1]) + "\n"


def _noise_damage(rng: random.Random, text: str) -> str:
    """Damage ``normalize`` removes: a ligature, a soft hyphen, a line-break hyphen."""
    for plain, lig in (("fi", "ﬁ"), ("fl", "ﬂ"), ("ff", "ﬀ")):
        if plain in text:
            text = text.replace(plain, lig, 1)
            break
    words = text.split(" ")
    eligible = [k for k, w in enumerate(words) if _split_point(w) and w.isalpha()]
    rng.shuffle(eligible)
    for k, mark in zip(eligible[:2], ("\u00ad", "-\n")):
        mid = _split_point(words[k])
        words[k] = words[k][:mid] + mark + words[k][mid:]
    return " ".join(words)


def _substitute(rng: random.Random, text: str, k: int) -> str:
    """Replace k letters, no two adjacent, with look-alike characters."""
    letters = [i for i, ch in enumerate(text) if ch.isalpha() and ch.isascii()]
    rng.shuffle(letters)
    chosen: list[int] = []
    for i in letters:
        if all(abs(i - j) > 1 for j in chosen):
            chosen.append(i)
            if len(chosen) == k:
                break
    if len(chosen) < k:
        raise _Retry("not enough letters to substitute")
    chars = list(text)
    for i in chosen:
        low = chars[i].lower()
        chars[i] = _CONFUSABLE.get(low, "x" if low != "x" else "y")
    return "".join(chars)


class _Retry(Exception):
    """A random draw missed its constraint; the document is drawn again."""


class _Doc:
    """One document's tokens, with spans reserved for planted quotes."""

    def __init__(self, rng: random.Random, n_chars: int, n_formulas: int) -> None:
        self.rng = rng
        self.tokens = _tokens(rng, n_chars)
        self.used = [False] * len(self.tokens)
        self.formulas: list[tuple[int, int, str]] = []  # (token index, token count, latex)
        picks = sorted(rng.sample(range(20, max(21, len(self.tokens) - 20)), n_formulas))
        shift = 0
        for p in picks:
            latex, render = rng.choice(FORMULAS)
            rendered = render.split(" ")
            at = p + shift
            self.tokens[at:at] = rendered
            self.used[at:at] = [True] * len(rendered)
            self.formulas.append((at, len(rendered), latex))
            shift += len(rendered)
        self.text = " ".join(self.tokens)

    def take(self, start: int, stop: int, margin: int = 1) -> str:
        """Reserve tokens ``start:stop``; ``margin`` free tokens must flank them."""
        if start < 0 or stop > len(self.tokens) or any(self.used[max(0, start - margin) : stop + margin]):
            raise _Retry("span overlaps another quote")
        for t in range(start, stop):
            self.used[t] = True
        return " ".join(self.tokens[start:stop])

    def span_of(self, start: int, chars: int, forward: bool = True) -> tuple[int, int]:
        """Token range from ``start`` covering at least ``chars`` characters."""
        size, t = -1, start
        while size < chars:
            idx = t if forward else t - 1
            if not 0 <= idx < len(self.tokens):
                raise _Retry("span runs off the document")
            size += len(self.tokens[idx]) + 1
            t = t + 1 if forward else t - 1
        return (start, t) if forward else (t, start)

    def substring(self, chars: int) -> str:
        for _ in range(200):
            start = self.rng.randrange(len(self.tokens))
            try:
                return self.take(*self.span_of(start, chars))
            except _Retry:
                continue
        raise _Retry("no free span")


def _quote(doc: _Doc, label: str, m: int) -> tuple[str, str, list[str]]:
    """Plant one quote; returns (quote as the model writes it, its normalized form, literals)."""
    rng = doc.rng
    if label == "exact":
        s = doc.substring(m)
        return s, s, [s]
    if label == "noised":
        s = doc.substring(m)
        subbed = _substitute(rng, s, max(1, len(s) // 25))
        return _noise_damage(rng, subbed), subbed, [s]
    if label == "near-miss":
        s = doc.substring(m)
        size = len(s)
        k = math.floor(0.15 * math.ceil(1.2 * size)) + 1
        if k > 0.2 * size:
            raise _Retry("no substitution count fits the review band")
        subbed = _substitute(rng, s, k)
        return subbed, subbed, [s]
    if label == "fabricated":
        words: list[str] = []
        while len(" ".join(words)) < m:
            words.append(rng.choice(VOCAB))
        q = " ".join(words)
        return q, q, []
    if label == "math":
        at, count, latex = doc.formulas.pop()
        # The literals sit right against the formula, so no margin.
        a = doc.take(*doc.span_of(at, m // 2, forward=False), margin=0)
        b = doc.take(*doc.span_of(at + count, m - m // 2), margin=0)
        q = f"{a} ${latex}$ {b}"
        return q, q, [a, b]
    raise ValueError(f"unknown label {label!r}")


def _certify(label: str, norm: str, literals: list[str], text: str) -> None:
    import oracle  # numpy stays out of processes that only need the tables above

    for lit in literals:
        if text.count(lit) != 1:
            raise _Retry("planted literal is not unique")
    if label == "near-miss":
        k = sum(1 for a, b in zip(norm, literals[0]) if a != b)
        lower = 1 - k / len(norm)
        upper = oracle.similarity_upper_bound(norm, text)
        lo, hi = NEAR_MISS_INTERVAL
        if not (lo <= lower and upper < hi):
            raise _Retry("near-miss outside the review band")
    elif label == "fabricated":
        if oracle.similarity_upper_bound(norm, text) >= FABRICATED_CEILING:
            raise _Retry("fabricated quote too close to the document")


# ---------------------------------------------------------------------------
# Records and batch outputs
# ---------------------------------------------------------------------------


def _phrase(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(_sentence(rng, lo, hi))


def _record(rng: random.Random, doc_id: str, quote: str) -> dict:
    return {
        "source_doc_id": doc_id,
        "title": "On the " + " ".join(rng.choices(VOCAB, k=2)) + " of " + rng.choice(VOCAB),
        "finding": _phrase(rng, 6, 12),
        "quote": quote,
        "commentary": _phrase(rng, 5, 10),
        "page": rng.randint(1, 40) if rng.random() < 0.75 else None,
    }


def render_output(records: list[dict], bold: bool, synonyms: bool) -> str:
    """Batch output as a model writes it: records grouped under file headers."""
    if not records:
        return "No relevant examples were found in this batch.\n"
    mark = "**" if bold else ""
    finding, context = ("Example", "Context") if synonyms else ("Finding", "Commentary")
    blocks: list[str] = []
    last_doc = None
    for rec in records:
        if rec["source_doc_id"] != last_doc:
            blocks.append(f"{mark}File:{mark} {rec['source_doc_id']}.pdf")
            last_doc = rec["source_doc_id"]
        quote = f'"{rec["quote"]}"' + (f" (p. {rec['page']})." if rec["page"] is not None else "")
        blocks.append(
            "\n".join(
                (
                    f"- {mark}Title:{mark} {rec['title']}",
                    f"- {mark}{finding}:{mark} {rec['finding']}",
                    f"- {mark}Quote:{mark} {quote}",
                    f"- {mark}{context}:{mark} {rec['commentary']}",
                )
            )
        )
    return "\n\n".join(blocks) + "\n"


def _pdf_stub(doc_id: str, subject: str | None) -> bytes:
    info = f"/Title (Synthetic paper {doc_id})"
    if subject:
        info += f" /Subject ({subject})"
    return (
        f"%PDF-1.4\n1 0 obj\n<< {info} >>\nendobj\ntrailer\n<< /Info 1 0 R >>\n%%EOF\n"
    ).encode("latin-1")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _build_doc(w: Workload, seed: int, doc_id: str, n_chars: int, slots: list[tuple[str, int]]):
    """Draw one document until every planted quote meets its label's constraint."""
    for attempt in range(50):
        rng = random.Random(f"{w.name}:{seed}:{doc_id}:{attempt}")
        doc = _Doc(rng, n_chars, sum(1 for label, _ in slots if label == "math"))
        try:
            planted = []
            for label, m in slots:
                quote, norm, literals = _quote(doc, label, m)
                planted.append((label, quote, norm, literals))
            dropped = doc.substring(rng.randint(60, 90))
            for label, _, norm, literals in planted:
                _certify(label, norm, literals, doc.text)
            _certify("exact", dropped, [dropped], doc.text)
        except _Retry:
            continue
        return doc, planted, dropped
    raise RuntimeError(f"could not draw document {doc_id} for {w.name} seed {seed}")


def generate(w: Workload, seed: int, out_dir: str | Path) -> dict:
    """Write the workload's inputs under ``out_dir``; returns the ground truth."""
    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    corpus_dir = out / "corpus"
    fixtures_dir = out / "fixtures"
    corpus_dir.mkdir(parents=True)
    fixtures_dir.mkdir()
    rng = random.Random(f"{w.name}:{seed}")

    areas = [a for a, c in zip(AREA_TAGS, _counts(_AREA_WEIGHTS, w.n_docs)) for _ in range(c)]
    sources = [s for (s, _), c in zip(_TAG_SOURCES, _counts([c for _, c in _TAG_SOURCES], w.n_docs)) for _ in range(c)]
    rng.shuffle(areas)
    rng.shuffle(sources)

    doc_ids, doc_tags, truth_areas = [], [], {}
    for i in range(w.n_docs):
        tag = rng.choice(AREA_TAGS[areas[i]])
        base = f"d{i:05d}"
        doc_id = f"{base}-{tag}" if sources[i] == "filename" else base
        doc_ids.append(doc_id)
        doc_tags.append((sources[i], tag))
        truth_areas[doc_id] = areas[i] if sources[i] != "none" else "other"

    sample = expected_sample(doc_ids, w.sample_n, seed)
    contributors = sorted(rng.sample(sample, w.contributors))
    slot_labels = _slot_labels(w.labels)
    lo, hi = w.quote_chars
    slots: dict[str, list[tuple[str, int]]] = {d: [] for d in sample}
    for j, label in enumerate(slot_labels):
        slots[contributors[j % len(contributors)]].append((label, lo + (hi - lo) * ((j * 7) % 11) // 10))

    records: dict[str, list[dict]] = {}
    for i, doc_id in enumerate(doc_ids):
        n_chars = _spread(*w.doc_chars, i, w.n_docs)
        source, tag = doc_tags[i]
        (corpus_dir / f"{doc_id}.pdf").write_bytes(_pdf_stub(doc_id, tag if source == "subject" else None))
        if doc_id in slots:
            doc, planted, dropped = _build_doc(w, seed, doc_id, n_chars, slots[doc_id])
            doc_rng = doc.rng
            recs = []
            for label, quote, norm, _ in planted:
                rec = _record(doc_rng, doc_id, quote)
                rec.update(kept=True, label=label, norm=norm, exact=norm in doc.text)
                recs.append(rec)
            rec = _record(doc_rng, doc_id, dropped)
            rec.update(kept=False, label=None, norm=dropped, exact=True)
            recs.append(rec)
            records[doc_id] = recs
            tokens = doc.tokens
        else:
            doc_rng = random.Random(f"{w.name}:{seed}:{doc_id}")
            tokens = _tokens(doc_rng, n_chars)
        (corpus_dir / f"{doc_id}.txt").write_text(damage(doc_rng, tokens), encoding="utf-8")

    batches = []
    for index in range(0, len(sample), w.batch_size):
        batch_ids = sample[index : index + w.batch_size]
        b = index // w.batch_size
        recs = [dict(r, batch_index=b) for d in batch_ids for r in records[d]]
        kept = [r for r in recs if r["kept"]]
        bold, synonyms = rng.random() < 0.5, rng.random() < 0.5
        (fixtures_dir / f"annotation-{stub_key('annotation', batch_ids)}.txt").write_text(
            render_output(recs, bold, synonyms), encoding="utf-8"
        )
        name = f"batch_{b}_output.txt"
        (fixtures_dir / f"filter-{stub_key('filter', [name])}.txt").write_text(
            render_output(kept, bold, synonyms), encoding="utf-8"
        )
        batches.append({"index": b, "doc_ids": batch_ids, "records": recs})

    keys = [f"annotation-{stub_key('annotation', b['doc_ids'])}" for b in batches]
    keys += [f"filter-{stub_key('filter', ['batch_%d_output.txt' % b['index']])}" for b in batches]
    failing = rng.sample(keys, w.fail_once + w.fail_twice)
    script = {k: 1 if n < w.fail_once else 2 for n, k in enumerate(failing)}

    truth = {
        "workload": w.name,
        "seed": seed,
        "n_docs": w.n_docs,
        "sample_n": w.sample_n,
        "sample_seed": seed,
        "batch_size": w.batch_size,
        "full_plan_batches": math.ceil(w.n_docs / w.batch_size),
        "first_pass_batches": math.ceil(len(batches) * w.first_pass_share),
        "send_delay_s": w.send_delay_s,
        "max_inflight": MAX_INFLIGHT,
        "max_retries": MAX_RETRIES,
        "backoff_base_ms": BACKOFF_BASE_MS,
        "threshold": THRESHOLD,
        "areas": truth_areas,
        "sample": sample,
        "batches": batches,
        "script": script,
    }
    (out / "truth.json").write_text(json.dumps(truth, ensure_ascii=False, sort_keys=True), encoding="utf-8")
    return truth


# ---------------------------------------------------------------------------
# Fixed inputs for the kernel timings and the similarity-error probes
# ---------------------------------------------------------------------------


def kernel_inputs() -> dict[str, str]:
    """Fixed inputs for the per-call kernel timings (independent of any seed)."""
    rng = random.Random("paperlens-bench-kernels")
    doc20k = " ".join(_tokens(rng, 20000))[:20000].rsplit(" ", 1)[0]

    def fabricated(m: int) -> str:
        return " ".join(_tokens(rng, m))[:m].rstrip(" .")

    records = []
    for k in range(50):
        rec = _record(rng, f"d{k // 5:05d}", fabricated(100))
        records.append(rec)
    return {
        "normalize_doc": damage(rng, _tokens(rng, 8000)),
        "doc20k": doc20k,
        "q100": fabricated(100),
        "q600": fabricated(600),
        "batch_output": render_output(records, bold=True, synonyms=False),
    }


def similarity_probes(count: int = 40) -> list[tuple[str, str]]:
    """Fixed (quote, document) pairs on short documents, for the exhaustive check.

    Quotes are 30-80 characters, so the matcher's coarse stride is 3-8.
    Half are random text, half are substrings with 10-25% substitutions.
    """
    rng = random.Random("paperlens-bench-probes")
    probes = []
    for k in range(count):
        doc = " ".join(_tokens(rng, rng.randint(800, 1500)))
        m = rng.randint(30, 80)
        if k % 2:
            start = rng.randrange(len(doc) - m)
            quote = _substitute(rng, doc[start : start + m].strip(), max(1, int(m * rng.uniform(0.1, 0.25))))
        else:
            quote = " ".join(_tokens(rng, m))[:m].strip()
        probes.append((quote, doc))
    return probes
