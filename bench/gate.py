"""Correctness gate: compare one pipeline run's outputs with the generator's truth.

Every check works on plain data (lists, dicts, file text), so it reads the
program's outputs without relying on the program's own logic.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter

from generate import EXPECTED_MATCH

RECORD_FIELDS = ("source_doc_id", "title", "finding", "quote", "commentary", "page", "batch_index")
MAIN_AREAS = (
    "geometry",
    "algebra",
    "analysis",
    "topology",
    "combinatorics",
    "number theory",
    "probability and statistics",
    "logic and set theory",
)


def kept_records(truth: dict) -> list[dict]:
    return [r for b in truth["batches"] for r in b["records"] if r["kept"]]


def verdict_agreement(truth: dict, matched: list[bool]) -> tuple[float, list[str]]:
    """Share of labelled quotes whose verdict equals the label's; near-misses excluded."""
    errors = []
    agree = total = 0
    for rec, got in zip(kept_records(truth), matched):
        expected = EXPECTED_MATCH.get(rec["label"])
        if expected is None:
            continue
        total += 1
        if got == expected:
            agree += 1
        else:
            errors.append(
                f"{rec['label']} quote in {rec['source_doc_id']} verified as matched={got}: {rec['quote'][:60]!r}"
            )
    return (agree / total if total else 1.0), errors


def check_documents(truth: dict, sample_ids: list[str], jobs: list[dict]) -> list[str]:
    """No sampled document is lost between sampling and the annotation plan's outcome.

    ``jobs`` holds each planned batch's ``doc_ids`` and ``status``
    (``done`` or ``failed``) after the resume pass.
    """
    errors = []
    if sample_ids != truth["sample"]:
        missing = sorted(set(truth["sample"]) - set(sample_ids))
        errors.append(f"sample differs from the specified draw; missing {missing[:5]}")
    planned = [d for job in jobs for d in job["doc_ids"]]
    if sorted(planned) != sorted(sample_ids):
        errors.append("annotation plan does not cover the sample exactly once")
    accounted = {d for job in jobs if job["status"] in ("done", "failed") for d in job["doc_ids"]}
    lost = sorted(set(sample_ids) - accounted)
    if lost:
        errors.append(f"{len(lost)} sampled documents in neither a completed nor a failed batch: {lost[:5]}")
    return errors


def check_records(truth: dict, records: list[dict], retention: dict[int, tuple[int, int]]) -> list[str]:
    errors = []
    expected = [tuple(r[f] for f in RECORD_FIELDS) for r in kept_records(truth)]
    got = [tuple(r[f] for f in RECORD_FIELDS) for r in records]
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        errors.append(
            f"parsed records differ from the generated ones: {len(got)} parsed, {len(expected)} expected, "
            f"first difference at record {first}"
        )
    want = {
        b["index"]: (sum(r["kept"] for r in b["records"]), len(b["records"])) for b in truth["batches"]
    }
    if {int(k): tuple(v) for k, v in retention.items()} != want:
        errors.append("filter retention per batch differs from the generated kept/total counts")
    return errors


def expected_tables(truth: dict) -> tuple[Counter, Counter]:
    corpus = Counter(truth["areas"].values())
    contributors = {r["source_doc_id"] for r in kept_records(truth)}
    dataset = Counter(truth["areas"][d] for d in contributors)
    return corpus, dataset


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_stats(truth: dict, csv_text: str, report_text: str, prevalence: dict) -> list[str]:
    """Richness CSV and prevalence against values computed from the generator's tags."""
    errors = []
    corpus, dataset = expected_tables(truth)
    c_total, d_total = sum(corpus.values()), sum(dataset.values())
    rows = {row["area"].lower(): row for row in csv.DictReader(io.StringIO(csv_text))}
    for area in MAIN_AREAS + ("other",):
        row = rows.get(area)
        if row is None:
            errors.append(f"richness table has no row for {area!r}")
            continue
        c_share = corpus[area] / c_total
        d_share = dataset[area] / d_total if d_total else 0.0
        ok = (
            int(row["corpus_count"]) == corpus[area]
            and int(row["dataset_count"]) == dataset[area]
            and _close(float(row["corpus_share"]), c_share)
            and _close(float(row["dataset_share"]), d_share)
        )
        if area != "other":
            coefficient = d_share / c_share if c_share > 0 else None
            if coefficient is None:
                ok = ok and row["coefficient"] == ""
            else:
                ok = ok and row["coefficient"] != "" and _close(float(row["coefficient"]), coefficient)
        if not ok:
            errors.append(f"richness row for {area!r} differs from the generator's tag counts: {dict(row)}")

    clear, bob = d_total * 0.20 / c_total, d_total * 0.80 / c_total
    if not (
        prevalence["contributing"] == d_total
        and prevalence["total"] == c_total
        and _close(prevalence["clear_rate"], clear)
        and _close(prevalence["borderline_or_better_rate"], bob)
    ):
        errors.append(f"prevalence {prevalence} differs from {d_total} of {c_total} papers")
    m = re.search(r"Contributing papers: (\d+) of (\d+)", report_text)
    if not m or (int(m.group(1)), int(m.group(2))) != (d_total, c_total):
        errors.append("report does not state the expected contributing and total papers")
    return errors


def check_resume(truth: dict, first_keys: list[str], resume_keys: list[str], resume_skipped: int) -> list[str]:
    errors = []
    repeated = sorted(set(first_keys) & set(resume_keys))
    if repeated:
        errors.append(f"resume pass called the provider for {len(repeated)} batches already done")
    if resume_skipped != truth["first_pass_batches"]:
        errors.append(f"resume pass skipped {resume_skipped} batches, expected {truth['first_pass_batches']}")
    return errors
