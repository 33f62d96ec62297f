"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Everything runs offline via the stub provider.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import batch_output_text, make_record, make_stub, synthetic_manifest, write_corpus
from paperlens.analytics import (
    DistributionTable,
    TierFractions,
    prevalence_estimate,
    richness_table,
)
from paperlens.corpus import ingest
from paperlens.prompts import build_annotation_prompt
from paperlens.provider import ProviderConfig, write_stub_fixture
from paperlens.records import (
    Dataset,
    load_dataset,
    parse_batch_output,
    render_record,
    save_dataset,
)
from paperlens.runner import RunnerConfig, batch_path, plan_batches, run_annotation, run_filter
from paperlens.taxonomy import SubjectArea, classify_tag
from paperlens.verify import best_match, verify_dataset
from test_analytics import C_COUNTS, D_COUNTS, EXPECTED_COEFFICIENTS
from test_records import WORKED_ITEMS, canonical_fixtures


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_batch_plan_reproduction():
    """5000 documents at batch size 25 plan to exactly 200 covering batches."""
    with criterion("batch-plan-reproduction", 1.0):
        manifest = synthetic_manifest(5000)
        cfg = RunnerConfig(batch_size=25, output_dir="out")
        jobs = plan_batches(manifest, cfg, ProviderConfig(), build_annotation_prompt().estimated_tokens)
        assert len(jobs) == 200
        seen = set()
        for job in jobs:
            assert len(job.doc_ids) == 25
            assert not seen & set(job.doc_ids)
            seen.update(job.doc_ids)
        assert seen == {r.doc_id for r in manifest.documents}


def test_richness_table_reproduction():
    """The reference C and D share columns yield the eight published
    coefficients after two-decimal rounding."""
    with criterion("richness-table-reproduction", 1.0):
        corpus = DistributionTable.from_counts(C_COUNTS)
        dataset = DistributionTable.from_counts(D_COUNTS)
        rows = richness_table(corpus, dataset)
        assert [round(r.coefficient, 2) for r in rows] == EXPECTED_COEFFICIENTS
        assert EXPECTED_COEFFICIENTS == [1.06, 0.99, 1.00, 0.88, 1.19, 0.92, 0.77, 1.32]


def test_prevalence_reproduction():
    """735 contributors of 5000 at 20/60/20 tiers give 2.94% and 11.76%."""
    with criterion("prevalence-reproduction", 1.0):
        est = prevalence_estimate(735, 5000, TierFractions(0.20, 0.60, 0.20))
        assert est.clear_rate == pytest.approx(0.0294, abs=1e-12)
        assert est.borderline_or_better_rate == pytest.approx(0.1176, abs=1e-12)
        assert abs(est.clear_rate - 0.03) <= 0.005
        assert abs(est.borderline_or_better_rate - 0.12) <= 0.005


def test_taxonomy_table():
    """Every grouped tag classifies exactly as listed; anything else is Other."""
    with criterion("taxonomy-table", 1.0):
        grouped = {
            SubjectArea.GEOMETRY: ["math.AG", "math.DG", "math.MG", "math.SG"],
            SubjectArea.ALGEBRA: ["math.AC", "math.CT", "math.GR", "math.OA",
                                  "math.QA", "math.RA", "math.RT"],
            SubjectArea.ANALYSIS: ["math.AP", "math.CA", "math.CV", "math.DS",
                                   "math.FA", "math.NA"],
            SubjectArea.TOPOLOGY: ["math.AT", "math.GN", "math.GT"],
            SubjectArea.COMBINATORICS: ["math.CO"],
            SubjectArea.NUMBER_THEORY: ["math.NT"],
            SubjectArea.PROBABILITY_STATISTICS: ["math.PR", "math.ST"],
            SubjectArea.LOGIC_SET_THEORY: ["math.LO"],
        }
        for area, tags in grouped.items():
            for tag in tags:
                assert classify_tag(tag) is area, tag
        for tag in ["math.GM", "math.HO", "math.IT", "math.KT", "math.OC",
                    "math.SP", "math.MP", "cs.AI", "q-bio.NC", "", None, "nonsense"]:
            assert classify_tag(tag) is SubjectArea.OTHER, tag


def test_offline_end_to_end(tmp_path):
    """50 synthetic documents with canned stub responses: two batch files,
    the known record count, 0.50 filter retention, and a resume that makes
    zero provider calls."""
    with criterion("offline-end-to-end", 10.0):
        docs = {
            f"p{i:03d}": f"Text of paper {i}. The bound holds because symmetry forces it, case {i}."
            for i in range(50)
        }
        src = write_corpus(tmp_path / "src", docs)
        manifest = ingest(src).manifest
        out = tmp_path / "run"
        cfg = RunnerConfig(batch_size=25, output_dir=str(out))
        fixtures = tmp_path / "fixtures"
        client = make_stub(fixtures)
        bundle = build_annotation_prompt()
        jobs = plan_batches(manifest, cfg, client.config, bundle.estimated_tokens)
        assert len(jobs) == 2

        counts = {0: 6, 1: 4}
        for job in jobs:
            recs = [
                make_record(10 * job.index + k, doc_id=job.doc_ids[k], batch_index=job.index)
                for k in range(counts[job.index])
            ]
            write_stub_fixture(fixtures, "annotation", list(job.doc_ids), batch_output_text(recs))
            write_stub_fixture(
                fixtures,
                "filter",
                [f"batch_{job.index}_output.txt"],
                batch_output_text(recs[: counts[job.index] // 2]),
            )
        summary = run_annotation(jobs, bundle, manifest, client, cfg)
        assert summary.completed == 2 and summary.failed == 0
        assert (out / "batch_0_output.txt").exists()
        assert (out / "batch_1_output.txt").exists()

        parsed = []
        for job in jobs:
            with open(batch_path(out, job.index, "output"), encoding="utf-8") as fh:
                parsed.extend(parse_batch_output(fh.read(), job.index)[0])
        assert len(parsed) == 10  # the fixtures' known record count

        stats = run_filter(out, client)
        assert stats.overall_retention == 0.50
        assert not stats.quota_warning

        calls_before = client.calls
        jobs_again = plan_batches(manifest, cfg, client.config, bundle.estimated_tokens)
        resume_cfg = RunnerConfig(batch_size=25, output_dir=str(out), resume=True)
        resumed = run_annotation(jobs_again, bundle, manifest, client, resume_cfg)
        assert client.calls == calls_before
        assert resumed.skipped == 2


def test_verifier_suite(tmp_path):
    """Planted exact quotes all verify at 0.85; planted fabrications are all
    rejected; hyphenation/ligature noise verifies; similarity is monotone
    under corruption across 100 randomized trials."""
    with criterion("verifier-suite", 30.0):
        rng = random.Random(99)
        sentences = [
            "The identity holds because the generating function factors cleanly.",
            "A bijective proof reveals the structural correspondence at work.",
            "This computation gives no insight into why the bound is tight.",
            "We explain the mechanism behind the cancellation in section four.",
            "The topological argument shows why a group structure must appear.",
        ]
        docs = {}
        quotes = {}
        for i in range(10):
            body = " ".join(rng.choice(sentences) for _ in range(30))
            marker = f"The decisive observation number {i} explains why the pattern persists."
            position = rng.randrange(0, len(body))
            docs[f"doc{i}"] = body[:position] + " " + marker + " " + body[position:]
            quotes[f"doc{i}"] = marker
        src = write_corpus(tmp_path / "src", docs)
        manifest = ingest(src).manifest

        exact = [
            make_record(i, doc_id=f"doc{i}") for i in range(10)
        ]
        for i, record in enumerate(exact):
            record.quote = quotes[f"doc{i}"]
        fabricated = []
        for i in range(10):
            record = make_record(100 + i, doc_id=f"doc{i}")
            record.quote = "".join(rng.choice("QXZJ0478#@") for _ in range(60))
            fabricated.append(record)

        ds = Dataset(records=exact + fabricated)
        annotated, summary = verify_dataset(ds, manifest, threshold=0.85)
        assert summary.counts["verified"] == 10  # 100% of planted exact quotes
        assert summary.counts["unverified"] == 10  # 100% of fabrications rejected
        for record in annotated.records[:10]:
            assert record.verification.similarity == 1.0  # exact containment

        # Hyphenation noise between quote and document.
        hyphenated_doc = (
            "It is the symme-\ntry of the argument that explains why the "
            "cancellation happens every time."
        )
        quote = "the symmetry of the argument that explains why the cancellation happens"
        assert best_match(quote, hyphenated_doc, 0.85).matched

        # Ligature noise between quote and document.
        ligature_doc = (
            "The eﬃcient proof shows why the extremal conﬁguration is "
            "unique among admissible ones."
        )
        quote = "efficient proof shows why the extremal configuration is unique"
        assert best_match(quote, ligature_doc, 0.85).matched

        # Monotone corruption, 100 randomized trials.
        base_doc = docs["doc0"]
        base_quote = quotes["doc0"]
        levels = [0.0, 0.1, 0.2, 0.3, 0.5]
        means = []
        for level in levels:
            total = 0.0
            for _ in range(20):
                chars = list(base_quote)
                for pos in rng.sample(range(len(chars)), int(level * len(chars))):
                    chars[pos] = rng.choice("QXZ019")
                sim = best_match("".join(chars), base_doc, 0.85).similarity
                total += sim
                if level >= 0.3:
                    assert sim < 0.85
            means.append(total / 20)
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def test_parser_round_trip():
    """All 20 canonical fixtures, including the five re-typed worked items,
    survive parse(render(r)) with identical parsed fields."""
    with criterion("parser-round-trip", 1.0):
        fixtures = canonical_fixtures()
        assert len(fixtures) == 20
        worked_titles = {title for _, title, _ in WORKED_ITEMS}
        assert worked_titles <= {r.title for r in fixtures}
        for record in fixtures:
            parsed, _ = parse_batch_output(render_record(record), record.batch_index)
            assert len(parsed) == 1
            got, want = parsed[0], record
            assert (got.source_doc_id, got.title, got.authors, got.finding,
                    got.quote, got.commentary, got.page) == \
                   (want.source_doc_id, want.title, want.authors, want.finding,
                    want.quote, want.commentary, want.page)


def test_persistence_round_trip(tmp_path):
    """Randomized datasets up to 2000 records survive save/load exactly."""
    with criterion("persistence-round-trip", 5.0):
        from test_records import random_dataset

        for size, seed in [(0, 0), (17, 1), (400, 2), (2000, 3)]:
            ds = random_dataset(size, seed=seed)
            path = tmp_path / f"ds{size}.records.jsonl"
            save_dataset(ds, path)
            assert load_dataset(path) == ds
