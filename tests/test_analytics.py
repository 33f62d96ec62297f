"""Distribution, richness-coefficient, prevalence, and report tests.

The richness and prevalence expectations here are the published reference
values the tool must reproduce from its own arithmetic.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_manifest
from paperlens.analytics import (
    AnalyticsError,
    DistributionTable,
    TierFractions,
    corpus_distribution,
    dataset_distribution,
    emit_report,
    prevalence_estimate,
    richness_table,
)
from paperlens.atomic import PaperlensError
from paperlens.corpus import CorpusManifest, DocumentRef
from paperlens.records import Dataset, ExampleRecord
from paperlens.taxonomy import MAIN_AREAS, SubjectArea

# Reference distribution columns: per-mille counts realizing the published
# corpus (C) and dataset (D) percentage columns, Other absorbing the rest.
C_COUNTS = {
    SubjectArea.GEOMETRY: 335,
    SubjectArea.ALGEBRA: 242,
    SubjectArea.ANALYSIS: 143,
    SubjectArea.TOPOLOGY: 102,
    SubjectArea.COMBINATORICS: 52,
    SubjectArea.NUMBER_THEORY: 38,
    SubjectArea.PROBABILITY_STATISTICS: 30,
    SubjectArea.LOGIC_SET_THEORY: 19,
    SubjectArea.OTHER: 39,
}
D_COUNTS = {
    SubjectArea.GEOMETRY: 356,
    SubjectArea.ALGEBRA: 239,
    SubjectArea.ANALYSIS: 143,
    SubjectArea.TOPOLOGY: 90,
    SubjectArea.COMBINATORICS: 62,
    SubjectArea.NUMBER_THEORY: 35,
    SubjectArea.PROBABILITY_STATISTICS: 23,
    SubjectArea.LOGIC_SET_THEORY: 25,
    SubjectArea.OTHER: 27,
}
EXPECTED_COEFFICIENTS = [1.06, 0.99, 1.00, 0.88, 1.19, 0.92, 0.77, 1.32]


def manifest_with_tags(tag_list) -> CorpusManifest:
    refs = [
        DocumentRef(doc_id=f"d{i:05d}", path="p", text_path="t", category_tag=tag)
        for i, tag in enumerate(tag_list)
    ]
    return CorpusManifest.build(refs)


AREA_TO_TAG = {
    SubjectArea.GEOMETRY: "math.AG",
    SubjectArea.ALGEBRA: "math.GR",
    SubjectArea.ANALYSIS: "math.AP",
    SubjectArea.TOPOLOGY: "math.GT",
    SubjectArea.COMBINATORICS: "math.CO",
    SubjectArea.NUMBER_THEORY: "math.NT",
    SubjectArea.PROBABILITY_STATISTICS: "math.PR",
    SubjectArea.LOGIC_SET_THEORY: "math.LO",
    SubjectArea.OTHER: None,
}


def manifest_realizing(counts) -> CorpusManifest:
    tags = []
    for area, n in counts.items():
        tags.extend([AREA_TO_TAG[area]] * n)
    return manifest_with_tags(tags)


# --- corpus_distribution ---------------------------------------------------------


def test_corpus_distribution_direct_tally():
    manifest = manifest_with_tags(["math.AG", "math.AG", "math.CO", "math.LO"])
    table = corpus_distribution(manifest)
    assert table.share(SubjectArea.GEOMETRY) == 0.5
    assert table.share(SubjectArea.COMBINATORICS) == 0.25
    assert table.share(SubjectArea.LOGIC_SET_THEORY) == 0.25
    assert table.total == 4


def test_corpus_distribution_all_unknown():
    manifest = manifest_with_tags([None, None, None])
    table = corpus_distribution(manifest)
    assert table.share(SubjectArea.OTHER) == 1.0


def test_corpus_distribution_empty_manifest_is_error():
    with pytest.raises(AnalyticsError, match="empty"):
        corpus_distribution(CorpusManifest(documents=()))


def test_corpus_distribution_matches_reference_column():
    manifest = manifest_realizing(C_COUNTS)
    table = corpus_distribution(manifest)
    expected_shares = [0.335, 0.242, 0.143, 0.102, 0.052, 0.038, 0.030, 0.019]
    for area, want in zip(MAIN_AREAS, expected_shares):
        assert table.share(area) == pytest.approx(want, abs=0.001)


def test_shares_sum_to_one():
    manifest = manifest_realizing(C_COUNTS)
    table = corpus_distribution(manifest)
    assert sum(table.share(area) for area in SubjectArea) == pytest.approx(1.0, abs=1e-9)


# --- dataset_distribution ---------------------------------------------------------


def _dataset_from_doc_ids(doc_ids) -> Dataset:
    return Dataset(
        records=[
            ExampleRecord(source_doc_id=d, finding=f"finding {i}") for i, d in enumerate(doc_ids)
        ]
    )


def test_dataset_distribution_counts_distinct_papers():
    manifest = manifest_with_tags(["math.CO"])
    ds = _dataset_from_doc_ids(["d00000", "d00000", "d00000"])
    table = dataset_distribution(ds, manifest)
    assert table.count(SubjectArea.COMBINATORICS) == 1
    assert table.total == 1


def test_dataset_distribution_empty():
    manifest = manifest_with_tags(["math.CO"])
    table = dataset_distribution(Dataset(), manifest)
    assert table.total == 0
    assert all(v == 0 for v in table.counts.values())


def test_dataset_distribution_unresolved_excluded(caplog):
    manifest = manifest_with_tags(["math.CO"])
    ds = _dataset_from_doc_ids(["d00000", "ghost-paper"])
    with caplog.at_level("WARNING"):
        table = dataset_distribution(ds, manifest)
    assert table.total == 1
    assert any("ghost-paper" in m for m in caplog.messages)


def test_dataset_distribution_matches_reference_column():
    manifest = manifest_realizing(D_COUNTS)
    ds = _dataset_from_doc_ids([r.doc_id for r in manifest.documents])
    table = dataset_distribution(ds, manifest)
    expected_shares = [0.356, 0.239, 0.143, 0.090, 0.062, 0.035, 0.023, 0.025]
    for area, want in zip(MAIN_AREAS, expected_shares):
        assert table.share(area) == pytest.approx(want, abs=0.001)


def test_duplicating_records_leaves_distribution_unchanged():
    manifest = manifest_with_tags(["math.AG", "math.CO", "math.NT"])
    ids = [r.doc_id for r in manifest.documents]
    once = dataset_distribution(_dataset_from_doc_ids(ids), manifest)
    doubled = dataset_distribution(_dataset_from_doc_ids(ids + ids), manifest)
    assert once == doubled


# --- richness_table -----------------------------------------------------------------


def test_reference_coefficients_reproduced():
    corpus = DistributionTable.from_counts(C_COUNTS)
    dataset = DistributionTable.from_counts(D_COUNTS)
    rows = richness_table(corpus, dataset)
    got = [round(row.coefficient, 2) for row in rows]
    assert got == EXPECTED_COEFFICIENTS


def test_single_row_coefficients():
    # Geometry: D=0.356 over C=0.335 -> 1.06; probability/stats: 0.023/0.030 -> 0.77.
    assert round(0.356 / 0.335, 2) == 1.06
    assert round(0.023 / 0.030, 2) == 0.77


def test_parity_gives_ones():
    table = DistributionTable.from_counts(C_COUNTS)
    rows = richness_table(table, table)
    assert all(row.coefficient == pytest.approx(1.0) for row in rows)


def test_richness_identity():
    corpus = DistributionTable.from_counts(C_COUNTS)
    dataset = DistributionTable.from_counts(D_COUNTS)
    for row in richness_table(corpus, dataset):
        assert abs(row.coefficient * row.corpus_share - row.dataset_share) < 1e-12


def test_zero_corpus_share_undefined():
    corpus = DistributionTable.from_counts({SubjectArea.GEOMETRY: 10})
    dataset = DistributionTable.from_counts({SubjectArea.ALGEBRA: 5})
    rows = {row.area: row for row in richness_table(corpus, dataset)}
    assert rows[SubjectArea.ALGEBRA].coefficient is None
    assert rows[SubjectArea.ALGEBRA].display_coefficient == "-"


# --- prevalence ----------------------------------------------------------------------


def test_reference_prevalence():
    est = prevalence_estimate(735, 5000, TierFractions(0.20, 0.60, 0.20))
    assert est.clear_rate == pytest.approx(0.0294, abs=1e-12)
    assert est.borderline_or_better_rate == pytest.approx(0.1176, abs=1e-12)
    # Within half a percentage point of the round figures.
    assert abs(est.clear_rate - 0.03) < 0.005
    assert abs(est.borderline_or_better_rate - 0.12) < 0.005


def test_prevalence_zero_contributors():
    est = prevalence_estimate(0, 5000, TierFractions())
    assert est.clear_rate == 0.0
    assert est.borderline_or_better_rate == 0.0


def test_prevalence_saturation():
    est = prevalence_estimate(5000, 5000, TierFractions(1.0, 0.0, 0.0))
    assert est.clear_rate == 1.0


@settings(max_examples=50)
@given(contrib=st.integers(min_value=0, max_value=1000), scale=st.integers(min_value=1, max_value=5))
def test_prevalence_linear_in_contributing(contrib, scale):
    total = 2000
    tiers = TierFractions()
    base = prevalence_estimate(contrib, total, tiers)
    if contrib * scale <= total:
        scaled = prevalence_estimate(contrib * scale, total, tiers)
        assert scaled.clear_rate == pytest.approx(base.clear_rate * scale)


def test_invalid_tiers_rejected():
    with pytest.raises(AnalyticsError, match="sum to 1"):
        TierFractions(0.5, 0.5, 0.5)
    with pytest.raises(AnalyticsError, match="in \\[0, 1\\]"):
        TierFractions(1.5, -0.5, 0.0)
    with pytest.raises(AnalyticsError):
        prevalence_estimate(6000, 5000)


# --- emit_report ----------------------------------------------------------------------


def test_report_contents_and_determinism(tmp_path):
    corpus = DistributionTable.from_counts(C_COUNTS)
    dataset = DistributionTable.from_counts(D_COUNTS)
    prevalence = prevalence_estimate(735, 5000)
    report1, csv1 = emit_report(corpus, dataset, prevalence, tmp_path / "r1")
    report2, csv2 = emit_report(corpus, dataset, prevalence, tmp_path / "r2")
    assert report1.read_bytes() == report2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()

    text = report1.read_text()
    assert "1.06" in text and "0.77" in text and "1.32" in text
    assert "335" in text  # raw counts shown
    assert "high=0.20, borderline=0.60, low=0.20" in text
    assert "2.9%" in text and "11.8%" in text

    csv_text = csv1.read_text()
    assert csv_text.splitlines()[0] == (
        "area,corpus_count,corpus_share,dataset_count,dataset_share,coefficient"
    )
    assert len(csv_text.splitlines()) == 10  # header + 8 areas + Other


GOLDEN = Path(__file__).parent / "golden"

# Each case: corpus counts, dataset counts, prevalence. The first has an area
# with no corpus papers, so its coefficient is undefined.
STATS_CASES = {
    "zero_corpus_share": (
        {**C_COUNTS, SubjectArea.LOGIC_SET_THEORY: 0}, D_COUNTS, prevalence_estimate(735, 5000)
    ),
    "zero_contributors": (C_COUNTS, {}, prevalence_estimate(0, 5000)),
}


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_report_and_csv_bytes_match_golden_files(tmp_path, case):
    corpus, dataset, prevalence = STATS_CASES[case]
    report, csv_path = emit_report(
        DistributionTable.from_counts(corpus), DistributionTable.from_counts(dataset), prevalence, tmp_path
    )
    assert report.read_bytes() == (GOLDEN / f"stats_{case}_report.txt").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN / f"stats_{case}_richness.csv").read_bytes()


def test_report_empty_dataset(tmp_path):
    corpus = DistributionTable.from_counts(C_COUNTS)
    dataset = DistributionTable.from_counts({})
    report, _ = emit_report(corpus, dataset, prevalence_estimate(0, 5000), tmp_path / "r")
    assert "zero contributing papers" in report.read_text()


def test_report_unwritable_destination(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    corpus = DistributionTable.from_counts(C_COUNTS)
    with pytest.raises(AnalyticsError, match=r"cannot write .*blocked: ") as raised:
        emit_report(corpus, corpus, prevalence_estimate(735, 5000), target)
    # The form write_atomic uses: the path once, then the reason without its errno.
    assert str(raised.value).startswith(f"cannot write {target}: ")
    assert "Errno" not in str(raised.value)


def test_report_write_failure_keeps_old_report(tmp_path, monkeypatch):
    corpus = DistributionTable.from_counts(C_COUNTS)
    dataset = DistributionTable.from_counts(D_COUNTS)
    dest = tmp_path / "r"
    dest.mkdir()
    (dest / "report.txt").write_bytes(b"previous report")

    def fail(self, target):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "replace", fail)
    with pytest.raises(PaperlensError, match="disk full"):
        emit_report(corpus, dataset, prevalence_estimate(735, 5000), dest)
    assert (dest / "report.txt").read_bytes() == b"previous report"


def test_from_counts_rejects_negative():
    with pytest.raises(AnalyticsError):
        DistributionTable.from_counts({SubjectArea.GEOMETRY: -1})
