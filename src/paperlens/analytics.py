"""Subject-area distributions, richness coefficients, and prevalence rates.

Dataset shares are computed over distinct contributing papers, not over
records: a paper with five examples counts once. Computation runs in full
precision; display rounds coefficients to two decimals and percentages to
one, and always shows raw counts next to shares so small samples are
visible for what they are.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .atomic import PaperlensError, write_atomic
from .taxonomy import MAIN_AREAS, SubjectArea, classify_tag

if TYPE_CHECKING:
    from .corpus import CorpusManifest
    from .records import Dataset

logger = logging.getLogger(__name__)


class AnalyticsError(PaperlensError):
    """Raised for violated analytic preconditions."""


@dataclass(frozen=True)
class DistributionTable:
    """Counts and shares of papers per subject area."""

    counts: Mapping[SubjectArea, int]
    total: int

    @classmethod
    def from_counts(cls, counts: Mapping[SubjectArea, int]) -> "DistributionTable":
        full = {area: int(counts.get(area, 0)) for area in SubjectArea}
        if any(v < 0 for v in full.values()):
            raise AnalyticsError("counts must be nonnegative")
        return cls(counts=full, total=sum(full.values()))

    def count(self, area: SubjectArea) -> int:
        return self.counts.get(area, 0)

    def share(self, area: SubjectArea) -> float:
        return self.count(area) / self.total if self.total else 0.0


@dataclass(frozen=True)
class RichnessRow:
    """Corpus share, dataset share, and their ratio for one area.

    The coefficient is undefined (None) when the corpus share is zero.
    """

    area: SubjectArea
    corpus_share: float
    dataset_share: float
    coefficient: float | None

    @property
    def display_coefficient(self) -> str:
        return f"{self.coefficient:.2f}" if self.coefficient is not None else "-"


@dataclass(frozen=True)
class TierFractions:
    """Estimated quality-tier split of dataset examples; must sum to 1."""

    high: float = 0.20
    borderline: float = 0.60
    low: float = 0.20

    def __post_init__(self) -> None:
        for name, value in (("high", self.high), ("borderline", self.borderline), ("low", self.low)):
            if not 0.0 <= value <= 1.0:
                raise AnalyticsError(f"tier fraction {name} must be in [0, 1], got {value}")
        if abs(self.high + self.borderline + self.low - 1.0) > 1e-9:
            raise AnalyticsError(
                f"tier fractions must sum to 1, got {self.high + self.borderline + self.low}"
            )


@dataclass(frozen=True)
class PrevalenceEstimate:
    """How common the target concept is across the whole corpus.

    Assumes paper-level statistics roughly follow example-level tier
    fractions: of the contributing papers, ``high`` of them make clear
    claims and ``high + borderline`` are borderline or better.
    """

    contributing_papers: int
    total_papers: int
    tiers: TierFractions
    clear_rate: float
    borderline_or_better_rate: float


def corpus_distribution(
    manifest: "CorpusManifest",
    table: dict[str, SubjectArea] | None = None,
) -> DistributionTable:
    """Tally corpus papers per subject area (Other included)."""
    if len(manifest.documents) == 0:
        raise AnalyticsError("cannot compute a distribution over an empty manifest")
    counts: dict[SubjectArea, int] = {}
    for ref in manifest.documents:
        area = classify_tag(ref.category_tag, table)
        counts[area] = counts.get(area, 0) + 1
    return DistributionTable.from_counts(counts)


def dataset_distribution(
    ds: "Dataset",
    manifest: "CorpusManifest",
    table: dict[str, SubjectArea] | None = None,
) -> DistributionTable:
    """Tally distinct contributing papers per subject area.

    A paper contributing several records counts once. Records whose
    source_doc_id does not resolve in the manifest are reported via the log
    and excluded from the table.
    """
    refs = {ref.doc_id: ref for ref in manifest.documents}
    contributors: dict[str, SubjectArea] = {}
    unresolved: set[str] = set()
    for record in ds.records:
        doc_id = record.source_doc_id
        if doc_id in contributors:
            continue
        ref = refs.get(doc_id)
        if ref is None:
            unresolved.add(doc_id)
            continue
        contributors[doc_id] = classify_tag(ref.category_tag, table)

    if unresolved:
        logger.warning(
            "%d record source(s) not found in the manifest and excluded: %s",
            len(unresolved),
            ", ".join(sorted(unresolved)[:10]),
        )

    counts: dict[SubjectArea, int] = {}
    for area in contributors.values():
        counts[area] = counts.get(area, 0) + 1
    return DistributionTable.from_counts(counts)


def richness_table(
    corpus: DistributionTable,
    dataset: DistributionTable,
) -> list[RichnessRow]:
    """Dataset share over corpus share for each of the eight named areas."""
    rows = []
    for area in MAIN_AREAS:
        c = corpus.share(area)
        d = dataset.share(area)
        rows.append(
            RichnessRow(
                area=area,
                corpus_share=c,
                dataset_share=d,
                coefficient=(d / c) if c > 0 else None,
            )
        )
    return rows


def prevalence_estimate(
    contributing: int,
    total: int,
    tiers: TierFractions = TierFractions(),
) -> PrevalenceEstimate:
    """Estimate how much of the corpus shows the target concept at all.

    clear_rate = contributing * high / total;
    borderline_or_better_rate = contributing * (high + borderline) / total.
    """
    if total <= 0:
        raise AnalyticsError("total papers must be positive")
    if contributing < 0 or contributing > total:
        raise AnalyticsError(
            f"contributing papers must be within [0, {total}], got {contributing}"
        )
    return PrevalenceEstimate(
        contributing_papers=contributing,
        total_papers=total,
        tiers=tiers,
        clear_rate=contributing * tiers.high / total,
        borderline_or_better_rate=contributing * (tiers.high + tiers.borderline) / total,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _cells(table: DistributionTable, area: SubjectArea, width: int) -> str:
    """One area's count, ``width`` characters wide, and its share in percent."""
    return f"{table.count(area):>{width}}{table.share(area) * 100:>8.1f}%"


def _format_table(
    corpus: DistributionTable,
    dataset: DistributionTable,
    rows: list[RichnessRow],
) -> list[str]:
    header = (
        f"{'Area':<28}{'Corpus':>8}{'C':>9}{'Dataset':>9}{'D':>9}{'D/C':>8}"
    )
    rule = "-" * len(header)

    def line(label: str, area: SubjectArea, coefficient: str) -> str:
        return f"{label:<28}{_cells(corpus, area, 8)}{_cells(dataset, area, 9)}{coefficient:>8}"

    return [
        header,
        rule,
        *(line(row.area.label, row.area, row.display_coefficient) for row in rows),
        rule,
        line("Other (shown, not rated)", SubjectArea.OTHER, ""),
        f"{'Total':<28}{corpus.total:>8}{'':>9}{dataset.total:>9}{'':>9}{'':>8}",
    ]


def _richness_csv(
    corpus: DistributionTable,
    dataset: DistributionTable,
    rows: list[RichnessRow],
) -> str:
    """The header, then the eight named areas and Other unless the dataset is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["area", "corpus_count", "corpus_share", "dataset_count", "dataset_share", "coefficient"]
    )
    if dataset.total > 0:
        coefficients = [(row.area, row.coefficient) for row in rows] + [(SubjectArea.OTHER, None)]
        for area, coefficient in coefficients:
            writer.writerow([
                area.label,
                corpus.count(area),
                repr(corpus.share(area)),
                dataset.count(area),
                repr(dataset.share(area)),
                repr(coefficient) if coefficient is not None else "",
            ])
    return buf.getvalue()


def emit_report(
    corpus: DistributionTable,
    dataset: DistributionTable,
    prevalence: PrevalenceEstimate,
    destination: str | Path,
) -> tuple[Path, Path]:
    """Write the human-readable report and the machine-readable CSV.

    Output is deterministic for fixed inputs: rerunning produces identical
    bytes. Each file is replaced atomically. Returns (report path, csv path).
    """
    dest = Path(destination)
    try:
        dest.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise AnalyticsError(f"cannot write {dest}: {exc.strerror or exc}") from exc

    rows = richness_table(corpus, dataset)
    lines: list[str] = []
    lines.append("Subject-area distribution and explanatory-richness coefficients")
    lines.append("=" * 64)
    lines.append("")
    if dataset.total == 0:
        lines.append("The dataset has zero contributing papers; no coefficients computed.")
        lines.append("")
        lines.append("Corpus distribution:")
        for area in (*MAIN_AREAS, SubjectArea.OTHER):
            lines.append(f"  {area.label:<28}{_cells(corpus, area, 8)}")
    else:
        lines.extend(_format_table(corpus, dataset, rows))
    lines.append("")

    t = prevalence.tiers
    lines += [
        "Prevalence of the target concept",
        "=" * 32,
        f"Contributing papers: {prevalence.contributing_papers} of {prevalence.total_papers}",
        f"Tier fractions used: high={t.high:.2f}, borderline={t.borderline:.2f}, low={t.low:.2f}",
        f"Clear-claim rate: {prevalence.clear_rate * 100:.1f}% of corpus papers",
        f"Borderline-or-better rate: {prevalence.borderline_or_better_rate * 100:.1f}% of corpus papers",
        "",
    ]

    report_path = dest / "report.txt"
    csv_path = dest / "richness.csv"
    write_atomic(report_path, "\n".join(lines))
    write_atomic(csv_path, _richness_csv(corpus, dataset, rows))
    return report_path, csv_path
