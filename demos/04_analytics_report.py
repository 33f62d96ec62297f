"""Compute subject-area distributions, richness coefficients, and prevalence.

Uses the reference share columns (corpus C and dataset D) to show the
coefficient arithmetic, then the prevalence estimate for 735 contributing
papers out of 5000 under 20/60/20 quality tiers, and emits the report files.

Run: python demos/04_analytics_report.py
"""

import tempfile
from pathlib import Path

from paperlens import (
    DistributionTable,
    SubjectArea,
    TierFractions,
    emit_report,
    prevalence_estimate,
    richness_table,
)

# Per-mille counts realizing the two share columns; Other absorbs the rest.
corpus = DistributionTable.from_counts({
    SubjectArea.GEOMETRY: 335,
    SubjectArea.ALGEBRA: 242,
    SubjectArea.ANALYSIS: 143,
    SubjectArea.TOPOLOGY: 102,
    SubjectArea.COMBINATORICS: 52,
    SubjectArea.NUMBER_THEORY: 38,
    SubjectArea.PROBABILITY_STATISTICS: 30,
    SubjectArea.LOGIC_SET_THEORY: 19,
    SubjectArea.OTHER: 39,
})
dataset = DistributionTable.from_counts({
    SubjectArea.GEOMETRY: 356,
    SubjectArea.ALGEBRA: 239,
    SubjectArea.ANALYSIS: 143,
    SubjectArea.TOPOLOGY: 90,
    SubjectArea.COMBINATORICS: 62,
    SubjectArea.NUMBER_THEORY: 35,
    SubjectArea.PROBABILITY_STATISTICS: 23,
    SubjectArea.LOGIC_SET_THEORY: 25,
    SubjectArea.OTHER: 27,
})

print("richness coefficients (dataset share / corpus share):")
for row in richness_table(corpus, dataset):
    print(f"  {row.area.label:<28} C={row.corpus_share:.3f}  D={row.dataset_share:.3f}  "
          f"D/C={row.display_coefficient}")

est = prevalence_estimate(735, 5000, TierFractions(0.20, 0.60, 0.20))
print(f"\nprevalence across the corpus:")
print(f"  contributing papers:        {est.contributing_papers} of {est.total_papers}")
print(f"  clear-claim rate:           {est.clear_rate:.2%}")
print(f"  borderline-or-better rate:  {est.borderline_or_better_rate:.2%}")

work_dir = tempfile.TemporaryDirectory(prefix="paperlens-demo-")
work = Path(work_dir.name)
report_path, csv_path = emit_report(corpus, dataset, est, work)
print(f"\nreport written to {report_path}")
print(f"csv written to {csv_path}")
print("\n" + report_path.read_text())

work_dir.cleanup()  # removes every file the demo wrote
