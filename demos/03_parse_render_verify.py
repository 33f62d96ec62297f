"""Parse a raw model output, round-trip it through the renderer, and verify
quotes against the source documents.

One record quotes its source faithfully (modulo extraction noise), one
quotes through hyphenation/ligature damage, and one fabricates its quote;
verification separates them.

Run: python demos/03_parse_render_verify.py
"""

import tempfile
from pathlib import Path

from paperlens import (
    Dataset,
    ingest,
    parse_batch_output,
    render_record,
    save_dataset,
    verify_dataset,
)

# A batch output the way models actually emit them: bold labels, a file
# header scoping the items, the Example/Finding synonym, pages in quotes.
BATCH_OUTPUT = """\
paper-alpha.pdf

- **Title:** On Cancellation Phenomena in Weighted Sums
- **Example:** The authors flag a mechanism, not just a verification.
- **Quote:** "the cancellation happens because each orbit contributes weights summing to zero" (p. 4).
- **Context:** Mechanism language tied to the reason the sum vanishes.

paper-beta.pdf

- **Title:** Spectral Bounds Without Tears
- **Finding:** A reproof is justified on explanatory grounds.
- **Quote:** "our second proof explains why the extremal conﬁguration is unique" (p. 11).
- **Context:** The ligature in 'configuration' came in from text extraction.

- **Title:** Spectral Bounds Without Tears
- **Finding:** A fabricated quote, planted for this demo.
- **Quote:** "this sentence appears nowhere in the source document at all"
- **Context:** Should fail verification.
"""

work_dir = tempfile.TemporaryDirectory(prefix="paperlens-demo-")
work = Path(work_dir.name)
src = work / "corpus"
src.mkdir()
(src / "paper-alpha.pdf").write_bytes(b"%PDF-1.4\n%%EOF")
(src / "paper-alpha.txt").write_text(
    "We show that the cancellation happens be-\ncause each orbit contributes "
    "weights summing to zero, uniformly in the parameter.",
    encoding="utf-8",
)
(src / "paper-beta.pdf").write_bytes(b"%PDF-1.4\n%%EOF")
(src / "paper-beta.txt").write_text(
    "Unlike the original argument, our second proof explains why the extremal "
    "configuration is unique among all admissible ones.",
    encoding="utf-8",
)
manifest = ingest(src).manifest

records, warnings = parse_batch_output(BATCH_OUTPUT, batch_index=0)
print(f"parsed {len(records)} records, {len(warnings)} warnings")
for record in records:
    print(f"  {record.source_doc_id}: page={record.page}, quote={record.quote[:45]!r}...")

# The canonical rendering reproduces the parsed fields exactly.
reparsed, _ = parse_batch_output(render_record(records[0]))
assert reparsed[0].quote == records[0].quote
print("\ncanonical form of the first record:")
print(render_record(records[0]))

ds = Dataset(records=records)
annotated, summary = verify_dataset(ds, manifest, threshold=0.85)
print(f"\nverification: {summary.counts}")
for record in annotated.records:
    v = record.verification
    print(f"  {record.source_doc_id}: matched={v.matched} similarity={v.similarity:.3f}")

out = work / "demo.records.jsonl"
save_dataset(annotated, out)
print(f"\nannotated dataset written to {out}")

work_dir.cleanup()  # removes every file the demo wrote
