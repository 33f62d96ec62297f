"""Walk through corpus ingestion and reproducible sampling.

Builds a small throwaway corpus of PDFs with extracted-text sidecars,
ingests it into a manifest, and draws the same sample twice to show that
sampling is fully determined by (manifest, n, seed).

Run: python demos/01_corpus_and_sampling.py
"""

import tempfile
from pathlib import Path

from paperlens import ingest, load_text, manifest_to_jsonl, sample, save_manifest

work_dir = tempfile.TemporaryDirectory(prefix="paperlens-demo-")
work = Path(work_dir.name)
src = work / "corpus"
src.mkdir()

# Each paper is a PDF plus a .txt sidecar holding its extracted text.
# Category tags ride in the filename here; metadata files and embedded PDF
# subjects also work.
papers = {
    "2001.00001-math.CO": "We give a bijective proof explaining why the two families are equinumerous.",
    "2001.00002-math.AG": "The moduli space construction shows why the invariant is constant in families.",
    "2001.00003-math.PR": "A martingale computation establishes the bound; no structural reason is offered.",
    "2001.00004-math.LO": "The reflection argument explains why the hierarchy collapses at this level.",
    "2001.00005-math.NT": "Standard sieve methods give the asymptotic without further insight.",
    "2001.00006-math.GT": "Viewing the complex as a configuration space explains the symmetry of the answer.",
}
for doc_id, text in papers.items():
    (src / f"{doc_id}.pdf").write_bytes(b"%PDF-1.4\n%demo\n%%EOF")
    (src / f"{doc_id}.txt").write_text(text, encoding="utf-8")

result = ingest(src)
manifest = result.manifest
print(f"ingested {len(manifest)} documents, {len(result.skipped)} skipped")
for ref in manifest.documents:
    print(f"  {ref.doc_id}: tag={ref.category_tag}, {ref.char_count} chars")

# Text access applies the same normalization the quote verifier uses.
first = manifest.documents[0]
print(f"\nnormalized text of {first.doc_id}:\n  {load_text(first)!r}")

# Sampling is a seeded Fisher-Yates prefix over the canonical order:
# identical inputs always give byte-identical manifests.
sample_a = sample(manifest, n=3, seed=7)
sample_b = sample(manifest, n=3, seed=7)
assert manifest_to_jsonl(sample_a) == manifest_to_jsonl(sample_b)
print(f"\nsample of 3 with seed 7 (parent size {sample_a.parent_size}):")
for ref in sample_a.documents:
    print(f"  {ref.doc_id}")

sample_c = sample(manifest, n=3, seed=8)
print("same n, seed 8 instead:")
for ref in sample_c.documents:
    print(f"  {ref.doc_id}")

out = work / "sample.manifest.jsonl"
save_manifest(sample_a, out)
print(f"\nmanifest written to {out}")

work_dir.cleanup()  # removes every file the demo wrote
