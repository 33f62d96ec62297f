"""Tests of the benchmark itself: generator, oracle, gate and smoke runs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

These tests carry no timing bounds.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import generate  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
from paperlens import best_match, normalize, parse_batch_output  # noqa: E402


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    truth = generate.generate(generate.workload("quote-audit", "smoke"), 7, out)
    return truth, out


def test_same_seed_same_bytes(tmp_path):
    w = generate.workload("study-5k", "smoke")
    generate.generate(w, 3, tmp_path / "a")
    generate.generate(w, 3, tmp_path / "b")
    generate.generate(w, 4, tmp_path / "c")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


def test_damage_is_undone_by_normalize():
    rng = random.Random(5)
    tokens = generate._tokens(rng, 6000)
    raw = generate.damage(rng, tokens)
    assert raw != " ".join(tokens)
    assert normalize(raw) == " ".join(tokens)


@pytest.mark.parametrize("name", sorted(generate.WORKLOADS))
@pytest.mark.parametrize("size", ["smoke", "full"])
def test_label_mix(name, size):
    w = generate.workload(name, size)
    labels = generate._slot_labels(w.labels)
    assert Counter(labels) == dict(w.labels)
    assert set(labels) <= set(generate.LABELS)


def test_labels_hold_under_the_definition(audit):
    truth, out = audit
    texts = {}
    kept = gate.kept_records(truth)
    assert Counter(r["label"] for r in kept) == dict(generate.workload("quote-audit", "smoke").labels)
    for rec in kept:
        doc_id = rec["source_doc_id"]
        if doc_id not in texts:
            texts[doc_id] = normalize((out / "corpus" / f"{doc_id}.txt").read_text(encoding="utf-8"))
        doc, label = texts[doc_id], rec["label"]
        assert normalize(rec["quote"]) == rec["norm"]
        assert rec["exact"] == (rec["norm"] in doc)
        if label == "exact":
            assert rec["exact"]
        elif label == "math":
            assert best_match(rec["quote"], doc).similarity == 1.0
        else:
            sim = oracle.window_similarity(rec["norm"], doc)
            if label == "noised":
                assert sim >= 0.95 and not rec["exact"]
            elif label == "near-miss":
                lo, hi = generate.NEAR_MISS_INTERVAL
                assert lo <= sim < hi
            else:
                assert sim < generate.FABRICATED_CEILING


def test_fixtures_parse_to_the_generated_records(audit):
    truth, out = audit
    for batch in truth["batches"]:
        key = generate.stub_key("annotation", batch["doc_ids"])
        text = (out / "fixtures" / f"annotation-{key}.txt").read_text(encoding="utf-8")
        parsed, warnings = parse_batch_output(text, batch["index"])
        assert not warnings
        got = [{f: getattr(r, f) for f in gate.RECORD_FIELDS} for r in parsed]
        assert got == [{f: r[f] for f in gate.RECORD_FIELDS} for r in batch["records"]]


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _brute_similarity(q: str, d: str) -> float:
    if q in d:
        return 1.0
    m = len(q)
    lo, hi = max(1, int(0.8 * m)), max(1, -(-12 * m // 10))
    best = -1.0
    for s in range(max(0, len(d) - lo) + 1):
        for j in range(max(1, min(lo, len(d) - s)), min(hi, len(d) - s) + 1):
            best = max(best, 1 - _edit_distance(q, d[s : s + j]) / max(m, j))
    return best


def test_oracle_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        d = "".join(rng.choice("abc ") for _ in range(rng.randint(1, 30)))
        q = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 10)))
        assert oracle.window_similarity(q, d) == pytest.approx(_brute_similarity(q, d))
        ends = oracle.best_end_distances(q, d)
        for e in range(len(d) + 1):
            assert ends[e] == min(_edit_distance(q, d[s:e]) for s in range(e + 1))
        assert oracle.similarity_upper_bound(q, d) >= _brute_similarity(q, d) - 1e-12


def test_gate_flags_tampered_outputs(audit):
    truth, _ = audit
    kept = gate.kept_records(truth)
    retention = {b["index"]: (sum(r["kept"] for r in b["records"]), len(b["records"])) for b in truth["batches"]}
    assert gate.check_records(truth, kept, retention) == []
    changed = [dict(r) for r in kept]
    changed[0]["quote"] += "x"
    assert gate.check_records(truth, changed, retention)

    jobs = [{"doc_ids": b["doc_ids"], "status": "done"} for b in truth["batches"]]
    assert gate.check_documents(truth, truth["sample"], jobs) == []
    jobs[0]["status"] = "pending"
    assert gate.check_documents(truth, truth["sample"], jobs)

    assert gate.check_resume(truth, ["k1"], ["k2"], truth["first_pass_batches"]) == []
    assert gate.check_resume(truth, ["k1"], ["k1"], truth["first_pass_batches"])

    matched = [generate.EXPECTED_MATCH.get(r["label"], False) for r in kept]
    assert gate.verdict_agreement(truth, matched) == (1.0, [])
    flipped = [not m if r["label"] == "fabricated" else m for m, r in zip(matched, kept)]
    assert gate.verdict_agreement(truth, flipped)[0] < 1.0


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_smoke_run_passes_the_gate(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    if not trace:
        assert result["metrics"]["verdict_agreement"]["value"] == 1.0
        assert result["metrics"]["completed_ops_share"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "study-5k", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in generate.WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)
