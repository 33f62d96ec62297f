"""Command-line surface tests: routing, exit codes, dry runs, help text."""

import argparse
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import paperlens
from conftest import batch_output_text, make_record, write_corpus
from paperlens import PaperlensError, cli
from paperlens.cli import build_parser, main
from paperlens.config import _FLAG_ONLY, GlobalConfig, load_config
from paperlens.corpus import ingest, load_manifest, manifest_digest, save_manifest
from paperlens.provider import ProviderConfig, request_digest, stub_key, write_stub_fixture
from paperlens.records import Dataset, load_dataset, parse_batch_output, save_dataset
from paperlens.runner import RunnerConfig, parse_run
from paperlens.verify import verify_dataset

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, fixtures_dir, **extra):
    cfg = {
        "provider": {
            "dialect": "stub",
            "fixtures_dir": str(fixtures_dir),
            "max_retries": 0,
            "backoff_base_ms": 1,
        },
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture
def pipeline_dirs(tmp_path):
    """A corpus on disk, its manifest file, and stub fixtures for two batches."""
    docs = {f"paper{i}": f"Body of paper {i}, which explains why claim {i} holds." for i in range(4)}
    src = write_corpus(tmp_path / "src", docs)
    manifest = ingest(src).manifest
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(manifest, manifest_path)

    fixtures = tmp_path / "fixtures"
    doc_ids = [r.doc_id for r in manifest.documents]
    recs0 = [make_record(i, doc_id=doc_ids[i], batch_index=0) for i in range(2)]
    recs1 = [make_record(2 + i, doc_id=doc_ids[2 + i], batch_index=1) for i in range(2)]
    write_stub_fixture(fixtures, "annotation", doc_ids[:2], batch_output_text(recs0))
    write_stub_fixture(fixtures, "annotation", doc_ids[2:], batch_output_text(recs1))
    write_stub_fixture(fixtures, "filter", ["batch_0_output.txt"], batch_output_text(recs0[:1]))
    write_stub_fixture(fixtures, "filter", ["batch_1_filtered.txt"], batch_output_text(recs1[:1]))
    write_stub_fixture(fixtures, "filter", ["batch_1_output.txt"], batch_output_text(recs1[:1]))
    return tmp_path, manifest_path, fixtures


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["sample", "--manifest", "m", "--n", "1", "--seed", "0", "--out", "o",
                 "--bogus-flag"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    # Subcommands take only the config flags they read.
    for argv in (["parse", "--dir", "d", "--out", "o", "--manifest", "m", "--dialect", "stub"],
                 ["filter", "--dir", "d", "--batch-size", "2"],
                 ["query", "--dataset", "d", "--question", "q", "--batch-size", "2"]):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_verify_is_not_a_command(capsys):
    # `parse` verifies every quote as it writes the dataset.
    assert main(["verify", "--dataset", "d", "--manifest", "m"]) == 1
    assert "error: argument COMMAND: invalid choice: 'verify'" in capsys.readouterr().err


def test_ingest_and_sample_round(tmp_path, capsys):
    src = write_corpus(tmp_path / "src", {"a": "x", "b": "y", "c": "z"})
    manifest_path = tmp_path / "m.jsonl"
    assert main(["ingest", "--source", str(src), "--out", str(manifest_path)]) == 0
    out_path = tmp_path / "s.jsonl"
    assert main(["sample", "--manifest", str(manifest_path), "--n", "2", "--seed", "5",
                 "--out", str(out_path)]) == 0
    sampled = load_manifest(out_path)
    assert len(sampled) == 2
    assert sampled.sample_seed == 5


def test_sample_requires_seed(tmp_path, capsys):
    src = write_corpus(tmp_path / "src", {"a": "x"})
    manifest_path = tmp_path / "m.jsonl"
    main(["ingest", "--source", str(src), "--out", str(manifest_path)])
    assert main(["sample", "--manifest", str(manifest_path), "--n", "1",
                 "--out", str(tmp_path / "s.jsonl")]) == 1


def test_sample_oversize_is_user_error(tmp_path, capsys):
    src = write_corpus(tmp_path / "src", {"a": "x"})
    manifest_path = tmp_path / "m.jsonl"
    main(["ingest", "--source", str(src), "--out", str(manifest_path)])
    assert main(["sample", "--manifest", str(manifest_path), "--n", "5", "--seed", "1",
                 "--out", str(tmp_path / "s.jsonl")]) == 1
    assert "exceeds corpus size" in capsys.readouterr().err


def test_annotate_dry_run_makes_no_calls(pipeline_dirs, capsys):
    tmp_path, manifest_path, _ = pipeline_dirs
    # No fixtures dir configured: any provider call would fail loudly.
    config = write_config(tmp_path, tmp_path / "no-fixtures-here")
    out_dir = tmp_path / "run"
    code = main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2", "--dry-run"])
    assert code == 0
    captured = capsys.readouterr()
    assert "plan: 2 batches" in captured.out
    assert not out_dir.exists() or not list(out_dir.glob("batch_*"))


def test_full_pipeline_through_cli(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"

    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2"]) == 0
    assert (out_dir / "batch_0_output.txt").exists()
    assert (out_dir / "batch_1_output.txt").exists()

    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 0
    assert (out_dir / "batch_0_filtered.txt").exists()

    dataset_path = tmp_path / "data.records.jsonl"
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path), "--filtered",
                 "--manifest", str(manifest_path), "--report", str(tmp_path / "verify.json")]) == 0
    ds = load_dataset(dataset_path)
    assert len(ds.records) == 2
    assert ds.filter_pass_count == 1
    assert all(record.verification is not None for record in ds.records)
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["counts"] == {"verified": 0, "unverified": 2, "skipped": 0, "no_quote": 0}

    stats_dir = tmp_path / "stats"
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(dataset_path),
                 "--out", str(stats_dir)]) == 0
    assert (stats_dir / "report.txt").exists()
    assert (stats_dir / "richness.csv").exists()

    write_stub_fixture(fixtures, "query", [dataset_path.name], "the answer")
    capsys.readouterr()
    assert main(["query", "--config", str(config), "--dataset", str(dataset_path),
                 "--question", "anything?"]) == 0
    assert "the answer" in capsys.readouterr().out

    export_path = tmp_path / "dataset.md"
    assert main(["export", "--dataset", str(dataset_path), "--out", str(export_path)]) == 0
    assert "batch_0_output.txt" in export_path.read_text()


def test_annotate_partial_failure_exits_two(pipeline_dirs, tmp_path):
    base, manifest_path, fixtures = pipeline_dirs
    manifest = load_manifest(manifest_path)
    doc_ids = [r.doc_id for r in manifest.documents]
    # Remove one batch's fixture so that batch fails permanently.
    key = stub_key("annotation", doc_ids[2:])
    (fixtures / f"annotation-{key}.txt").unlink()
    config = write_config(base, fixtures)
    out_dir = base / "run-partial"
    code = main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2"])
    assert code == 2
    assert (out_dir / "batch_0_output.txt").exists()
    assert not (out_dir / "batch_1_output.txt").exists()


def test_annotate_sends_the_golden_prompt_with_a_context_excerpt(pipeline_dirs):
    base, manifest_path, fixtures = pipeline_dirs
    doc_ids = tuple(r.doc_id for r in load_manifest(manifest_path).documents)
    write_stub_fixture(fixtures, "annotation", doc_ids, "- Finding: none\n")
    config = write_config(base, fixtures)
    out_dir = base / "run"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path), "--out", str(out_dir),
                 "--batch-size", "4", "--context-asset", str(GOLDEN / "context_excerpt.txt")]) == 0
    golden = (GOLDEN / "annotation_with_excerpt.txt").read_text(encoding="utf-8")
    digest = request_digest(load_config(config).provider, doc_ids, golden)
    assert json.loads((out_dir / "checkpoint.json").read_text(encoding="utf-8"))["digests"] == {"0": digest}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("lost", ["a batch fails for good", "--skip-oversize skips a paper"])
def test_stats_counts_only_the_papers_read(tmp_path, lost):
    # Prevalence divides by the manifest, so a paper that was never read
    # counts as read and found wanting.
    docs = {f"paper{i}": f"Body of paper {i}, which explains why claim {i} holds." for i in range(3)}
    if lost == "--skip-oversize skips a paper":
        docs["paper2"] = " ".join(["word"] * 3000)
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(ingest(write_corpus(tmp_path / "src", docs)).manifest, manifest_path)
    fixtures = tmp_path / "fixtures"
    for i in range(2):  # paper2 has no reply: its batch fails, or it is never sent
        write_stub_fixture(fixtures, "annotation", [f"paper{i}"],
                           batch_output_text([make_record(i, doc_id=f"paper{i}")]))
    run = tmp_path / "run"
    annotate = ["annotate", "--config", str(write_config(tmp_path, fixtures)), "--manifest",
                str(manifest_path), "--out", str(run), "--batch-size", "1"]
    if lost == "a batch fails for good":
        assert main(annotate) == 2
    else:
        assert main([*annotate, "--context-window", "5000", "--max-output-tokens", "1000",
                     "--skip-oversize"]) == 0
    dataset = tmp_path / "data.records.jsonl"
    assert main(["parse", "--dir", str(run), "--out", str(dataset), "--manifest", str(manifest_path)]) == 0
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(dataset),
                 "--out", str(tmp_path / "stats")]) == 0
    assert "Contributing papers: 2 of 2\n" in (tmp_path / "stats" / "report.txt").read_text(encoding="utf-8")


def test_annotate_with_an_unreadable_document_fails_only_its_batch(pipeline_dirs, capsys, caplog):
    base, manifest_path, fixtures = pipeline_dirs
    first = load_manifest(manifest_path).documents[0]
    Path(first.text_path).unlink()
    config = write_config(base, fixtures)
    out_dir = base / "run"
    code = main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2"])
    assert code == 2
    assert "1/2 batches done" in capsys.readouterr().err
    assert f"batch 0 failed: missing or unreadable text for document {first.doc_id!r}" in caplog.text
    assert not (out_dir / "batch_0_output.txt").exists()
    assert (out_dir / "batch_1_output.txt").exists()


def _run_cli(*argv: str) -> str:
    """Run ``paperlens`` in a fresh process, where its log lines reach stderr; returns stderr."""
    src = str(Path(paperlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from paperlens.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    return proc.stderr


def test_each_skipped_paper_and_failed_batch_is_reported_once(pipeline_dirs):
    base, manifest_path, fixtures = pipeline_dirs
    src = base / "src"
    (src / "p9.pdf").write_bytes((src / "paper0.pdf").read_bytes())  # no sidecar
    err = _run_cli("ingest", "--source", str(src), "--out", str(base / "m.jsonl"))
    assert err.count("skipped p9: no extracted text found") == 1, err
    err = _run_cli("ingest", "--source", str(src), "--out", str(base / "m.jsonl"),
                   "--extract-cmd", "false {pdf} {txt}")
    p9_lines = [line for line in err.splitlines() if "p9" in line]
    assert p9_lines == ["WARNING paperlens.corpus: skipped p9: extractor exited 1"], err

    for fixture in fixtures.glob("annotation-*.txt"):
        fixture.unlink()
    err = _run_cli("annotate", "--config", str(write_config(base, fixtures)), "--manifest",
                   str(manifest_path), "--out", str(base / "run"), "--batch-size", "2")
    assert "0/2 batches done" in err
    assert [err.count(f"batch {i} failed: ") for i in (0, 1)] == [1, 1], err


@pytest.mark.parametrize("flags", [[], ["--skip-oversize"], ["--dry-run"], ["--skip-oversize", "--dry-run"]])
def test_annotate_with_no_room_for_documents_is_one_error_line(pipeline_dirs, capsys, flags):
    # With --skip-oversize every paper was skipped, and annotating the empty
    # plan deleted the batches already in --out.
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    run = tmp_path / "run"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(run), "--batch-size", "2"]) == 0
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    asset = tmp_path / "asset.txt"
    asset.write_text("context " * 375, encoding="utf-8")  # 3,000 characters
    capsys.readouterr()

    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path), "--out", str(run),
                 "--context-window", "1500", "--max-output-tokens", "10", "--context-asset", str(asset),
                 *flags]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "leave no room for documents" in errors[0], errors
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


@pytest.mark.parametrize("flags", [[], ["--dry-run"]])
def test_annotate_that_skips_every_paper_is_one_error_line(tmp_path, capsys, flags):
    # Each paper alone exceeds the room the window leaves, so --skip-oversize
    # skips all three; running the empty plan deleted every batch in --out.
    docs = {f"paper{i}": " ".join(["word"] * 3000) for i in range(3)}
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(ingest(write_corpus(tmp_path / "src", docs)).manifest, manifest_path)
    run = tmp_path / "run"
    run.mkdir()
    (run / "batch_0_output.txt").write_text("- Finding: kept from an earlier run\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    capsys.readouterr()

    assert main(["annotate", "--config", str(write_config(tmp_path, tmp_path / "fixtures")),
                 "--manifest", str(manifest_path), "--out", str(run), "--context-window", "5000",
                 "--max-output-tokens", "1000", "--skip-oversize", *flags]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "all 3 documents alone exceed the context window" in errors[0], errors
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_resume_through_cli_makes_no_calls(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    capsys.readouterr()
    code = main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2", "--resume"])
    assert code == 0
    assert "0 provider calls" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--temperature", "0.9"],
    ["--max-output-tokens", "1000"],
    ["--base-url", "https://other.example/v1"],
    ["--model", "other-model"],
])
def test_resume_resends_every_batch_after_a_change_of_what_a_request_sends(pipeline_dirs, capsys, flags):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    annotate = ["annotate", "--config", str(write_config(tmp_path, fixtures)),
                "--manifest", str(manifest_path), "--out", str(tmp_path / "run"), "--batch-size", "2"]
    assert main(annotate) == 0
    capsys.readouterr()
    assert main([*annotate, *flags, "--resume"]) == 0
    assert "2/2 batches done, 0 resumed, 0 failed, 2 provider calls" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--max-inflight", "1"],
    ["--max-retries", "4"],
    ["--backoff-base-ms", "7"],
    ["--timeout-s", "5"],
    ["--api-key-env", "OTHER_API_KEY"],
])
def test_resume_carries_every_batch_over_after_a_change_of_pacing_or_credentials(pipeline_dirs, capsys, flags):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    annotate = ["annotate", "--config", str(write_config(tmp_path, fixtures)),
                "--manifest", str(manifest_path), "--out", str(tmp_path / "run"), "--batch-size", "2"]
    assert main(annotate) == 0
    capsys.readouterr()
    assert main([*annotate, *flags, "--resume"]) == 0
    assert "2/2 batches done, 2 resumed, 0 failed, 0 provider calls" in capsys.readouterr().err


def test_filter_dry_run_lists_next_pass_inputs(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    capsys.readouterr()
    assert main(["filter", "--config", str(config), "--dir", str(out_dir), "--dry-run"]) == 0
    first = capsys.readouterr().out
    assert "pass 1" in first and "batch_0_output.txt" in first

    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["filter", "--config", str(config), "--dir", str(out_dir), "--dry-run"]) == 0
    second = capsys.readouterr().out
    assert "pass 2" in second
    assert "batch_0_filtered.txt" in second and "batch_1_filtered.txt" in second
    assert "_output.txt" not in second


def test_parse_filtered_stamps_lagging_pass_count(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 0
    # Pass 2 has a response for batch 1 only; batch 0 fails and keeps its
    # pass-1 filtered file.
    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 2
    assert (out_dir / "batch_0_filtered.txt").exists()
    capsys.readouterr()

    dataset_path = tmp_path / "lagging.records.jsonl"
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path), "--filtered",
                 "--manifest", str(manifest_path)]) == 0
    assert load_dataset(dataset_path).filter_pass_count == 1
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: batch 0 holds filter pass 1 of 2; re-run filter to bring it level"]


def test_parse_filtered_keeps_a_batch_whose_filter_call_failed(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    (fixtures / f"filter-{stub_key('filter', ['batch_1_output.txt'])}.txt").unlink()
    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 2
    capsys.readouterr()

    dataset_path = tmp_path / "filtered.records.jsonl"
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path), "--filtered",
                 "--manifest", str(manifest_path)]) == 0

    ds = load_dataset(dataset_path)
    raw_1 = (out_dir / "batch_1_output.txt").read_text(encoding="utf-8")
    assert [r.batch_index for r in ds.records] == [0, 1, 1]
    assert [r.quote for r in ds.records[1:]] == [r.quote for r in parse_batch_output(raw_1, 1)[0]]
    assert ds.filter_pass_count == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: batch 1 holds filter pass 0 of 1; re-run filter to bring it level"]


def test_parse_filtered_before_any_filter_call_reads_the_raw_outputs(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    raw_path, filtered_path = tmp_path / "raw.records.jsonl", tmp_path / "filtered.records.jsonl"
    assert main(["parse", "--dir", str(out_dir), "--out", str(raw_path),
                 "--manifest", str(manifest_path)]) == 0
    capsys.readouterr()

    assert main(["parse", "--dir", str(out_dir), "--out", str(filtered_path), "--filtered",
                 "--manifest", str(manifest_path)]) == 0

    ds = load_dataset(filtered_path)
    assert len(ds.records) == 4
    assert ds.records == load_dataset(raw_path).records
    assert ds.filter_pass_count == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: batch {i} holds filter pass 0 of 1; re-run filter to bring it level"
                        for i in (0, 1)]


def test_parse_ignores_stray_batch_files(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    stray = batch_output_text([make_record(9, doc_id="paper9", batch_index=1)])
    (out_dir / "batch_old_output.txt").write_text(stray, encoding="utf-8")
    (out_dir / "batch_1_x_output.txt").write_text(stray, encoding="utf-8")

    dataset_path = tmp_path / "raw.records.jsonl"
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path),
                 "--manifest", str(manifest_path)]) == 0
    ds = load_dataset(dataset_path)
    assert [(r.batch_index, r.source_doc_id) for r in ds.records] == [
        (0, "paper0"), (0, "paper1"), (1, "paper2"), (1, "paper3"),
    ]
    assert "from 2 files" in capsys.readouterr().err


def _unreadable_input(probe, base, manifest_path, config, run):
    """Make the one input ``probe`` reads unreadable; returns the command and that file."""
    batch = run / "batch_1_output.txt"
    parse = ["parse", "--dir", str(run), "--out", str(base / "parsed.records.jsonl"),
             "--manifest", str(manifest_path)]
    if probe == "parse a directory":
        batch.unlink()
        batch.mkdir()
        return parse, batch
    if probe in ("query a missing dataset", "query a directory"):
        path = base / ("nope.records.jsonl" if probe == "query a missing dataset" else "adir")
        if probe == "query a directory":
            path.mkdir()
        return ["query", "--config", str(config), "--dataset", str(path), "--question", "why?"], path
    if probe in ("prompts show --prompts-dir", "filter with a prompts_dir"):
        path = base / "prompts" / "filter" / "body.txt"
        path.parent.mkdir(parents=True)
        raw = json.loads(config.read_text(encoding="utf-8"))
        config.write_text(json.dumps({**raw, "prompts_dir": str(path.parents[1])}), encoding="utf-8")
    else:
        path = batch if probe.startswith(("filter", "parse")) else base / "input.txt"
    path.write_bytes(b"\xff\xfe not UTF-8")
    return {
        "filter": ["filter", "--config", str(config), "--dir", str(run)],
        "filter --dry-run": ["filter", "--config", str(config), "--dir", str(run), "--dry-run"],
        "filter with a prompts_dir": ["filter", "--config", str(config), "--dir", str(run)],
        "parse": parse,
        "annotate --context-asset": ["annotate", "--config", str(config), "--manifest", str(manifest_path),
                                     "--out", str(base / "run2"), "--context-asset", str(path)],
        "prompts show --prompts-dir": ["prompts", "show", "--kind", "filter",
                                       "--prompts-dir", str(base / "prompts")],
        "query --dataset": ["query", "--config", str(config), "--dataset", str(path), "--question", "why?"],
    }[probe], path


@pytest.mark.parametrize("probe", [
    "filter", "filter --dry-run", "filter with a prompts_dir", "parse", "parse a directory",
    "annotate --context-asset", "prompts show --prompts-dir", "query --dataset",
    "query a missing dataset", "query a directory",
])
def test_unreadable_input_is_one_error_line(pipeline_dirs, capsys, probe):
    base, manifest_path, fixtures = pipeline_dirs
    config = write_config(base, fixtures)
    run = base / "run"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(run), "--batch-size", "2"]) == 0
    state = run / "filter_state.json"
    before = state.read_bytes() if state.exists() else None
    argv, path = _unreadable_input(probe, base, manifest_path, config, run)
    capsys.readouterr()

    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot read {path}: "), err
    assert (state.read_bytes() if state.exists() else None) == before


@pytest.mark.parametrize("probe", [
    "ingest", "sample", "parse", "parse --report", "export", "query --log", "annotate --out",
])
def test_unwritable_output_is_one_error_line(pipeline_dirs, capsys, probe):
    base, manifest_path, fixtures = pipeline_dirs
    config = write_config(base, fixtures)
    run, dataset = base / "run", base / "d.records.jsonl"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(run), "--batch-size", "2"]) == 0
    assert main(["parse", "--dir", str(run), "--out", str(dataset), "--manifest", str(manifest_path)]) == 0
    write_stub_fixture(fixtures, "query", [dataset.name], "an answer")
    path, reason = base / "nodir" / "out", "No such file or directory"
    if probe == "annotate --out":  # a directory to make below an existing file
        path, reason = dataset / "run", "Not a directory"
    parse = ["parse", "--dir", str(run), "--manifest", str(manifest_path)]
    argv = {
        "ingest": ["ingest", "--source", str(base / "src"), "--out", str(path)],
        "sample": ["sample", "--manifest", str(manifest_path), "--n", "2", "--seed", "1", "--out", str(path)],
        "parse": [*parse, "--out", str(path)],
        "parse --report": [*parse, "--out", str(base / "p.records.jsonl"), "--report", str(path)],
        "export": ["export", "--dataset", str(dataset), "--out", str(path)],
        "query --log": ["query", "--config", str(config), "--dataset", str(dataset),
                        "--question", "why?", "--log", str(path)],
        "annotate --out": ["annotate", "--config", str(config), "--manifest", str(manifest_path),
                           "--out", str(path), "--batch-size", "2"],
    }[probe]
    capsys.readouterr()

    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: cannot write {path}: {reason}"], err
    # The provider has answered and billed the query: the answer is shown all the same.
    assert out == ("an answer\n" if probe == "query --log" else "")


@pytest.mark.parametrize("template, reason", [
    ("sh -c 'awk {print}' {pdf} {txt}", "unknown placeholder {print}"),
    ("cp {pdf} {txt", "expected '}' before end of string"),
    ("cp 'a {pdf} {txt}", "No closing quotation"),
    ("", "empty command"),
    ("   ", "empty command"),
])
def test_extract_cmd_is_checked_before_any_extractor_runs(tmp_path, capsys, template, reason):
    # Every PDF has its sidecar, so no extractor would run.
    src = write_corpus(tmp_path / "src", {"paper0": "Text of paper 0."})
    out = tmp_path / "m.jsonl"

    assert main(["ingest", "--source", str(src), "--extract-cmd", template, "--out", str(out)]) == 1

    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: --extract-cmd: {reason}"), err
    assert not out.exists()


def test_prompts_show(capsys):
    assert main(["prompts", "show", "--kind", "annotation"]) == 0
    out = capsys.readouterr().out
    assert "Do not hallucinate content" in out
    assert main(["prompts", "show", "--kind", "filter"]) == 0
    assert "strict quality filter" in capsys.readouterr().out


def test_stats_with_tiers_flag(pipeline_dirs, tmp_path, capsys):
    base, manifest_path, fixtures = pipeline_dirs
    ds_path = base / "tiny.records.jsonl"
    from paperlens.records import Dataset, save_dataset

    save_dataset(Dataset(records=[make_record(0, doc_id="paper0")]), ds_path)
    stats_dir = base / "stats2"
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(ds_path),
                 "--out", str(stats_dir), "--tiers", "0.3,0.5,0.2"]) == 0
    assert "high=0.30" in (stats_dir / "report.txt").read_text()
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(ds_path),
                 "--out", str(stats_dir), "--tiers", "0.9,0.9,0.9"]) == 1


def test_stats_over_a_sample_dataset_with_the_full_manifest_is_an_error(pipeline_dirs, capsys):
    # Prevalence would divide by the whole corpus instead of the sample that was read.
    base, manifest_path, fixtures = pipeline_dirs
    sample, run, dataset = base / "sample.jsonl", base / "run", base / "d.records.jsonl"
    assert main(["sample", "--manifest", str(manifest_path), "--n", "2", "--seed", "1", "--out", str(sample)]) == 0
    doc_ids = [ref.doc_id for ref in load_manifest(sample).documents]
    write_stub_fixture(fixtures, "annotation", doc_ids, batch_output_text([make_record(0, doc_id=doc_ids[0])]))
    assert main(["annotate", "--config", str(write_config(base, fixtures)), "--manifest", str(sample),
                 "--out", str(run), "--batch-size", "2"]) == 0
    assert main(["parse", "--dir", str(run), "--out", str(dataset), "--manifest", str(sample)]) == 0
    capsys.readouterr()

    stats = base / "stats"
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(dataset), "--out", str(stats)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    sample_digest, full_digest = (manifest_digest(load_manifest(p)) for p in (sample, manifest_path))
    assert errors == [f"error: {dataset}: parsed against manifest {sample_digest}, "
                      f"not the given manifest {full_digest}"]
    assert not stats.exists()


def test_missing_files_are_user_errors(pipeline_dirs, tmp_path, capsys):
    assert main(["ingest", "--source", str(tmp_path / "nope"), "--out", "m"]) == 1
    assert main(["parse", "--dir", str(tmp_path), "--out", str(tmp_path / "d.jsonl"),
                 "--manifest", str(tmp_path / "no-m.jsonl")]) == 1
    assert "no-m.jsonl" in capsys.readouterr().err  # read before the run directory
    assert not (tmp_path / "d.jsonl").exists()
    assert main(["export", "--dataset", str(tmp_path / "no.jsonl"), "--out", "x"]) == 1

    _, manifest_path, _ = pipeline_dirs
    from paperlens.records import Dataset, save_dataset

    ds_path = tmp_path / "empty.records.jsonl"
    save_dataset(Dataset(), ds_path)
    malformed = tmp_path / "malformed-taxonomy.json"
    malformed.write_text("{not json", encoding="utf-8")
    for taxonomy in (tmp_path / "no-taxonomy.json", malformed):
        assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(ds_path),
                     "--out", str(tmp_path / "stats"), "--taxonomy", str(taxonomy)]) == 1
        assert taxonomy.name in capsys.readouterr().err


def _parse_writes_nothing(tmp_path, *flags):
    """Run ``parse`` with ``flags`` over a missing run and manifest; returns its exit code."""
    out, report = tmp_path / "d.records.jsonl", tmp_path / "verify.json"
    code = main(["parse", *flags, "--dir", str(tmp_path / "run"), "--out", str(out),
                 "--manifest", str(tmp_path / "m.jsonl"), "--report", str(report)])
    assert not out.exists() and not report.exists()
    return code


def test_config_tiers_section_is_rejected(tmp_path, capsys):
    # Tiers come from `stats --tiers`; the config file has no tiers section.
    config = write_config(tmp_path, tmp_path, tiers={"high": 0.2, "borderline": 0.6, "low": 0.2})
    assert _parse_writes_nothing(tmp_path, "--config", str(config)) == 1
    assert "unknown section(s) ['tiers']" in capsys.readouterr().err


def test_config_is_read_only_from_the_config_flag(tmp_path, monkeypatch, capsys):
    from paperlens.config import GlobalConfig, load_config

    config = write_config(tmp_path, tmp_path, threshold=0.5)
    monkeypatch.setenv("PAPERLENS_CONFIG", str(config))
    assert load_config(None) == GlobalConfig()
    assert load_config(config).threshold == 0.5


@pytest.mark.parametrize("threshold", ["high", None, True, 0, -0.5, 1.5, float("nan")])
def test_config_threshold_must_be_a_number_in_range(tmp_path, capsys, threshold):
    from paperlens.config import ConfigError, load_config

    config = write_config(tmp_path, tmp_path, threshold=threshold)
    with pytest.raises(ConfigError, match="threshold"):
        load_config(config)
    assert _parse_writes_nothing(tmp_path, "--config", str(config)) == 1
    assert "threshold" in capsys.readouterr().err


def test_threshold_flag_out_of_range_is_user_error(tmp_path, capsys):
    assert _parse_writes_nothing(tmp_path, "--threshold", "2") == 1
    assert "threshold must be a number in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, name", [
    ("provider", {"dialect": "azure"}, "dialect"),
    (None, {"prompts_dir": 5}, "prompts_dir"),
    ("provider", {"dialect": "stub", "fixtures_dir": 5}, "fixtures_dir"),
    ("provider", {"dialect": "openai", "base_url": 5}, "base_url"),
    (None, {"provider": "stub"}, "provider: must be a JSON object"),
    ("provider", {"colour": "blue"}, "unknown option(s) ['colour']"),
])
def test_config_value_of_wrong_type_is_user_error(pipeline_dirs, capsys, monkeypatch, section, values, name):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    # With a key present an HTTP client would get as far as building its URL.
    monkeypatch.setenv("PAPERLENS_API_KEY", "not-a-real-key")
    config = write_config(tmp_path, fixtures)
    raw = json.loads(config.read_text(encoding="utf-8"))
    (raw[section] if section else raw).update(values)
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and name in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, name, value", [
    ("provider", "max_retries", 1.5),
    ("provider", "max_retries", True),
    ("provider", "temperature", "0"),
    ("provider", "timeout_s", False),
    ("runner", "batch_size", "10"),
    (None, "prompts_dir", ["templates"]),
])
def test_config_fields_are_checked_against_their_declared_types(tmp_path, section, name, value):
    from paperlens.config import ConfigError, load_config

    config = write_config(tmp_path, tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    (raw.setdefault(section, {}) if section else raw)[name] = value
    config.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=name):
        load_config(config)


def test_config_float_fields_accept_ints(tmp_path):
    from paperlens.config import load_config

    config = write_config(tmp_path, tmp_path, threshold=1)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["provider"].update(temperature=1, timeout_s=30)
    config.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(config)
    assert (cfg.threshold, cfg.provider.temperature, cfg.provider.timeout_s) == (1.0, 1, 30)


@pytest.mark.parametrize("timeout_s", [0, -30, float("nan"), float("inf")])
def test_config_timeout_must_be_positive(tmp_path, timeout_s):
    from paperlens.config import ConfigError, load_config

    config = write_config(tmp_path, tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["provider"]["timeout_s"] = timeout_s
    config.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="timeout_s must be positive"):
        load_config(config)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_annotate_timeout_flag_must_be_positive(pipeline_dirs, capsys, value):
    # A zero timeout reached the HTTP library, whose ValueError cancelled every
    # batch and ended the command in a traceback; a dry run accepted it.
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "run"), "--timeout-s", value, "--dry-run"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "timeout_s must be positive" in errors[0], errors


@pytest.mark.parametrize("flag, value, name", [
    ("--batch-size", "0", "batch_size"),
    ("--max-inflight", "0", "max_inflight"),
    ("--context-window", "10", "context_window_tokens"),
    ("--max-retries", "-1", "max_retries"),
    ("--backoff-base-ms", "0", "backoff_base_ms"),
    ("--max-output-tokens", "-5", "max_output_tokens"),
    ("--max-output-tokens", "0", "max_output_tokens"),
    ("--temperature", "nan", "temperature"),
    ("--temperature", "-1", "temperature"),
])
def test_out_of_range_flag_is_user_error(tmp_path, capsys, flag, value, name):
    assert main(["annotate", flag, value, "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and name in err


def test_out_of_range_config_file_field_is_user_error(pipeline_dirs, capsys):
    # A negative temperature was planned and would have been sent as is.
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["provider"]["temperature"] = -0.5
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "run"), "--dry-run"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "temperature must be" in errors[0], errors


@pytest.mark.parametrize("name, value, flag", [
    ("output_dir", "elsewhere", "annotate --out"),
    ("resume", True, "annotate --resume"),
    ("skip_oversize", True, "annotate --skip-oversize"),
])
def test_config_file_flag_only_runner_fields_are_rejected(pipeline_dirs, capsys, name, value, flag):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures, runner={name: value})
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "run"), "--dry-run"]) == 1
    assert f"runner: {name} is not read from a file; use `{flag}`" in capsys.readouterr().err


HELP_FLAGS = {
    "ingest": ["--source", "--metadata", "--extract-cmd", "--out"],
    "sample": ["--manifest", "--n", "--seed", "--out"],
    "annotate": ["--manifest", "--out", "--resume", "--context-asset", "--dry-run",
                 "--audit", "--skip-oversize", "--config", "--batch-size"],
    "filter": ["--dir", "--dry-run", "--config"],
    "parse": ["--dir", "--out", "--manifest", "--filtered", "--threshold", "--report", "--config"],
    "prompts": ["--kind", "--prompts-dir"],
    "stats": ["--manifest", "--dataset", "--out", "--tiers", "--taxonomy"],
    "query": ["--dataset", "--question", "--log", "--config"],
    "export": ["--dataset", "--out"],
}


@pytest.mark.parametrize("command,flags", HELP_FLAGS.items())
def test_help_names_all_flags(command, flags, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    for flag in flags:
        assert flag in help_text, f"{command} --help missing {flag}"


def test_every_readme_command_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("paperlens ")
    ]
    assert len(commands) >= 10, commands
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_annotate_dry_run_prints_planned_doc_tokens(pipeline_dirs, capsys):
    from paperlens.runner import _doc_tokens

    tmp_path, manifest_path, _ = pipeline_dirs
    config = write_config(tmp_path, tmp_path / "no-fixtures-here")
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "run"), "--batch-size", "2", "--dry-run"]) == 0
    out = capsys.readouterr().out
    refs = load_manifest(manifest_path).documents
    for index in (0, 1):
        planned = sum(_doc_tokens(ref) for ref in refs[2 * index : 2 * index + 2])
        assert f"batch {index}: 2 docs, ~{planned} doc tokens" in out


def test_malformed_checkpoint_on_resume_is_user_error(pipeline_dirs, capsys):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "checkpoint.json").write_text("{not json", encoding="utf-8")
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2", "--resume"]) == 1
    assert "checkpoint.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["filter"],
        ["filter", "--dry-run"],
        ["parse", "--filtered", "--out", "parsed.records.jsonl"],
        ["parse", "--out", "parsed.records.jsonl"],
    ],
)
def test_malformed_filter_state_is_user_error(pipeline_dirs, capsys, command):
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    out_dir = tmp_path / "run"
    main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
          "--out", str(out_dir), "--batch-size", "2"])
    assert main(["filter", "--config", str(config), "--dir", str(out_dir)]) == 0
    (out_dir / "filter_state.json").write_text("{not json", encoding="utf-8")
    capsys.readouterr()
    if command[0] == "filter":
        command = command + ["--config", str(config)]
    else:
        command = command[:-1] + [str(tmp_path / command[-1]), "--manifest", str(manifest_path)]
    assert main(command + ["--dir", str(out_dir)]) == 1
    assert "filter_state.json" in capsys.readouterr().err


def test_missing_metadata_file_is_user_error(tmp_path, capsys):
    src = write_corpus(tmp_path / "src", {"a": "alpha"})
    assert main(["ingest", "--source", str(src), "--metadata", str(tmp_path / "no-meta.jsonl"),
                 "--out", str(tmp_path / "m.jsonl")]) == 1
    assert "no-meta.jsonl" in capsys.readouterr().err


def test_manifest_header_not_an_object_is_user_error(tmp_path, capsys):
    manifest_path = tmp_path / "m.jsonl"
    manifest_path.write_text("[]\n", encoding="utf-8")
    assert main(["sample", "--manifest", str(manifest_path), "--n", "1", "--seed", "1",
                 "--out", str(tmp_path / "s.jsonl")]) == 1
    assert "m.jsonl:1" in capsys.readouterr().err


def _quoted_dataset(path, quotes):
    from paperlens.records import Dataset, ExampleRecord, save_dataset

    save_dataset(Dataset(records=[ExampleRecord(source_doc_id=d, quote=q) for d, q in quotes]), path)
    return path


def _quoted_run(base, quotes):
    """A run directory whose one batch output holds a record per (doc id, quote)."""
    run = base / "quoted-run"
    run.mkdir()
    recs = [replace(make_record(i, doc_id=doc_id), quote=quote) for i, (doc_id, quote) in enumerate(quotes)]
    (run / "batch_0_output.txt").write_text(batch_output_text(recs), encoding="utf-8")
    return run


def test_parse_out_holds_the_verdicts(pipeline_dirs, capsys):
    base, manifest_path, _ = pipeline_dirs
    run = _quoted_run(base, [("paper0", "which explains why claim 0 holds")])
    out = base / "verified.jsonl"
    assert main(["parse", "--dir", str(run), "--manifest", str(manifest_path), "--out", str(out)]) == 0
    assert f"parsed 1 records from 1 files (0 warnings) -> {out}" in capsys.readouterr().err
    (record,) = load_dataset(out).records
    assert record.verification.matched and record.verification.similarity == 1.0


def test_verify_lists_near_misses_for_review(pipeline_dirs, capsys):
    base, manifest_path, _ = pipeline_dirs
    # One substitution in 32 characters: similarity 0.969, within 0.05 below 0.99.
    run = _quoted_run(base, [("paper1", "which explains why claim 1 folds")])
    assert main(["parse", "--dir", str(run), "--manifest", str(manifest_path),
                 "--out", str(base / "d.jsonl"), "--threshold", "0.99"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "near-misses for human review (similarity within 0.05 of threshold):" in captured.err
    assert "  paper1: similarity 0.969" in captured.err


def test_verify_reports_the_readable_documents_when_a_source_is_missing(pipeline_dirs, capsys):
    base, manifest_path, _ = pipeline_dirs
    run = _quoted_run(base, [(f"paper{i}", f"which explains why claim {i} holds") for i in range(4)])
    Path(load_manifest(manifest_path).documents[0].text_path).unlink()
    dataset, report = base / "d.jsonl", base / "verify.json"
    assert main(["parse", "--dir", str(run), "--manifest", str(manifest_path), "--out", str(dataset),
                 "--report", str(report)]) == 2
    written = json.loads(report.read_text(encoding="utf-8"))
    assert written["counts"] == {"verified": 3, "unverified": 0, "skipped": 1, "no_quote": 0}
    assert written["skipped_doc_ids"] == ["paper0"]
    assert written["unreadable_doc_ids"] == ["paper0"]
    assert [r.verification is not None for r in load_dataset(dataset).records] == [False, True, True, True]


@pytest.mark.parametrize("filtered", [[], ["--filtered"]])
def test_parse_writes_the_verified_dataset_the_library_calls_write(tmp_path, capsys, filtered):
    docs = {f"paper{i}": f"Body of paper {i}, which explains why claim {i} holds." for i in range(4)}
    manifest_path = tmp_path / "manifest.jsonl"
    save_manifest(ingest(write_corpus(tmp_path / "src", docs)).manifest, manifest_path)
    quotes = [
        ("paper0", "which explains why claim 0 holds"),  # exact
        ("paper1", "which explains why claim 1 folds"),  # 0.969, a near-miss below 0.99
        ("paper2", "a sentence that the paper never wrote"),  # fabricated
        ("paper3", None),  # no quote
        ("paper9", "which explains why claim 9 holds"),  # no such document
    ]
    text = batch_output_text([replace(make_record(i, doc_id=d), quote=q) for i, (d, q) in enumerate(quotes)])
    fixtures = tmp_path / "fixtures"
    write_stub_fixture(fixtures, "annotation", list(docs), text)
    write_stub_fixture(fixtures, "filter", ["batch_0_output.txt"], text)
    config = write_config(tmp_path, fixtures)
    run = tmp_path / "run"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path), "--out", str(run)]) == 0
    if filtered:
        assert main(["filter", "--config", str(config), "--dir", str(run)]) == 0
    out, report = tmp_path / "data.records.jsonl", tmp_path / "verify.json"
    capsys.readouterr()

    assert main(["parse", "--dir", str(run), "--manifest", str(manifest_path), "--out", str(out),
                 "--threshold", "0.99", "--report", str(report), *filtered]) == 0

    # The table, the review and unverified lists and the report, byte for byte.
    err = capsys.readouterr().err.replace(str(tmp_path), "<tmp>")
    assert err == (GOLDEN / "parse_mixed_run_stderr.txt").read_text(encoding="utf-8")
    assert report.read_bytes() == (GOLDEN / "parse_mixed_run_report.json").read_bytes()

    parsed = parse_run(run, filtered=bool(filtered))
    manifest = load_manifest(manifest_path)
    verified, summary = verify_dataset(
        Dataset(parsed.records, manifest_digest(manifest), parsed.filter_pass_count), manifest, 0.99)
    assert summary.counts == {"verified": 1, "unverified": 2, "skipped": 1, "no_quote": 1}
    assert [r.source_doc_id for r in summary.review_records] == ["paper1"]
    save_dataset(verified, tmp_path / "expected.records.jsonl")
    assert out.read_bytes() == (tmp_path / "expected.records.jsonl").read_bytes()
    assert load_dataset(out).filter_pass_count == len(filtered)


@pytest.mark.parametrize("empty", [False, True], ids=["deleted", "empty-batch-of-an-earlier-filter"])
def test_a_filter_pass_without_its_file_is_one_error(pipeline_dirs, capsys, empty):
    # parse --filtered read such a batch from its unfiltered output, and stamped its pass.
    tmp_path, manifest_path, fixtures = pipeline_dirs
    config = write_config(tmp_path, fixtures)
    run, out = tmp_path / "run", tmp_path / "d.records.jsonl"
    annotate = ["annotate", "--config", str(config), "--manifest", str(manifest_path), "--out", str(run),
                "--batch-size", "2"]
    assert main(annotate) == 0
    assert main(["filter", "--config", str(config), "--dir", str(run)]) == 0
    (run / "batch_1_filtered.txt").unlink()
    if empty:
        # Before every pass left its file, filter recorded an empty batch's pass and wrote none.
        (run / "batch_1_output.txt").write_text("", encoding="utf-8")
    capsys.readouterr()
    for command in (["filter", "--config", str(config)], ["filter", "--dry-run"],
                    ["parse", "--filtered", "--manifest", str(manifest_path), "--out", str(out)]):
        assert main(command + ["--dir", str(run)]) == 1, command
        (error,) = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert error.startswith("error: cannot read ") and "batch_1_filtered.txt" in error, command
    assert not out.exists()

    # The recovery the docs give: drop the batch's output and resume.
    (run / "batch_1_output.txt").unlink()
    assert main(annotate + ["--resume"]) == 0
    assert main(["filter", "--config", str(config), "--dir", str(run)]) == 0
    assert main(["parse", "--filtered", "--manifest", str(manifest_path), "--out", str(out),
                 "--dir", str(run)]) == 0
    assert load_dataset(out).filter_pass_count == 1


def test_prompts_show_query(capsys):
    from paperlens.prompts import PromptKind, load_sections

    assert main(["prompts", "show", "--kind", "query"]) == 0
    assert capsys.readouterr().out == load_sections(PromptKind.QUERY)["framing"] + "\n"


def test_annotate_audit_writes_into_out(pipeline_dirs):
    base, manifest_path, fixtures = pipeline_dirs
    config = write_config(base, fixtures)
    out_dir = base / "run"
    assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                 "--out", str(out_dir), "--batch-size", "2", "--audit"]) == 0
    lines = (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert {json.loads(line)["kind"] for line in lines} == {"annotation"}
    assert not (base / "audit.jsonl").exists()


def test_log_timestamps_are_utc(pipeline_dirs, monkeypatch):
    # Local time without an offset cannot be ordered across machines or a DST change.
    base, manifest_path, fixtures = pipeline_dirs
    config = write_config(base, fixtures)
    run, dataset, log = base / "run", base / "d.records.jsonl", base / "q.jsonl"
    save_dataset(Dataset(), dataset)
    write_stub_fixture(fixtures, "query", [dataset.name], "an answer")
    monkeypatch.setenv("TZ", "XYZ-14")  # fourteen hours ahead of UTC
    time.tzset()
    try:
        assert main(["annotate", "--config", str(config), "--manifest", str(manifest_path),
                     "--out", str(run), "--batch-size", "2", "--audit"]) == 0
        assert main(["query", "--config", str(config), "--dataset", str(dataset),
                     "--question", "why?", "--log", str(log)]) == 0
    finally:
        monkeypatch.undo()
        time.tzset()
    lines = [*(run / "audit.jsonl").read_text(encoding="utf-8").splitlines(),
             *log.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 3
    for line in lines:
        ts = json.loads(line)["ts"]
        assert ts.endswith("Z"), ts
        stamped = datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
        assert abs(datetime.now(timezone.utc) - stamped) < timedelta(minutes=5), ts


@pytest.mark.parametrize("tiers, message", [
    ("0.2,0.8", "--tiers expects three comma-separated fractions, got '0.2,0.8'"),
    ("0.2,high,0.2", "--tiers: could not convert string to float: 'high'"),
])
def test_malformed_tiers_is_user_error(pipeline_dirs, tmp_path, capsys, tiers, message):
    _, manifest_path, _ = pipeline_dirs
    ds_path = _quoted_dataset(tmp_path / "d.jsonl", [])
    assert main(["stats", "--manifest", str(manifest_path), "--dataset", str(ds_path),
                 "--out", str(tmp_path / "stats"), "--tiers", tiers]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "stats").exists()


def _config_dests(command):
    """The ``dest`` of every option ``command`` takes."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in subparsers.choices[command]._actions}


def test_every_config_field_read_from_a_file_has_a_flag():
    provider_fields = {f.name for f in fields(ProviderConfig)}
    for command in ("annotate", "filter", "query"):
        assert provider_fields | {"prompts_dir"} <= _config_dests(command), command
    assert {"batch_size", *_FLAG_ONLY} <= _config_dests("annotate")
    assert "threshold" in _config_dests("parse")
    # A config field without a flag would appear here.
    settings = {f.name for f in fields(GlobalConfig) if not is_dataclass(f.default)}
    settings |= provider_fields | {f.name for f in fields(RunnerConfig)}
    read_from_file = settings - set(_FLAG_ONLY)
    assert read_from_file <= provider_fields | {"prompts_dir", "batch_size", "threshold"}


def _paperlens_error_classes():
    classes = []
    for info in pkgutil.iter_modules(paperlens.__path__):
        module = importlib.import_module(f"paperlens.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__ and not name.startswith("_")):
                classes.append(obj)
    return classes


ERROR_CLASSES = _paperlens_error_classes()


def test_error_classes_are_found():
    assert {"CliError", "CorpusError", "CheckpointMismatch"} <= {cls.__name__ for cls in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_every_paperlens_error_is_a_user_error(cls, monkeypatch, capsys):
    assert issubclass(cls, PaperlensError)
    exc = cls.__new__(cls)  # without the arguments some constructors take
    Exception.__init__(exc, "raised by the command")

    def command(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "prompts", command)
    assert main(["prompts", "show", "--kind", "query"]) == 1
    assert "error: raised by the command" in capsys.readouterr().err
