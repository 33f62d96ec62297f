"""Command-line surface tests: routing, exit codes, dry runs, help text."""

import json

import pytest

from conftest import batch_output_text, make_record, write_corpus
from paperlens.cli import build_parser, main
from paperlens.corpus import ingest, load_manifest, save_manifest
from paperlens.provider import stub_key, write_stub_fixture
from paperlens.records import load_dataset


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


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


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
                 "--manifest", str(manifest_path)]) == 0
    ds = load_dataset(dataset_path)
    assert len(ds.records) == 2
    assert ds.filter_pass_count == 1

    assert main(["verify", "--dataset", str(dataset_path), "--manifest", str(manifest_path),
                 "--report", str(tmp_path / "verify.json")]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["counts"]["no_quote"] + report["counts"]["verified"] + \
        report["counts"]["unverified"] + report["counts"]["skipped"] == 2

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
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path), "--filtered"]) == 0
    assert load_dataset(dataset_path).filter_pass_count == 1
    err = capsys.readouterr().err
    assert "batch 0" in err and "batch 1" not in err


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


def test_missing_files_are_user_errors(tmp_path, capsys):
    assert main(["ingest", "--source", str(tmp_path / "nope"), "--out", "m"]) == 1
    assert main(["verify", "--dataset", str(tmp_path / "no.jsonl"),
                 "--manifest", str(tmp_path / "no-m.jsonl")]) == 1
    assert main(["export", "--dataset", str(tmp_path / "no.jsonl"), "--out", "x"]) == 1


HELP_FLAGS = {
    "ingest": ["--source", "--metadata", "--extract-cmd", "--out"],
    "sample": ["--manifest", "--n", "--seed", "--out"],
    "annotate": ["--manifest", "--out", "--resume", "--context-asset", "--dry-run",
                 "--audit", "--skip-oversize", "--config", "--batch-size"],
    "filter": ["--dir", "--dry-run", "--config"],
    "parse": ["--dir", "--out", "--manifest", "--filtered"],
    "verify": ["--dataset", "--manifest", "--threshold", "--out", "--report"],
    "stats": ["--manifest", "--dataset", "--out", "--tiers", "--taxonomy"],
    "query": ["--dataset", "--question", "--log", "--config"],
    "export": ["--dataset", "--out"],
    "prompts": ["--kind", "--prompts-dir"],
}


@pytest.mark.parametrize("command,flags", HELP_FLAGS.items())
def test_help_names_all_flags(command, flags, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    for flag in flags:
        assert flag in help_text, f"{command} --help missing {flag}"
