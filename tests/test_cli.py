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
    # Subcommands take only the config flags they read.
    for argv in (["verify", "--dataset", "d", "--manifest", "m", "--dialect", "stub"],
                 ["filter", "--dir", "d", "--batch-size", "2"],
                 ["query", "--dataset", "d", "--question", "q", "--batch-size", "2"]):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


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
    assert main(["parse", "--dir", str(out_dir), "--out", str(dataset_path)]) == 0
    ds = load_dataset(dataset_path)
    assert [(r.batch_index, r.source_doc_id) for r in ds.records] == [
        (0, "paper0"), (0, "paper1"), (1, "paper2"), (1, "paper3"),
    ]
    assert "from 2 files" in capsys.readouterr().err


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


def test_missing_files_are_user_errors(pipeline_dirs, tmp_path, capsys):
    assert main(["ingest", "--source", str(tmp_path / "nope"), "--out", "m"]) == 1
    assert main(["verify", "--dataset", str(tmp_path / "no.jsonl"),
                 "--manifest", str(tmp_path / "no-m.jsonl")]) == 1
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


def test_config_tiers_section_is_rejected(tmp_path, capsys):
    # Tiers come from `stats --tiers`; the config file has no tiers section.
    config = write_config(tmp_path, tmp_path, tiers={"high": 0.2, "borderline": 0.6, "low": 0.2})
    assert main(["verify", "--config", str(config), "--dataset", "d", "--manifest", "m"]) == 1
    assert "unknown section(s) ['tiers']" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["high", None, True, 0, -0.5, 1.5, float("nan")])
def test_config_threshold_must_be_a_number_in_range(tmp_path, capsys, threshold):
    from paperlens.config import ConfigError, load_config

    config = write_config(tmp_path, tmp_path, threshold=threshold)
    with pytest.raises(ConfigError, match="threshold"):
        load_config(config)
    assert main(["verify", "--config", str(config), "--dataset", "d", "--manifest", "m"]) == 1
    assert "threshold" in capsys.readouterr().err


def test_threshold_flag_out_of_range_is_user_error(capsys):
    assert main(["verify", "--threshold", "2", "--dataset", "d", "--manifest", "m"]) == 1
    assert "threshold must be a number in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, name", [
    ("provider", {"dialect": "azure"}, "dialect"),
    (None, {"prompts_dir": 5}, "prompts_dir"),
    ("provider", {"dialect": "stub", "fixtures_dir": 5}, "fixtures_dir"),
    ("provider", {"dialect": "openai", "base_url": 5}, "base_url"),
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


@pytest.mark.parametrize("flag, value, name", [
    ("--batch-size", "0", "batch_size"),
    ("--max-inflight", "0", "max_inflight"),
    ("--context-window", "10", "context_window_tokens"),
    ("--max-retries", "-1", "max_retries"),
    ("--backoff-base-ms", "0", "backoff_base_ms"),
])
def test_out_of_range_flag_is_user_error(tmp_path, capsys, flag, value, name):
    assert main(["annotate", flag, value, "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and name in err


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
    [["filter"], ["filter", "--dry-run"], ["parse", "--filtered", "--out", "parsed.records.jsonl"]],
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
        command = command[:-1] + [str(tmp_path / command[-1])]
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
