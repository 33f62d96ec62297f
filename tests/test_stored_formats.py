"""The stored manifest, dataset and run-state formats: pinned bytes, round trips, typed fields."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, write_corpus, write_metadata
from paperlens.atomic import read_json, write_json
from paperlens.cli import main
from paperlens.corpus import (
    CorpusManifest,
    DocumentRef,
    ingest,
    load_manifest,
    save_manifest,
)
from paperlens.prompts import SECTION_FILES
from paperlens.provider import stub_key, write_stub_fixture
from paperlens.records import QUALITY_LABELS, Dataset, ExampleRecord, load_dataset, save_dataset
from paperlens.runner import Checkpoint, FilterState, RunnerError
from paperlens.verify import VerificationResult

GOLDEN = Path(__file__).parent / "golden"


def golden_objects() -> tuple[CorpusManifest, Dataset]:
    """The values whose files are pinned in ``golden/``."""
    manifest = CorpusManifest.build(
        [
            DocumentRef("2001.00001", "corpus/2001.00001.pdf", "corpus/2001.00001.txt",
                        title="Über Kähler–Einstein metrics", authors=("Ö. Çelik", "李 雷"),
                        category_tag="math.DG", char_count=48123),
            DocumentRef("2001.00002", "corpus/2001.00002.pdf", "corpus/2001.00002.txt"),
            DocumentRef("math0003117-math.CO", "corpus/math0003117-math.CO.pdf",
                        "corpus/math0003117-math.CO.txt", title="Graphs — and “quotes”",
                        authors=("A. One",), category_tag=None, char_count=0),
        ],
        sample_seed=7,
        parent_size=80000,
    )
    dataset = Dataset(
        records=[
            ExampleRecord(source_doc_id="2001.00001", title="Why ∂ ∘ ∂ = 0", authors="Ö. Çelik",
                          finding="A structural reason for the identity.",
                          quote="we can now see why the square of ∂ vanishes",
                          commentary="Reason-why language — «explicit».", page=10, batch_index=0,
                          verification=VerificationResult(True, 1.0, 0.85, 862, 905),
                          quality_label="high"),
            ExampleRecord(source_doc_id="2001.00002", title="No page", authors=None,
                          finding="A finding without a page.", quote="a quote with no page",
                          commentary="", page=None, batch_index=1),
            ExampleRecord(source_doc_id="math0003117-math.CO", title="Near miss", authors=None,
                          finding="", quote="this quote is not in the text", commentary="c",
                          page=3, batch_index=1,
                          verification=VerificationResult(False, 0.5, 0.85)),
        ],
        source_manifest_hash="0" * 64,
        filter_pass_count=2,
    )
    return manifest, dataset


def test_manifest_bytes_are_pinned(tmp_path):
    manifest, _ = golden_objects()
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    golden = GOLDEN / "manifest_three_entries.jsonl"
    assert path.read_bytes() == golden.read_bytes()
    assert load_manifest(golden) == manifest


def test_dataset_bytes_are_pinned(tmp_path):
    _, dataset = golden_objects()
    path = tmp_path / "d.jsonl"
    save_dataset(dataset, path)
    golden = GOLDEN / "dataset_three_records.jsonl"
    assert path.read_bytes() == golden.read_bytes()
    loaded = load_dataset(golden)
    assert loaded == dataset
    assert type(loaded.records[0].verification.similarity) is float


# --- Run-state files: checkpoint.json and filter_state.json ------------------

#: Batches of the study below, one document each: enough that the keys
#: "10" to "12" sort differently as text and as numbers.
BATCHES = 13
ANNOTATE = ["annotate", "--config", "config.json", "--manifest", "manifest.jsonl",
            "--out", "run", "--batch-size", "1"]
FILTER = ["filter", "--config", "config.json", "--dir", "run"]


def make_study() -> None:
    """Write a corpus, its manifest, prompt sections, stub replies and a config into the working directory.

    Every path is relative, so the manifest digest and the batch digests are
    the same in any directory.
    """
    write_corpus(Path("src"), {f"p{i:02d}": f"Paper {i} explains why claim {i} holds." for i in range(BATCHES)})
    for kind, names in SECTION_FILES.items():
        (Path("templates") / kind.value).mkdir(parents=True)
        for name in names:
            (Path("templates") / kind.value / f"{name}.txt").write_text(f"The {name} section.", encoding="utf-8")
    for i in range(BATCHES):
        write_stub_fixture("fixtures", "annotation", [f"p{i:02d}"], f"Annotation of batch {i}.")
        write_stub_fixture("fixtures", "filter", [f"batch_{i}_output.txt"], f"Batch {i} after one pass.")
        write_stub_fixture("fixtures", "filter", [f"batch_{i}_filtered.txt"], f"Batch {i} after two passes.")
    provider = {"dialect": "stub", "fixtures_dir": "fixtures", "max_retries": 0, "backoff_base_ms": 1}
    Path("config.json").write_text(json.dumps({"provider": provider, "prompts_dir": "templates"}), encoding="utf-8")
    assert main(["ingest", "--source", "src", "--out", "manifest.jsonl"]) == 0


def stub_reply(kind: str, ref: str) -> Path:
    return Path("fixtures") / f"{kind}-{stub_key(kind, [ref])}.txt"


def test_checkpoint_bytes_are_pinned(tmp_path):
    golden = GOLDEN / "checkpoint_thirteen_batches.json"
    checkpoint = read_json(golden, RunnerError, Checkpoint)
    assert list(checkpoint.digests) == list(range(BATCHES))
    path = tmp_path / "checkpoint.json"
    write_json(path, Checkpoint(checkpoint.manifest_hash, dict(reversed(checkpoint.digests.items()))))
    assert path.read_bytes() == golden.read_bytes()


def test_filter_state_bytes_are_pinned(tmp_path):
    state = FilterState(batch_passes={i: 2 for i in reversed(range(BATCHES))})
    write_json(tmp_path / "filter_state.json", state)
    golden = GOLDEN / "filter_state_thirteen_batches.json"
    assert (tmp_path / "filter_state.json").read_bytes() == golden.read_bytes()
    assert FilterState.load(tmp_path) == state


def test_checkpoint_of_the_older_format_loads_and_every_batch_is_sent_again(tmp_path, monkeypatch, capsys):
    # checkpoint_older_format.json was written by older code for this study,
    # after batches 3 and 11 had failed: it lists the others under
    # "completed" too, with its keys in text order. Its digests covered
    # fewer request settings than today's, so none of them matches.
    monkeypatch.chdir(tmp_path)
    make_study()
    assert main(ANNOTATE) == 0
    Path("run/checkpoint.json").write_text(
        (GOLDEN / "checkpoint_older_format.json").read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()

    assert main([*ANNOTATE, "--resume"]) == 0

    assert "13/13 batches done, 0 resumed, 0 failed, 13 provider calls" in capsys.readouterr().err
    assert Path("run/checkpoint.json").read_bytes() == (GOLDEN / "checkpoint_thirteen_batches.json").read_bytes()


def test_checkpoint_with_a_completed_list_and_keys_in_text_order_resumes_the_same_batches(
        tmp_path, monkeypatch, capsys):
    # The layout of checkpoint_older_format.json, with this study's digests
    # after batches 3 and 11 had failed.
    monkeypatch.chdir(tmp_path)
    make_study()
    assert main(ANNOTATE) == 0
    current = json.loads(Path("run/checkpoint.json").read_text(encoding="utf-8"))
    done = [i for i in range(BATCHES) if i not in (3, 11)]
    older = {
        "completed": done,
        "digests": {str(i): current["digests"][str(i)] for i in done},
        "manifest_hash": current["manifest_hash"],
    }
    Path("run/checkpoint.json").write_text(json.dumps(older, sort_keys=True), encoding="utf-8")
    for i in (3, 11):
        Path(f"run/batch_{i}_output.txt").unlink()
    for i in done:  # a call for a batch the older run finished would now fail
        stub_reply("annotation", f"p{i:02d}").unlink()
    capsys.readouterr()

    assert main([*ANNOTATE, "--resume"]) == 0

    assert "13/13 batches done, 11 resumed, 0 failed, 2 provider calls" in capsys.readouterr().err
    assert Path("run/checkpoint.json").read_bytes() == (GOLDEN / "checkpoint_thirteen_batches.json").read_bytes()


def test_filter_state_of_the_older_format_finishes_the_lagging_pass(tmp_path, monkeypatch):
    # filter_state_older_format.json was written by the previous format's code
    # for this study, after pass 2 had failed for batch 3: it holds "digests".
    monkeypatch.chdir(tmp_path)
    make_study()
    assert main(ANNOTATE) == 0
    assert main(FILTER) == 0
    stub_reply("filter", "batch_3_filtered.txt").rename("held_back.txt")
    assert main(FILTER) == 2
    older = (GOLDEN / "filter_state_older_format.json").read_text(encoding="utf-8")
    assert "digests" in json.loads(older)
    Path("run/filter_state.json").write_text(older, encoding="utf-8")
    Path("held_back.txt").rename(stub_reply("filter", "batch_3_filtered.txt"))
    for i in range(BATCHES):
        stub_reply("filter", f"batch_{i}_output.txt").unlink()
        if i != 3:  # only batch 3 lags
            stub_reply("filter", f"batch_{i}_filtered.txt").unlink()

    assert main(FILTER) == 0

    assert Path("run/batch_3_filtered.txt").read_text(encoding="utf-8") == "Batch 3 after two passes."
    written = Path("run/filter_state.json").read_bytes()
    assert written == (GOLDEN / "filter_state_thirteen_batches.json").read_bytes()


# --- Round trips of random values --------------------------------------------

texts = st.text(max_size=20)
optional_ints = st.none() | st.integers()


@st.composite
def verifications(draw):
    threshold = draw(st.floats(min_value=0.01, max_value=1.0))
    similarity = draw(st.floats(min_value=0.0, max_value=1.0))
    if similarity < threshold:
        return VerificationResult(False, similarity, threshold)
    start = draw(st.integers(min_value=0, max_value=10**6))
    return VerificationResult(True, similarity, threshold, start, start + draw(st.integers(0, 500)))


refs = st.builds(
    DocumentRef,
    doc_id=texts,
    path=texts,
    text_path=texts,
    title=texts,
    authors=st.lists(texts, max_size=3).map(tuple),
    category_tag=st.none() | texts,
    char_count=st.integers(min_value=0),
)

records = st.builds(
    ExampleRecord,
    source_doc_id=texts,
    title=texts,
    authors=st.none() | texts,
    finding=texts,
    quote=st.none() | texts,
    commentary=texts,
    page=optional_ints,
    batch_index=st.integers(min_value=0),
    verification=st.none() | verifications(),
    quality_label=st.none() | st.sampled_from(QUALITY_LABELS),
)


@settings(max_examples=60, deadline=None)
@given(
    documents=st.lists(refs, max_size=5, unique_by=lambda r: r.doc_id),
    seed=optional_ints,
    parent_size=st.integers(min_value=0),
)
def test_manifest_round_trips(tmp_path_factory, documents, seed, parent_size):
    manifest = CorpusManifest.build(documents, sample_seed=seed, parent_size=parent_size)
    path = tmp_path_factory.mktemp("m") / "m.jsonl"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(records, max_size=5),
    manifest_hash=texts,
    passes=st.integers(min_value=0),
)
def test_dataset_round_trips(tmp_path_factory, rows, manifest_hash, passes):
    dataset = Dataset(records=rows, source_manifest_hash=manifest_hash, filter_pass_count=passes)
    path = tmp_path_factory.mktemp("d") / "d.jsonl"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset


def test_line_separator_characters_inside_strings_round_trip(tmp_path):
    # The encoder keeps U+2028, U+2029 and U+0085 as they are; the reader
    # must not take them for line ends.
    manifest = CorpusManifest.build([DocumentRef("a", "p", "t", title="x y z\x85")])
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


# --- Values of the wrong type are errors that name the line -----------------


def _edit_line(path: Path, lineno: int, **changes) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[lineno - 1])
    row.update(changes)
    lines[lineno - 1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def stored(tmp_path):
    """A two-document corpus, its manifest file and a one-record dataset file."""
    src = write_corpus(tmp_path / "src", {"paper0": "we can now see why identity 0 must hold"})
    manifest_path = tmp_path / "m.jsonl"
    save_manifest(ingest(src).manifest, manifest_path)
    dataset_path = tmp_path / "d.jsonl"
    save_dataset(Dataset(records=[make_record(0, doc_id="paper0")]), dataset_path)
    return tmp_path, manifest_path, dataset_path


def _run(base: Path, command: str, manifest: Path, dataset: Path) -> list[str]:
    out = str(base / "out")
    return {
        "sample": ["sample", "--manifest", str(manifest), "--n", "1", "--seed", "1", "--out", out],
        "stats": ["stats", "--manifest", str(manifest), "--dataset", str(dataset), "--out", out],
        "verify": ["verify", "--manifest", str(manifest), "--dataset", str(dataset)],
        "export": ["export", "--dataset", str(dataset), "--out", out],
    }[command]


@pytest.mark.parametrize("command, lineno, changes, field", [
    ("sample", 2, {"authors": "Ann"}, "authors"),
    ("stats", 2, {"category_tag": 5}, "category_tag"),
    ("sample", 1, {"parent_size": "x"}, "parent_size"),
])
def test_manifest_value_of_wrong_type_is_user_error(stored, capsys, command, lineno, changes, field):
    base, manifest_path, dataset_path = stored
    _edit_line(manifest_path, lineno, **changes)
    assert main(_run(base, command, manifest_path, dataset_path)) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest_path}:{lineno}: {field}" in err
    assert not (base / "out").exists()


@pytest.mark.parametrize("command, lineno, changes, field", [
    ("verify", 2, {"quote": 5}, "quote"),
    ("stats", 2, {"source_doc_id": None}, "source_doc_id"),
    ("export", 2, {"page": "ten"}, "page"),
    ("export", 2, {"batch_index": "3"}, "batch_index"),
    ("export", 2, {"verification": {"matched": 1, "similarity": 1.0, "threshold_used": 0.85}},
     "verification.matched"),
    ("export", 1, {"filter_pass_count": "x"}, "filter_pass_count"),
    ("export", 2, {"quality_label": "great"}, "invalid quality_label 'great'"),
])
def test_dataset_value_of_wrong_type_is_user_error(stored, capsys, command, lineno, changes, field):
    base, manifest_path, dataset_path = stored
    _edit_line(dataset_path, lineno, **changes)
    assert main(_run(base, command, manifest_path, dataset_path)) == 1
    err = capsys.readouterr().err
    assert f"error: {dataset_path}:{lineno}: {field}" in err
    assert not (base / "out").exists()


def test_metadata_doc_id_must_be_a_string(tmp_path, capsys):
    # As a JSON number, 2001.10 reads back as 2001.1 and matches no PDF.
    src = write_corpus(tmp_path / "src", {"2001.10": "text"})
    meta = write_metadata(tmp_path / "meta.jsonl", [{"doc_id": 2001.10, "title": "Real title"}])
    out = tmp_path / "m.jsonl"
    assert main(["ingest", "--source", str(src), "--metadata", str(meta), "--out", str(out)]) == 1
    assert f"error: {meta}:1: doc_id must be str, got 2001.1" in capsys.readouterr().err
    assert not out.exists()


def test_integer_floats_are_stored_as_floats(stored):
    base, _, dataset_path = stored
    _edit_line(dataset_path, 2, verification={"matched": True, "similarity": 1,
                                              "threshold_used": 1, "span_start": 0, "span_end": 5})
    ds = load_dataset(dataset_path)
    save_dataset(ds, base / "again.jsonl")
    assert '"similarity": 1.0' in (base / "again.jsonl").read_text(encoding="utf-8")
