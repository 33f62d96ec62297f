"""Crash a small stub study at every file change; recovery must end byte-identical.

The study is ``annotate``, ``filter``, ``filter``, ``parse --filtered`` and
``stats`` over 6 papers in batches of 2, through ``cli.main``, with one call
in flight. Every file change paperlens makes runs inside ``atomic.file_op``,
so patching it (in each module that uses it) reaches every crash point: the
k-th change that is not a read raises ``Crash`` before or after it is made,
and every later change raises too, as nothing runs after a process dies.
Recovery re-runs the crashed command (``annotate`` with ``--resume``), then
the rest; every file under the study's directory must then hash as in the
uncrashed run. This enumerates crash points as Pillai et al. ("All File
Systems Are Not Created Equal", OSDI 2014) and CrashMonkey (Mohan et al.,
OSDI 2018) do, in process so that it stays fast.
"""

import contextlib
import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from conftest import batch_output_text, write_corpus
from paperlens import atomic
from paperlens.cli import main
from paperlens.corpus import ingest, save_manifest
from paperlens.provider import write_stub_fixture
from paperlens.records import ExampleRecord
from paperlens.runner import FILTER_STATE_FILE, plan_filter

DOCS = {f"paper{i}": f"Paper {i} explains why claim {i} holds: the two counts agree term by term {i}."
        for i in range(6)}
ANNOTATE = ["annotate", "--config", "config.json", "--manifest", "manifest.jsonl", "--out", "run",
            "--batch-size", "2"]
FILTER = ["filter", "--config", "config.json", "--dir", "run"]
STUDY = [
    ANNOTATE,
    FILTER,
    FILTER,
    ["parse", "--dir", "run", "--filtered", "--manifest", "manifest.jsonl", "--out", "data.records.jsonl"],
    ["stats", "--manifest", "manifest.jsonl", "--dataset", "data.records.jsonl", "--out", "stats"],
]
#: The changes the uncrashed study makes: annotate 8, each filter 7, parse 1, stats 3.
CHANGES = 26


_FILE_OP = atomic.file_op


class Crash(BaseException):
    """The process dies here; nothing catches it."""


def _record(doc_id: str, batch_index: int) -> ExampleRecord:
    return ExampleRecord(source_doc_id=doc_id, finding=f"Why {doc_id} holds.",
                         quote=DOCS[doc_id].split(": ")[1][:-1], batch_index=batch_index)


def _set_up() -> None:
    """The study's inputs, in the current directory, named by relative paths so two runs compare."""
    save_manifest(ingest(write_corpus(Path("corpus"), DOCS)).manifest, "manifest.jsonl")
    Path("config.json").write_text(json.dumps({"provider": {
        "dialect": "stub", "fixtures_dir": "fixtures", "max_retries": 0, "max_inflight": 1,
    }}), encoding="utf-8")
    for index in range(3):
        doc_ids = [f"paper{2 * index}", f"paper{2 * index + 1}"]
        records = [_record(doc_id, index) for doc_id in doc_ids]
        write_stub_fixture("fixtures", "annotation", doc_ids, batch_output_text(records))
        write_stub_fixture("fixtures", "filter", [f"batch_{index}_output.txt"], batch_output_text(records))
        write_stub_fixture("fixtures", "filter", [f"batch_{index}_filtered.txt"], batch_output_text(records[:1]))


def _hashes() -> dict[str, str]:
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path().rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def uncrashed(tmp_path_factory) -> dict[str, str]:
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("uncrashed"))
        _set_up()
        assert [main(argv) for argv in STUDY] == [0] * len(STUDY)
        return _hashes()


class _Crasher:
    """A ``file_op`` whose ``k``-th change raises ``Crash`` ``when`` (before or after it made
    the change), as does every later one; it lists the changes it was asked to make."""

    def __init__(self, k: float, when: str) -> None:
        self.k, self.when = k, when
        self.changes: list[tuple[str, str]] = []  # (verb, path) of each change attempted
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def file_op(self, verb, path, error):
        if verb == "read":
            with _FILE_OP(verb, path, error):
                yield
            return
        with self._lock:
            n = len(self.changes)
            self.changes.append((verb, str(path)))
        if n > self.k or (n == self.k and self.when == "before"):
            raise Crash
        with _FILE_OP(verb, path, error):
            yield
        if n == self.k:
            raise Crash

    @contextlib.contextmanager
    def patched(self):
        """``file_op`` replaced in every paperlens module that holds it."""
        with pytest.MonkeyPatch.context() as mp:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "paperlens" and getattr(module, "file_op", None) is _FILE_OP:
                    mp.setattr(module, "file_op", self.file_op)
            yield


def test_uncrashed_study_makes_the_counted_changes(tmp_path, monkeypatch, uncrashed):
    monkeypatch.chdir(tmp_path)
    _set_up()
    counter = _Crasher(float("inf"), "after")
    with counter.patched():
        assert [main(argv) for argv in STUDY] == [0] * len(STUDY)
    assert len(counter.changes) == CHANGES, counter.changes
    assert _hashes() == uncrashed


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("k", range(CHANGES))
def test_crash_at_every_file_change_recovers_byte_identical(tmp_path, monkeypatch, request, uncrashed, k, when):
    monkeypatch.chdir(tmp_path)
    _set_up()
    crasher = _Crasher(k, when)
    with crasher.patched():
        for crashed, argv in enumerate(STUDY):
            try:
                assert main(argv) == 0
            except Crash:
                break
        else:
            pytest.fail(f"the study made {len(crasher.changes)} changes, not {CHANGES}")
    verb, path = crasher.changes[k]

    # Recognised by what was written, not by k: the crashed filter call had
    # recorded its pass for every batch, so its re-run adds a pass.
    if (when == "after" and Path(path).name == FILTER_STATE_FILE and STUDY[crashed] is FILTER
            and plan_filter("run").pass_number > STUDY[:crashed + 1].count(FILTER)):
        request.node.add_marker(pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 24: a filter call killed after its last state write cannot be "
            "recovered by re-running it; the re-run adds a pass")))

    recovery = [[*ANNOTATE, "--resume"] if STUDY[crashed] is ANNOTATE else STUDY[crashed], *STUDY[crashed + 1:]]
    assert [main(argv) for argv in recovery] == [0] * len(recovery), (verb, path)
    assert _hashes() == uncrashed, (verb, path)
