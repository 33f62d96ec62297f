"""The shared file layer: one serialiser, one text reader, one error rule."""

import ast
import typing
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import paperlens
from paperlens.atomic import (
    PaperlensError,
    append_jsonl,
    file_op,
    from_json,
    jsonl_lines,
    read_json,
    read_jsonl,
    read_text,
    write_atomic,
    write_json,
    write_jsonl,
)


class Oops(Exception):
    pass


@dataclass(frozen=True)
class N:
    n: int


def test_write_json_sorts_keys_keeps_unicode_and_ends_with_newline(tmp_path):
    path = tmp_path / "state.json"
    write_json(path, {"b": 1, "a": "ü"})
    assert path.read_text(encoding="utf-8") == '{"a": "ü", "b": 1}\n'
    assert read_json(path, Oops) == {"a": "ü", "b": 1}


def _jsonl_with_row_3000(path, text):
    """``write_jsonl`` of 5,000 rows, row 3,000 holding ``text``: earlier lines reach the temp file first."""
    rows = [{"n": i} for i in range(5_000)]
    rows[2_999] = {"text": text}
    write_jsonl(path, rows)


def test_write_atomic_with_unencodable_text_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, "old")
    for write in (write_atomic, _jsonl_with_row_3000):
        with pytest.raises(UnicodeEncodeError):
            write(path, "ok \ud83d")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        assert path.read_bytes() == b"old"


def test_write_atomic_that_cannot_rename_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    (target / "inside").mkdir(parents=True)  # a directory that is not empty cannot be replaced
    for write in (write_atomic, _jsonl_with_row_3000):
        with pytest.raises(PaperlensError) as err:
            write(target, "text")
        assert str(err.value).startswith(f"cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        assert (target / "inside").is_dir()


def test_write_jsonl_round_trips_header_and_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"z": 0, "n": 1}, {"n": 2}], header={"format": "x/1", "size": 2})
    assert path.read_text(encoding="utf-8") == '{"format": "x/1", "size": 2}\n{"n": 1, "z": 0}\n{"n": 2}\n'
    header, rows = read_jsonl(path, Oops, N, Header)
    assert header == Header(size=2)
    assert rows == [N(1), N(2)]


def test_append_jsonl_adds_one_sorted_line(tmp_path):
    path = tmp_path / "log.jsonl"
    append_jsonl(path, {"q": "ä", "a": 1})
    append_jsonl(path, {"q": "b", "a": 2})
    assert path.read_text(encoding="utf-8") == '{"a": 1, "q": "ä"}\n{"a": 2, "q": "b"}\n'


def test_read_jsonl_skips_blank_lines_and_converts(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('\n{"n": 1}\n  \n{"n": 2}\n\n', encoding="utf-8")
    header, rows = read_jsonl(path, Oops, N)
    assert header is None
    assert rows == [N(1), N(2)]


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"n": 1}\n{broken\n', "rows.jsonl:2"),
        ('{"n": 1}\n\n[1]\n', "rows.jsonl:3"),
        ("null\n", "rows.jsonl:1"),
        ('{"m": 1}\n', "rows.jsonl:1"),
    ],
)
def test_read_jsonl_names_the_line(tmp_path, text, where):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Oops, match=where):
        read_jsonl(path, Oops, N)


@pytest.mark.parametrize("text", ["", "\n\n", '{"format": "y/1"}\n', "[]\n"])
def test_read_jsonl_checks_the_format_header(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl"):
        read_jsonl(path, Oops, N, Header)


@pytest.mark.parametrize("text", ["{not json", "[]", "3", ""])
def test_read_json_rejects_anything_but_an_object(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Oops, match="state.json"):
        read_json(path, Oops)


def test_read_json_conversion_errors_name_the_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"n": "x"}', encoding="utf-8")
    with pytest.raises(Oops, match="state.json: n must be int, got 'x'"):
        read_json(path, Oops, N)


@pytest.mark.parametrize("read", [
    lambda path: read_json(path, Oops),
    lambda path: read_jsonl(path, Oops, N),
], ids=["read_json", "read_jsonl"])
def test_missing_file_names_the_path(tmp_path, read):
    with pytest.raises(Oops, match="absent.json"):
        read(tmp_path / "absent.json")


@pytest.mark.parametrize("read", [
    lambda path: read_text(path, Oops),
    lambda path: read_json(path, Oops),
    lambda path: read_jsonl(path, Oops, N),
], ids=["read_text", "read_json", "read_jsonl"])
def test_read_errors_name_the_path_once(tmp_path, read):
    path = tmp_path / "absent.json"
    with pytest.raises(Oops) as missing:
        read(path)
    assert str(missing.value) == f"cannot read {path}: No such file or directory"
    path.mkdir()
    with pytest.raises(Oops) as directory:
        read(path)
    assert str(directory.value) == f"cannot read {path}: Is a directory"
    path = tmp_path / "undecodable.json"
    path.write_bytes(b"ok \xff\xfe")
    with pytest.raises(Oops) as undecodable:
        read(path)
    assert str(undecodable.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_file_op_names_the_verb_and_the_path_once(tmp_path):
    path = tmp_path / "absent"
    with pytest.raises(Oops) as removing:
        with file_op("remove", path, Oops):
            path.unlink()
    assert str(removing.value) == f"cannot remove {path}: No such file or directory"
    with pytest.raises(Oops) as making:
        with file_op("write", path / "sub", Oops):
            (path / "sub").mkdir()
    assert str(making.value) == f"cannot write {path / 'sub'}: No such file or directory"
    with pytest.raises(UnicodeDecodeError):  # only a read turns a decode error
        with file_op("write", path, Oops):
            b"\xff".decode("utf-8")


def test_only_atomic_and_corpus_open_files():
    """Every other module reads a file through ``read_text`` and writes one through
    ``write_atomic`` or ``append_jsonl``, so one error rule holds for each."""
    calls = []
    for path in sorted(Path(paperlens.__file__).parent.glob("*.py")):
        if path.name in ("atomic.py", "corpus.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                calls.append(f"{path.name}:{node.lineno} open(")
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "open", "read_text", "write_text", "write_bytes"
            ):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}(")
    assert calls == []


_CHANGES = ("mkdir", "unlink", "rmdir", "rename", "touch")
_OS_CHANGES = ("remove", "rename", "replace", "makedirs", "unlink", "rmdir", "removedirs")


def _is_file_op(item: ast.withitem) -> bool:
    call = item.context_expr
    func = call.func if isinstance(call, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "file_op") or (
        isinstance(func, ast.Attribute) and func.attr == "file_op")


def test_every_file_change_outside_atomic_runs_inside_file_op():
    """A new directory, a removal or a rename outside ``atomic`` runs inside
    ``file_op``, so a failure is one ``cannot write|remove <path>`` error and
    every change to a run's files passes one place."""
    calls = []
    for path in sorted(Path(paperlens.__file__).parent.glob("*.py")):
        if path.name == "atomic.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guarded = {id(node) for with_ in ast.walk(tree) if isinstance(with_, ast.With)
                   and any(map(_is_file_op, with_.items))
                   for stmt in with_.body for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in guarded:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in _CHANGES or (owner == "os" and func.attr in _OS_CHANGES) or owner == "shutil":
                calls.append(f"{path.name}:{node.lineno} .{func.attr}(")
    assert calls == []


def _is_os_attr(node: ast.AST, *names: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _blas_thread_uses(tree: ast.AST) -> set[int]:
    """The ``os.environ`` nodes of ``verify``'s load of numpy: a test whether
    one of OpenBLAS's thread-count variables is set, and a store or delete of
    ``OPENBLAS_NUM_THREADS``. None of them reads a value."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    uses = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value in blas_vars and len(node.ops) == 1 and isinstance(node.ops[0], ast.In)
                and _is_os_attr(node.comparators[0], "environ")):
            uses.add(id(node.comparators[0]))
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_os_attr(node.value, "environ") and isinstance(node.slice, ast.Constant)
                and node.slice.value == "OPENBLAS_NUM_THREADS"):
            uses.add(id(node.value))
    return uses


def test_only_provider_reads_the_environment():
    """Configuration comes from ``--config`` and flags; the API key is the one value read from the environment.

    The one other use is ``verify``'s, which sets OpenBLAS's thread count for
    numpy's import unless the caller set it and puts the environment back;
    it reads no value and configures nothing of paperlens."""
    reads, blas_uses = [], 0
    for path in sorted(Path(paperlens.__file__).parent.glob("*.py")):
        if path.name == "provider.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _blas_thread_uses(tree) if path.name == "verify.py" else set()
        blas_uses += len(allowed)
        for node in ast.walk(tree):
            if _is_os_attr(node, "environ", "getenv") and id(node) not in allowed:
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
    assert reads == []
    assert blas_uses <= 5  # three tests, one store, one delete


# --- Typed reading: from_json and dataclass rows ------------------------------


@dataclass(frozen=True)
class Inner:
    x: float
    flag: bool = False


@dataclass(frozen=True)
class Outer:
    name: str
    count: int = 0
    tags: tuple[str, ...] = ()
    note: str | None = None
    inner: Inner | None = None


def test_from_json_builds_each_field_by_its_declared_type():
    outer = from_json(Outer, {"name": "n", "count": 2, "tags": ["a", "b"], "note": None,
                              "inner": {"x": 1, "flag": True}, "unknown": [1]})
    assert outer == Outer("n", 2, ("a", "b"), None, Inner(1.0, True))
    assert type(outer.inner.x) is float


def test_from_json_takes_defaults_and_instances():
    inner = Inner(0.5)
    assert from_json(Outer, {"name": "n", "inner": inner}).inner is inner
    assert from_json(Outer, {"name": "n"}) == Outer("n")


@pytest.mark.parametrize("raw, message", [
    ({"name": 5}, "name must be str, got 5"),
    ({"name": "n", "count": True}, "count must be int, got True"),
    ({"name": "n", "count": 1.0}, "count must be int, got 1.0"),
    ({"name": "n", "count": "3"}, "count must be int, got '3'"),
    ({"name": "n", "tags": "ab"}, "tags must be a list of str, got 'ab'"),
    ({"name": "n", "tags": ["a", 1]}, r"tags must be a list of str, got \['a', 1\]"),
    ({"name": "n", "note": 3}, "note must be str or null, got 3"),
    ({"name": "n", "inner": 3}, "inner must be an object or null, got 3"),
    ({"name": "n", "inner": {"x": True}}, "inner.x must be float, got True"),
    ({"name": "n", "inner": {"x": 1.0, "flag": 1}}, "inner.flag must be bool, got 1"),
])
def test_from_json_rejects_values_of_another_type(raw, message):
    with pytest.raises(TypeError, match=message):
        from_json(Outer, raw)


def test_from_json_requires_fields_without_defaults():
    with pytest.raises(KeyError, match="name"):
        from_json(Outer, {"count": 1})
    with pytest.raises(KeyError, match="x"):
        from_json(Outer, {"name": "n", "inner": {}})


@dataclass(frozen=True)
class Indexed:
    passes: dict[int, int]
    names: dict[int, str] = field(default_factory=dict)


def test_integer_keyed_objects_round_trip_in_numeric_key_order(tmp_path):
    path = tmp_path / "state.json"
    value = Indexed({10: 1, 9: 2, 0: 3}, {2: "b"})
    write_json(path, value)
    assert path.read_text(encoding="utf-8") == '{"names": {"2": "b"}, "passes": {"0": 3, "9": 2, "10": 1}}\n'
    assert read_json(path, Oops, Indexed) == value
    assert from_json(Indexed, {"passes": {}}) == Indexed({})


@pytest.mark.parametrize("raw, message", [
    ({"passes": {"x": 1}}, "passes.x is not an integer key"),
    ({"passes": {"1.5": 1}}, "passes.1.5 is not an integer key"),
    ({"passes": {"1": True}}, "passes.1 must be int, got True"),
    ({"passes": {"1": 1.5}}, "passes.1 must be int, got 1.5"),
    ({"passes": {"1": "2"}}, "passes.1 must be int, got '2'"),
    ({"passes": {}, "names": {"0": 7}}, "names.0 must be str, got 7"),
    ({"passes": [1]}, r"passes must be an object of int by integer key, got \[1\]"),
])
def test_integer_keyed_object_errors_name_the_field(raw, message):
    with pytest.raises(TypeError, match=message):
        from_json(Indexed, raw)


def test_type_hints_are_read_once_per_class(tmp_path, monkeypatch):
    @dataclass
    class Row:
        n: int

    calls = []
    real = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: calls.append(cls) or real(cls))
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [Row(i) for i in range(50)])
    assert read_jsonl(path, Oops, Row)[1] == [Row(i) for i in range(50)]
    assert read_jsonl(path, Oops, Row)[1] == [Row(i) for i in range(50)]
    assert calls == [Row]


def test_dataclass_instances_are_written_as_their_fields():
    text = "".join(jsonl_lines([Outer("n", inner=Inner(2.0))], header=Inner(1.0)))
    assert text == (
        '{"flag": false, "x": 1.0}\n'
        '{"count": 0, "inner": {"flag": false, "x": 2.0}, "name": "n", "note": null, "tags": []}\n'
    )
    with pytest.raises(TypeError, match="dataclass"):
        "".join(jsonl_lines([{"when": object()}]))


@dataclass(frozen=True)
class Header:
    format: str = "x/1"
    size: int = 0


def test_read_jsonl_builds_a_header_dataclass(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [Inner(1.0)], Header(size=1))
    assert read_jsonl(path, Oops, Inner, Header) == (Header(size=1), [Inner(1.0)])
    path.write_text('{"format": "x/1", "size": "1"}\n{"x": 1}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: size must be int"):
        read_jsonl(path, Oops, Inner, Header)
    path.write_text('{"format": "y/1"}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: unrecognized format 'y/1', expected 'x/1'"):
        read_jsonl(path, Oops, Inner, Header)


def test_read_jsonl_row_type_errors_name_the_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"x": 1}\n\n{"x": "1"}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:3: x must be float, got '1'"):
        read_jsonl(path, Oops, Inner)
    path.write_text('{"flag": true}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: missing key 'x'"):
        read_jsonl(path, Oops, Inner)
