"""The shared JSON layer: one serialiser, one reader, one error rule."""

import typing
from dataclasses import dataclass

import pytest

from paperlens.atomic import (
    append_jsonl,
    from_json,
    jsonl_text,
    read_json,
    read_jsonl,
    write_atomic,
    write_json,
    write_jsonl,
)


class Oops(Exception):
    pass


def test_write_json_sorts_keys_keeps_unicode_and_ends_with_newline(tmp_path):
    path = tmp_path / "state.json"
    write_json(path, {"b": 1, "a": "ü"})
    assert path.read_text(encoding="utf-8") == '{"a": "ü", "b": 1}\n'
    assert read_json(path, Oops) == {"a": "ü", "b": 1}


def test_write_atomic_with_unencodable_text_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, "old")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "ok \ud83d")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    assert path.read_text(encoding="utf-8") == "old"


def test_write_jsonl_round_trips_header_and_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"z": 0, "a": 1}, {"b": 2}], header={"format": "x/1", "n": 2})
    assert path.read_text(encoding="utf-8") == '{"format": "x/1", "n": 2}\n{"a": 1, "z": 0}\n{"b": 2}\n'
    header, rows = read_jsonl(path, Oops, format="x/1")
    assert header == {"format": "x/1", "n": 2}
    assert rows == [{"a": 1, "z": 0}, {"b": 2}]


def test_append_jsonl_adds_one_sorted_line(tmp_path):
    path = tmp_path / "log.jsonl"
    append_jsonl(path, {"q": "ä", "a": 1})
    append_jsonl(path, {"q": "b", "a": 2})
    assert path.read_text(encoding="utf-8") == '{"a": 1, "q": "ä"}\n{"a": 2, "q": "b"}\n'


def test_read_jsonl_skips_blank_lines_and_converts(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('\n{"n": 1}\n  \n{"n": 2}\n\n', encoding="utf-8")
    header, rows = read_jsonl(path, Oops, convert=lambda row: row["n"])
    assert header is None
    assert rows == [1, 2]


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
        read_jsonl(path, Oops, convert=lambda row: row["n"])


@pytest.mark.parametrize("text", ["", "\n\n", '{"format": "y/1"}\n', "[]\n"])
def test_read_jsonl_checks_the_format_header(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl"):
        read_jsonl(path, Oops, format="x/1")


@pytest.mark.parametrize("text", ["{not json", "[]", "3", ""])
def test_read_json_rejects_anything_but_an_object(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(Oops, match="state.json"):
        read_json(path, Oops)


def test_read_json_conversion_errors_name_the_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"n": "x"}', encoding="utf-8")
    with pytest.raises(Oops, match="state.json"):
        read_json(path, Oops, convert=lambda raw: int(raw["n"]))


@pytest.mark.parametrize("reader", [read_json, read_jsonl])
def test_missing_file_names_the_path(tmp_path, reader):
    with pytest.raises(Oops, match="absent.json"):
        reader(tmp_path / "absent.json", Oops)


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
    text = jsonl_text([Outer("n", inner=Inner(2.0))], header=Inner(1.0))
    assert text == (
        '{"flag": false, "x": 1.0}\n'
        '{"count": 0, "inner": {"flag": false, "x": 2.0}, "name": "n", "note": null, "tags": []}\n'
    )
    with pytest.raises(TypeError, match="dataclass"):
        jsonl_text([{"when": object()}])


@dataclass(frozen=True)
class Header:
    format: str = "x/1"
    size: int = 0


def test_read_jsonl_builds_a_header_dataclass(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [Inner(1.0)], Header(size=1))
    assert read_jsonl(path, Oops, Inner, format=Header) == (Header(size=1), [Inner(1.0)])
    path.write_text('{"format": "x/1", "size": "1"}\n{"x": 1}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: size must be int"):
        read_jsonl(path, Oops, Inner, format=Header)
    path.write_text('{"format": "y/1"}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: unrecognized format 'y/1', expected 'x/1'"):
        read_jsonl(path, Oops, Inner, format=Header)


def test_read_jsonl_row_type_errors_name_the_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"x": 1}\n\n{"x": "1"}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:3: x must be float, got '1'"):
        read_jsonl(path, Oops, Inner)
    path.write_text('{"flag": true}\n', encoding="utf-8")
    with pytest.raises(Oops, match="rows.jsonl:1: missing key 'x'"):
        read_jsonl(path, Oops, Inner)
