"""The shared JSON layer: one serialiser, one reader, one error rule."""

import pytest

from paperlens.atomic import append_jsonl, read_json, read_jsonl, write_json, write_jsonl


class Oops(Exception):
    pass


def test_write_json_sorts_keys_keeps_unicode_and_ends_with_newline(tmp_path):
    path = tmp_path / "state.json"
    write_json(path, {"b": 1, "a": "ü"})
    assert path.read_text(encoding="utf-8") == '{"a": "ü", "b": 1}\n'
    assert read_json(path, Oops) == {"a": "ü", "b": 1}


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
