"""The one way paperlens writes an output file and reads or writes JSON.

Every JSON file paperlens keeps goes through here. Writing has one
serialiser: sorted keys, non-ASCII characters kept as they are, one object
per ``\\n``-terminated line, and a dataclass instance written as the object
of its fields by the encoder's ``default`` hook. Reading has one error rule:
an unreadable file, invalid JSON, a value that is not an object, a wrong
``format`` header, or a value its caller cannot convert raises the caller's
error class naming ``path`` or ``path:line``. Blank lines are skipped.
``from_json`` builds a dataclass from an object, each value checked against
the type its field declares.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable


def _fields_of(obj: Any) -> dict:
    """The encoder's ``default`` hook: a dataclass instance is written as the object of its fields."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, default=_fields_of)

#: What a ``convert`` function raises for a value of the wrong shape.
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError)

_UNIONS = (typing.Union, types.UnionType)


class _Mismatch(Exception):
    """A JSON value does not have the type of the field it is meant to fill."""


def _exact(allowed: tuple, value: Any) -> Any:
    if type(value) not in allowed:
        raise _Mismatch
    return value


def _describe(tp: Any) -> str:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        return f"a list of {_describe(args[0])}"
    if origin in _UNIONS:
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    return "an object" if is_dataclass(tp) else tp.__name__


def _converter(tp: Any) -> Callable[[Any], Any]:
    """The function from a JSON value to a ``tp``; it raises _Mismatch for a value of another type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...] takes a list of X
        item = _converter(args[0])
        return lambda value: tuple(map(item, _exact((list,), value)))
    if origin in _UNIONS:  # X | None takes X or null
        (inner,) = (_converter(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    if is_dataclass(tp):  # an object, or an instance
        build = _builder(tp)
        return lambda value: value if isinstance(value, tp) else build(_exact((dict,), value))
    if tp is float:  # an int too, stored as a float
        return lambda value: float(_exact((int, float), value))
    return functools.partial(_exact, (tp,))  # so a bool fills only a bool field


@functools.cache
def _builder(cls: type) -> Callable[[dict], Any]:
    """The function that builds ``cls`` from an object, with each field's converter made once."""
    hints = typing.get_type_hints(cls)
    specs = [
        (f.name, _converter(hints[f.name]), _describe(hints[f.name]),
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls) if f.init
    ]

    def build(raw: dict) -> Any:
        kwargs = {}
        for name, convert, kind, required in specs:
            if name in raw:
                try:
                    kwargs[name] = convert(raw[name])
                except _Mismatch:
                    raise TypeError(f"{name} must be {kind}, got {raw[name]!r}") from None
                except TypeError as exc:  # from a nested object
                    raise TypeError(f"{name}.{exc}") from None
            elif required:
                raise KeyError(name)
        return cls(**kwargs)

    return build


def from_json(cls: type, raw: dict) -> Any:
    """Build dataclass ``cls`` from JSON object ``raw`` by the types its fields declare.

    Unknown keys are ignored; a missing field takes its default, or raises
    KeyError when it has none. A value of another type raises TypeError
    naming the field.
    """
    return _builder(cls)(raw)


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) by writing ``<name>.tmp`` and renaming.

    Readers see the old file or the new one, never a partial write; if the
    rename fails the old file is left as it was. Text is encoded before the
    temp file is opened, so text UTF-8 cannot encode leaves no temp file.
    """
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def jsonl_text(rows: Iterable[Any], header: Any = None) -> str:
    """The text ``write_jsonl`` writes: the header line, if any, then one line per row.

    Rows and header are dicts or dataclass instances.
    """
    lines = [] if header is None else [_ENCODER.encode(header)]
    lines.extend(map(_ENCODER.encode, rows))
    return "\n".join(lines) + "\n" if lines else ""


def write_json(path: str | Path, obj: dict) -> None:
    """Write one JSON object, on one line, atomically."""
    write_atomic(path, _ENCODER.encode(obj) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[Any], header: Any = None) -> None:
    """Write an optional header object and one JSON object per row, atomically."""
    write_atomic(path, jsonl_text(rows, header))


def append_jsonl(path: str | Path, obj: dict) -> None:
    """Append one JSON object as one line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_ENCODER.encode(obj) + "\n")


def _read(path: str | Path, error: type[Exception]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc}"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _load(text: str, convert: Callable[[dict], Any] | None) -> Any:
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value if convert is None else convert(value)


def read_json(path: str | Path, error: type[Exception], convert: Callable[[dict], Any] | None = None) -> Any:
    """Read a file holding one JSON object, passed through ``convert`` if given."""
    text = _read(path, error)
    try:
        return _load(text, convert)
    except _SHAPE_ERRORS as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_jsonl(
    path: str | Path,
    error: type[Exception],
    convert: Callable[[dict], Any] | type | None = None,
    format: str | type | None = None,
) -> tuple[Any, list]:
    """Read a JSON-lines file as ``(header, rows)``.

    With ``format`` set, the first object is a header whose ``format`` field
    must equal it; otherwise the header is None. ``format`` may also be a
    dataclass whose ``format`` field defaults to that value; the header is
    then built as one by ``from_json``. Each other object becomes one row,
    passed through ``convert`` if given, or built by ``from_json`` when
    ``convert`` is a dataclass.
    """
    expected = format.format if is_dataclass(format) else format
    row = _builder(convert) if is_dataclass(convert) else convert
    header: Any = None
    rows: list = []
    # Split on "\n" only: str.splitlines would also split on U+2028 and the
    # like, which the encoder writes unescaped inside strings.
    for lineno, line in enumerate(_read(path, error).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            if format is None or header is not None:
                rows.append(_load(line, row))
                continue
            header = _load(line, None)
            if header.get("format") != expected:
                raise ValueError(f"unrecognized format {header.get('format')!r}, expected {expected!r}")
            if is_dataclass(format):
                header = _builder(format)(header)
        except _SHAPE_ERRORS as exc:
            raise error(f"{path}:{lineno}: {_reason(exc)}") from exc
    if format is not None and header is None:
        raise error(f"{path}: empty file, expected a {expected!r} header")
    return header, rows
