"""The one way paperlens writes an output file and reads a text file or
JSON, and the one base of its error classes.

Every file a command reads, corpus sidecars apart, goes through
``read_text``, and every JSON file paperlens keeps goes through here.
Writing has one serialiser: sorted keys, non-ASCII characters kept as they
are, one object per ``\\n``-terminated line, and a dataclass instance
written as the object of its fields; a file it cannot write raises
``PaperlensError("cannot write <path>: <reason>")``. One writer replaces a
file through a temp file, encoding its text chunk by chunk as it writes, so
a JSON-lines file is written one line at a time and never held whole; a
chunk UTF-8 cannot encode raises ``UnicodeEncodeError``, removes the temp
file and leaves the old file as it was.
Reading has one error rule: a missing, unreadable or non-UTF-8 file, invalid
JSON, a value that is not an object, a wrong ``format`` header, or a value
of the wrong type raises the caller's error class naming ``path`` or
``path:line``. A JSON-lines file is read one line at a time from the open
file, never whole. Blank lines are skipped. ``from_json`` builds a
dataclass from an object, each value checked against the type its field
declares; ``read_json`` and ``read_jsonl`` build their objects with it.

``PaperlensError`` is the base of every paperlens error class: the CLI
reports one as a user error, and the runner as the failure of one batch.
"""

from __future__ import annotations

import contextlib
import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields_of(obj: Any) -> dict:
    """A dataclass instance as the object of its fields; also the encoder's ``default`` hook for nested ones."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, default=_fields_of)


def _encode(obj: Any) -> str:
    """One line of JSON, without its ``\\n``, for a dict or a dataclass instance."""
    return _ENCODER.encode(obj if isinstance(obj, dict) else _fields_of(obj))


#: What reading raises for a value of the wrong shape.
_SHAPE_ERRORS = (KeyError, TypeError, ValueError)

_UNIONS = (typing.Union, types.UnionType)


class PaperlensError(Exception):
    """Base class of every paperlens error: bad input, an unusable file, or a provider failure."""


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
    if origin is dict:
        return f"an object of {_describe(args[1])} by integer key"
    if origin in _UNIONS:
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    return "an object" if is_dataclass(tp) else tp.__name__


def _converter(tp: Any) -> Callable[[Any], Any]:
    """The function from a JSON value to a ``tp``; it raises _Mismatch for a value of another type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...] takes a list of X
        item = _converter(args[0])
        return lambda value: tuple(map(item, _exact((list,), value)))
    if origin is dict:  # dict[int, X] takes an object of X by integer key
        return functools.partial(_int_keyed, _converter(args[1]), _describe(args[1]))
    if origin in _UNIONS:  # X | None takes X or null
        (inner,) = (_converter(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    if is_dataclass(tp):  # an object, or an instance
        build = _builder(tp)
        return lambda value: value if isinstance(value, tp) else build(_exact((dict,), value))
    if tp is float:  # an int too, stored as a float
        return lambda value: float(_exact((int, float), value))
    return functools.partial(_exact, (tp,))  # so a bool fills only a bool field


def _int_keyed(item: Callable[[Any], Any], kind: str, value: Any) -> dict:
    """A ``dict[int, X]`` from a JSON object, each key read by ``int()`` and each value by ``item``."""
    out = {}
    for key, raw in _exact((dict,), value).items():
        try:
            index = int(key)
        except ValueError:
            raise TypeError(f"{key} is not an integer key") from None
        try:
            out[index] = item(raw)
        except _Mismatch:
            raise TypeError(f"{key} must be {kind}, got {raw!r}") from None
    return out


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


def _replace(path: str | Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with ``chunks`` (UTF-8), each encoded as it is written to ``<name>.tmp``, then rename.

    Readers see the old file or the new one, never a partial write. If a
    chunk cannot be made or encoded, or the write or rename fails, the
    temp file is removed and the old file is left as it was.
    """
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8"))
        tmp.replace(target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise PaperlensError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) by writing ``<name>.tmp`` and renaming.

    Text UTF-8 cannot encode raises ``UnicodeEncodeError`` and leaves the
    old file and no temp file.
    """
    _replace(path, (text,))


def jsonl_lines(rows: Iterable[Any], header: Any = None) -> Iterator[str]:
    """The lines ``write_jsonl`` writes, each with its ``\\n``: the header, if any, then one per row.

    Rows and header are dicts or dataclass instances.
    """
    if header is not None:
        yield _encode(header) + "\n"
    for row in rows:
        yield _encode(row) + "\n"


def jsonl_text(rows: Iterable[Any], header: Any = None) -> str:
    """The text ``write_jsonl`` writes: the header line, if any, then one line per row."""
    return "".join(jsonl_lines(rows, header))


def write_json(path: str | Path, obj: Any) -> None:
    """Write one JSON object (a dict or a dataclass instance), on one line, atomically."""
    write_atomic(path, _encode(obj) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[Any], header: Any = None) -> None:
    """Write an optional header object and one JSON object per row, atomically, one line at a time."""
    _replace(path, jsonl_lines(rows, header))


def append_jsonl(path: str | Path, obj: dict) -> None:
    """Append one JSON object as one line."""
    line = _encode(obj) + "\n"
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
    except OSError as exc:
        raise PaperlensError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _reading(path: Any, error: type[Exception]) -> Iterator[None]:
    """Turn a failure to open, read or decode ``path`` into ``error("cannot read <path>: <reason>")``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's strerror leaves out the path
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path: str | Path, error: type[Exception]) -> str:
    """A UTF-8 file's text, or ``error("cannot read <path>: <reason>")``; ``path`` may be a package resource."""
    with _reading(path, error):
        return (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc}"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _load(text: str, build: Callable[[dict], Any] | None) -> Any:
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value if build is None else build(value)


def read_json(path: str | Path, error: type[Exception], cls: type | None = None) -> Any:
    """Read a file holding one JSON object: a dict, or dataclass ``cls`` built by ``from_json``."""
    text = read_text(path, error)
    try:
        return _load(text, None if cls is None else _builder(cls))
    except _SHAPE_ERRORS as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_jsonl(path: str | Path, error: type[Exception], row: type, header: type | None = None) -> tuple[Any, list]:
    """Read a JSON-lines file as ``(header, rows)``, each built by ``from_json``.

    With ``header`` (a dataclass) given, the first object is the header: its
    ``format`` field must equal the ``format`` default of ``header``.
    Otherwise the header is None. Each other object becomes one ``row``.
    """
    expected = header.format if header is not None else None
    build_row = _builder(row)
    head: Any = None
    rows: list = []
    # Lines end as read_text's text splits on "\n": at "\n", "\r\n" or "\r".
    # U+2028 and the like, which the encoder writes unescaped inside strings,
    # end none (str.splitlines would split there).
    with _reading(path, error), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")  # so JSON errors give the columns of the line alone
            if not line.strip():
                continue
            try:
                if header is None or head is not None:
                    rows.append(_load(line, build_row))
                    continue
                head = _load(line, None)
                if head.get("format") != expected:
                    raise ValueError(f"unrecognized format {head.get('format')!r}, expected {expected!r}")
                head = _builder(header)(head)
            except _SHAPE_ERRORS as exc:
                raise error(f"{path}:{lineno}: {_reason(exc)}") from exc
    if header is not None and head is None:
        raise error(f"{path}: empty file, expected a {expected!r} header")
    return head, rows
