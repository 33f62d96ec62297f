"""The one way paperlens writes an output file and reads or writes JSON.

Every JSON file paperlens keeps goes through here. Writing has one
serialiser: sorted keys, non-ASCII characters kept as they are, one object
per ``\\n``-terminated line. Reading has one error rule: an unreadable
file, invalid JSON, a value that is not an object, a wrong ``format``
header, or a value its caller cannot convert raises the caller's error
class naming ``path`` or ``path:line``. Blank lines are skipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable

_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)

#: What a ``convert`` function raises for a value of the wrong shape.
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) by writing ``<name>.tmp`` and renaming.

    Readers see the old file or the new one, never a partial write; if the
    rename fails the old file is left as it was.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def jsonl_text(rows: Iterable[dict], header: dict | None = None) -> str:
    """The text ``write_jsonl`` writes: the header line, if any, then one line per row."""
    lines = [] if header is None else [_ENCODER.encode(header)]
    lines.extend(map(_ENCODER.encode, rows))
    return "\n".join(lines) + "\n" if lines else ""


def write_json(path: str | Path, obj: dict) -> None:
    """Write one JSON object, on one line, atomically."""
    write_atomic(path, _ENCODER.encode(obj) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[dict], header: dict | None = None) -> None:
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
    convert: Callable[[dict], Any] | None = None,
    format: str | None = None,
) -> tuple[dict | None, list]:
    """Read a JSON-lines file as ``(header, rows)``.

    With ``format`` set, the first object is a header whose ``format`` field
    must equal it; otherwise the header is None. Each other object becomes
    one row, passed through ``convert`` if given.
    """
    header: dict | None = None
    rows: list = []
    for lineno, line in enumerate(_read(path, error).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            if format is None or header is not None:
                rows.append(_load(line, convert))
                continue
            header = _load(line, None)
            if header.get("format") != format:
                raise ValueError(f"unrecognized format {header.get('format')!r}, expected {format!r}")
        except _SHAPE_ERRORS as exc:
            raise error(f"{path}:{lineno}: {_reason(exc)}") from exc
    if format is not None and header is None:
        raise error(f"{path}: empty file, expected a {format!r} header")
    return header, rows
