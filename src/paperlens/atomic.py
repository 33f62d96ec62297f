"""The one way paperlens writes an output file."""

from __future__ import annotations

from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) by writing ``<name>.tmp`` and renaming.

    Readers see the old file or the new one, never a partial write; if the
    rename fails the old file is left as it was.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
