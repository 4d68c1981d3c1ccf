"""Atomic file output shared by the model, table, scatter and bound writers."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` so that a reader sees either the old file
    or all of the new one: the text goes to a temporary file in the same
    directory, which then replaces ``path`` in one rename.  A failed write
    leaves ``path`` as it was and removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
