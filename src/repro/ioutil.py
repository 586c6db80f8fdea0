"""Durable small-file I/O shared by the persistence layers.

The artifacts that are rewritten in place — the campaign runner's
``manifest.json`` and the matched-pair manifest of ``compare --sample
--paired-out`` — go through :func:`atomic_write_text`: the bytes land in a uniquely
named temp file first (flushed and fsync'd), then one ``os.replace``
makes them visible.  A reader — or a process killed mid-rewrite — can
therefore only ever observe the old complete file or the new complete
file, never a truncated hybrid.

This module is a leaf (stdlib only) so any layer can use it without
import cycles.
"""

from __future__ import annotations

import os
import uuid
import zlib
from typing import Union


def crc32_of(data: Union[bytes, bytearray, memoryview]) -> int:
    """The CRC32 of ``data`` as an unsigned 32-bit integer."""
    return zlib.crc32(data) & 0xFFFFFFFF


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path``'s contents with ``text`` atomically.

    The temp name is unique per writer so concurrent writers cannot
    interleave into one file; the loser's complete file simply wins the
    final ``os.replace``.  On failure the temp file is removed and the
    original ``path`` is left untouched.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    try:
        with open(tmp_path, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

