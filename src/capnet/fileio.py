"""Artefact writes that leave no half-written file behind."""

from __future__ import annotations

import contextlib
import os


def write_files(payloads: dict) -> None:
    """Write each `{path: bytes}` entry through a temp file and `os.replace`.

    Every payload goes to `<path>.tmp` first; only when all of them are
    written are the temp files renamed over their targets, in the dict's
    order. A failed write therefore changes no target, and no temp file is
    left behind either way. Put the file that vouches for the others (a
    manifest holding their checksums) last.
    """
    try:
        for path, payload in payloads.items():
            with open(f"{path}.tmp", "wb") as f:
                f.write(payload)
        for path in payloads:
            os.replace(f"{path}.tmp", path)
    finally:
        for path in payloads:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")
