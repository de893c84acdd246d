"""Artefact files: writes that leave no half-written file behind, the two
artefact encodings, and the one field checker every JSON input goes
through."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import MISSING, fields
from typing import Callable, NamedTuple


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


def csv_bytes(rows) -> bytes:
    """Rows as `csv.writer` writes them: comma-separated, CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def json_bytes(obj) -> bytes:
    """A JSON artefact: sorted keys, one-space indent, trailing newline."""
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


class Kind(NamedTuple):
    """What one JSON field may hold: `want` says it in errors, `ok` tests a
    value, `fields` is the schema of a sub-object, and a field that is not
    `required` may be absent."""
    want: str
    ok: Callable
    fields: dict = None
    required: bool = True


INT = Kind("an int", lambda v: type(v) is int)  # bool is not an int
COUNT = Kind("an int >= 0", lambda v: type(v) is int and v >= 0)
NUMBER = Kind("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
BOOL = Kind("a bool", lambda v: type(v) is bool)
STR = Kind("a string", lambda v: type(v) is str)


def list_of(kind: Kind, want: str) -> Kind:
    return Kind(want, lambda v: type(v) is list and all(map(kind.ok, v)))


INTS = list_of(INT, "a list of ints")


def distinct(kind: Kind, want: str, key=lambda v: v) -> Kind:
    """A list of `kind` entries, at least one, no two with the same `key`."""
    ok = list_of(kind, want).ok
    return Kind(want, lambda v: ok(v) and 0 < len(v) == len({key(e) for e in v}))


def obj(schema: dict) -> Kind:
    """A sub-object whose own fields are checked against `schema`."""
    return Kind("an object", lambda v: type(v) is dict, schema)


def nullable(kind: Kind) -> Kind:
    return kind._replace(want=f"null or {kind.want}", ok=lambda v: v is None or kind.ok(v))


def optional(kind: Kind) -> Kind:
    return kind._replace(required=False)


_ANNOTATED = {"int": INT, "float": NUMBER, "bool": BOOL, "str": STR}


def spec_schema(cls, **kinds) -> dict:
    """The schema of a dataclass's JSON object: a field's kind is given in
    `kinds` or follows its annotation, and a field with a default may be
    absent."""
    return {f.name: (kinds[f.name] if f.name in kinds else _ANNOTATED[f.type])
            ._replace(required=f.default is MISSING) for f in fields(cls)}


def check_fields(value, schema: dict, where: str, prefix: str = "") -> dict:
    """Check a parsed JSON object against `schema`, a dict of field name ->
    Kind, and return it. A ValueError names the file `where` and the field,
    dotted below the top level: a value that is not an object, then the
    schema's fields in order (missing or of the wrong kind), then a field
    the schema does not know."""
    if type(value) is not dict:
        raise ValueError(f"{where} holds {type(value).__name__}, not an object")
    for name, kind in schema.items():
        path = prefix + name
        if name not in value:
            if kind.required:
                raise ValueError(f"{where} lacks the {path!r} field")
        elif not kind.ok(value[name]):
            raise ValueError(f"{where} field {path!r} is {value[name]!r}, expected {kind.want}")
        elif kind.fields is not None and value[name] is not None:
            check_fields(value[name], kind.fields, where, path + ".")
    unknown = [name for name in value if name not in schema]
    if unknown:
        raise ValueError(f"{where} has unknown field {prefix + unknown[0]!r}")
    return value
