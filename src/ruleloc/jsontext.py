"""JSON text written and read one key at a time.

A model file is json.dumps(obj, sort_keys=True, indent=2) of the model,
and most of it is its feature catalog, which the model's columns
determine.  The writer here assembles that text from parts: a part given
as text is used as it is, any other is dumped at its depth.  The reader
walks an object key by key, reading each key with json's scanstring and
each value with json's C scanner or with the caller's reader for its
key, so a caller can check one value's text without parsing it: the
model loader checks the feature catalog's text this way.  The walk takes
only what json.loads would read the same way; anything else (a duplicate
key, a missing comma, a value that does not parse) raises a ValueError,
and the caller reads the whole text with json.loads instead.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring
from typing import Callable, Mapping, Optional

# json.loads's own scanner: scan_value(text, idx) is (the value at idx,
# the index past it), and raises StopIteration where no value starts.
scan_value = json.JSONDecoder().scan_once
_space = WHITESPACE.match

# Reads the value at an index, given the keys read before it, as
# (value, index past it); None leaves the value to scan_value.
ValueReader = Callable[[dict, int], Optional[tuple[object, int]]]


def value_text(value, pad: str) -> str:
    """value as json.dumps(..., sort_keys=True, indent=2) writes it on a
    line indented by pad.  JSON strings hold no raw newline, so every
    newline starts a line of the layout."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def object_text(parts: Mapping[str, str], pad: str) -> str:
    """The object of the given keys (one or more), each value given as its
    text on a line indented by pad + two spaces, as json.dumps(...,
    sort_keys=True, indent=2) writes it on a line indented by pad."""
    inner = pad + "  "
    items = (f"{inner}{json.dumps(key)}: {text}" for key, text in sorted(parts.items()))
    return "{\n" + ",\n".join(items) + f"\n{pad}}}"


def skip_space(text: str, idx: int) -> int:
    """The index of the first character at or after idx that is not JSON whitespace."""
    return _space(text, idx).end()


def read_object(text: str, idx: int, readers: Mapping[str, ValueReader]) -> tuple[dict, int]:
    """The JSON object at text[idx], as json.loads reads it, and the index
    past it.  The value of a key in readers is read by its reader; any
    other value, and one its reader declines, by scan_value.  A ValueError
    where json.loads would read the text otherwise: no object at idx, a
    duplicate key, or a misplaced comma, colon or brace."""
    if not text.startswith("{", idx):
        raise ValueError("not an object")
    obj: dict = {}
    idx = skip_space(text, idx + 1)
    if text.startswith("}", idx):
        return obj, idx + 1
    while True:
        if not text.startswith('"', idx):
            raise ValueError("not a key")
        key, idx = scanstring(text, idx + 1)
        idx = skip_space(text, idx)
        if key in obj or not text.startswith(":", idx):
            raise ValueError("a duplicate key or no colon")
        idx = skip_space(text, idx + 1)
        read = readers.get(key)
        found = read(obj, idx) if read else None
        obj[key], idx = found or scan_value(text, idx)
        idx = skip_space(text, idx)
        if text.startswith("}", idx):
            return obj, idx + 1
        if not text.startswith(",", idx):
            raise ValueError("no comma")
        idx = skip_space(text, idx + 1)
