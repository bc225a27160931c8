r"""Plain comma grids: CSV tables whose numeric columns parse in C.

A plain comma grid is a file holding, after an optional UTF-8 byte-order
mark, only printable ASCII other than '"' and \n line ends, with at
least one data row, no duplicate header name, no blank line, no line
longer than the csv module's field size limit, and as many fields on
every line as in the header.  The csv module splits such a line at its
commas and nowhere else, so np.loadtxt with no quote and no comment
character reads the same cells.  Each chunk of lines is tokenized once,
by one loadtxt call with a record dtype: an object field per text column
and, per numeric column, a uint64 field if the column's cell in the first
data row is all ASCII digits, else a float64 field, all named by position
so that header names cannot clash.  loadtxt rejects a line whose field
count is not the header's.  Its uint64 parser reads only unsigned
integers up to 2**64 - 1, each the value float() gives once cast to
float64, and rejects every other cell (a sign, a point, an exponent,
nan, a blank).  Its float64 parser reads a cell with the rules of
float() but rejects some cells float() reads (blank ones, "1_0").  A
chunk whose call fails is split at its commas instead, its field counts
checked, its numeric cells parsed by binarize.numeric_column and its
text cells taken from the same split, so the values are the ones
numeric_column gives the same cells as strings; every later chunk is
read with a float64 field per numeric column.
"""

from __future__ import annotations

import codecs
import csv
import warnings
from functools import partial
from itertools import islice
from typing import BinaryIO, Callable, Optional

import numpy as np

from ruleloc.binarize import numeric_column

# The bytes of a plain comma grid line after the byte-order mark.
_GRID_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# Rows per loadtxt call.  Larger chunks leave more freed heap behind, as
# glibc serves blocks below its adaptive mmap threshold from the heap: on a
# 100k x 63 table, 8192 rows per call raised the peak RSS of train by 5 MB.
_CHUNK_ROWS = 2048


def _lines_ok(lines: list[bytes]) -> bool:
    """Whether lines hold only plain comma grid bytes, none of them blank
    or longer than the csv module's field size limit."""
    return not (
        b"".join(lines).translate(None, _GRID_BYTES)
        or b"\n" in lines
        or max(map(len, lines)) > csv.field_size_limit()
    )


def _record(kinds: list[str]) -> np.dtype:
    """A record dtype of the field types kinds, fields named by position."""
    return np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])


def read_grid(fh: BinaryIO, numeric: Callable[[str], bool], digest=None) -> Optional[dict]:
    """The table of the seekable binary file fh, read from its start, if it
    is a plain comma grid, else None.

    Columns that `numeric` accepts by name are rows of one float64 array,
    the others lists of cell strings, one string object per distinct
    value, interned chunk by chunk.  The file is read twice, so that no
    copy of it is held whole: in blocks to count its rows, each block also
    fed to `digest` (a hashlib object) when one is given, then in chunks
    of lines, each checked before one loadtxt call with a record dtype
    reads all its columns.  The first data row picks each numeric field's
    type: uint64 where its cell is all ASCII digits, else float64.  After
    a chunk whose call fails, and which is therefore parsed cell by cell,
    every numeric field is float64.  Raises OSError if the file cannot be
    read and ValueError (InvalidValueError) for a numeric cell that
    binarize.numeric_column rejects.
    """
    newlines, last = 0, b"\n"
    for block in iter(partial(fh.read, 1 << 16), b""):
        newlines += block.count(b"\n")
        last = block[-1:]
        if digest is not None:
            digest.update(block)
    n = newlines - (last == b"\n")
    fh.seek(0)
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    line = fh.readline()
    if n < 1 or not _lines_ok([line]):
        return None
    header = line.rstrip(b"\n").decode().split(",")
    if len(set(header)) != len(header):
        return None
    is_numeric = [bool(numeric(name)) for name in header]
    num = [i for i, flag in enumerate(is_numeric) if flag]
    txt = [i for i, flag in enumerate(is_numeric) if not flag]
    start = fh.tell()
    first = fh.readline().rstrip(b"\n").split(b",")
    fh.seek(start)
    kinds = ["f8" if flag else "O" for flag in is_numeric]
    floats = record = _record(kinds)
    if len(first) == len(kinds):  # else the first chunk's call fails
        typed = [
            "u8" if kind == "f8" and cell.isdigit() else kind for kind, cell in zip(kinds, first)
        ]
        if typed != kinds:
            record = _record(typed)
    values = np.empty((len(num), n))
    texts: list[list[str]] = [[] for _ in txt]
    distinct: list[dict[str, str]] = [{} for _ in txt]
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = list(islice(fh, _CHUNK_ROWS))
        if len(chunk) != min(_CHUNK_ROWS, n - lo) or not _lines_ok(chunk):
            return None
        block = values[:, lo : lo + len(chunk)]
        try:
            with warnings.catch_warnings():
                # numpy releases that still carry the deprecation of numpy 1.23
                # read a cell like 1.5 in an integer field through float(),
                # warning; as an error, the warning fails the call instead.
                warnings.simplefilter("error", DeprecationWarning)
                records = np.loadtxt(chunk, record, delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            # A blank cell, one only float() reads, one uint64 rejects, or a
            # ragged line.
            record = floats
            split = [text.rstrip(b"\n").decode().split(",") for text in chunk]
            if any(len(row) != len(header) for row in split):
                return None
            for out, i in zip(block, num):
                out[:] = numeric_column([row[i] for row in split], header[i])
            strings = ([row[i] for row in split] for i in txt)
        else:
            for out, i in zip(block, num):
                out[:] = records[f"f{i}"]
            strings = (records[f"f{i}"].tolist() for i in txt)
        for column, seen, cell_column in zip(texts, distinct, strings):
            column.extend(map(seen.setdefault, cell_column, cell_column))
    if fh.read(1):  # the file grew after its rows were counted
        return None
    rows, cells = iter(values), iter(texts)
    return {name: next(rows) if flag else next(cells) for name, flag in zip(header, is_numeric)}
