r"""Plain comma grids: CSV tables whose numeric columns parse in C.

A plain comma grid is a file holding, after an optional UTF-8 byte-order
mark, only printable ASCII other than '"' and \n line ends, with at
least one data row, no duplicate header name, no blank line, no line
longer than the csv module's field size limit, and as many fields on
every line as in the header.  The csv module splits such a line at its
commas and nowhere else, so np.loadtxt with no quote and no comment
character reads the same cells.  Each chunk of lines is tokenized once,
by one loadtxt call with a record dtype: an object field per text column
and, per numeric column, a uint8 field if the column's cell in the first
data row is all ASCII digits, else a float64 field, all named by position
so that header names cannot clash.  loadtxt rejects a line whose field
count is not the header's.  Its unsigned integer parsers read only
unsigned integers that fit their type, each the value float() gives
once cast to float64, and reject every other cell (a minus sign, a
point, an exponent, nan, a blank).  Its float64 parser reads a cell with
the rules of float() but rejects some cells float() reads (blank ones,
"1_0").

The table holds two numeric blocks, and one rule decides a column's
block.  A column read through a uint8 field is a row of one uint8 array
until a chunk holds a value a byte cannot hold exactly (above 255,
negative, a fraction, -0.0, nan or a blank); from that chunk on, that
column alone is a float64 row that keeps its earlier values.  The other
numeric columns are rows of one float64 array.  How the chunk was read
does not matter.  A call that fails while its record has uint8 fields is
made once more, as is every later one, with uint64 fields in their
place, which read the same cells and values above 255 too.  A chunk
whose call still fails is split at its commas, its field counts
checked, its numeric cells parsed by binarize.numeric_column and its
text cells taken from the same split, so its values are the ones
numeric_column gives the same cells as strings; later chunks read the
float64 columns through float64 fields.  Values not read through uint8
fields are checked for the columns still held as bytes.  So a numeric
column is uint8 exactly when its cell in the first data row is all
digits and every value is an integer from 0 to 255 without a sign bit,
and its values are float64 values either way.

grid_groups reads many small files, such as eval's windows, in runs.  A
small grid is a regular file of at most one read block (64 KiB) that is
a plain comma grid with at most _CHUNK_ROWS data rows.  Consecutive
small grids with one header line and the same field types from their
first data rows, up to _CHUNK_ROWS data rows in all, are read by one
loadtxt call, into one table whose row ranges are the files' tables.
The run is taken only where that call succeeds, so no column widens and
every file's table is the one read_grid gives it; any other file, and
every file of a run whose call fails, is left to be read by itself.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import stat
import warnings
from functools import partial
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

import numpy as np

from ruleloc.binarize import numeric_column

# The bytes of a plain comma grid line after the byte-order mark.
_GRID_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# Rows per loadtxt call.  Larger chunks leave more freed heap behind, as
# glibc serves blocks below its adaptive mmap threshold from the heap: on a
# 100k x 63 table, 8192 rows per call raised the peak RSS of train by 5 MB.
_CHUNK_ROWS = 2048
# Bytes per read of a file; a file of at most one block is small.
_BLOCK = 1 << 16


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


def _load(chunk: Iterable[bytes], record: np.dtype) -> Optional[np.ndarray]:
    """The records of chunk, one loadtxt call with the record dtype, or
    None if loadtxt rejects a line.

    numpy releases that still carry the deprecation of numpy 1.23 read a
    cell like 1.5 in an integer field through float(), warning; as an
    error, the warning fails the call instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(chunk, record, delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _bytes_hold(values: np.ndarray) -> bool:
    """Whether a uint8 holds every value exactly.  Unsigned integers, as
    uint64 fields read them, need only be at most 255; float64 values must
    keep their bits when cast to uint8 and back (no value out of 0..255,
    fraction, -0.0 or nan does)."""
    if values.dtype.kind == "u":
        return values.max() <= 255
    with np.errstate(invalid="ignore"):  # such a value casts to some byte
        back = values.astype(np.uint8).astype(values.dtype)
    return back.tobytes() == values.tobytes()


def _widen(rows: dict[int, np.ndarray], columns: list[int], filled: int) -> None:
    """Make the named uint8 rows rows of one new float64 block, keeping
    their first `filled` values."""
    if not columns:
        return
    block = np.empty((len(columns), len(rows[columns[0]])))
    for i, out in zip(columns, block):
        out[:filled] = rows[i][:filled]
        rows[i] = out


def read_grid(fh: BinaryIO, numeric: Callable[[str], bool], digest=None) -> Optional[dict]:
    """The table of the seekable binary file fh, read from its start, if it
    is a plain comma grid, else None.

    Columns that `numeric` accepts by name are numpy arrays, the others
    lists of cell strings, one string object per distinct value, interned
    chunk by chunk.  The file is read twice, so that no copy of it is held
    whole: in blocks to count its rows, each block also fed to `digest` (a
    hashlib object) when one is given, then in chunks of lines, each
    checked before one loadtxt call with a record dtype reads all its
    columns.  The first data row picks each numeric field's type: uint8
    where its cell is all ASCII digits, else float64.  Numeric columns are
    uint8 or float64 arrays, rows of the blocks the module docstring
    describes: a column leaves the uint8 block only for a value a byte
    cannot hold exactly.  Raises OSError if the file cannot be
    read and ValueError (InvalidValueError) for a numeric cell that
    binarize.numeric_column rejects.
    """
    newlines, last = 0, b"\n"
    for block in iter(partial(fh.read, _BLOCK), b""):
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
    floats = ["f8" if flag else "O" for flag in is_numeric]
    kinds = floats
    if len(first) == len(kinds):  # else the first chunk's call fails
        kinds = [
            "u1" if kind == "f8" and cell.isdigit() else kind for kind, cell in zip(kinds, first)
        ]
    record = _record(kinds)
    narrow = [i for i in num if kinds[i] == "u1"]
    rows = dict(zip(narrow, np.empty((len(narrow), n), np.uint8)))
    wide = [i for i in num if kinds[i] == "f8"]
    rows.update(zip(wide, np.empty((len(wide), n))))
    texts: list[list[str]] = [[] for _ in txt]
    distinct: list[dict[str, str]] = [{} for _ in txt]
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = list(islice(fh, _CHUNK_ROWS))
        if len(chunk) != min(_CHUNK_ROWS, n - lo) or not _lines_ok(chunk):
            return None
        hi = lo + len(chunk)
        records = _load(chunk, record)
        if records is None and "u1" in kinds:  # a value above 255, or a cell no uint reads
            kinds = ["u8" if kind == "u1" else kind for kind in kinds]
            record = _record(kinds)
            records = _load(chunk, record)
        if records is None:
            # A blank cell, one only float() reads, one no integer field
            # reads, or a ragged line.
            split = [text.rstrip(b"\n").decode().split(",") for text in chunk]
            if any(len(row) != len(header) for row in split):
                return None
            # Keyed by field name, as the records are.
            values = {f"f{i}": numeric_column([row[i] for row in split], header[i]) for i in num}
            strings = ([row[i] for row in split] for i in txt)
        else:
            values = records
            strings = (records[f"f{i}"].tolist() for i in txt)
        if "u1" not in kinds:  # the uint8 rows' values were not read as bytes
            over = [i for i in narrow if not _bytes_hold(values[f"f{i}"])]
            _widen(rows, over, lo)
            narrow = [i for i in narrow if i not in over]
        if records is None:
            kinds = [kinds[i] if i in narrow else kind for i, kind in enumerate(floats)]
            record = _record(kinds)
        for i in num:
            rows[i][lo:hi] = values[f"f{i}"]
        for column, seen, cell_column in zip(texts, distinct, strings):
            column.extend(map(seen.setdefault, cell_column, cell_column))
    if fh.read(1):  # the file grew after its rows were counted
        return None
    cells = iter(texts)
    return {name: rows[i] if i in rows else next(cells) for i, name in enumerate(header)}


def _small_grid(path) -> Optional[tuple[bytes, int]]:
    """The bytes of the file at path after any byte-order mark, and its
    number of data rows, if it is a regular file of at most one block whose
    lines are plain comma grid lines with 1 to _CHUNK_ROWS data rows, else
    None (also where it cannot be read).  Anything else, a FIFO among them,
    is left unopened."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb") as fh:
            data = fh.read(_BLOCK + 1)
    except OSError:
        return None
    if len(data) > _BLOCK:
        return None
    data = data.removeprefix(codecs.BOM_UTF8)
    n = data.count(b"\n") - data.endswith(b"\n")
    # _lines_ok of its lines, which need not be split where no line can
    # exceed the field size limit.
    if not 1 <= n <= _CHUNK_ROWS or (
        data.translate(None, _GRID_BYTES)
        or data.startswith(b"\n")
        or b"\n\n" in data
        or (len(data) > csv.field_size_limit() and not _lines_ok(data.splitlines(keepends=True)))
    ):
        return None
    return data, n


def _grid_file(
    path, numeric: Callable[[str], bool], headers: dict
) -> Optional[tuple[tuple[bytes, tuple[str, ...]], bytes, int]]:
    """((header line, field types), bytes, number of data rows) of the
    file at path if it is a small grid, its header naming no column twice
    and its first data row holding as many fields, else None.  The field
    types are those read_grid picks from that row.  headers caches, per
    header line, its names and whether `numeric` accepts each (None for a
    repeated name)."""
    grid = _small_grid(path)
    if grid is None:
        return None
    data, n = grid
    header, _, rows = data.partition(b"\n")
    if header not in headers:
        names = header.decode().split(",")
        flags = [bool(numeric(name)) for name in names]
        headers[header] = (names, flags) if len(set(names)) == len(names) else None
    known = headers[header]
    first = rows.partition(b"\n")[0].split(b",")
    if known is None or len(first) != len(known[0]):
        return None
    kinds = tuple(
        ("u1" if cell.isdigit() else "f8") if flag else "O" for flag, cell in zip(known[1], first)
    )
    return (header, kinds), data, n


def _run_table(header: list[str], kinds: tuple[str, ...], files: list[bytes]) -> Optional[dict]:
    """The table of the data lines of files, each a header line and its
    data rows, read by one loadtxt call with the record dtype of kinds, or
    None if loadtxt rejects a line.  Numeric columns are C-contiguous
    arrays and text cells are interned, as in read_grid's tables."""
    lines = chain.from_iterable(islice(io.BytesIO(data), 1, None) for data in files)
    records = _load(lines, _record(kinds))
    if records is None:
        return None
    table = {}
    for i, (name, kind) in enumerate(zip(header, kinds)):
        if kind == "O":
            cells, seen = records[f"f{i}"].tolist(), {}
            table[name] = list(map(seen.setdefault, cells, cells))
        else:  # a copy, which holds no text cell of the records alive
            table[name] = records[f"f{i}"].copy()
    return table


_END = object()


def grid_groups(
    paths: Iterable, numeric: Callable[[str], bool]
) -> Iterator[tuple[list, Optional[dict], Optional[list[int]]]]:
    """Split paths, in order, into runs of files read as one table.

    Yields (run, table, bounds).  A run is consecutive small plain comma
    grids, each read whole in one block, that share one header line and
    the field types read_grid picks from their first data rows, with at
    most _CHUNK_ROWS data rows in all.  Its table holds all their rows,
    read by one loadtxt call with that record dtype, and rows
    bounds[k]:bounds[k + 1] of each column are run[k]'s.  Every other
    path comes as a run of one, and table and bounds are None then, as
    they are for a run whose call fails: each path of such a run is to be
    read by itself, by read_grid or the cell reader.

    A run's table is what read_grid gives each of its files, joined: as a
    file of one chunk read by one successful call, each file's uint8
    columns are those whose first cell is all digits, and nothing widens.
    Files are read one at a time, as the runs are asked for, and a run's
    bytes are dropped before it is yielded.
    """
    headers: dict = {}
    run: list = []
    key: tuple = ()
    files: list[bytes] = []
    bounds = [0]
    for path in chain(paths, [_END]):
        grid = None if path is _END else _grid_file(path, numeric, headers)
        if run and (grid is None or grid[0] != key or bounds[-1] + grid[2] > _CHUNK_ROWS):
            table = _run_table(headers[key[0]][0], key[1], files)
            files = []
            yield run, table, None if table is None else bounds
            run, bounds = [], [0]
        if grid is not None:
            key, data, n = grid
            run.append(path)
            files.append(data)
            bounds.append(bounds[-1] + n)
        elif path is not _END:
            yield [path], None, None
