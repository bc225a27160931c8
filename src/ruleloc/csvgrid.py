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

read_grid reads a grid of more than _CHUNK_ROWS data rows in two
processes while forking.cpu_free().  Its counting pass finds the chunk
boundary nearest the middle row; a forked child reads the rows from
there on by the same chunk loop, taking its bytes with pread, so that
the file offset it shares with the parent never moves.  The parent's
loop takes the child's table as its last chunk: it copies the values
into the rows it allocated, and a uint8 row widens by the rule above,
so the table is the one-process table.  A part holding a ragged line or
a cell numeric_column rejects fails the read as in one process, and an
outcome that does not come back is read by the parent itself.

grid_groups reads many small files, such as eval's windows, in runs.  A
small grid is a regular file of at most one read block (64 KiB) that is
a plain comma grid with at most _CHUNK_ROWS data rows.  A run is
consecutive small grids with one header line and the same field types
from their first data rows, up to _CHUNK_ROWS data rows in all.  Its
table is the one read_grid gives the file of that header line and all
their data rows, which is one chunk; a file's rows hold the values of
its own table, if perhaps as float64.  A run holding a ragged line or a
cell numeric_column rejects has no table, and its files are left to be
read one at a time, as is every file that is not a small grid.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import re
import stat
import warnings
from bisect import bisect_left
from contextlib import nullcontext
from functools import partial
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

import numpy as np

from ruleloc.binarize import numeric_column
from ruleloc.forking import cpu_free, forked

# The bytes of a plain comma grid line after the byte-order mark.
_GRID_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# A \n before a blank line.  re finds it in a third of the time that
# `b"\n\n" in data` takes on grid lines.
_BLANK_LINE = re.compile(b"\n(?=\n)")
# Rows per loadtxt call.  Larger chunks leave more freed heap behind, as
# glibc serves blocks below its adaptive mmap threshold from the heap: on a
# 100k x 63 table, 8192 rows per call raised the peak RSS of train by 5 MB.
_CHUNK_ROWS = 2048
# Bytes per read of a file; a file of at most one block is small.
_BLOCK = 1 << 16


def _lines_ok(data: bytes) -> bool:
    """Whether data is whole lines, at least one, of only plain comma grid
    bytes, none of them blank or longer than the csv module's field size
    limit."""
    if not data or data.translate(None, _GRID_BYTES) or data.startswith(b"\n"):
        return False
    if _BLANK_LINE.search(data):
        return False
    limit = csv.field_size_limit()
    # A line of more than limit bytes holds a \n-free stretch of `step` bytes
    # from a multiple of `step` on; lines are measured only if one is found.
    step = max(limit // 2, 1)
    if all(data.find(b"\n", i, i + step) >= 0 for i in range(0, len(data), step)):
        return True
    return max(map(len, data.splitlines(keepends=True))) <= limit


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


def _header(line: bytes, numeric: Callable[[str], bool]) -> Optional[tuple[list, list]]:
    """The names of a header line and each one's field type: f8 for a
    name that `numeric` accepts, else O.  None if a name is repeated."""
    names = line.rstrip(b"\n").decode().split(",")
    if len(set(names)) != len(names):
        return None
    return names, ["f8" if numeric(name) else "O" for name in names]


def _first_row(kinds: list[str], line: bytes) -> list[str]:
    """kinds with u1 for each f8 field whose cell in the first data line
    is all ASCII digits; kinds itself for a line of another field count,
    on which the first call fails."""
    cells = line.rstrip(b"\n").split(b",")
    if len(cells) != len(kinds):
        return kinds
    return ["u1" if kind == "f8" and cell.isdigit() else kind for kind, cell in zip(kinds, cells)]


def _table(names: list[str], kinds: list[str], n: int, chunks: Iterable) -> Optional[dict]:
    """The table of the n data rows of a header of names, the first row
    picking the field types kinds, read from chunks: collections of
    checked lines, each iterated once per call made on it, and perhaps,
    last, the table another call read of the rows that follow, whose
    values are copied as a chunk's.  None if a line is ragged or the
    chunks hold other than n rows.  Raises ValueError
    (InvalidValueError) for a numeric cell numeric_column rejects.  The
    module docstring gives the rules."""
    floats = ["O" if kind == "O" else "f8" for kind in kinds]
    num = [i for i, kind in enumerate(floats) if kind == "f8"]
    txt = [i for i, kind in enumerate(floats) if kind == "O"]
    record = _record(kinds)
    narrow = [i for i in num if kinds[i] == "u1"]
    rows = dict(zip(narrow, np.empty((len(narrow), n), np.uint8)))
    wide = [i for i in num if kinds[i] == "f8"]
    rows.update(zip(wide, np.empty((len(wide), n))))
    texts: list[list[str]] = [[] for _ in txt]
    distinct: list[dict[str, str]] = [{} for _ in txt]
    lo = 0
    for chunk in chunks:
        part = isinstance(chunk, dict)  # the next rows' table, read by another call
        records = None if part else _load(chunk, record)
        if records is None and not part and "u1" in kinds:
            # A value above 255, or a cell no uint reads.
            kinds = ["u8" if kind == "u1" else kind for kind in kinds]
            record = _record(kinds)
            records = _load(chunk, record)
        if part:
            hi = lo + len(chunk[names[0]])
            values = {f"f{i}": chunk[name] for i, name in enumerate(names)}
            strings = (chunk[names[i]] for i in txt)
        elif records is None:
            # A blank cell, one only float() reads, one no integer field
            # reads, or a ragged line.
            split = [text.rstrip(b"\n").decode().split(",") for text in chunk]
            if any(len(row) != len(names) for row in split):
                return None
            hi = lo + len(split)
            # Keyed by field name, as the records are.
            values = {f"f{i}": numeric_column([row[i] for row in split], names[i]) for i in num}
            strings = ([row[i] for row in split] for i in txt)
        else:
            hi = lo + len(records)
            values = records
            strings = (records[f"f{i}"].tolist() for i in txt)
        if records is None or "u1" not in kinds:  # the uint8 rows' values were not read as bytes
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
        lo = hi
    if lo != n:
        return None
    cells = iter(texts)
    return {name: rows[i] if i in rows else next(cells) for i, name in enumerate(names)}


def _chunks(lines: Iterator[bytes], n: int, rest: Optional[Callable] = None) -> Iterator:
    """Lists of the next n lines, _CHUNK_ROWS at a time, up to the first
    that fails _lines_ok; then, if none failed, the table rest() gives of
    the rows after them, unless it gives None."""
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = list(islice(lines, min(_CHUNK_ROWS, n - lo)))
        if not _lines_ok(b"".join(chunk)):
            return
        yield chunk
    if rest is not None and (table := rest()) is not None:
        yield table


class _Span(io.RawIOBase):
    """Bytes lo:hi of a file, read by pread(size, offset), which moves no
    file offset: a forked child shares its parent's."""

    def __init__(self, pread: Callable[[int, int], bytes], lo: int, hi: int):
        self.pread, self.lo, self.hi = pread, lo, hi

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self.pread(min(len(buffer), self.hi - self.lo), self.lo)
        buffer[: len(data)] = data
        self.lo += len(data)
        return len(data)


def _rows(fh: BinaryIO, lo: int, hi: int, names: list[str], kinds: list[str], n: int):
    """The table of the n data rows in bytes lo:hi of fh, read as read_grid
    reads its rows, without moving fh's offset."""
    if isinstance(fh, io.BytesIO):  # an input that cannot seek, read into memory
        view = fh.getbuffer()
        pread = lambda size, at: view[at : at + size]
    else:
        pread = partial(os.pread, fh.fileno())
    with io.BufferedReader(_Span(pread, lo, hi), _BLOCK) as lines:
        return _table(names, kinds, n, _chunks(lines, n))


def _after(fh: BinaryIO, ends: list[tuple[int, int]], k: int) -> int:
    r"""The offset just past the k-th \n of fh, whose blocks end at
    ends[b] = (\n count so far, offset)."""
    b = bisect_left(ends, (k,))
    count, lo = ends[b - 1] if b else (0, 0)
    fh.seek(lo)
    block = fh.read(ends[b][1] - lo)
    at = -1
    for _ in range(k - count):
        at = block.index(b"\n", at + 1)
    return lo + at + 1


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
    cannot hold exactly.  When a file of more than _CHUNK_ROWS data rows
    is read while a CPU is free (forking.cpu_free), a forked child reads
    the rows from the chunk boundary nearest the middle on, and they come
    back as the last chunk: the table is the same.  grid_groups reads a
    run of small files as the one chunk of the file joining their rows.
    Raises OSError if the file cannot be read and ValueError
    (InvalidValueError) for a numeric cell that binarize.numeric_column
    rejects.
    """
    ends = []
    newlines, size, last = 0, 0, b"\n"
    for block in iter(partial(fh.read, _BLOCK), b""):
        newlines += block.count(b"\n")
        size += len(block)
        ends.append((newlines, size))
        last = block[-1:]
        if digest is not None:
            digest.update(block)
    n = newlines - (last == b"\n")
    split = n
    if n > _CHUNK_ROWS and cpu_free():
        split = _CHUNK_ROWS * max(1, round(n / (2 * _CHUNK_ROWS)))
    fh.seek(0)
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    line = fh.readline()
    header = _header(line, numeric) if n >= 1 and _lines_ok(line) else None
    if header is None:
        return None
    names, kinds = header
    start = fh.tell()
    kinds = _first_row(kinds, fh.readline())
    rest = nullcontext()
    if split < n:
        # Data row `split` starts past the (split + 1)-th \n, the header's counted.
        rest = forked(_rows, fh, _after(fh, ends, split + 1), size, names, kinds, n - split)
    fh.seek(start)
    with rest as rows:
        table = _table(names, kinds, n, _chunks(fh, split, rows))
    fh.seek(size)
    return None if fh.read(1) else table  # the file may grow after its rows are counted


def _small_grid(path, numeric: Callable[[str], bool]) -> Optional[tuple]:
    """((header names, field types), bytes, number of data rows) of the
    file at path, its bytes taken after any byte-order mark, if it is a
    regular file of at most one block whose lines pass _lines_ok, with 1
    to _CHUNK_ROWS data rows and a header naming no column twice, else
    None (also where it cannot be read).  The field types are those
    read_grid picks.  Anything else, a FIFO among them, is left unopened."""
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
    if not 1 <= n <= _CHUNK_ROWS or not _lines_ok(data):
        return None
    line, _, rows = data.partition(b"\n")
    header = _header(line, numeric)
    if header is None:
        return None
    return (header[0], _first_row(header[1], rows.partition(b"\n")[0])), data, n


class _DataLines:
    """The data lines of files, each a header line and its rows, streamed
    from the files' bytes anew each time they are iterated."""

    def __init__(self, files: list[bytes]):
        self.files = files

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(islice(io.BytesIO(data), 1, None) for data in self.files)


_END = object()


def grid_groups(
    paths: Iterable, numeric: Callable[[str], bool]
) -> Iterator[tuple[list, Optional[dict], Optional[list[int]]]]:
    """Split paths, in order, into runs of files read as one table.

    Yields (run, table, bounds).  A run is consecutive small plain comma
    grids, each read whole in one block, that share one header line and
    the field types read_grid picks from their first data rows, with at
    most _CHUNK_ROWS data rows in all.  Its table is the one read_grid
    gives the file holding that header line and all their data rows, and
    rows bounds[k]:bounds[k + 1] of each column are run[k]'s.  Every other
    path comes as a run of one, and table and bounds are None then, as
    they are for a run holding a ragged line or a numeric cell that
    binarize.numeric_column rejects: each path of such a run is to be
    read by itself, by read_grid or the cell reader.  Files are read one
    at a time, as the runs are asked for, and a run's bytes are dropped
    before it is yielded.
    """
    run: list = []
    key: tuple = ()
    files: list[bytes] = []
    bounds = [0]
    for path in chain(paths, [_END]):
        grid = None if path is _END else _small_grid(path, numeric)
        if run and (grid is None or grid[0] != key or bounds[-1] + grid[2] > _CHUNK_ROWS):
            try:
                table = _table(*key, bounds[-1], [_DataLines(files)])
            except ValueError:  # a numeric cell that does not parse
                table = None
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
