"""read_csv_columns: the loadtxt grid path against the exact cell reader.

`oracle_read_csv_columns` is the cell-by-cell reader as it was before
plain comma grids were parsed by np.loadtxt, kept verbatim.  Every table
read with a numeric predicate must equal the oracle's table with those
columns parsed by numeric_column, and the oracle's errors wrapped as the
reader wraps them: the same columns in the same order, the same float64
values (NaN-aware, sign included) and strings, and the same exception
type, category and message.  A numeric column is a uint8 array exactly
when the grid reader returned the table, the column's first cell is all
ASCII digits and every value is an integer from 0 to 255 without a sign
bit; otherwise it is a float64 array.  Either way it is C-contiguous,
and its values cast to float64 are the oracle's.
"""

import csv
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruleloc.binarize import NUMERIC, FeatureSpec, InvalidValueError, fit, numeric_column
from ruleloc import cli, csvgrid
from ruleloc.cli import CliError, main, read_csv_columns


def oracle_read_csv_columns(path: str | Path) -> dict[str, list[str]]:
    """Read an RFC-4180 CSV with header into a column-oriented table.

    A row with fewer fields than the header is padded with "" (a missing
    value); a row with more fields, or a blank line, is invalid data,
    reported with its 1-based line number.  A header naming a column twice
    is a schema error.  The file is UTF-8, with or without a byte-order
    mark; any other bytes are invalid data naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliError("invalid-data", f"{path}: empty CSV")
            columns: dict[str, list[str]] = {}
            for name in header:
                if name in columns:
                    raise CliError("schema-error", f"{path}: duplicate column {name!r}")
                columns[name] = []
            appends = [columns[name].append for name in header]
            for row in reader:
                if not row:
                    raise CliError(
                        "invalid-data",
                        f"{path}: line {reader.line_num}: blank line",
                    )
                if len(row) > len(header):
                    raise CliError(
                        "invalid-data",
                        f"{path}: line {reader.line_num}: {len(row)} fields,"
                        f" header has {len(header)}",
                    )
                for append, value in zip(appends, row):
                    append(value)
                for append in appends[len(row) :]:
                    append("")
            return columns
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError("invalid-data", f"{path}: {exc}")


def csv_error_line(path: Path) -> int:
    """The line number at which the csv module rejects path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for _ in reader:
                pass
        except csv.Error:
            return reader.line_num
    raise AssertionError(f"the csv module reads {path}")


def decode_error_in_file(path: Path) -> str:
    """The UnicodeDecodeError of path's whole contents after any byte-order
    mark, which names the bad byte's position from there; the oracle's
    text stream counts it from its decode block."""
    try:
        path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{path} is UTF-8")


def read_oracle(path: Path, numeric) -> dict:
    """The oracle's table with the columns `numeric` accepts parsed by
    numeric_column; a bad cell, a line the csv module rejects and a byte
    that is not UTF-8 fail as read_csv_columns fails on them."""
    try:
        table = oracle_read_csv_columns(path)
        for name in table:
            if numeric(name):
                table[name] = numeric_column(table[name], name)
    except InvalidValueError as exc:
        raise CliError("invalid-data", f"{path}: {exc}")
    except csv.Error as exc:
        raise CliError("invalid-data", f"{path}: line {csv_error_line(path)}: {exc}")
    except CliError as exc:
        if isinstance(exc.__context__, UnicodeDecodeError):
            raise CliError("invalid-data", f"{path}: {decode_error_in_file(path)}")
        raise
    return table


def parsed(read, path, numeric):
    """(table, None) as read, or (None, the error's type, category and message)."""
    try:
        return read(path, numeric), None
    except (CliError, InvalidValueError, csv.Error) as exc:
        category = getattr(exc, "category", None)
        return None, (type(exc), category, str(exc))


def byte_values(column: np.ndarray) -> bool:
    """Whether every value is an integer from 0 to 255 without a sign bit."""
    return bool(np.all(np.isin(column, np.arange(256)) & ~np.signbit(column)))


def assert_same_as_oracle(path: Path, numeric) -> dict:
    """Both readers agree on path; returns read_csv_columns's table (or {})."""
    with mock.patch.object(cli, "_read_csv_cells", wraps=cli._read_csv_cells) as cell_reader:
        got, got_error = parsed(read_csv_columns, path, numeric)
    want, want_error = parsed(read_oracle, path, numeric)
    assert got_error == want_error
    if want is None:
        return {}
    assert list(got) == list(want)
    cells = oracle_read_csv_columns(path)
    for name, column in want.items():
        if numeric(name):
            narrow = (
                not cell_reader.called
                and cells[name][0].isascii()
                and cells[name][0].isdigit()
                and byte_values(column)
            )
            assert got[name].dtype == (np.uint8 if narrow else np.float64)
            assert got[name].flags.c_contiguous
            values = got[name].astype(float)
            assert np.array_equal(values, column, equal_nan=True)
            assert np.array_equal(np.signbit(values), np.signbit(column))
        else:
            assert got[name] == column
            assert one_object_per_value(got[name])
    return got


def one_object_per_value(column: list[str]) -> bool:
    return len({id(value) for value in column}) == len(set(column))


def write_bytes(directory: str, data: bytes) -> Path:
    path = Path(directory) / "t.csv"
    path.write_bytes(data)
    return path


def took_grid_path(path, numeric, read=read_csv_columns) -> bool:
    """Whether read (read_csv_columns by default) read path without the cell reader."""
    with mock.patch.object(cli, "_read_csv_cells", wraps=cli._read_csv_cells) as cells:
        read(path, numeric)
    return not cells.called


def one_process(monkeypatch) -> None:
    """One usable CPU, so that no forked child reads a part of a grid: the
    loadtxt calls a test counts are all made in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


# -- generated tables -----------------------------------------------------------

PLAIN_NUMBERS = ["0", "1", "-2.5", "3e2", "1e-400", "1e999", ".5", "7.", " 4 ", "+1",
                 "nan", "NaN", "-nan", "inf", "-Infinity", "+inf", "0.1", "123456789012345678901",
                 "", "  ", "1_0", "1E+05", " -0 ", "InFiNiTy", "1.5e-3"]
# Printable cells that no parser reads as a number.
BAD_NUMBERS = ["1__0", "_1", "+-1", "nan(1)", "0b1", "1j", "-.e1", "abc"]
ODD_CELLS = ["", " ", "1_0", "１", "#", "#1", "5#", "7\x1c", "\x00", "1\x0b", "\x0b2", "0x10",
             "abc", "1 2", "é", '"a,b"', '"x""y"', '"l1\nl2"', '"3"', "\x7f", "\t5"]
TEXTS = ["svc0", "normal", "", "2024-01-01T00:00:01", "a b", "#x", "x#", "-"]


@st.composite
def csv_files(draw):
    """CSV bytes covering the reader's edges, and the names read as numbers.

    About half the draws are plain comma grids, so both readers' paths
    are exercised.
    """
    plain = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "svc", "ts", "a b", "#h"]),
                          min_size=1, max_size=5))
    if plain:
        names = list(dict.fromkeys(names))
    numeric_names = set(draw(st.lists(st.sampled_from(names), max_size=len(names))))
    cells_numeric = st.sampled_from(
        PLAIN_NUMBERS * 8 + BAD_NUMBERS if plain else PLAIN_NUMBERS + BAD_NUMBERS + ODD_CELLS
    )
    cells_text = st.sampled_from(TEXTS if plain else TEXTS + ODD_CELLS)
    n_rows = draw(st.integers(0, 6))
    lines = [",".join(names)]
    for _ in range(n_rows):
        width = len(names)
        if not plain:
            width += draw(st.sampled_from([0, 0, 0, -1, 1]))
        row = [draw(cells_numeric if i < len(names) and names[i] in numeric_names
                    else cells_text) for i in range(max(width, 0))]
        if not plain and draw(st.integers(0, 9)) == 0:
            row = []  # a blank line
        lines.append(",".join(row))
    ending = "\n" if plain else draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if not plain and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data, numeric_names


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
@example((b"a,b\n7\x1c,x\n", {"a"}))
@example((b"a,b\n1,\x00\n", {"a"}))
@example((b"a\n1\n\n2\n", {"a"}))
@example((b"a,b\n1,2\n3\n", {"a", "b"}))
@example((b"a,b\n1,2,3\n", {"a"}))
@example((b"a,b\n1_0,\xef\xbc\x91\n", {"a", "b"}))
@example((b"a,b\n1,\n", {"a", "b"}))
@example((b"a,b\n1,  \n", {"b"}))
@example((b"a,b\n", {"a"}))
@example((b"a,b\n1,2", {"a", "b"}))
@example((b"a,a\n1,2\n", {"a"}))
@example((b"a,b\r\n1,2\r\n", {"a"}))
@example((b"\xef\xbb\xbfa,b\n1,2\n", {"a"}))
@example((b"a,b\n#1,2\n", {"a"}))
@example((b"a,b\n1,#\n", {"a"}))
@example((b"a,b\n1,5#\n", {"a", "b"}))
@example((b'a,b\n1,"x""y"\n', {"a"}))
@example((b'a,b\n"3",x\n', {"a"}))
@example((b"a,svc\xe9", set()))
@example((b"\xef\xbb\xbfa\n\xff1\n", {"a"}))
def test_grid_reader_equals_the_exact_reader(case):
    data, numeric_names = case
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_as_oracle(write_bytes(tmp, data), numeric_names.__contains__)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_files(), st.sets(st.sampled_from(["a", "b", "c", "svc", "ts", "a b", "#h", "zz"])))
@example((b"a,svc\n1,x\n2,y\n", {"a"}), {"svc"})
@example((b"a,svc\n1,x\n2,y,z\n", {"a"}), {"svc"})
@example((b"a,svc\n1,x\n2\n", {"a"}), {"svc"})
@example((b'a,svc\n1,"x,y"\n', {"a"}), {"svc"})
@example((b"svc,svc\n1,x\n", set()), {"svc"})
@example((b"svc\nx\n\ny\n", set()), {"svc"})
@example((b"a,svc\n1,x\n", {"a"}), {"a", "svc"})
def test_skipped_columns_are_left_out_of_the_same_read(case, skip):
    """read_csv_columns with skip gives the table it gives without, minus the
    skipped columns, or the same error: a ragged line, a blank line or a
    duplicate name fails as before, on either reader."""
    data, numeric_names = case
    skip -= numeric_names
    numeric = numeric_names.__contains__
    read_skipping = lambda path, numeric: read_csv_columns(path, numeric, skip=skip)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bytes(tmp, data)
        want, want_error = parsed(read_csv_columns, path, numeric)
        got, got_error = parsed(read_skipping, path, numeric)
        assert got_error == want_error
        if want is None:
            return
        # A grid of skipped columns only is left to the cell reader.
        grid = took_grid_path(path, numeric) and not set(want) <= skip
        assert took_grid_path(path, numeric, read_skipping) == grid
    assert list(got) == [name for name in want if name not in skip]
    for name, column in got.items():
        if isinstance(column, np.ndarray):
            assert column.dtype == want[name].dtype
            assert column.tobytes() == want[name].tobytes()
        else:
            assert column == want[name]
            assert one_object_per_value(column)


def test_loadtxt_reads_an_s0_field_as_no_bytes_and_counts_it():
    """What the grid reader's skipped columns rely on in the installed numpy:
    a zero-width S0 field reads every cell as b"", and still counts as a
    field, so a line of another field count fails."""
    record = np.dtype([("f0", "S0"), ("f1", "u1"), ("f2", "O")])
    rows = np.loadtxt([b"abc,1,x\n", b",2,y\n"], record, delimiter=",", comments=None, ndmin=1)
    assert rows["f0"].tolist() == [b"", b""]
    assert rows["f1"].tolist() == [1, 2] and rows["f2"].tolist() == ["x", "y"]
    for ragged in (b"abc,1\n", b"abc,1,x,z\n"):
        with pytest.raises(ValueError):
            np.loadtxt([ragged], record, delimiter=",", comments=None, ndmin=1)


def test_a_ragged_line_fails_with_its_line_number_when_a_column_is_skipped(tmp_path):
    for data in (b"a,svc\n1,x\n2,y,z\n", b'a,svc\n1,"x"\n2,y,z\n'):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(CliError, match=r"line 3: 3 fields, header has 2$"):
            read_csv_columns(path, {"a"}.__contains__, skip={"svc"})


# -- one test per guard rule ------------------------------------------------------


def test_control_byte_in_a_numeric_cell_reads_as_the_exact_reader_does(tmp_path, capsys):
    """'7\x1c' is no plain grid cell, so the exact reader keeps it and
    numeric_column strips it to 7.0 as str.strip does; a control byte
    inside a number fails as invalid-data naming the column and row."""
    path = tmp_path / "ctl.csv"
    path.write_bytes(b"fault_type,cpu\nnormal,1\nboom,7\x1c\n")
    numeric = {"cpu"}.__contains__
    assert not took_grid_path(path, numeric)
    assert assert_same_as_oracle(path, numeric)["cpu"].tolist() == [1.0, 7.0]
    path.write_bytes(b"fault_type,cpu\nnormal,1\nboom,7\x1c8\n")
    assert main(["train", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 5
    assert capsys.readouterr().err == (
        f"invalid-data: {path}: column 'cpu', row 2:"
        " could not convert string to float: '7\\x1c8'\n"
    )


def test_nul_in_a_text_cell_is_kept(tmp_path):
    """loadtxt turns a text cell of '\\x00' into ''.  The csv module keeps
    it from Python 3.11 on, and before that rejects its line."""
    path = tmp_path / "nul.csv"
    path.write_bytes(b"a,b\n1,\x00\n")
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    if sys.version_info >= (3, 11):
        assert table["b"] == ["\x00"]
        return
    with pytest.raises(CliError) as caught:
        read_csv_columns(path, {"a"}.__contains__)
    assert (caught.value.category, str(caught.value)) == (
        "invalid-data", f"{path}: line 2: line contains NUL"
    )


def test_field_over_the_csv_size_limit_is_invalid_data(tmp_path, capsys):
    """A cell one character over the csv module's default field limit
    (131,072) fails naming its line, quoted or not, so both readers agree;
    one at the limit is read."""
    path = tmp_path / "wide.csv"
    for quote in ('"', ""):
        for width in (131073, 140000):
            cell = quote + "y" * width + quote
            path.write_text("fault_type,cpu,note\nnormal,1,x\nboom,2," + cell + "\n")
            assert main(["train", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 5
            assert capsys.readouterr().err == (
                f"invalid-data: {path}: line 3: field larger than field limit (131072)\n"
            )
            with open(path, "rb") as fh:
                assert csvgrid.read_grid(fh, {"cpu"}.__contains__) is None
            assert_same_as_oracle(path, {"cpu"}.__contains__)
        cell = quote + "y" * 131072 + quote
        path.write_text("fault_type,cpu,note\nnormal,1,x\nboom,2," + cell + "\n")
        table = assert_same_as_oracle(path, {"cpu"}.__contains__)
        assert len(table["note"][1]) == 131072


@settings(max_examples=300, deadline=None)
@given(st.binary().map(lambda raw: bytes(b"a,\n\n\""[b % 5] for b in raw)), st.integers(1, 6))
@example(b"a\n\n", 6)
@example(b"\na\n", 6)
@example(b"aaa\naa", 3)
@example(b"aa\naaa", 3)
@example(b"a\n\na\n", 2)
def test_the_buffer_line_check_is_the_line_by_line_check(data, limit):
    """Lines of only grid bytes, at least one, none blank, none (its \\n
    included) longer than the field size limit, on data shorter and longer
    than the limit."""
    lines = data.splitlines(keepends=True)
    want = bool(lines) and not (
        data.translate(None, csvgrid._GRID_BYTES) or b"\n" in lines or max(map(len, lines)) > limit
    )
    old = csv.field_size_limit(limit)
    try:
        assert csvgrid._lines_ok(data) == want
    finally:
        csv.field_size_limit(old)


def test_blank_line_still_fails(tmp_path):
    """loadtxt skips blank lines."""
    path = tmp_path / "blank.csv"
    path.write_bytes(b"a\n1\n\n2\n")
    with pytest.raises(CliError, match="line 3: blank line"):
        read_csv_columns(path, {"a"}.__contains__)


@pytest.mark.parametrize(
    "data, message",
    [(b"a,b\n1,2\n3\n", None), (b"a,b\n1,2\n3,4,5\n", "line 3: 3 fields, header has 2")],
)
def test_short_row_is_padded_and_long_row_fails(tmp_path, data, message):
    """A row with fewer or more commas than the header is no grid line, so
    the exact reader pads or rejects it."""
    path = tmp_path / "ragged.csv"
    path.write_bytes(data)
    if message:
        with pytest.raises(CliError, match=message):
            read_csv_columns(path, {"a"}.__contains__)
    else:
        table = assert_same_as_oracle(path, {"a"}.__contains__)
        assert table["b"] == ["2", ""]


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("１", 1.0), ("", math.nan),
                                         ("  ", math.nan), (" 4 ", 4.0)])
def test_cells_loadtxt_rejects_parse_as_float_does(tmp_path, cell, value):
    """loadtxt rejects these; on a grid, numeric_column parses their chunk."""
    path = tmp_path / "cells.csv"
    path.write_bytes(f"a,b\n1,{cell}\n".encode())
    table = assert_same_as_oracle(path, {"a", "b"}.__contains__)
    assert np.array_equal(table["b"], [value], equal_nan=True)
    assert took_grid_path(path, {"a", "b"}.__contains__) == cell.isascii()


def test_a_chunk_with_a_blank_cell_keeps_the_grid_path(tmp_path, monkeypatch):
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    path = tmp_path / "gaps.csv"
    path.write_bytes(b"a,b\n1,x\n2,y\n,z\n4,w\n5,\n")
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    assert np.array_equal(table["a"], [1, 2, math.nan, 4, 5], equal_nan=True)
    assert table["b"] == ["x", "y", "z", "w", ""]
    assert took_grid_path(path, {"a"}.__contains__)
    # A cell no parser reads sends the whole file to the exact reader, so
    # the error names its row in the whole column.
    path.write_bytes(b"a,b\n1,x\n2,y\n3,z\n4,w\n5x,v\n")
    with pytest.raises(CliError) as caught:
        read_csv_columns(path, {"a"}.__contains__)
    assert (caught.value.category, str(caught.value)) == (
        "invalid-data", f"{path}: column 'a', row 5: could not convert string to float: '5x'"
    )


def test_each_chunk_is_tokenized_by_one_loadtxt_call(tmp_path, monkeypatch):
    """Text and numeric columns interleave; the chunk holding a blank
    numeric cell is tried once more with uint64 fields, then split at its
    commas, and its text cells stay in place and share the other chunks'
    string objects.  Only the column holding the blank leaves the uint8
    block."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    one_process(monkeypatch)
    chunks, loadtxt = [], np.loadtxt
    def spy(lines, *args, **kwargs):
        chunks.append(len(lines))
        return loadtxt(lines, *args, **kwargs)
    monkeypatch.setattr(csvgrid.np, "loadtxt", spy)
    path = tmp_path / "mixed.csv"
    path.write_bytes(b"a,s,b,t\n1,x,2,p\n3,y,4,q\n5,x,,p\n7,z,8,q\n9,y,10,p\n")
    numeric = {"a", "b"}.__contains__
    table = assert_same_as_oracle(path, numeric)
    assert chunks == [2, 2, 2, 1]
    assert np.array_equal(table["b"], [2, 4, math.nan, 8, 10], equal_nan=True)
    assert table["a"].dtype == np.uint8 and table["a"].tolist() == [1, 3, 5, 7, 9]
    assert table["s"] == ["x", "y", "x", "z", "y"] and table["t"] == ["p", "q"] * 2 + ["p"]
    assert table["s"][2] is table["s"][0] and table["t"][3] is table["t"][1]
    assert took_grid_path(path, numeric)


def test_duplicate_header_name_still_fails(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_bytes(b"a,a\n1,2\n")
    with pytest.raises(CliError, match="duplicate column 'a'"):
        read_csv_columns(path, {"a"}.__contains__)


def test_carriage_returns_and_quotes_read_cell_by_cell(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b'a,b\r\n1,"x,y"\r\n2,"p""q"\r\n')
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    assert table["a"].tolist() == [1.0, 2.0] and table["b"] == ["x,y", 'p"q']
    assert not took_grid_path(path, {"a"}.__contains__)


def test_text_columns_hold_one_string_per_distinct_value(tmp_path):
    rows = [f"s{i % 3},{('cpu_hog', 'normal')[i % 2]},{i % 4}.25\n" for i in range(40)]
    grid = tmp_path / "grid.csv"
    grid.write_text("service,fault,cpu\n" + "".join(rows))
    quoted = tmp_path / "quoted.csv"  # one quoted cell sends it to the cell reader
    quoted.write_text('service,fault,cpu\n"s0"' + rows[0][2:] + "".join(rows[1:]))
    numeric = {"cpu"}.__contains__
    assert took_grid_path(grid, numeric) and not took_grid_path(quoted, numeric)
    by_grid, by_cells = read_csv_columns(grid, numeric), read_csv_columns(quoted, numeric)
    for table in (by_grid, by_cells):
        assert set(table["service"]) == {"s0", "s1", "s2"}
        assert one_object_per_value(table["service"]) and one_object_per_value(table["fault"])
    assert by_grid["service"] == by_cells["service"] and by_grid["fault"] == by_cells["fault"]
    for table in (by_grid, by_cells):
        assert table["cpu"].dtype == np.float64 and table["cpu"].flags.c_contiguous
    assert np.array_equal(by_grid["cpu"], by_cells["cpu"])


def test_header_only_and_single_row_tables(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n")
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    assert table["a"].shape == (0,) and table["b"] == []
    path.write_bytes(b"a,b\n1.5,x")
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    assert took_grid_path(path, {"a"}.__contains__)


def read_pipe(data: bytes, numeric) -> dict:
    """read_csv_columns of data written to a pipe, which can be read only once."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        return read_csv_columns(f"/dev/fd/{read_end}", numeric)
    finally:
        os.close(read_end)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_pipe_is_read_once_by_the_grid_reader():
    table = read_pipe(b"a,b\n1.5,x\n", {"a"}.__contains__)
    assert table["a"].tolist() == [1.5] and table["b"] == ["x"]
    assert took_grid_path(b"a,b\n1.5,x\n", {"a"}.__contains__, read_pipe)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_numeric_columns_are_the_same_arrays_on_every_path(tmp_path, monkeypatch):
    """A plain grid, the same table with one quoted cell, and a pipe give
    equal C-contiguous float64 arrays, NaNs and sign bits included.  The
    grid's first chunk goes through loadtxt, its second through the split
    that reads the cells loadtxt rejects."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 3)
    rows = ["-0,nan,s", "inf,-0.0,t", "-inf,1e-400,s", ", 2 ,t", "1_0,-nan,s", "3,,t"]
    grid = tmp_path / "grid.csv"
    grid.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("a,b,c\n" + "\n".join(rows[:-1]) + '\n3,,"t"\n')
    numeric = {"a", "b"}.__contains__
    assert took_grid_path(grid, numeric) and not took_grid_path(quoted, numeric)
    tables = [read_csv_columns(grid, numeric), read_csv_columns(quoted, numeric),
              read_pipe(grid.read_bytes(), numeric)]
    for name in ("a", "b"):
        first = tables[0][name]
        for table in tables:
            column = table[name]
            assert column.dtype == np.float64 and column.flags.c_contiguous
            assert np.array_equal(column, first, equal_nan=True)
            assert np.array_equal(np.signbit(column), np.signbit(first))
    assert np.signbit(tables[0]["a"][0]) and np.signbit(tables[0]["b"][1])
    assert all(table["c"] == ["s", "t"] * 3 for table in tables)


def test_byte_order_mark_keeps_the_grid_path(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1.5,x\n")
    table = assert_same_as_oracle(path, {"a"}.__contains__)
    assert took_grid_path(path, {"a"}.__contains__)
    assert list(table) == ["a", "b"]


# -- uint8 and uint64 fields for columns of unsigned integers -----------------------


def spy_loadtxt(monkeypatch) -> list[tuple[int, dict[str, str]]]:
    """(lines, the type of each field, like "u1") of every loadtxt call the
    grid reader makes, read in one process."""
    one_process(monkeypatch)
    calls, loadtxt = [], np.loadtxt
    def spy(lines, dtype, *args, **kwargs):
        calls.append((len(lines), {name: dtype[name].str[1:] for name in dtype.names}))
        return loadtxt(lines, dtype, *args, **kwargs)
    monkeypatch.setattr(csvgrid.np, "loadtxt", spy)
    return calls


DIGIT_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.integers(2**53, 2**64 - 1).map(str),
    st.tuples(st.integers(1, 3), st.integers(0, 10**6)).map(lambda t: "0" * t[0] + str(t[1])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(DIGIT_CELLS, min_size=1, max_size=40))
@example([str(2**64 - 1), str(2**53 + 1), str(2**64 - 2**10), "00012", "0"])
def test_digit_cells_read_as_float_reads_them(cells):
    """A column of digit-only cells is read through a uint8 field and, if a
    cell is above 255, once more through a uint64 field.  Every cell, above
    2**53 too, reads as float(cell), and the column is uint8 exactly when
    no cell is above 255."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bytes(tmp, ("x,s\n" + "".join(f"{c},t\n" for c in cells)).encode())
        with mock.patch.object(csvgrid.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            table = read_csv_columns(path, {"x"}.__contains__)
    narrow = max(map(int, cells)) <= 255
    fields = [call.args[1]["f0"] for call in loadtxt.call_args_list]
    assert [(f.kind, f.itemsize) for f in fields] == [("u", 1)] + ([] if narrow else [("u", 8)])
    assert table["x"].dtype == (np.uint8 if narrow else np.float64)
    assert table["x"].astype(float).tolist() == [float(c) for c in cells]


@pytest.mark.parametrize("cell", ["1.5", "", "-0", "18446744073709551616"])
def test_a_later_cell_uint64_rejects_is_read_exactly(tmp_path, monkeypatch, cell):
    """The first row is all digits, so both numeric columns start as uint8
    fields.  The chunk holding a cell uint64 rejects too is read once more
    with uint64 fields, then split and parsed by numeric_column; its column
    alone becomes float64 and every later chunk reads it with a float64
    field, the other with a uint64 field: the exact reader's values, and
    one loadtxt call per later chunk.  Deprecation
    warnings are ignored here, as they are outside this suite, so that a
    numpy that parses such a cell via float() with a warning cannot pass."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    calls = spy_loadtxt(monkeypatch)
    rows = ["1,x,7", "2,y,8", f"3,x,{cell}", "4,z,9", "5,y,10", "6,x,11", "7,z,12"]
    path = tmp_path / "ints.csv"
    path.write_text("a,s,b\n" + "\n".join(rows) + "\n")
    numeric = {"a", "b"}.__contains__
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        table = assert_same_as_oracle(path, numeric)
    narrow = {"f0": "u1", "f1": "O", "f2": "u1"}
    retry, after = {"f0": "u8", "f1": "O", "f2": "u8"}, {"f0": "u8", "f1": "O", "f2": "f8"}
    assert calls == [(2, narrow), (2, narrow), (2, retry), (2, after), (1, after)]
    assert table["a"].dtype == np.uint8 and table["b"].dtype == np.float64
    assert np.array_equal(table["b"][2:4], [float(cell or "nan"), 9.0], equal_nan=True)
    assert np.signbit(table["b"][2]) == (cell == "-0")
    assert table["s"] == ["x", "y", "x", "z", "y", "x", "z"]


def test_only_columns_whose_first_cell_is_digits_are_read_as_uint8(tmp_path):
    """A float in the first row, a signed integer there, or a text column
    keeps its field type whatever the later rows hold."""
    with mock.patch.object(csvgrid.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        path = tmp_path / "mixed.csv"
        path.write_text("n,x,s,m\n3,0.5,a,+1\n12,2,b,4\n")
        table = assert_same_as_oracle(path, {"n", "x", "m"}.__contains__)
    [call] = loadtxt.call_args_list
    assert call.args[1] == np.dtype([("f0", "u1"), ("f1", "f8"), ("f2", "O"), ("f3", "f8")])
    assert table["n"].dtype == np.uint8 and table["n"].tolist() == [3, 12]
    assert table["x"].dtype == table["m"].dtype == np.float64
    assert table["m"].tolist() == [1.0, 4.0]


def read_as_uint8(cell: str):
    """The value a uint8 field of csvgrid's loadtxt call reads from cell, or
    None if the call rejects it."""
    records = csvgrid._load([f"{cell},t\n".encode()], csvgrid._record(["u1", "O"]))
    return None if records is None else records["f0"][0]


# Plain grid cells, none holding a comma, built from what numbers are made of.
NUMBER_LIKE = st.text(st.sampled_from("0123456789+-. eE_xnaif"), max_size=6)


@settings(max_examples=500, deadline=None)
@given(st.one_of(NUMBER_LIKE, st.integers(0, 300).map(str)))
@example("255")
@example("+1")
@example(" 7 ")
@example("000255")
def test_every_cell_a_uint8_field_reads_is_float_of_the_cell(cell):
    value = read_as_uint8(cell)
    if value is not None:
        assert float(value) == float(cell)
        assert not math.copysign(1.0, float(cell)) < 0


@pytest.mark.parametrize("cell", ["256", "-0", "-1", "1.0", "1e2", "nan", "", " ", "+256"])
def test_a_uint8_field_rejects_what_it_cannot_hold_exactly(cell):
    """Values above 255, a minus sign, which would lose -0.0, a point, an
    exponent, nan and a blank cell.  A plus sign reads as float() reads it
    (see the test above)."""
    assert read_as_uint8(cell) is None


def test_a_value_above_255_in_a_later_chunk_keeps_the_loadtxt_path(tmp_path, monkeypatch):
    """The count column first exceeds 255 in the third chunk.  That chunk
    and every later one are read with uint64 fields where the uint8 fields
    were, the count column is float64, the 0/1 columns stay uint8, and no
    chunk is split and parsed in Python."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 4)
    one_process(monkeypatch)
    counts = [0, 7, 255, 3, 9, 1, 2, 200, 40, 256, 1000, 5, 18446744073709551615, 0]
    path = tmp_path / "counts.csv"
    path.write_text(
        "s,flag,count,other\n"
        + "".join(f"svc{i % 3},{i % 2},{c},{(i + 1) % 2}\n" for i, c in enumerate(counts))
    )
    numeric = {"flag", "count", "other"}.__contains__
    with mock.patch.object(csvgrid.np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(csvgrid, "numeric_column", wraps=numeric_column) as split:
        table = assert_same_as_oracle(path, numeric)
    assert not split.called
    fields = [[call.args[1][f"f{i}"].str[1:] for i in (1, 2, 3)] for call in loadtxt.call_args_list]
    narrow, wide = ["u1"] * 3, ["u8"] * 3
    assert fields == [narrow, narrow, narrow, wide, wide]
    assert table["flag"].dtype == table["other"].dtype == np.uint8
    assert table["flag"].base is table["other"].base
    assert table["count"].dtype == np.float64
    assert table["count"].tolist() == [float(c) for c in counts]


def test_uint64_fields_keep_a_column_bytes_up_to_255_exactly(tmp_path, monkeypatch):
    """Values read through uint64 fields keep their column uint8 up to 255;
    the column holding 256 becomes float64 with that value."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    path = tmp_path / "edge.csv"
    path.write_text("a,b\n1,1\n2,2\n255,256\n3,4\n")
    calls = spy_loadtxt(monkeypatch)
    table = assert_same_as_oracle(path, {"a", "b"}.__contains__)
    narrow, retry = {"f0": "u1", "f1": "u1"}, {"f0": "u8", "f1": "u8"}
    assert calls == [(2, narrow), (2, narrow), (2, retry)]
    assert table["a"].dtype == np.uint8 and table["a"].tolist() == [1, 2, 255, 3]
    assert table["b"].dtype == np.float64 and table["b"].tolist() == [1.0, 2.0, 256.0, 4.0]


def test_a_blank_cell_after_a_value_above_255_is_read_exactly(tmp_path, monkeypatch):
    """The uint64 retry of a chunk can fail on another cell; that chunk is
    then split and parsed by numeric_column, both columns, one above 255
    and one blank there, become float64, and later chunks are read with
    float64 fields."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    path = tmp_path / "gap.csv"
    path.write_text("a,b\n1,2\n3,4\n300,5\n6,\n7,8\n")
    calls = spy_loadtxt(monkeypatch)
    table = assert_same_as_oracle(path, {"a", "b"}.__contains__)
    narrow, retry = {"f0": "u1", "f1": "u1"}, {"f0": "u8", "f1": "u8"}
    floats = {"f0": "f8", "f1": "f8"}
    assert calls == [(2, narrow), (2, narrow), (2, retry), (1, floats)]
    assert table["a"].dtype == table["b"].dtype == np.float64


def flags_csv(path: Path, rows: int, columns: int, cell=None) -> list[str]:
    """A table of a service column and 0/1 flag columns f00, f01, ...; cell,
    given as (row, column, text), replaces one flag.  Returns the header."""
    header = ["service", *(f"f{j:02d}" for j in range(columns))]
    lines = [[f"s{i % 3}", *(str((i + j) % 2) for j in range(columns))] for i in range(rows)]
    if cell is not None:
        row, column, text = cell
        lines[row][column + 1] = text
    path.write_text(",".join(header) + "\n" + "".join(",".join(line) + "\n" for line in lines))
    return header


def test_a_blank_flag_cell_keeps_the_other_flag_columns_uint8(tmp_path, monkeypatch):
    """The blank is in the third chunk; only its column becomes float64,
    keeping its earlier values, and the others stay rows of one uint8
    block."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 4)
    path = tmp_path / "flags.csv"
    header = flags_csv(path, 14, 3, (9, 1, ""))
    table = assert_same_as_oracle(path, lambda name: name != "service")
    assert table["f00"].dtype == table["f02"].dtype == np.uint8
    assert table["f00"].base is table["f02"].base
    assert table["f01"].dtype == np.float64
    assert table["f01"][:9].tolist() == [(i + 1) % 2 for i in range(9)]
    assert np.isnan(table["f01"][9])
    assert took_grid_path(path, set(header[1:]).__contains__)


@pytest.mark.parametrize("cells", [["1.0", "+1"], ["+1", "1e0"]])
def test_whole_numbers_written_otherwise_keep_their_column_uint8(tmp_path, monkeypatch, cells):
    """1.0 and 1e0 are split and parsed by numeric_column, +1 is read by the
    uint8 field; each is the byte it stands for."""
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 2)
    path = tmp_path / "ones.csv"
    rows = ["0", "1", "1", "0", *cells, "1"]
    path.write_text("x,s\n" + "".join(f"{cell},t\n" for cell in rows))
    table = assert_same_as_oracle(path, {"x"}.__contains__)
    assert table["x"].dtype == np.uint8
    assert table["x"].tolist() == [float(cell) for cell in rows]


def test_one_blank_cell_keeps_a_flag_table_below_its_float64_size(tmp_path, monkeypatch):
    """20,000 rows of 60 flags, one of them blank past the first chunk: the
    read peaks below the 9.6 MB that the flags take as float64, in one
    process and in the parent of a split read, which holds the child's
    part too."""
    path = tmp_path / "flags.csv"
    rows, columns = 20_000, 60
    header = flags_csv(path, rows, columns, (5_000, 59, ""))
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        tracemalloc.start()
        try:
            table = read_csv_columns(path, set(header[1:]).__contains__)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [table[name].dtype for name in header[1:]] == [np.uint8] * 59 + [np.float64]
        assert peak < rows * columns * 8


# -- the grid path on files shaped like the benchmark inputs ------------------------


def _shaped_csv(path: Path, rng, n: int, text: dict, d: int, values) -> list[str]:
    names = [f"m{j:02d}" for j in range(d)]
    matrix = values(rng, (n, d))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([*text, *names]) + "\n")
        for i, row in enumerate(matrix.tolist()):
            fh.write(",".join([*(col[i] for col in text.values()), *map(repr, row)]) + "\n")
    return names


@pytest.mark.parametrize(
    "n, text, d, values",
    [
        # training telemetry: three role columns and 0/1 metrics
        (5000, ("timestamp", "service", "fault_type"), 60, lambda r, s: r.integers(0, 2, s)),
        # continuous training: a label column and N(0,1) columns
        (3000, ("fault_type",), 20, lambda r, s: r.standard_normal(s)),
        # incident windows of 200 and 20 rows
        (200, ("timestamp", "service"), 80, lambda r, s: r.standard_normal(s)),
        (20, ("timestamp", "service"), 120, lambda r, s: r.standard_normal(s)),
    ],
)
def test_benchmark_shaped_tables_take_the_grid_path(tmp_path, n, text, d, values):
    rng = np.random.default_rng(n)
    columns = {
        "timestamp": [f"2024-01-01T00:{i // 60 % 60:02d}:{i % 60:02d}" for i in range(n)],
        "service": [f"svc{k:02d}" for k in rng.integers(0, 5, n).tolist()],
        "fault_type": ["normal" if k else "fault_0" for k in rng.integers(0, 20, n).tolist()],
    }
    path = tmp_path / "shaped.csv"
    names = _shaped_csv(path, rng, n, {k: columns[k] for k in text}, d, values)
    numeric = set(names).__contains__
    table = assert_same_as_oracle(path, numeric)
    assert took_grid_path(path, numeric)
    assert all(isinstance(table[k], list) for k in text)


# -- threshold edges of fit, on both readers' arrays --------------------------------


def fitted_thresholds(path: Path, name: str):
    """fit's thresholds for column `name` from each reader, and their warnings."""
    results = []
    for read in (lambda p: read_csv_columns(p, {name}.__contains__), oracle_read_csv_columns):
        table = read(path)
        table[name] = numeric_column(table[name], name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit(table, [FeatureSpec(name, NUMERIC, 10)])
        results.append((model.columns[0].thresholds, [str(w.message) for w in caught]))
    assert results[0] == results[1]
    return results[0]


def column_csv(tmp: str, cells: list[str]) -> Path:
    return write_bytes(tmp, ("x,label\n" + "".join(f"{c},r\n" for c in cells)).encode())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["0", "1", "1", "1", "2.5", "2.5", "7", "-3", "nan"]),
                min_size=1, max_size=60))
def test_fit_thresholds_at_tied_quantiles(cells):
    with tempfile.TemporaryDirectory() as tmp:
        thresholds, caught = fitted_thresholds(column_csv(tmp, cells), "x")
    finite = [float(c) for c in cells if c != "nan"]
    if not finite:
        assert thresholds == () and len(caught) == 1
        return
    assert caught == []
    assert list(thresholds) == sorted(set(thresholds))
    assert all(t < max(finite) for t in thresholds)
    for t in thresholds:  # both predicates of every kept threshold cover a row
        assert any(v <= t for v in finite) and any(v > t for v in finite)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "", " "]),
                min_size=1, max_size=20))
def test_fit_all_missing_column_warns_and_yields_no_features(cells):
    with tempfile.TemporaryDirectory() as tmp:
        thresholds, caught = fitted_thresholds(column_csv(tmp, cells), "x")
    assert thresholds == ()
    assert caught == ["column 'x' has no finite values; emitting no features"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["0", "3.25", "-1e300", "42"]),
       st.lists(st.sampled_from(["v", "v", "v", "nan", "inf"]), min_size=1, max_size=30))
def test_fit_single_valued_column_yields_no_features(value, pattern):
    cells = [value if c == "v" else c for c in pattern]
    with tempfile.TemporaryDirectory() as tmp:
        thresholds, caught = fitted_thresholds(column_csv(tmp, cells), "x")
    assert thresholds == ()
    assert caught == ([] if value in cells else
                      ["column 'x' has no finite values; emitting no features"])
