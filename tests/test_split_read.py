"""A grid of more than _CHUNK_ROWS data rows read while a CPU is free is
read in two processes: a forked child reads the rows from a chunk boundary
near the middle on, and the parent takes its table as the last chunk.

The tests here make _CHUNK_ROWS small so that small tables split, and
patch os.sched_getaffinity to choose the usable CPUs: one CPU gives the
one-process read that the split read must equal.
"""

import io
import os
import tempfile
import time
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleloc import csvgrid, forking
from ruleloc.binarize import InvalidValueError
from ruleloc.cli import CliError, read_csv_columns


def outcome(read, *args):
    """("table", table) as read gives it, or ("error", type, category, message)."""
    try:
        return "table", read(*args)
    except (CliError, ValueError) as exc:
        return "error", type(exc), getattr(exc, "category", None), str(exc)


def read_with(cpus: set, read, *args) -> tuple:
    """(outcome of read(*args) with the usable CPUs cpus, number of forks)."""
    forks, fork = [], os.fork
    with mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True), \
            mock.patch.object(os, "fork", lambda: forks.append(1) or fork()):
        return outcome(read, *args), len(forks)


def read_file(path: Path, numeric) -> dict:
    with open(path, "rb") as fh:
        return csvgrid.read_grid(fh, numeric)


def read_buffer(data: bytes, numeric) -> dict:
    return csvgrid.read_grid(io.BytesIO(data), numeric)


def assert_same_outcome(got: tuple, want: tuple) -> None:
    """Equal errors, or tables equal in names, dtypes, bytes and cells, whose
    text columns hold one string object per distinct value."""
    assert got[0] == want[0]
    if got[0] == "error" or want[1] is None:
        assert got == want
        return
    got, want = got[1], want[1]
    assert list(got) == list(want)
    for name, column in want.items():
        if isinstance(column, np.ndarray):
            assert got[name].dtype == column.dtype
            assert got[name].flags.c_contiguous
            assert got[name].tobytes() == column.tobytes()
        else:
            assert got[name] == column
            assert len({id(cell) for cell in got[name]}) == len(set(got[name]))


def no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert forking._live == 0


# Mostly bytes, so that most tables keep uint8 columns until a part breaks them.
NUMBER_CELLS = ["0", "1", "7", "255"] * 6 + ["256", "300", "", "1.5", "-0", "1e2", "+1", " 4 ",
                                              "nan", "1_0", "abc"]
TEXT_CELLS = ["svc0", "svc1", "normal", "f1", "", "a b"]


@st.composite
def grids(draw):
    """(CSV bytes of a plain comma grid, perhaps with ragged lines; the
    names read as numbers; the number of data rows)."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "s", "t"]), min_size=1, max_size=4,
                          unique=True))
    numeric = set(draw(st.lists(st.sampled_from(names), unique=True)))
    n = draw(st.integers(1, 18))
    lines = [",".join(names)]
    for _ in range(n):
        row = [draw(st.sampled_from(NUMBER_CELLS if name in numeric else TEXT_CELLS))
               for name in names]
        ragged = draw(st.integers(0, 39))
        if ragged == 0:
            row.append("9")
        elif ragged == 1 and len(row) > 1:
            row.pop()
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode(), numeric, n


@settings(max_examples=150, deadline=None)
@given(grids())
@example((b"a,s\n1,x\n2,y\n3,x\n4,y\n5,x\n300,y\n", {"a"}, 6))
@example((b"a,s\n300,x\n2,y\n3,x\n4,y\n5,x\n6,z\n", {"a"}, 6))
@example((b"a,s\n1,x\n2,y\n3,x\n4,y\n,x\n-0,y\n", {"a"}, 6))
@example((b"a,s\n1,x\n2,y\n3,x\n4,y\n5,x\n1.5,y\n", {"a"}, 6))
@example((b"a,s\n1,x\n2,y\n3,x\n4,y\n5,x\nabc,y\n", {"a"}, 6))
@example((b"a,s\n1,x\n2,y\n3,x\n4,y\n5,x\n6\n", {"a"}, 6))
@example((b"a,s\nabc,x\n2,y\n3,x\n4,y\n5,x\n6\n", {"a"}, 6))
@example((b"a,s\n1,x\n2\n3,x\n4,y\n5,x\nabc,y\n", {"a"}, 6))
def test_the_split_read_is_the_one_process_read(grid):
    """Values above 255, blanks, fractions, -0, cells no parser reads and
    ragged lines, in either part: the same table or the same error, from a
    file or from memory, and through read_csv_columns."""
    data, numeric_names, n = grid
    numeric = numeric_names.__contains__
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvgrid, "_CHUNK_ROWS", 4):
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        one, forks = read_with({0}, read_file, path, numeric)
        assert forks == 0
        for read, source in ((read_file, path), (read_buffer, data)):
            two, forks = read_with({0, 1}, read, source, numeric)
            assert forks == (n > 4)
            assert_same_outcome(two, one)
        cells_one, _ = read_with({0}, read_csv_columns, path, numeric)
        cells_two, _ = read_with({0, 1}, read_csv_columns, path, numeric)
        assert_same_outcome(cells_two, cells_one)
    no_child_left()


# -- failure paths ------------------------------------------------------------------


def grid_file(tmp_path: Path, replace: Optional[dict] = None) -> Path:
    """A grid of 12 rows of a byte column, a text column and a float
    column; replace maps a row index to the text of its line."""
    lines = [f"{i % 200},svc{i % 3},{i / 8}" for i in range(12)]
    for i, line in (replace or {}).items():
        lines[i] = line
    path = tmp_path / "grid.csv"
    path.write_text("a,s,x\n" + "\n".join(lines) + "\n")
    return path


NUMERIC = {"a", "x"}.__contains__


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", 4)


def _refuse():
    raise RuntimeError("does not unpickle")


class Unloadable:
    """Pickles, but unpickling it raises."""

    def __reduce__(self):
        return _refuse, ()


class Unpicklable:
    def __reduce__(self):
        raise TypeError("does not pickle")


@pytest.mark.parametrize("sent", ["nothing", "short", "unloadable"])
def test_an_outcome_that_does_not_come_back_is_computed_by_the_caller(sent):
    """A child that exits before sending, one whose outcome fails to pickle
    half-way (a short stream) and one whose outcome does not unpickle all
    leave the call to the caller."""
    parent = os.getpid()

    def work():
        if os.getpid() == parent:
            return "inline"
        if sent == "nothing":
            os._exit(0)
        return [b"x" * 200_000, Unpicklable()] if sent == "short" else Unloadable()

    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        with forking.forked(work) as result:
            assert forking._live == 1
            assert result() == "inline"
    no_child_left()


@pytest.mark.parametrize(
    "cpus, live, free",
    [(1, 0, False), (2, 0, True), (2, 1, True), (2, 2, False), (3, 2, True), (3, 3, False)],
)
def test_a_cpu_is_free_on_two_cpus_or_more_while_fewer_children_than_cpus_live(
    monkeypatch, cpus, live, free
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(forking, "_live", live)
    assert forking.cpu_free() is free


def test_no_cpu_is_free_beside_a_python_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(forking.threading, "active_count", lambda: 2)
    assert not forking.cpu_free()


@pytest.mark.parametrize("sent", ["nothing", "unloadable"])
def test_a_part_that_does_not_come_back_is_read_by_the_parent(
    tmp_path, monkeypatch, small_chunks, sent
):
    path = grid_file(tmp_path, replace={9: "300,svc0,"})
    want, _ = read_with({0}, read_file, path, NUMERIC)
    parent, rows, inline = os.getpid(), csvgrid._rows, []

    def child_rows(*args):
        if os.getpid() == parent:
            inline.append(1)
            return rows(*args)
        if sent == "nothing":
            os._exit(0)
        return Unloadable()

    monkeypatch.setattr(csvgrid, "_rows", child_rows)
    got, forks = read_with({0, 1}, read_file, path, NUMERIC)
    assert (forks, inline) == (1, [1])
    assert_same_outcome(got, want)
    assert got[1]["a"].dtype == np.float64
    no_child_left()


@pytest.mark.parametrize("line", ["1x,svc0,0.5", "1,svc0,0.5,7", "1,svc0"])
def test_an_error_in_the_parent_s_part_kills_the_child(tmp_path, monkeypatch, small_chunks, line):
    """A bad cell or a ragged line in the first rows sends the file to the
    cell reader, which names it (or pads a short row), at once: the child,
    which would take a minute, is killed."""
    path = grid_file(tmp_path, replace={1: line})
    want, _ = read_with({0}, read_csv_columns, path, NUMERIC)
    parent, rows = os.getpid(), csvgrid._rows

    def slow_rows(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return rows(*args)

    monkeypatch.setattr(csvgrid, "_rows", slow_rows)
    started = time.monotonic()
    got, forks = read_with({0, 1}, read_csv_columns, path, NUMERIC)
    assert time.monotonic() - started < 30
    assert forks == 1
    assert_same_outcome(got, want)
    if line != "1,svc0":
        assert got[0] == "error" and got[2] == "invalid-data"
    no_child_left()


def test_a_file_that_grows_after_counting_is_no_grid(tmp_path, monkeypatch, small_chunks):
    path = grid_file(tmp_path)
    assert read_with({0, 1}, read_file, path, NUMERIC)[0][1] is not None
    parent, table, grown = os.getpid(), csvgrid._table, []

    def grow_then_table(*args):
        if os.getpid() == parent and not grown:
            with open(path, "a") as fh:
                fh.write("1,svc0,0.5\n")
            grown.append(1)
        return table(*args)

    monkeypatch.setattr(csvgrid, "_table", grow_then_table)
    assert read_with({0, 1}, read_file, path, NUMERIC) == (("table", None), 1)
    assert grown == [1]
    no_child_left()


@pytest.mark.parametrize("end", ["table", "error", "interrupt"])
def test_the_child_is_reaped(tmp_path, monkeypatch, small_chunks, end):
    """On success the parent takes the child's part and never reads it; an
    error in the child's part (a cell no parser reads) comes back as the
    child's ValueError; an interrupt in the parent kills the child."""
    path = grid_file(tmp_path, replace={10: "abc,svc0,0.5"} if end == "error" else {})
    parent, rows, inline = os.getpid(), csvgrid._rows, []

    def spied_rows(*args):
        if os.getpid() == parent:
            inline.append(1)
        return rows(*args)

    monkeypatch.setattr(csvgrid, "_rows", spied_rows)
    if end == "interrupt":
        lines_ok, checks = csvgrid._lines_ok, []

        def interrupted(data):
            if os.getpid() == parent:
                checks.append(1)
                if len(checks) == 2:  # the first chunk, after the header
                    raise KeyboardInterrupt
            return lines_ok(data)

        monkeypatch.setattr(csvgrid, "_lines_ok", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_with({0, 1}, read_file, path, NUMERIC)
    else:
        got, forks = read_with({0, 1}, read_file, path, NUMERIC)
        assert forks == 1
        if end == "error":
            assert got[:2] == ("error", InvalidValueError)
        else:
            assert got[1]["a"].tolist() == [i % 200 for i in range(12)]
    assert inline == []
    no_child_left()
