"""eval's grouped window read against reading each window by itself.

csvgrid.grid_groups reads runs of small plain comma grids that share a
header line as one table, and cmd_eval binarizes each such table with one
feature_matrix call.  Every other window, and every window of a run that
holds a ragged line or a bad numeric cell or fails feature_matrix, goes
through read_csv_columns and the window path of localize, one file at a
time.  A run's table must be the table read_csv_columns gives the file
of its header line and all its data rows, in values and dtypes, and each
window's rows must hold the float64 values of that window's own table;
eval's output, metrics bytes included, and its first error (category,
message and the window it names) must be those of eval with every window
read by itself.
"""

import codecs
import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruleloc import cli, csvgrid
from ruleloc.binarize import CATEGORICAL, FeatureSpec, fit, transform
from ruleloc.cli import main, read_csv_columns
from ruleloc.core import Rule, RuleSet
from ruleloc.localize import FaultModel
from ruleloc.select import annotate_rule_set


def _model() -> FaultModel:
    """Two fault types over a uint8-like column a, a float column b and a
    categorical column c, with rules that fire on some windows and not on
    others."""
    rng = np.random.default_rng(3)
    n = 400
    table = {
        "a": rng.integers(0, 256, n).tolist(),
        "b": np.round(rng.normal(0, 2, n), 2).tolist(),
        "c": rng.choice(["x", "y", "z"], n).tolist(),
    }
    binarization = fit(
        table, [FeatureSpec("a", bins=4), FeatureSpec("b", bins=3), FeatureSpec("c", CATEGORICAL)]
    )
    catalog = list(enumerate(binarization.catalog))
    a_high = max(j for j, f in catalog if f.column == "a" and f.op == ">")
    b_low = min(j for j, f in catalog if f.column == "b" and f.op == "<=")
    c_x = next(j for j, f in catalog if f.category == "x")
    labels = [
        1 if a > 190 else 2 if (b < -1 and c == "x") else 0
        for a, b, c in zip(table["a"], table["b"], table["c"])
    ]
    rule_sets = []
    for t, rules in ((1, [(a_high,)]), (2, [tuple(sorted((b_low, c_x))), (a_high, c_x)])):
        dataset = transform(binarization, table, [int(y == t) for y in labels])
        rule_sets.append((f"f{t}", annotate_rule_set(dataset, RuleSet(tuple(map(Rule, rules))))))
    return FaultModel(tuple(rule_sets), binarization, 2, 2, 1.0)


MODEL = _model()
SERVICE = "service"
HEADERS = (
    ["service,a,b,c"] * 12
    + ["c,b,a,service", "ts,service,a,b,c", "service,a,b,c,ts"] * 2
    + ["service,a,c", "a,b,c"]
)
CELLS = {
    "a": ["0", "7", "200", "255", "31", "191"],
    "b": ["0.5", "-2.25", "3", "-1.5", "1e1", "nan"],
    "c": ["x", "y", "z", "w"],
    "service": ["s0", "s1", "s2"],
    "ts": ["2024-01-01T00:00:00", "t1"],
}
# Edits of a window file, each the name of one edge of the reader.
EDITS = ["bom", "no-final-newline", "header-only", "ragged", "blank-cell", "blank-line",
         "above-255", "fraction", "float-first", "crlf", "quoted", "missing", "big", "repeat"]


@st.composite
def windows(draw):
    """(file bytes, or None for a missing file; whether the case names the
    previous case's file again; true fault; true service)."""
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    edits = set(draw(st.lists(st.sampled_from(EDITS), max_size=2)))
    n = 0 if "header-only" in edits else draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(CELLS[name])) for name in names] for _ in range(n)]
    if "big" in edits and rows:
        # A run's bound: two 1,024-row windows fill it, a 2,049-row one is read alone.
        size = draw(st.sampled_from([1024, 2048, 2049]))
        rows = [list(rows[i % len(rows)]) for i in range(size)]
    at = draw(st.integers(0, max(len(rows) - 1, 0)))
    a = names.index("a") if "a" in names else None
    if rows and a is not None:
        if "float-first" in edits:
            rows[0][a] = "2.0"
        if "above-255" in edits:
            rows[at][a] = "300"
        if "fraction" in edits:
            rows[at][a] = "1.5"
        if "blank-cell" in edits:
            rows[at][a] = ""
    lines = [header] + [",".join(row) for row in rows]
    if rows and "ragged" in edits:  # one field too many, or one too few
        line = lines[1 + at]
        lines[1 + at] = draw(st.sampled_from([line + ",9", line.rsplit(",", 1)[0]]))
    if rows and "quoted" in edits and "service" in names:
        lines[1 + at] = ",".join(
            f'"{cell}"' if name == "service" else cell for name, cell in zip(names, rows[at])
        )
    if "blank-line" in edits:
        lines.insert(1 + at, "")
    ending = "\r\n" if "crlf" in edits else "\n"
    text = ending.join(lines) + ("" if "no-final-newline" in edits else ending)
    data = text.encode()
    if "bom" in edits:
        data = b"\xef\xbb\xbf" + data
    fault = draw(st.sampled_from(["f1", "f2", "normal"]))
    service = draw(st.sampled_from(CELLS["service"]))
    return (None if "missing" in edits else data), "repeat" in edits, fault, service


@st.composite
def manifests(draw):
    return draw(st.lists(windows(), min_size=1, max_size=8))


def _write(tmp: Path, drawn) -> tuple[Path, list[Path]]:
    """The manifest of the drawn windows, and each case's window path; a
    repeated window names the previous case's file again."""
    cases, paths = [], []
    for k, (data, repeat, fault, service) in enumerate(drawn):
        if repeat and paths:
            path = paths[-1]
        else:
            path = tmp / f"w{k}.csv"
            if data is not None:
                path.write_bytes(data)
        paths.append(path)
        cases.append({"window": path.name, "true_fault": fault, "true_service": service})
    manifest = tmp / "cases.json"
    manifest.write_text(json.dumps({"schema_version": 1, "cases": cases}))
    return manifest, paths


def _eval(model: Path, manifest: Path, out: Path) -> tuple[int, str, str, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", "--model", str(model), "--manifest", str(manifest), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else b""


def _one_at_a_time(paths, numeric):
    """grid_groups with every path a run of one that is read by itself."""
    return (([path], None, None) for path in paths)


def _assert_same_table(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, column in want.items():
        if isinstance(column, np.ndarray):
            assert isinstance(got[name], np.ndarray), name
            assert got[name].dtype == column.dtype, name
            assert got[name].tobytes() == column.tobytes(), name
        else:
            assert got[name] == column, name


def _assert_same_values(got: dict, want: dict) -> None:
    """Same names and cells, numeric columns as float64 values bit for bit."""
    assert list(got) == list(want)
    for name, column in want.items():
        if isinstance(column, np.ndarray):
            assert np.asarray(got[name], float).tobytes() == column.astype(float).tobytes(), name
        else:
            assert got[name] == column, name


def _joined(paths: list[Path]) -> bytes:
    """The file of the first path's header line and every path's data rows."""
    rows = []
    for path in paths:
        header, *lines = path.read_bytes().removeprefix(codecs.BOM_UTF8).splitlines()
        rows += lines
    return b"\n".join([header, *rows]) + b"\n"


def _grid(rows: int, service: str = "s0", a: str = "200") -> bytes:
    return ("service,a,b,c\n" + f"{service},{a},0.5,x\n" * rows).encode()


def _windows(tmp: Path, files: list[bytes]) -> tuple[Path, Path, list[Path]]:
    """The model file, and the manifest of windows w0, w1, ... holding files
    with their paths, written to tmp."""
    model = tmp / "model.json"
    model.write_text(MODEL.to_json())
    paths = [tmp / f"w{k}.csv" for k in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    cases = [{"window": p.name, "true_fault": "f1", "true_service": "s0"} for p in paths]
    manifest = tmp / "cases.json"
    manifest.write_text(json.dumps({"cases": cases}))
    return model, manifest, paths


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(manifests())
# Two 1,024-row windows fill a run; the third starts the next.
@example([(_grid(1024), False, "f1", "s0"), (_grid(1024, "s1"), False, "f1", "s1"),
          (_grid(3, a="191"), False, "f2", "s0")])
# A value above 255, a blank cell and 1.5 in a run's later windows: one table, a float64.
@example([(_grid(2), False, "f1", "s0"), (_grid(2, a="300"), False, "f1", "s0"),
          (_grid(2), True, "f1", "s0"), (_grid(1) + b"s1,,0.5,x\n", False, "f2", "s1"),
          (_grid(1) + b"s0,1.5,0.5,x\n", False, "f1", "s0")])
# x in a numeric column, or a ragged line, in a run's second window: read file by file.
@example([(_grid(2), False, "f1", "s0"), (_grid(2, a="x"), False, "f1", "s0")])
@example([(_grid(2), False, "f1", "s0"), (_grid(1) + b"s0,1,0.5,x,9\n", False, "f1", "s0")])
# A missing file, then a header-only one, between grids: the first error names the first.
@example([(_grid(2), False, "f1", "s0"), (None, False, "f1", "s0"),
          (_grid(0), False, "f1", "s0"), (_grid(2), False, "f1", "s0")])
def test_grouped_eval_equals_eval_one_window_at_a_time(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "model.json"
        model.write_text(MODEL.to_json())
        manifest, paths = _write(tmp, drawn)

        numeric = cli._window_numeric(MODEL, SERVICE)
        for run, table, bounds in csvgrid.grid_groups(paths, numeric):
            if table is None:
                continue
            assert bounds[0] == 0 and bounds[-1] <= csvgrid._CHUNK_ROWS
            joined = tmp / "joined.csv"
            joined.write_bytes(_joined(run))
            _assert_same_table(table, read_csv_columns(joined, numeric))
            for path, lo, hi in zip(run, bounds, bounds[1:]):
                window = {name: column[lo:hi] for name, column in table.items()}
                _assert_same_values(window, read_csv_columns(path, numeric))

        grouped = _eval(model, manifest, tmp / "grouped.json")
        with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
            alone = _eval(model, manifest, tmp / "alone.json")
        assert grouped == alone


def test_runs_share_a_header_and_hold_at_most_one_chunk_of_rows(tmp_path):
    files = {
        "w0": _grid(1000),
        "w1": _grid(1000),
        "w2": _grid(100),  # would take the run past 2,048 rows
        "w3": _grid(3, a="2.0"),  # another field type for a
        "w4": b"service,a,b,c\r\ns0,1,0.5,x\r\n",  # CRLF: read by itself
        "w5": _grid(2),
        "w6": ("c,b,a,service\n" + "x,0.5,1,s0\n").encode(),
    }
    paths = []
    for name, data in files.items():
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(data)
    numeric = cli._window_numeric(MODEL, SERVICE)
    runs = [
        ([p.stem for p in run], bounds)
        for run, _, bounds in csvgrid.grid_groups(paths + [tmp_path / "gone.csv"], numeric)
    ]
    assert runs == [
        (["w0", "w1"], [0, 1000, 2000]),
        (["w2"], [0, 100]),
        (["w3"], [0, 3]),
        (["w4"], None),
        (["w5"], [0, 2]),
        (["w6"], [0, 1]),
        (["gone"], None),
    ]


@pytest.mark.parametrize("cell", ["300", "", "1.5"], ids=["above-255", "blank", "fraction"])
def test_a_run_whose_later_window_holds_a_wide_blank_or_fractional_cell_is_one_table(
    tmp_path, cell
):
    later = _grid(1) + f"s0,{cell},0.5,x\n".encode()  # the first row's field types, then cell
    model, manifest, paths = _windows(tmp_path, [_grid(2), later])
    numeric = cli._window_numeric(MODEL, SERVICE)
    ((run, table, bounds),) = csvgrid.grid_groups(paths, numeric)
    assert run == paths and bounds == [0, 2, 4] and table["a"].dtype == np.float64
    with mock.patch("ruleloc.cli.feature_matrix", wraps=cli.feature_matrix) as spy, mock.patch(
        "ruleloc.cli.read_csv_columns", wraps=cli.read_csv_columns
    ) as reads:
        grouped = _eval(model, manifest, tmp_path / "grouped.json")
    assert spy.call_count == 1 and reads.call_count == 0
    with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
        assert _eval(model, manifest, tmp_path / "alone.json") == grouped


@pytest.mark.parametrize(
    "line, error",
    [
        (b"s0,x,0.5,x", "w1.csv: column 'a', row 2: could not convert string to float: 'x'"),
        (b"s0,1,0.5,x,9", "w1.csv: line 3: 5 fields, header has 4"),
    ],
    ids=["bad-cell", "ragged-line"],
)
def test_a_run_holding_a_bad_cell_or_a_ragged_line_is_read_file_by_file(tmp_path, line, error):
    model, manifest, paths = _windows(tmp_path, [_grid(2), _grid(1) + line + b"\n"])
    numeric = cli._window_numeric(MODEL, SERVICE)
    assert [(run, table) for run, table, _ in csvgrid.grid_groups(paths, numeric)] == [
        (paths, None)
    ]
    grouped = _eval(model, manifest, tmp_path / "grouped.json")
    with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
        alone = _eval(model, manifest, tmp_path / "alone.json")
    assert grouped == alone
    assert grouped[0] == cli.EXIT_INVALID_DATA and error in grouped[2]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(windows())
def test_a_run_of_one_small_grid_is_read_grid_s_table(drawn):
    data = drawn[0]
    numeric = cli._window_numeric(MODEL, SERVICE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        want = None
        if data is not None:
            path.write_bytes(data)
            rows = len(data.splitlines()) - 1
            small = len(data) <= csvgrid._BLOCK and rows <= csvgrid._CHUNK_ROWS
            with open(path, "rb") as fh, contextlib.suppress(ValueError):
                want = csvgrid.read_grid(fh, numeric) if small else None
        ((run, table, bounds),) = csvgrid.grid_groups([path], numeric)
    assert run == [path]
    if want is None:
        assert table is None and bounds is None
    else:
        _assert_same_table(table, want)
        assert bounds == [0, len(next(iter(want.values())))]


@pytest.mark.parametrize("fifo", [False, True])
def test_grouped_reads_open_no_fifo(tmp_path, fifo):
    path = tmp_path / "w.csv"
    if fifo:
        os.mkfifo(path)  # opening it to read would block until a writer came
    else:
        path.write_bytes(_grid(1))
    (run, table, _), = csvgrid.grid_groups([path], lambda name: False)
    assert run == [path] and (table is None) == fifo


def test_eval_binarizes_each_run_with_one_feature_matrix_call(tmp_path):
    files = [_grid(3, service=f"s{k % 2}", a=str(40 * k)) for k in range(6)]
    model, manifest, _ = _windows(tmp_path, files)
    with mock.patch("ruleloc.cli.feature_matrix", wraps=cli.feature_matrix) as spy, mock.patch(
        "ruleloc.cli.read_csv_columns", wraps=cli.read_csv_columns
    ) as reads:
        grouped = _eval(model, manifest, tmp_path / "grouped.json")
    assert spy.call_count == 1 and reads.call_count == 0
    assert grouped[0] == 0
    with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
        assert _eval(model, manifest, tmp_path / "alone.json") == grouped


def test_a_line_over_the_field_size_limit_is_read_by_itself(tmp_path):
    wide = ("ts,service,a,b,c\n" + "t" * 80 + ",s0,1,0.5,x\n").encode()
    model, manifest, _ = _windows(tmp_path, [_grid(2), wide])
    limit = csv.field_size_limit(64)
    try:
        grouped = _eval(model, manifest, tmp_path / "grouped.json")
        with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
            alone = _eval(model, manifest, tmp_path / "alone.json")
    finally:
        csv.field_size_limit(limit)
    assert grouped[0] == 5 and "line 2: field larger than field limit" in grouped[2]
    assert grouped == alone


@pytest.mark.parametrize("kind", ["over-64-KiB", "repeated-name"])
def test_a_window_small_grid_turns_away_is_read_by_itself_between_grids(tmp_path, kind):
    if kind == "over-64-KiB":  # 1,500 rows, under a run's bound, in more than one block
        odd = ("ts,service,a,b,c\n" + ("t" * 40 + ",s1,191,0.5,x\n") * 1500).encode()
        assert len(odd) > csvgrid._BLOCK
    else:
        odd = b"service,a,b,c,a\ns0,200,0.5,x,3\n"
    model, manifest, paths = _windows(tmp_path, [_grid(2), odd, _grid(2)])
    numeric = cli._window_numeric(MODEL, SERVICE)
    runs = [(run, table is None) for run, table, _ in csvgrid.grid_groups(paths, numeric)]
    assert runs == [([paths[0]], False), ([paths[1]], True), ([paths[2]], False)]
    grouped = _eval(model, manifest, tmp_path / "grouped.json")
    with mock.patch("ruleloc.cli.grid_groups", _one_at_a_time):
        alone = _eval(model, manifest, tmp_path / "alone.json")
    assert grouped == alone
    if kind == "over-64-KiB":
        assert grouped[0] == 0 and grouped[3]
    else:
        assert grouped[0] == cli.EXIT_SCHEMA
        assert grouped[2] == f"schema-error: {paths[1]}: duplicate column 'a'\n"
