"""Command-line front end.

Subcommands: train, localize, eval, export-fingerprints, parse-logs.
Inputs are RFC-4180 CSV files with a header row; every JSON output
carries schema_version and tool_version.  Errors print one
machine-parseable "category: message" line on stderr and exit non-zero;
localize exits 0 when any rule fired and 3 on a no-signal window.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import asdict
from functools import cache, partial
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.binarize import (
    CATEGORICAL,
    DEFAULT_BINS,
    NUMERIC,
    FeatureSpec,
    InvalidValueError,
    SchemaError,
    check_bins,
    feature_matrix,
    fit,
    numeric_column,
    relabel,
    transform,
)
from ruleloc.core import RuleSet
from ruleloc.csvgrid import grid_groups, read_grid
from ruleloc.evaluate import IncidentCase, evaluate_cases
from ruleloc.forking import forked
from ruleloc.localize import FaultModel, QueryWindow, localization_report
from ruleloc.logfeatures import (
    DEFAULT_SIMILARITY,
    LogFeatureFrame,
    TemplateBase,
    build_template_base,
    check_interval,
    check_similarity,
    match_and_aggregate,
    parse_timestamp,
)
from ruleloc.select import SelectionConfig, SelectionTraceRecord, select_rule_set

EXIT_OK = 0
EXIT_NO_SIGNAL = 3
EXIT_SCHEMA = 4
EXIT_INVALID_DATA = 5
EXIT_IO = 6

DEFAULTS = {
    "fault_type": "fault_type",
    "service": "service",
    "timestamp": "timestamp",
    "normal_label": "normal",
    "K": SelectionConfig.max_rules,
    "l": SelectionConfig.max_len,
    "bins": DEFAULT_BINS,
    "gamma": SelectionConfig.gamma,
    "interval": 60.0,
    "similarity": DEFAULT_SIMILARITY,
}


EXIT_CODES = {
    "schema-error": EXIT_SCHEMA,
    "invalid-data": EXIT_INVALID_DATA,
    "io-error": EXIT_IO,
}


class CliError(Exception):
    """An error that main prints as "category: message", exiting with
    EXIT_CODES[category]."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category

    def __reduce__(self):
        return CliError, (self.category, *self.args)


def read_csv_columns(
    path: str | Path, numeric: Callable[[str], bool] = lambda name: False, digest=None
) -> dict[str, Sequence]:
    """Read an RFC-4180 CSV with header into a column-oriented table.

    A row with fewer fields than the header is padded with "" (a missing
    value); a row with more fields, or a blank line, is invalid data,
    reported with its 1-based line number.  A header naming a column twice
    is a schema error.  The file is UTF-8, with or without a byte-order
    mark; any other bytes are invalid data naming the file.

    The columns that `numeric` accepts by name are C-contiguous arrays of
    the float64 values binarize.numeric_column parses from their cells: a
    uint8 array for a column that the grid reader holds as bytes, one
    whose first cell is all ASCII digits and whose every value is an
    integer from 0 to 255 without a sign bit (see ruleloc.csvgrid), a
    float64 array for any other; a cell that does not parse is invalid
    data naming its column and row, reported after every other error of
    the file.  The other columns are lists of cell strings, one string
    object per distinct value.  path is opened once; an input that cannot
    seek (a pipe) is read once into memory, then read like a file, and
    `digest` (a hashlib object) is fed every byte.  A plain comma grid
    (see ruleloc.csvgrid) is parsed in C, the second half of its rows by a
    forked child when it has more than 2,048 and a CPU is free (see
    ruleloc.forking), with the same table; any other file, and a grid with
    a cell loadtxt and numeric_column both reject, is read cell by cell
    from the same handle, with the same values and errors.  A line the
    csv module rejects (a field over its size limit; a NUL byte
    before Python 3.11) is invalid data naming the line.
    """
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                fh = io.BytesIO(fh.read())
            try:
                table = read_grid(fh, numeric, digest)
            except ValueError:  # a numeric cell that does not parse
                table = None
            if table is None:
                fh.seek(0)
                table = _read_csv_cells(fh, path, numeric)
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    return table


def _read_csv_cells(
    fh: BinaryIO, path: str | Path, numeric: Callable[[str], bool]
) -> dict[str, Sequence]:
    """read_csv_columns cell by cell from fh: the columns `numeric` rejects are
    interned as their cells are read, and the others parsed once it is read."""
    with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
            if header is None:
                raise CliError("invalid-data", f"{path}: empty CSV")
            columns: dict[str, Sequence] = {}
            for name in header:
                if name in columns:
                    raise CliError("schema-error", f"{path}: duplicate column {name!r}")
                columns[name] = []
            appends = [
                columns[name].append if numeric(name) else _interning_append(columns[name])
                for name in header
            ]
            for row in reader:
                if not row or len(row) > len(header):
                    found = f"{len(row)} fields, header has {len(header)}" if row else "blank line"
                    raise CliError("invalid-data", f"{path}: line {reader.line_num}: {found}")
                for append, value in zip(appends, row):
                    append(value)
                for append in appends[len(row) :]:
                    append("")
            del appends  # its bound methods would keep each cell list alive
        except UnicodeDecodeError as exc:
            fh.seek(0)
            raise _decode_error(path, fh.read(), exc)
        except csv.Error as exc:  # a field over the size limit; a NUL byte before 3.11
            raise CliError("invalid-data", f"{path}: line {reader.line_num}: {exc}")
    try:
        for name, cells in columns.items():
            if numeric(name):
                columns[name] = numeric_column(cells, name)
    except InvalidValueError as exc:
        raise CliError("invalid-data", f"{path}: {exc}")
    return columns


def _decode_error(path: str | Path, data: bytes, exc: UnicodeDecodeError) -> CliError:
    """invalid-data naming path and the position in data, its whole
    contents, of the first byte that is not UTF-8.  A text stream counts
    positions from its decode block; the decoding of the whole file counts
    them from its start, after any byte-order mark."""
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as whole:
        exc = whole
    return CliError("invalid-data", f"{path}: {exc}")


def _interning_append(column: list[str]) -> Callable[[str], None]:
    """column.append of the first string equal to each value it is given."""
    append, intern = column.append, {}.setdefault
    return lambda value: append(intern(value, value))


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, or not UTF-8
        raise CliError("invalid-data", f"{path}: bad JSON config: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("invalid-data", f"{path}: config must be a JSON object")
    if cfg.get("schema_version") not in (None, SCHEMA_VERSION):
        raise CliError("schema-error", f"{path}: unsupported config schema version")
    return cfg


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {json.dumps(value)}")
    return value


def _texts(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, got {json.dumps(value)}")
    return value


def _config_value(args, cfg: dict, path: str, kind):
    """The config value at dotted path converted by kind, None if absent.

    A value that kind rejects, null included, is invalid data naming the
    config file and the path; for int and float so is a boolean, and for
    int a number with a fraction.
    """
    *sections, key = path.split(".")
    for section in sections:
        cfg = cfg.get(section, {})
        if not isinstance(cfg, dict):
            raise CliError("invalid-data", f"{args.config}: {section}: must be a JSON object")
    if key not in cfg:
        return None
    value = cfg[key]
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise ValueError(f"expected a number, got {json.dumps(value)}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected a whole number, got {json.dumps(value)}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise CliError("invalid-data", f"{args.config}: {path}: {exc}")


def _setting(args, cfg: dict, path: str, kind, arg_name: Optional[str] = None):
    """Flag wins over config file wins over built-in default."""
    key = path.rsplit(".", 1)[-1]
    value = getattr(args, arg_name or key, None)
    if value is None:
        value = _config_value(args, cfg, path, kind)
    return DEFAULTS.get(key) if value is None else value


def _log_settings(args, cfg: dict) -> tuple[float, float, Optional[str]]:
    """The log interval and template similarity (both checked) and timestamp format settings."""
    interval = _setting(args, cfg, "logs.interval", float)
    check_interval(interval)
    sim = _setting(args, cfg, "logs.similarity", float)
    check_similarity(sim)
    return (
        interval,
        sim,
        args.timestamp_format or _config_value(args, cfg, "logs.timestamp_format", _text),
    )


def _log_lines(logs_dir: Path, stem: str) -> Iterator[str]:
    r"""Lines of every file under logs_dir whose top-level name starts with stem.

    Both layouts work: logs/normal.log and logs/normal/anything.log.  Files
    are read one at a time, in sorted order, line by line.  A line ends
    only at \n, \r\n or \r; characters that str.splitlines also breaks at,
    such as \x1c or U+2028, stay inside their line.  A final line ending
    starts no line, and a byte-order mark at the start of a file is dropped.
    """
    candidates = sorted(
        p
        for p in logs_dir.rglob("*")
        if p.is_file() and p.relative_to(logs_dir).parts[0].startswith(stem)
    )
    for path in candidates:
        with open(path, encoding="utf-8-sig") as fh:
            try:
                yield from map(str.rstrip, fh, repeat("\n"))
            except UnicodeDecodeError as exc:
                raise _decode_error(path, path.read_bytes(), exc)


def _log_frame(
    logs_dir: Path, interval: float, sim: float, timestamp_format: Optional[str]
) -> Optional[tuple[TemplateBase, LogFeatureFrame]]:
    """The template base of the normal* logs and the novelty counters of the
    online* logs, or None when no online* file holds a line."""
    if not logs_dir.is_dir():
        raise CliError("io-error", f"{logs_dir}: not a directory")
    base = build_template_base(_log_lines(logs_dir, "normal"), sim=sim)
    online = _log_lines(logs_dir, "online")
    first = next(online, None)
    if first is None:
        return None
    return base, match_and_aggregate(base, chain((first,), online), interval, timestamp_format)


def _log_counters(
    logs_dir: Path, interval: float, sim: float, timestamp_format: Optional[str]
) -> Optional[dict[float, tuple[int, int, int]]]:
    """The counters of _log_frame's frame, or None when it is None."""
    logs = _log_frame(logs_dir, interval, sim, timestamp_format)
    return None if logs is None else logs[1].counters()


LOG_COLUMNS = ("log_total", "log_unmatched", "log_distinct_new")


def _log_feature_columns(
    table: dict[str, Sequence],
    data_path: str | Path,
    timestamp_col: str,
    logs_dir: Path,
    interval: float,
    timestamp_format: Optional[str],
    log_counters: Callable[[], Optional[dict[float, tuple[int, int, int]]]],
) -> None:
    """Join the per-interval log novelty counters that log_counters returns
    (see _log_counters) onto the metric table."""
    if timestamp_col not in table:
        raise CliError(
            "schema-error",
            f"{data_path}: timestamp column {timestamp_col!r} required to join log features",
        )
    for name in LOG_COLUMNS:
        if name in table:
            raise CliError(
                "schema-error",
                f"{data_path}: column {name!r} is reserved for the --logs features",
            )
    counters = log_counters()
    if counters is None:
        warnings.warn(f"no online* log files under {logs_dir}; skipping log features")
        return
    # Many rows share a stamp: parse and look up each distinct one once, then
    # take the three columns through one index of each row's distinct stamp.
    stamps = table[timestamp_col]
    distinct = dict.fromkeys(stamps)
    joined = []
    for k, raw in enumerate(distinct):
        try:
            epoch = parse_timestamp(raw, timestamp_format)
        except ValueError:
            raise CliError(
                "invalid-data",
                f"{data_path}: column {timestamp_col!r}, row {stamps.index(raw) + 1}:"
                f" unparseable timestamp {raw!r}",
            )
        distinct[raw] = k
        joined.append(counters.get((epoch // interval) * interval, (0, 0, 0)))
    rows = np.fromiter(map(distinct.__getitem__, stamps), np.intp, len(stamps))
    columns = np.array(joined, float).reshape(-1, 3).T.copy().take(rows, axis=1)
    table.update(zip(LOG_COLUMNS, columns))


def _write_trace(fault_type: str, record: SelectionTraceRecord) -> None:
    """Write one selection record to stderr as one strict JSON line."""
    line = json.dumps({"fault_type": fault_type, **asdict(record)}, allow_nan=False)
    print(line, file=sys.stderr)


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    fault_col = _setting(args, cfg, "columns.fault_type", _text, "fault_col")
    service_col = _setting(args, cfg, "columns.service", _text, "service_col")
    timestamp_col = _setting(args, cfg, "columns.timestamp", _text, "timestamp_col")
    normal_label = _setting(args, cfg, "columns.normal_label", _text)
    categorical = set(
        args.categorical.split(",")
        if args.categorical
        else _config_value(args, cfg, "columns.categorical", _texts) or []
    )
    categorical.discard("")
    k = _setting(args, cfg, "training.K", int)
    max_len = _setting(args, cfg, "training.l", int)
    bins = _setting(args, cfg, "training.bins", int)
    gamma = _setting(args, cfg, "training.gamma", float)
    interval, sim, ts_format = _log_settings(args, cfg)
    sel = SelectionConfig(max_rules=k, gamma=gamma, max_len=max_len)
    check_bins(bins)

    started = time.perf_counter()
    logs_dir = Path(args.logs) if args.logs else None
    # The log pass shares no input with the table: it runs while the table is
    # read, beside the child reading the second half of a large grid.
    log_pass = (
        forked(_log_counters, logs_dir, interval, sim, ts_format)
        if logs_dir is not None
        else nullcontext()
    )
    with log_pass as log_counters:
        role_columns = {fault_col, service_col, timestamp_col}
        digest = hashlib.sha256()
        table = read_csv_columns(
            args.data, lambda name: name not in role_columns and name not in categorical, digest
        )
        if fault_col not in table:
            raise CliError("schema-error", f"fault-type column {fault_col!r} not in {args.data}")
        if not len(table[fault_col]):
            raise CliError("invalid-data", f"{args.data}: no data rows")
        if logs_dir is not None:
            _log_feature_columns(
                table, args.data, timestamp_col, logs_dir, interval, ts_format, log_counters
            )
    features = [name for name in table if name not in role_columns]
    if not features:
        raise CliError("schema-error", f"{args.data}: no feature columns")
    unknown = sorted(categorical.difference(features))
    if unknown:
        raise CliError(
            "schema-error",
            f"{args.data}: categorical column {unknown[0]!r} is not a feature column",
        )
    specs = [
        FeatureSpec(name, CATEGORICAL) if name in categorical else FeatureSpec(name, NUMERIC, bins)
        for name in features
    ]
    model_bin = fit(table, specs)

    fault_values = table[fault_col]
    negatives = {normal_label, ""}
    fault_types = sorted({v for v in fault_values if v not in negatives})
    declared = _config_value(args, cfg, "fault_types", _texts)
    if declared:
        for name in declared:
            if name not in fault_types:
                warnings.warn(f"fault type {name!r} has zero positive rows; skipped")
        fault_types = [t for t in fault_types if t in declared]
    if not fault_types:
        raise CliError(
            "invalid-data",
            f"{args.data}: no positive rows under any fault type in column {fault_col!r}",
        )

    # One binarization serves every fault type; only the labels differ.
    unlabelled = transform(model_bin, table)
    del table  # frees the parsed numeric block before selection
    code_of = {name: t for t, name in enumerate(fault_types)}
    codes = np.fromiter(map(code_of.get, fault_values, repeat(-1)), np.intp, len(fault_values))

    def select(names: list[str]) -> list[tuple[str, RuleSet]]:
        rule_sets = []
        for name in names:
            dataset = relabel(unlabelled, codes == code_of[name])
            trace = partial(_write_trace, name) if args.trace else None
            rule_sets.append((name, select_rule_set(dataset, sel, trace)))
        return rule_sets

    # A forked child selects the later half of the fault types while this
    # process selects the rest; --trace keeps one process, so its records
    # stream in fault-type order.
    half = (len(fault_types) + 1) // 2
    if args.trace or half == len(fault_types):
        rule_sets = select(fault_types)
    else:
        with forked(select, fault_types[half:]) as later:
            rule_sets = select(fault_types[:half]) + later()

    model = FaultModel(
        tuple(rule_sets),
        model_bin,
        k,
        max_len,
        gamma,
        metadata={
            "dataset_sha256": digest.hexdigest(),
            "config": {
                "K": k,
                "l": max_len,
                "bins": bins,
                "gamma": gamma,
                "fault_col": fault_col,
                "service_col": service_col,
                "timestamp_col": timestamp_col,
                "categorical": sorted(categorical),
            },
        },
    )
    Path(args.model).write_text(model.to_json(), encoding="utf-8")
    elapsed = time.perf_counter() - started

    for name, rule_set in rule_sets:
        print(f"{name}: {len(rule_set)} rule(s)")
        for rule, stats in zip(rule_set.rules, rule_set.stats or ()):
            print(
                f"  {model.describe(rule)}"
                f"  [precision={stats.precision:.3f} recall={stats.recall:.3f}"
                f" covered={stats.covered}]"
            )
    print(f"trained {len(rule_sets)} fault type(s) in {elapsed:.2f} s")
    return EXIT_OK


def _load_model(path: str) -> FaultModel:
    """The model at path; a file that is not UTF-8 JSON of the model's shape
    is a schema error naming it."""
    try:
        return FaultModel.from_json(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad or too deep JSON, or the wrong shape
        raise CliError("schema-error", f"{path}: {exc}")


def _window_numeric(model: FaultModel, service_col: str) -> Callable[[str], bool]:
    """Which window columns to read as numbers: the model's numeric columns
    with thresholds, service_col excepted."""
    names = {
        c.name for c in model.binarization.columns if c.kind == NUMERIC and c.width
    }
    names.discard(service_col)
    return names.__contains__


def _window_from_table(
    model: FaultModel,
    table: dict[str, Sequence],
    path: str | Path,
    service_col: str,
) -> QueryWindow:
    if service_col not in table:
        raise CliError(
            "schema-error",
            f"{path}: service column {service_col!r} missing from window",
        )
    try:
        return QueryWindow(feature_matrix(model.binarization, table), tuple(table[service_col]))
    except SchemaError as exc:
        raise CliError("schema-error", f"{path}: {exc}")
    except ValueError as exc:  # a bad numeric cell, or an empty window
        raise CliError("invalid-data", f"{path}: {exc}")


def cmd_localize(args) -> int:
    cfg = _load_config(args.config)
    service_col = _setting(args, cfg, "columns.service", _text, "service_col")
    model = _load_model(args.model)
    table = read_csv_columns(args.data, _window_numeric(model, service_col))
    window = _window_from_table(model, table, args.data, service_col)
    report = localization_report(model, window)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_NO_SIGNAL if report["no_signal"] else EXIT_OK


def _manifest_entries(path: str, manifest) -> list[dict]:
    """The manifest's cases, each checked to name its window and ground truths."""

    def invalid(message: str) -> CliError:
        return CliError("invalid-data", f"{path}: {message}")

    if not isinstance(manifest, dict):
        raise invalid("manifest must be a JSON object")
    entries = manifest.get("cases", [])
    if not isinstance(entries, list):
        raise invalid("'cases' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise invalid(f"cases[{i}] must be a JSON object")
        for key in ("window", "true_fault", "true_service"):
            if key not in entry:
                raise invalid(f"cases[{i}]: missing key {key!r}")
            if not isinstance(entry[key], str):
                raise invalid(f"cases[{i}]: {key!r} must be a string")
    return entries


def _eval_windows(model: FaultModel, paths: list[Path], service_col: str) -> list[QueryWindow]:
    """The query windows of the window files at paths, in order.

    Each run of files that csvgrid.grid_groups reads as one table, the
    table of one file holding the run's header line and all its data
    rows, is binarized by one feature_matrix call, whose rows are then
    split between the run's windows; feature_matrix gives a column's rows
    the same bits whether it is uint8 or float64.  Every other file, and
    each file of a run that has no table or whose table lacks service_col
    or fails feature_matrix, is read and binarized by itself as localize
    does, so every value, error and the window it names are those of
    reading the windows one at a time.
    """
    numeric = _window_numeric(model, service_col)
    windows = []
    for run, table, bounds in grid_groups(paths, numeric):
        grouped = None if table is None else _grouped_windows(model, table, bounds, service_col)
        if grouped is None:
            grouped = [
                _window_from_table(model, read_csv_columns(path, numeric), path, service_col)
                for path in run
            ]
        windows += grouped
    return windows


def _grouped_windows(
    model: FaultModel, table: dict[str, Sequence], bounds: list[int], service_col: str
) -> Optional[list[QueryWindow]]:
    """The windows of one table of several files, rows bounds[k]:bounds[k + 1]
    each, or None if the table lacks service_col or feature_matrix rejects it."""
    if service_col not in table:
        return None
    try:
        matrix = feature_matrix(model.binarization, table)
    except ValueError:  # a SchemaError, or a bad cell named by its row in the table
        return None
    services = table[service_col]
    return [
        QueryWindow(matrix[lo:hi], tuple(services[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
    ]


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    service_col = _setting(args, cfg, "columns.service", _text, "service_col")
    model = _load_model(args.model)
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise CliError("io-error", f"{args.manifest}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, or not UTF-8
        raise CliError("invalid-data", f"{args.manifest}: {exc}")
    base_dir = Path(args.manifest).parent
    entries = _manifest_entries(args.manifest, manifest)
    windows = _eval_windows(model, [base_dir / entry["window"] for entry in entries], service_col)
    cases = [
        IncidentCase(window, entry["true_fault"], entry["true_service"])
        for window, entry in zip(windows, entries)
    ]
    if not cases:
        raise CliError("invalid-data", f"{args.manifest}: no cases")
    report = evaluate_cases(model, cases)
    sys.stdout.write(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return EXIT_OK


def cmd_export_fingerprints(args) -> int:
    model = _load_model(args.model)
    if not model.rule_sets:
        raise CliError("invalid-data", f"{args.model}: model contains no fault types")
    fingerprints = []
    for name, rule_set in model.rule_sets:
        entries = set()
        for rule in rule_set.rules:
            for j in rule.features:
                f = model.binarization.feature(j)
                direction = {">": "high", "<=": "low", "==": "equals"}[f.op]
                entries.add((f.column, direction, f.category if f.op == "==" else f.threshold))
        fingerprints.append(
            {
                "fault_type": name,
                "metrics": [
                    {
                        "metric": column,
                        "direction": direction,
                        ("category" if direction == "equals" else "threshold"): value,
                    }
                    for column, direction, value in sorted(entries)
                ],
            }
        )
    payload = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "fingerprints": fingerprints,
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_parse_logs(args) -> int:
    interval, sim, ts_format = _log_settings(args, _load_config(args.config))
    logs_dir = Path(args.logs)
    logs = _log_frame(logs_dir, interval, sim, ts_format)
    if logs is None:
        raise CliError("invalid-data", f"no online* log files under {logs_dir}")
    base, frame = logs
    text = frame.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(
        f"templates={len(base)} intervals={len(frame.rows)} skipped={frame.skipped}",
        file=sys.stderr,
    )
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it as it was.  It holds each subcommand's
    cmd_* function as that name was bound when the parser was built."""
    parser = argparse.ArgumentParser(
        prog="ruleloc",
        description="Rule-set learning and fault localization for telemetry tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags win over it")

    p_train = sub.add_parser("train", help="learn per-fault-type rule sets")
    common(p_train)
    p_train.add_argument("--data", required=True, help="labelled training CSV")
    p_train.add_argument("--logs", help="directory with normal*/online* log files")
    p_train.add_argument("--model", required=True, help="output model JSON path")
    p_train.add_argument("-K", type=int, dest="K", help="max rules per fault type")
    p_train.add_argument("-l", type=int, dest="l", help="max features per rule")
    p_train.add_argument("--bins", type=int, help="quantile bins per numeric column")
    p_train.add_argument("--gamma", type=float, help="curvature of the weight schedule")
    p_train.add_argument(
        "--workers", type=int, help="accepted for compatibility; has no effect"
    )
    p_train.add_argument(
        "--trace", action="store_true", help="selection steps on stderr, one JSON object per line"
    )
    p_train.add_argument("--fault-col", dest="fault_col")
    p_train.add_argument("--service-col", dest="service_col")
    p_train.add_argument("--timestamp-col", dest="timestamp_col")
    p_train.add_argument("--categorical", help="comma-separated categorical columns")
    p_train.add_argument("--timestamp-format", dest="timestamp_format")
    p_train.set_defaults(func=cmd_train)

    p_loc = sub.add_parser("localize", help="rank fault types and services for a window")
    common(p_loc)
    p_loc.add_argument("--model", required=True)
    p_loc.add_argument("--data", required=True, help="incident window CSV")
    p_loc.add_argument("--out", help="write the JSON report here instead of stdout")
    p_loc.add_argument("--service-col", dest="service_col")
    p_loc.set_defaults(func=cmd_localize)

    p_eval = sub.add_parser("eval", help="score a model against a case manifest")
    common(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--manifest", required=True, help="JSON case manifest")
    p_eval.add_argument("--out", help="write the JSON metrics report here")
    p_eval.add_argument("--service-col", dest="service_col")
    p_eval.set_defaults(func=cmd_eval)

    p_fp = sub.add_parser(
        "export-fingerprints", help="emit per-fault key metrics with directions"
    )
    p_fp.add_argument("--model", required=True)
    p_fp.add_argument("--out")
    p_fp.set_defaults(func=cmd_export_fingerprints)

    p_logs = sub.add_parser("parse-logs", help="build template base and novelty counters")
    common(p_logs)
    p_logs.add_argument("--logs", required=True)
    p_logs.add_argument("--interval", type=float)
    p_logs.add_argument("--similarity", type=float, dest="similarity")
    p_logs.add_argument("--timestamp-format", dest="timestamp_format")
    p_logs.add_argument("--out")
    p_logs.set_defaults(func=cmd_parse_logs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        error = exc
    except SchemaError as exc:
        error = CliError("schema-error", str(exc))
    except OSError as exc:
        error = CliError("io-error", str(exc))
    except (ValueError, KeyError) as exc:  # InvalidDatasetError among them
        error = CliError("invalid-data", str(exc))
    print(f"{error.category}: {error}", file=sys.stderr)
    return EXIT_CODES[error.category]


if __name__ == "__main__":
    sys.exit(main())
