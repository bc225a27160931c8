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
import json
import sys
import time
import warnings
from pathlib import Path
from typing import Callable, Optional, Sequence

from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.binarize import (
    CATEGORICAL,
    DEFAULT_BINS,
    NUMERIC,
    FeatureSpec,
    InvalidValueError,
    SchemaError,
    feature_matrix,
    fit,
    parse_numeric_columns,
    relabel,
    transform,
)
from ruleloc.csvgrid import read_grid
from ruleloc.evaluate import IncidentCase, evaluate_cases
from ruleloc.localize import FaultModel, QueryWindow, localization_report
from ruleloc.logfeatures import (
    DEFAULT_SIMILARITY,
    build_template_base,
    match_and_aggregate,
    parse_timestamp,
)
from ruleloc.select import SelectionConfig, select_rule_set

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
    "K": 4,
    "l": 6,
    "bins": DEFAULT_BINS,
    "gamma": 1.0,
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


def read_csv_columns(
    path: str | Path, numeric: Callable[[str], bool] = lambda name: False
) -> dict[str, Sequence]:
    """Read an RFC-4180 CSV with header into a column-oriented table.

    A row with fewer fields than the header is padded with "" (a missing
    value); a row with more fields, or a blank line, is invalid data,
    reported with its 1-based line number.  A header naming a column twice
    is a schema error.  The file is UTF-8, with or without a byte-order
    mark; any other bytes are invalid data naming the file.

    Columns are lists of cell strings, except that on a plain comma grid
    (see ruleloc.csvgrid) the columns `numeric` accepts by name come back
    as C-contiguous float64 arrays parsed in C.  Any other file, and a grid
    with a numeric cell that does not parse, is read by the exact reader,
    whose string columns binarize.numeric_column parses later, with its
    messages.  Both paths give the same values and raise the same errors
    in the same order.
    """
    try:
        table = read_grid(path, numeric)
    except (OSError, ValueError):  # unreadable, or a numeric cell that does not parse
        table = None
    return _read_csv_cells(path) if table is None else table


def _read_csv_cells(path: str | Path) -> dict[str, list[str]]:
    """read_csv_columns with every column a list of cell strings."""
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


def write_csv_columns(path: str | Path, table: dict[str, list]) -> None:
    names = list(table)
    n = len(table[names[0]]) if names else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(n):
            writer.writerow([table[name][i] for name in names])


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    except ValueError as exc:  # bad JSON or not UTF-8
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


def _collect_log_lines(logs_dir: Path, stem: str) -> list[str]:
    r"""Lines of every file under logs_dir whose top-level name starts with stem.

    Both layouts work: logs/normal.log and logs/normal/anything.log.  A
    line ends only at \n, \r\n or \r (read_text turns the last two into
    \n); characters that str.splitlines also breaks at, such as \x1c or
    U+2028, stay inside their line.  A final line ending starts no line,
    and a byte-order mark at the start of a file is dropped.
    """
    lines: list[str] = []
    candidates = sorted(
        p
        for p in logs_dir.rglob("*")
        if p.is_file() and p.relative_to(logs_dir).parts[0].startswith(stem)
    )
    for path in candidates:
        try:
            file_lines = path.read_text(encoding="utf-8-sig").split("\n")
        except UnicodeDecodeError as exc:
            raise CliError("invalid-data", f"{path}: {exc}")
        if file_lines[-1] == "":
            file_lines.pop()
        lines.extend(file_lines)
    return lines


LOG_COLUMNS = ("log_total", "log_unmatched", "log_distinct_new")


def _log_feature_columns(
    table: dict[str, Sequence],
    data_path: str | Path,
    timestamp_col: str,
    logs_dir: Path,
    interval: float,
    sim: float,
    timestamp_format: Optional[str],
) -> None:
    """Join per-interval log novelty counters onto the metric table."""
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
    normal_lines = _collect_log_lines(logs_dir, "normal")
    online_lines = _collect_log_lines(logs_dir, "online")
    if not online_lines:
        warnings.warn(f"no online* log files under {logs_dir}; skipping log features")
        return
    base = build_template_base(normal_lines, sim=sim)
    frame = match_and_aggregate(base, online_lines, interval, timestamp_format)
    counters = frame.counters()
    # Many rows share a stamp: parse and look up each distinct one once.
    joined: dict[str, tuple[int, int, int]] = {}
    totals, unmatched, novel = [], [], []
    for i, raw in enumerate(table[timestamp_col], start=1):
        if raw not in joined:
            try:
                epoch = parse_timestamp(raw, timestamp_format)
            except ValueError:
                raise CliError(
                    "invalid-data",
                    f"{data_path}: column {timestamp_col!r}, row {i}:"
                    f" unparseable timestamp {raw!r}",
                )
            joined[raw] = counters.get((epoch // interval) * interval, (0, 0, 0))
        t, u, dnew = joined[raw]
        totals.append(t)
        unmatched.append(u)
        novel.append(dnew)
    for name, column in zip(LOG_COLUMNS, (totals, unmatched, novel)):
        table[name] = column


def _feature_specs(
    table: dict[str, Sequence],
    role_columns: set[str],
    categorical: set[str],
    bins: int,
) -> list[FeatureSpec]:
    specs = []
    for name in table:
        if name in role_columns:
            continue
        kind = CATEGORICAL if name in categorical else NUMERIC
        specs.append(FeatureSpec(name, kind, bins if kind == NUMERIC else DEFAULT_BINS))
    return specs


def _dataset_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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
    interval = _setting(args, cfg, "logs.interval", float)
    sim = _setting(args, cfg, "logs.similarity", float)
    ts_format = args.timestamp_format or _config_value(
        args, cfg, "logs.timestamp_format", _text
    )

    started = time.perf_counter()
    role_columns = {fault_col, service_col, timestamp_col}
    table = read_csv_columns(
        args.data, lambda name: name not in role_columns and name not in categorical
    )
    if fault_col not in table:
        raise CliError("schema-error", f"fault-type column {fault_col!r} not in {args.data}")
    if args.logs:
        _log_feature_columns(
            table, args.data, timestamp_col, Path(args.logs), interval, sim, ts_format
        )

    specs = _feature_specs(table, role_columns, categorical, bins)
    try:
        parse_numeric_columns(table, specs)
    except InvalidValueError as exc:
        raise CliError("invalid-data", f"{args.data}: {exc}")
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
            f"no positive rows under any fault type in column {fault_col!r}",
        )

    sel = SelectionConfig(max_rules=k, gamma=gamma, max_len=max_len)

    # One binarization serves every fault type; only the labels differ.
    unlabelled = transform(model_bin, table)
    results = {}
    for fault_type in fault_types:
        dataset = relabel(unlabelled, [v == fault_type for v in fault_values])
        records: list = []
        rule_set = select_rule_set(
            dataset, sel, trace=records.append if args.trace else None
        )
        results[fault_type] = (rule_set, records)

    rule_sets = tuple((name, results[name][0]) for name in fault_types)
    model = FaultModel(
        rule_sets,
        model_bin,
        k,
        max_len,
        gamma,
        metadata={
            "dataset_sha256": _dataset_sha256(args.data),
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
        for rec in results[name][1]:
            for mm in rec.mm:
                print(
                    f"trace: type={name} mm t={mm.iteration} branch={mm.branch}"
                    f" size={len(mm.rule.features)} V={mm.surrogate:.6g}"
                    f" W={mm.objective:.6g}",
                    file=sys.stderr,
                )
            print(
                f"trace: type={name} i={rec.iteration} alpha={rec.alpha:.6f}"
                f" rule={None if rec.rule is None else rec.rule.features}"
                f" accepted={rec.accepted} reason={rec.reason}",
                file=sys.stderr,
            )
    print(f"trained {len(rule_sets)} fault type(s) in {elapsed:.2f} s")
    return EXIT_OK


def _load_model(path: str) -> FaultModel:
    """The model at path; a file that is not UTF-8 JSON of the model's shape
    is a schema error naming it."""
    try:
        model = FaultModel.from_json(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}")
    except ValueError as exc:  # bad JSON, not UTF-8, or a model of the wrong shape
        raise CliError("schema-error", f"{path}: {exc}")
    if model.binarization is None:
        raise CliError("schema-error", f"{path}: model carries no binarization catalog")
    return model


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


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    service_col = _setting(args, cfg, "columns.service", _text, "service_col")
    model = _load_model(args.model)
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise CliError("io-error", f"{args.manifest}: {exc}")
    except ValueError as exc:  # bad JSON or not UTF-8
        raise CliError("invalid-data", f"{args.manifest}: {exc}")
    base_dir = Path(args.manifest).parent
    numeric = _window_numeric(model, service_col)
    cases = []
    for entry in _manifest_entries(args.manifest, manifest):
        window_path = base_dir / entry["window"]
        table = read_csv_columns(window_path, numeric)
        window = _window_from_table(model, table, window_path, service_col)
        cases.append(IncidentCase(window, entry["true_fault"], entry["true_service"]))
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
        raise CliError("invalid-data", "model contains no fault types")
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
                    for column, direction, value in sorted(
                        entries, key=lambda e: (e[0], e[1], str(e[2]))
                    )
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
    cfg = _load_config(args.config)
    interval = _setting(args, cfg, "logs.interval", float)
    sim = _setting(args, cfg, "logs.similarity", float)
    ts_format = args.timestamp_format or _config_value(
        args, cfg, "logs.timestamp_format", _text
    )
    logs_dir = Path(args.logs)
    normal_lines = _collect_log_lines(logs_dir, "normal")
    online_lines = _collect_log_lines(logs_dir, "online")
    if not online_lines:
        raise CliError("invalid-data", f"no online* log files under {logs_dir}")
    base = build_template_base(normal_lines, sim=sim)
    frame = match_and_aggregate(base, online_lines, interval, ts_format)
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


def build_parser() -> argparse.ArgumentParser:
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
    p_train.add_argument("--trace", action="store_true", help="selection diagnostics on stderr")
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
    common(p_fp)
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
