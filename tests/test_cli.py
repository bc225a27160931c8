import json

import pytest

from ruleloc import cli
from ruleloc.binarize import SchemaError
from ruleloc.cli import main, read_csv_columns, write_csv_columns
from ruleloc.core import InvalidDatasetError
from ruleloc.evaluate import planted_fault_scenario
from ruleloc.localize import FaultModel


@pytest.fixture(scope="module")
def scenario():
    return planted_fault_scenario(
        seed=5, n=1500, d=16, n_fault_types=2, n_services=3, n_windows=6,
        imbalance_ratio=20.0, noise=0.02,
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory, scenario):
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "train.csv"
    write_csv_columns(data, scenario.train_table)
    model_path = tmp / "model.json"
    code = main(
        ["train", "--data", str(data), "--model", str(model_path), "-K", "2", "-l", "2"]
    )
    assert code == 0
    return tmp, data, model_path


def test_csv_roundtrip(tmp_path):
    table = {"a": ["1", "2"], "b": ["x", "y"]}
    path = tmp_path / "t.csv"
    write_csv_columns(path, table)
    assert read_csv_columns(path) == table


def test_train_writes_model(trained, scenario, capsys):
    _, _, model_path = trained
    model = FaultModel.from_json(model_path.read_text())
    assert model.fault_types() == list(scenario.fault_types)
    for name in model.fault_types():
        assert len(model.rule_set(name)) >= 1
    assert model.metadata["dataset_sha256"]


def test_train_is_deterministic_across_worker_counts(trained, scenario):
    tmp, data, model_path = trained
    for workers in ("1", "4"):
        out = tmp / f"model_w{workers}.json"
        code = main(
            [
                "train", "--data", str(data), "--model", str(out),
                "-K", "2", "-l", "2", "--workers", workers,
            ]
        )
        assert code == 0
        assert out.read_bytes() == model_path.read_bytes()


def test_localize_ranks_planted_fault(trained, scenario, tmp_path):
    _, _, model_path = trained
    table, true_fault, true_service = scenario.windows[0]
    window_csv = tmp_path / "w.csv"
    write_csv_columns(window_csv, table)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "localize", "--model", str(model_path),
            "--data", str(window_csv), "--out", str(report_path),
        ]
    )
    report = json.loads(report_path.read_text())
    assert code == 0
    assert not report["no_signal"]
    assert report["fault_ranking"][0]["fault_type"] == true_fault
    assert report["service_ranking"][0]["service"] == true_service
    assert report["explanations"]["fault_types"][true_fault]


def test_localize_no_signal_exit_code(trained, scenario, tmp_path):
    _, _, model_path = trained
    table, _, _ = scenario.windows[0]
    # zero out every metric column: nothing can fire
    quiet = dict(table)
    for name in scenario.feature_names:
        quiet[name] = [0] * len(table[name])
    window_csv = tmp_path / "quiet.csv"
    write_csv_columns(window_csv, quiet)
    code = main(["localize", "--model", str(model_path), "--data", str(window_csv)])
    assert code == 3


def test_localize_schema_mismatch(trained, tmp_path, capsys):
    _, _, model_path = trained
    bad = tmp_path / "bad.csv"
    write_csv_columns(bad, {"service": ["a"], "unrelated": ["1"]})
    code = main(["localize", "--model", str(model_path), "--data", str(bad)])
    assert code == 4
    assert capsys.readouterr().err.startswith("schema-error:")


def test_eval_manifest(trained, scenario, tmp_path, capsys):
    _, _, model_path = trained
    cases = []
    for i, (table, fault, service) in enumerate(scenario.windows):
        name = f"case{i}.csv"
        write_csv_columns(tmp_path / name, table)
        cases.append({"window": name, "true_fault": fault, "true_service": service})
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps({"schema_version": 1, "cases": cases}))
    out = tmp_path / "metrics.json"
    code = main(
        ["eval", "--model", str(model_path), "--manifest", str(manifest), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_cases"] == len(cases)
    assert 0.0 <= report["fault_top_k"][0] <= 1.0
    assert report["fault_top_k"] == sorted(report["fault_top_k"])
    table_text = capsys.readouterr().out
    assert "A@1" in table_text and "kappa" in table_text


def test_export_fingerprints(trained, scenario, tmp_path):
    _, _, model_path = trained
    out = tmp_path / "fp.json"
    code = main(["export-fingerprints", "--model", str(model_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    by_type = {e["fault_type"]: e for e in payload["fingerprints"]}
    assert set(by_type) == set(scenario.fault_types)
    for name, entry in by_type.items():
        metrics = {m["metric"] for m in entry["metrics"]}
        planted = {
            scenario.feature_names[j]
            for rule in scenario.dnfs[name]
            for j in rule
        }
        # fingerprint metrics must come from the planted block
        assert metrics <= planted
        for m in entry["metrics"]:
            assert m["direction"] in ("high", "low", "equals")


def test_export_fingerprints_equals_planted_metrics_when_clean(tmp_path):
    clean = planted_fault_scenario(
        seed=11, n=1500, d=16, n_fault_types=2, n_services=3, n_windows=1,
        imbalance_ratio=20.0, noise=0.0,
    )
    data = tmp_path / "train.csv"
    write_csv_columns(data, clean.train_table)
    model_path = tmp_path / "model.json"
    assert main(
        ["train", "--data", str(data), "--model", str(model_path), "-K", "2", "-l", "2"]
    ) == 0
    out = tmp_path / "fp.json"
    assert main(["export-fingerprints", "--model", str(model_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for entry in payload["fingerprints"]:
        metrics = {m["metric"] for m in entry["metrics"]}
        planted = {
            clean.feature_names[j]
            for rule in clean.dnfs[entry["fault_type"]]
            for j in rule
        }
        assert metrics == planted


def test_declared_fault_type_with_zero_rows_skipped_with_warning(tmp_path, scenario):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "fault_types": list(scenario.fault_types) + ["ghost_fault"],
            }
        )
    )
    model_path = tmp_path / "model.json"
    with pytest.warns(UserWarning, match="ghost_fault"):
        code = main(
            [
                "train", "--data", str(data), "--model", str(model_path),
                "--config", str(cfg), "-K", "2", "-l", "2",
            ]
        )
    assert code == 0
    model = FaultModel.from_json(model_path.read_text())
    assert "ghost_fault" not in model.fault_types()


def test_no_positive_rows_is_invalid_data(tmp_path, capsys):
    data = tmp_path / "all_normal.csv"
    write_csv_columns(
        data,
        {
            "timestamp": ["2024-01-01T00:00:00"] * 3,
            "service": ["a"] * 3,
            "fault_type": ["normal"] * 3,
            "m0": ["1", "0", "1"],
        },
    )
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 5
    assert capsys.readouterr().err.startswith("invalid-data:")


def test_parse_logs_subcommand(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text(
        "\n".join(["worker 1 heartbeat ok", "worker 2 heartbeat ok"]) + "\n"
    )
    (logs / "online.log").write_text(
        "\n".join(
            [
                "1970-01-01T00:00:05 worker 3 heartbeat ok",
                "1970-01-01T00:00:09 utterly novel failure mode",
                "1970-01-01T00:01:30 worker 4 heartbeat ok",
            ]
        )
        + "\n"
    )
    out = tmp_path / "frame.csv"
    code = main(["parse-logs", "--logs", str(logs), "--interval", "60", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "interval_start,total,unmatched,distinct_new"
    assert lines[1] == "0,2,1,1"
    assert lines[2] == "60,1,0,0"


def test_train_with_log_features(tmp_path, scenario):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 ok\n")
    stamps = scenario.train_table["timestamp"][:50]
    (logs / "online.log").write_text(
        "\n".join(f"{t} worker 2 ok" for t in stamps) + "\n"
    )
    model_path = tmp_path / "model.json"
    code = main(
        [
            "train", "--data", str(data), "--logs", str(logs),
            "--model", str(model_path), "-K", "2", "-l", "2",
        ]
    )
    assert code == 0
    model = FaultModel.from_json(model_path.read_text())
    columns = {c.name for c in model.binarization.columns}
    assert {"log_total", "log_unmatched", "log_distinct_new"} <= columns


def test_train_trace_emits_diagnostics(tmp_path, scenario, capsys):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    code = main(
        [
            "train", "--data", str(data), "--model", str(tmp_path / "m.json"),
            "-K", "2", "-l", "2", "--trace",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "trace: type=" in err
    assert " mm t=" in err
    lines = err.splitlines()
    # each produced rule's MM lines come right before its selection line
    for before, line in zip([""] + lines, lines):
        if " i=" in line and " rule=None " not in line:
            assert before.startswith(line.split(" i=")[0] + " mm t=")


def test_parse_logs_accepts_subdirectory_layout(tmp_path):
    logs = tmp_path / "logs"
    (logs / "normal").mkdir(parents=True)
    (logs / "online").mkdir()
    (logs / "normal" / "app.log").write_text("worker 1 ok\n")
    (logs / "online" / "app.log").write_text("1970-01-01T00:00:01 worker 2 ok\n")
    out = tmp_path / "frame.csv"
    code = main(["parse-logs", "--logs", str(logs), "--interval", "60", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1] == "0,1,0,0"


def test_log_lines_split_at_line_endings_only(tmp_path, capsys):
    """\x1c and U+2028 end a line for str.splitlines, not for a log file."""
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1\x1cheartbeat ok\n", encoding="utf-8")
    (logs / "online.log").write_text(
        "1970-01-01T00:00:05 worker 3\x1cheartbeat ok\r\n"
        "1970-01-01T00:00:09 worker 4\u2028heartbeat ok",
        encoding="utf-8",
    )
    out = tmp_path / "frame.csv"
    code = main(["parse-logs", "--logs", str(logs), "--interval", "60", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1] == "0,2,0,0"
    assert capsys.readouterr().err == "templates=1 intervals=1 skipped=0\n"


def test_missing_fault_column_is_schema_error(tmp_path, capsys):
    data = tmp_path / "no_label.csv"
    write_csv_columns(data, {"m0": ["1", "0"], "service": ["a", "b"]})
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 4
    assert capsys.readouterr().err.startswith("schema-error:")


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(
        ["train", "--data", str(tmp_path / "absent.csv"), "--model", str(tmp_path / "m.json")]
    )
    assert code == 6
    assert capsys.readouterr().err.startswith("io-error:")


def _tiny_train_csv(tmp_path):
    data = tmp_path / "train.csv"
    data.write_text("service,fault_type,a\ns1,f,1\ns2,normal,0\ns1,normal,0\n")
    return data


@pytest.mark.parametrize(
    "config, message",
    [
        ({"training": {"K": [1]}}, "training.K: int() argument must be"),
        ({"training": {"gamma": None}}, "training.gamma: float() argument must be"),
        ({"training": {"K": "x"}}, "training.K: invalid literal for int()"),
        ([1], "config must be a JSON object"),
        ({"logs": [1]}, "logs: must be a JSON object"),
        ({"columns": {"service": 3}}, "columns.service: expected a string, got 3"),
        ({"columns": {"categorical": "a"}}, "columns.categorical: expected a list of strings"),
        ({"fault_types": 5}, "fault_types: expected a list of strings, got 5"),
        ({"training": {"K": 2.7}}, "training.K: expected a whole number, got 2.7"),
        ({"training": {"l": True}}, "training.l: expected a number, got true"),
        ({"training": {"bins": 10.5}}, "training.bins: expected a whole number, got 10.5"),
        ({"training": {"gamma": True}}, "training.gamma: expected a number, got true"),
        ({"logs": {"interval": False}}, "logs.interval: expected a number, got false"),
    ],
    ids=[
        "K-list", "gamma-null", "K-text", "top-level-list", "section-list",
        "column-number", "categorical-text", "fault-types-number",
        "K-fraction", "l-boolean", "bins-fraction", "gamma-boolean", "interval-boolean",
    ],
)
def test_bad_config_value_names_file_and_key(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["train", "--data", str(_tiny_train_csv(tmp_path)), "--model", str(tmp_path / "m.json")]
    assert main(argv + ["--config", str(cfg)]) == 5
    assert capsys.readouterr().err.startswith(f"invalid-data: {cfg}: {message}")


def test_unwritable_model_path_is_io_error(tmp_path, capsys):
    model = tmp_path / "absent" / "m.json"
    argv = ["train", "--data", str(_tiny_train_csv(tmp_path)), "--model", str(model)]
    assert main(argv) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"io-error: [Errno 2] No such file or directory: '{model}'")


@pytest.mark.parametrize(
    "raised, line, code",
    [
        (SchemaError("no such column"), "schema-error: no such column", 4),
        (InvalidDatasetError("no positives"), "invalid-data: no positives", 5),
        (ValueError("bad value"), "invalid-data: bad value", 5),
        (KeyError("k"), "invalid-data: 'k'", 5),
    ],
    ids=["SchemaError", "InvalidDatasetError", "ValueError", "KeyError"],
)
def test_uncaught_library_errors_map_to_their_exit_codes(
    tmp_path, capsys, monkeypatch, raised, line, code
):
    def fail(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, "select_rule_set", fail)
    argv = ["train", "--data", str(_tiny_train_csv(tmp_path)), "--model", str(tmp_path / "m.json")]
    assert main(argv) == code
    assert capsys.readouterr().err == line + "\n"


def test_config_file_supplies_knobs_and_flags_win(tmp_path, scenario):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "training": {"K": 1, "l": 1, "bins": 10},
            }
        )
    )
    m1 = tmp_path / "m1.json"
    assert main(["train", "--data", str(data), "--model", str(m1), "--config", str(cfg)]) == 0
    model1 = FaultModel.from_json(m1.read_text())
    assert model1.max_rules == 1 and model1.max_len == 1

    m2 = tmp_path / "m2.json"
    assert (
        main(
            [
                "train", "--data", str(data), "--model", str(m2),
                "--config", str(cfg), "-K", "2",
            ]
        )
        == 0
    )
    assert FaultModel.from_json(m2.read_text()).max_rules == 2


def test_bins_flag_changes_thresholds(tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    n = 400
    table = {
        "timestamp": [f"2024-01-01T00:00:{i % 60:02d}" for i in range(n)],
        "service": ["s"] * n,
        "fault_type": ["boom" if x < 0.2 else "normal" for x in rng.random(n)],
        "metric": [float(v) for v in rng.normal(size=n)],
    }
    data = tmp_path / "train.csv"
    write_csv_columns(data, table)
    models = {}
    for bins in ("50", "100"):
        path = tmp_path / f"m{bins}.json"
        assert main(
            ["train", "--data", str(data), "--model", str(path), "--bins", bins]
        ) == 0
        models[bins] = FaultModel.from_json(path.read_text())
    t50 = models["50"].binarization.columns
    t100 = models["100"].binarization.columns
    th50 = next(c for c in t50 if c.name == "metric").thresholds
    th100 = next(c for c in t100 if c.name == "metric").thresholds
    assert th50 != th100
    assert len(th100) > len(th50)


def write_text_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_non_numeric_cell_names_file_column_and_row(tmp_path, capsys):
    data = tmp_path / "bad_cell.csv"
    write_text_csv(
        data,
        [
            "timestamp,service,fault_type,a,b",
            "2024-01-01T00:00:00,s,boom,1,2",
            "2024-01-01T00:00:01,s,normal,,3",
            "2024-01-01T00:00:02,s,normal,abc,4",
        ],
    )
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 5
    err = capsys.readouterr().err.strip()
    assert err == (
        f"invalid-data: {data}: column 'a', row 3: could not convert string to float: 'abc'"
    )


def test_non_numeric_window_cell_names_file(trained, scenario, tmp_path, capsys):
    _, _, model_path = trained
    table, _, _ = scenario.windows[0]
    bad = dict(table)
    name = scenario.feature_names[0]
    bad[name] = ["x?"] + list(table[name][1:])
    window_csv = tmp_path / "bad_window.csv"
    write_csv_columns(window_csv, bad)
    code = main(["localize", "--model", str(model_path), "--data", str(window_csv)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith(f"invalid-data: {window_csv}: column {name!r}, row 1:")


def test_row_longer_than_header_is_invalid_data(tmp_path, capsys):
    data = tmp_path / "long_row.csv"
    write_text_csv(
        data,
        [
            "service,fault_type,a",
            "s,boom,1",
            "s,normal,2,99",
            "s,normal,3",
        ],
    )
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 5
    err = capsys.readouterr().err.strip()
    assert err == f"invalid-data: {data}: line 3: 4 fields, header has 3"


def test_blank_line_is_invalid_data(tmp_path, capsys):
    data = tmp_path / "blank_line.csv"
    write_text_csv(data, ["service,fault_type,a", "s,boom,1", "", "s,normal,3"])
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 5
    err = capsys.readouterr().err.strip()
    assert err == f"invalid-data: {data}: line 3: blank line"


def test_duplicate_header_name_is_schema_error(tmp_path, capsys):
    data = tmp_path / "dup_header.csv"
    write_text_csv(data, ["service,fault_type,a,a", "s,boom,1,2", "s,normal,3,4"])
    code = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err == f"schema-error: {data}: duplicate column 'a'"


def test_short_row_is_padded_with_missing_values(tmp_path):
    data = tmp_path / "short_row.csv"
    write_text_csv(data, ["a,b,c", "1,2,3", "4"])
    assert read_csv_columns(data) == {"a": ["1", "4"], "b": ["2", ""], "c": ["3", ""]}


def test_train_binarizes_once_for_all_fault_types(tmp_path, monkeypatch):
    import ruleloc.cli

    three = planted_fault_scenario(
        seed=7, n=900, d=12, n_fault_types=3, n_services=3, n_windows=1,
        imbalance_ratio=10.0, noise=0.0,
    )
    data = tmp_path / "train.csv"
    write_csv_columns(data, three.train_table)
    calls = []
    real = ruleloc.cli.transform

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ruleloc.cli, "transform", counting)
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(data), "--model", str(model_path), "-K", "1", "-l", "2"]
    )
    assert code == 0
    assert len(FaultModel.from_json(model_path.read_text()).fault_types()) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["export-fingerprints", "localize"])
def test_model_feature_outside_catalog_is_schema_error(
    trained, scenario, tmp_path, capsys, command
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    d = len(obj["binarization"]["feature_catalog"])
    entry = obj["fault_types"][0]
    entry["rules"][0]["predicates"][0]["feature"] = 9999
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(obj))
    table, _, _ = scenario.windows[0]
    window_csv = tmp_path / "w.csv"
    write_csv_columns(window_csv, table)
    argv = [command, "--model", str(bad_model)]
    if command == "localize":
        argv += ["--data", str(window_csv)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"schema-error: {bad_model}: fault type {entry['fault_type']!r}, rule 0:"
        f" feature 9999 outside the {d}-feature catalog\n"
    )


def _run_on_model(command, obj, scenario, tmp_path):
    """main(command) on a model file holding obj, with a window or manifest as needed."""
    model = tmp_path / "edited_model.json"
    model.write_text(json.dumps(obj))
    argv = [command, "--model", str(model)]
    if command == "localize":
        write_csv_columns(tmp_path / "w.csv", scenario.windows[0][0])
        argv += ["--data", str(tmp_path / "w.csv")]
    elif command == "eval":
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps({"cases": [_window_case(scenario, tmp_path)]}))
        argv += ["--manifest", str(manifest)]
    return main(argv), model


@pytest.mark.parametrize("command", ["localize", "eval", "export-fingerprints"])
def test_model_without_catalog_is_schema_error(trained, scenario, tmp_path, capsys, command):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    obj["binarization"] = None
    code, model = _run_on_model(command, obj, scenario, tmp_path)
    assert code == 4
    assert capsys.readouterr().err == (
        f"schema-error: {model}: model carries no binarization catalog\n"
    )


@pytest.mark.parametrize(
    "key, value", [("column", "other"), ("op", "=="), ("threshold", 1e9), ("category", "x")]
)
def test_predicate_that_disagrees_with_its_feature_is_schema_error(
    trained, scenario, tmp_path, capsys, key, value
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    entry = obj["fault_types"][-1]
    pred = entry["rules"][0]["predicates"][-1]
    pred[key] = value
    code, model = _run_on_model("localize", obj, scenario, tmp_path)
    assert code == 4
    assert capsys.readouterr().err == (
        f"schema-error: {model}: fault type {entry['fault_type']!r}, rule 0:"
        f" predicate disagrees with feature {pred['feature']}\n"
    )


def test_stored_catalog_that_disagrees_with_columns_is_schema_error(
    trained, scenario, tmp_path, capsys
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    catalog = obj["binarization"]["feature_catalog"]
    catalog[2], catalog[3] = catalog[3], catalog[2]
    code, model = _run_on_model("eval", obj, scenario, tmp_path)
    assert code == 4
    shown = [json.dumps(entry, sort_keys=True) for entry in catalog[2:4]]
    assert capsys.readouterr().err == (
        f"schema-error: {model}: feature_catalog[2] is {shown[0]}, the columns give {shown[1]}\n"
    )


def _window_case(scenario, tmp_path):
    table, fault, service = scenario.windows[0]
    write_csv_columns(tmp_path / "w0.csv", table)
    return {"window": "w0.csv", "true_fault": fault, "true_service": service}


@pytest.mark.parametrize(
    "manifest_of, message",
    [
        (lambda case: [case], "manifest must be a JSON object"),
        (lambda case: {"schema_version": 1, "cases": 5}, "'cases' must be a list"),
        (
            lambda case: {
                "schema_version": 1,
                "cases": [case, {k: v for k, v in case.items() if k != "true_service"}],
            },
            "cases[1]: missing key 'true_service'",
        ),
    ],
    ids=["top-level-list", "cases-not-a-list", "case-missing-key"],
)
def test_malformed_manifest_is_invalid_data(
    trained, scenario, tmp_path, capsys, manifest_of, message
):
    _, _, model_path = trained
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps(manifest_of(_window_case(scenario, tmp_path))))
    code = main(["eval", "--model", str(model_path), "--manifest", str(manifest)])
    assert code == 5
    assert capsys.readouterr().err == f"invalid-data: {manifest}: {message}\n"


def test_header_only_window_names_its_file(trained, scenario, tmp_path, capsys):
    _, _, model_path = trained
    table, fault, service = scenario.windows[0]
    empty = tmp_path / "empty.csv"
    write_csv_columns(empty, {name: [] for name in table})
    expected = f"invalid-data: {empty}: query window must contain at least one sample\n"
    code = main(["localize", "--model", str(model_path), "--data", str(empty)])
    assert code == 5
    assert capsys.readouterr().err == expected

    manifest = tmp_path / "cases.json"
    manifest.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "cases": [{"window": "empty.csv", "true_fault": fault, "true_service": service}],
            }
        )
    )
    code = main(["eval", "--model", str(model_path), "--manifest", str(manifest)])
    assert code == 5
    assert capsys.readouterr().err == expected


def _logs_dir(tmp_path, stamps):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 ok\n")
    (logs / "online.log").write_text("".join(f"{t} worker 2 ok\n" for t in stamps))
    return logs


def test_log_join_checks_timestamp_column_before_log_work(
    tmp_path, scenario, capsys, monkeypatch
):
    import ruleloc.cli

    def no_log_work(*args, **kwargs):
        raise AssertionError("log work started before the schema check")

    for name in ("_collect_log_lines", "build_template_base", "match_and_aggregate"):
        monkeypatch.setattr(ruleloc.cli, name, no_log_work)
    table = {k: v for k, v in scenario.train_table.items() if k != "timestamp"}
    data = tmp_path / "train.csv"
    write_csv_columns(data, table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"schema-error: {data}: timestamp column 'timestamp' required to join log features\n"
    )


@pytest.mark.parametrize("name", ["log_total", "log_unmatched", "log_distinct_new"])
def test_log_feature_column_clash_is_schema_error(tmp_path, scenario, capsys, name):
    table = dict(scenario.train_table)
    table[name] = ["1"] * len(table["timestamp"])
    data = tmp_path / "train.csv"
    write_csv_columns(data, table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"schema-error: {data}: column {name!r} is reserved for the --logs features\n"
    )


def test_unparseable_table_timestamp_names_file_column_and_row(tmp_path, scenario, capsys):
    table = dict(scenario.train_table)
    table["timestamp"] = list(table["timestamp"])
    table["timestamp"][2] = "yesterday"
    data = tmp_path / "train.csv"
    write_csv_columns(data, table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    assert capsys.readouterr().err == (
        f"invalid-data: {data}: column 'timestamp', row 3: unparseable timestamp 'yesterday'\n"
    )


@pytest.mark.parametrize("drop", ["service", "feature"])
def test_window_schema_error_names_its_file(trained, scenario, tmp_path, capsys, drop):
    _, _, model_path = trained
    model = FaultModel.from_json(model_path.read_text())
    table, fault, service = scenario.windows[0]
    column = "service" if drop == "service" else model.binarization.columns[0].name
    write_csv_columns(tmp_path / "good.csv", table)
    bad = tmp_path / "bad.csv"
    write_csv_columns(bad, {k: v for k, v in table.items() if k != column})
    case = {"true_fault": fault, "true_service": service}
    manifest = tmp_path / "cases.json"
    manifest.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "cases": [{"window": "good.csv", **case}, {"window": "bad.csv", **case}],
            }
        )
    )
    message = (
        "service column 'service' missing from window"
        if drop == "service"
        else f"table is missing fitted columns [{column!r}]"
    )
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest)]) == 4
    assert capsys.readouterr().err == f"schema-error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj["binarization"]["columns"].__setitem__(0, 5),
        lambda obj: obj.__setitem__("binarization", []),
        lambda obj: obj["fault_types"].__setitem__(0, 7),
    ],
    ids=["column-number", "binarization-list", "fault-type-number"],
)
def test_model_of_the_wrong_json_shape_is_schema_error(
    trained, scenario, tmp_path, capsys, edit
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    edit(obj)
    code, model = _run_on_model("localize", obj, scenario, tmp_path)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"schema-error: {model}: ") and err.count("\n") == 1


LATIN1 = "fault_type,service,a\nf,caf\xe9,1\n".encode("latin-1")


def _non_utf8_input(reader, trained, scenario, tmp_path):
    """(argv, path) of a call whose `reader` input holds the byte 0xe9."""
    _, data, model_path = trained
    bad = tmp_path / f"bad-{reader}"
    if reader in ("config", "model", "manifest"):
        bad.write_bytes(b'{"schema_version": 1, "x": "caf\xe9"}')
    else:
        bad.write_bytes(LATIN1)
    out = str(tmp_path / "m.json")
    if reader == "data":
        return ["train", "--data", str(bad), "--model", out], bad
    if reader == "window":
        return ["localize", "--model", str(model_path), "--data", str(bad)], bad
    if reader == "config":
        return ["train", "--data", str(data), "--model", out, "--config", str(bad)], bad
    if reader == "model":
        return ["export-fingerprints", "--model", str(bad)], bad
    if reader == "manifest":
        return ["eval", "--model", str(model_path), "--manifest", str(bad)], bad
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 ok\n")
    (logs / "online.log").write_bytes(b"2024-01-01T00:00:00 caf\xe9\n")
    return ["parse-logs", "--logs", str(logs)], logs / "online.log"


@pytest.mark.parametrize(
    "reader, category",
    [
        ("data", "invalid-data"),
        ("window", "invalid-data"),
        ("config", "invalid-data"),
        ("model", "schema-error"),
        ("manifest", "invalid-data"),
        ("log", "invalid-data"),
    ],
)
def test_non_utf8_input_names_its_file(trained, scenario, tmp_path, capsys, reader, category):
    argv, path = _non_utf8_input(reader, trained, scenario, tmp_path)
    assert main(argv) == cli.EXIT_CODES[category]
    err = capsys.readouterr().err
    assert err.startswith(f"{category}: {path}: ")
    assert "'utf-8' codec can't decode byte 0xe9" in err


def test_byte_order_mark_before_the_header_is_dropped(tmp_path, capsys):
    plain = _tiny_train_csv(tmp_path)
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_csv_columns(data) == read_csv_columns(plain)
    assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 0
