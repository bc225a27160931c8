import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ruleloc import cli, csvgrid
from ruleloc.binarize import (
    MAX_BINS,
    NUMERIC,
    BinarizationModel,
    ColumnModel,
    SchemaError,
    check_bins,
    relabel,
    transform,
)
from ruleloc.cli import CliError, main, read_csv_columns
from ruleloc.core import (
    Coverage,
    InvalidDatasetError,
    ObjectiveContext,
    Rule,
    RuleSet,
    cover_of_rule,
)
from ruleloc.generate import SurrogateState
from ruleloc.localize import FaultModel, Rankings
from ruleloc.select import MAX_RULES, SelectionConfig, annotate_rule_set, select_rule_set

from objectives import surrogate_value
from oracle import (
    oracle_feature_matrix,
    oracle_localization_report,
    planted_fault_scenario,
    write_csv_columns,
)


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



def _run_on_fifo(data: bytes, fifo: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """ruleloc argv run in a child process, under a timeout, while a thread
    writes data to the FIFO at fifo once the child opens it."""
    os.mkfifo(fifo)

    def write():
        with suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        return subprocess.run(
            [sys.executable, "-m", "ruleloc.cli", *argv], env=env, capture_output=True, timeout=60
        )
    finally:
        # A reader that opens and closes at once releases a writer still
        # waiting for one.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_train_and_localize_read_a_fifo_to_completion(trained, scenario, tmp_path):
    """A FIFO is opened once and read to its end, so the model equals the
    one trained from the file, dataset_sha256 included."""
    _, data, model_path = trained
    piped_model = tmp_path / "piped-model.json"
    argv = ["train", "--data", str(tmp_path / "train.fifo"), "--model", str(piped_model)]
    done = _run_on_fifo(data.read_bytes(), tmp_path / "train.fifo", argv + ["-K", "2", "-l", "2"])
    assert done.returncode == 0, done.stderr
    assert piped_model.read_bytes() == model_path.read_bytes()
    window_csv = tmp_path / "w.csv"
    write_csv_columns(window_csv, scenario.windows[0][0])
    report = tmp_path / "report.json"
    argv = ["localize", "--model", str(model_path), "--data", str(tmp_path / "w.fifo")]
    done = _run_on_fifo(window_csv.read_bytes(), tmp_path / "w.fifo", argv + ["--out", str(report)])
    assert done.returncode == 0, done.stderr
    from_file = tmp_path / "from-file.json"
    argv = ["localize", "--model", str(model_path), "--data", str(window_csv)]
    assert main(argv + ["--out", str(from_file)]) == 0
    assert report.read_bytes() == from_file.read_bytes()


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("service", ["s1", '"s1"'], ids=["grid", "quoted"])
def test_train_on_a_pipe_stores_the_sha256_of_its_bytes(tmp_path, service):
    data = f"service,fault_type,a\n{service},f,1\ns2,normal,0\ns1,normal,0\n".encode()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", f"/dev/fd/{read_end}", "--model", str(model_path)]) == 0
    finally:
        os.close(read_end)
    model = FaultModel.from_json(model_path.read_text())
    assert model.metadata["dataset_sha256"] == hashlib.sha256(data).hexdigest()

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


def test_eval_metrics_and_reports_are_those_of_the_replaced_window_path(
    trained, scenario, tmp_path
):
    """eval's metrics.json and each localize report are byte-identical with
    the window binarizer and scorer patched to the oracles they replaced."""
    _, _, model_path = trained
    cases = []
    for i, (table, fault, service) in enumerate(scenario.windows):
        write_csv_columns(tmp_path / f"case{i}.csv", table)
        cases.append({"window": f"case{i}.csv", "true_fault": fault, "true_service": service})
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps({"schema_version": 1, "cases": cases}))

    def outputs(tag: str) -> list[bytes]:
        argv = ["eval", "--model", str(model_path), "--manifest", str(manifest)]
        runs = [[*argv, "--out", str(tmp_path / f"{tag}-metrics.json")]]
        for case in cases:
            window, out = tmp_path / case["window"], tmp_path / f"{tag}-{case['window']}.json"
            runs.append(
                ["localize", "--model", str(model_path), "--data", str(window), "--out", str(out)]
            )
        for run in runs:
            assert main(run) in (0, 3)
        return [Path(run[-1]).read_bytes() for run in runs]

    def oracle_rankings(model, window) -> Rankings:
        report = oracle_localization_report(model, window)
        return Rankings(
            [e["fault_type"] for e in report["fault_ranking"]],
            [e["service"] for e in report["service_ranking"]],
            report["no_signal"],
        )

    new = outputs("new")
    # eval binarizes its grouped windows, and localize each window, by
    # ruleloc.cli.feature_matrix.
    with mock.patch("ruleloc.cli.feature_matrix", oracle_feature_matrix), mock.patch(
        "ruleloc.evaluate.window_rankings", oracle_rankings
    ), mock.patch("ruleloc.cli.localization_report", oracle_localization_report):
        assert outputs("oracle") == new


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


def test_export_fingerprints_orders_thresholds_by_value(tmp_path, capsys):
    binarization = BinarizationModel((ColumnModel("cpu", NUMERIC, (9.5, 10.0)),))
    dataset = transform(binarization, {"cpu": [1.0, 9.7, 12.0, 12.0]}, [0, 1, 1, 1])
    # Features 1 and 3 are cpu > 9.5 and cpu > 10.0.
    rules = annotate_rule_set(dataset, RuleSet((Rule((3,)), Rule((1,)))))
    model_path = tmp_path / "model.json"
    model_path.write_text(FaultModel((("cpu_hog", rules),), binarization).to_json())
    assert main(["export-fingerprints", "--model", str(model_path)]) == 0
    (fingerprint,) = json.loads(capsys.readouterr().out)["fingerprints"]
    assert [(m["direction"], m["threshold"]) for m in fingerprint["metrics"]] == [
        ("high", 9.5),
        ("high", 10.0),
    ]


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
    assert capsys.readouterr().err == (
        f"invalid-data: {data}: no positive rows under any fault type in column 'fault_type'\n"
    )


def test_train_without_feature_columns_names_the_table(tmp_path, capsys):
    data = tmp_path / "labels_only.csv"
    data.write_text("fault_type\nnormal\nx\n")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--model", str(model)]) == 4
    assert capsys.readouterr().err == f"schema-error: {data}: no feature columns\n"
    assert not model.exists()


def test_train_features_may_all_come_from_the_log_join(tmp_path, capsys):
    data = tmp_path / "stamps.csv"
    data.write_text("timestamp,fault_type\n2024-01-01T00:00:05,normal\n2024-01-01T00:00:05,x\n")
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("conn from 10.0.0.1\n")
    (logs / "online.log").write_text("2024-01-01T00:00:05 disk sda1 full\n")
    model = tmp_path / "m.json"
    argv = ["train", "--data", str(data), "--model", str(model)]
    assert main([*argv, "--logs", str(logs)]) == 0
    columns = [c.name for c in FaultModel.from_json(model.read_text()).binarization.columns]
    assert columns == ["log_total", "log_unmatched", "log_distinct_new"]
    capsys.readouterr()
    assert main(argv) == 4
    assert capsys.readouterr().err == f"schema-error: {data}: no feature columns\n"


@pytest.mark.parametrize("header", ["fault_type,cpu", "fault_type", "timestamp,fault_type"])
def test_train_on_a_header_without_rows_names_the_table(tmp_path, capsys, header):
    data = tmp_path / "header.csv"
    data.write_text(header + "\n")
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "online.log").write_text("2024-01-01T00:00:05 disk sda1 full\n")
    argv = ["train", "--data", str(data), "--model", str(tmp_path / "m.json")]
    if header.startswith("timestamp"):
        argv += ["--logs", str(logs)]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"invalid-data: {data}: no data rows\n"


def test_model_without_fault_types_names_the_model(trained, tmp_path, capsys):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    obj["fault_types"] = []
    empty = tmp_path / "empty_model.json"
    empty.write_text(json.dumps(obj))
    assert main(["export-fingerprints", "--model", str(empty)]) == 5
    assert capsys.readouterr().err == f"invalid-data: {empty}: model contains no fault types\n"


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



@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "source",
    ["parse-logs-flag", "parse-logs-config", "train-config", "train-config-before-the-data"],
)
def test_non_finite_log_interval_is_invalid_data(tmp_path, capsys, source, value):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 heartbeat ok\n")
    (logs / "online.log").write_text("1970-01-01T00:00:05 worker 3 heartbeat ok\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"logs": {"interval": value}}))  # NaN or Infinity
    if source == "parse-logs-flag":
        argv = ["parse-logs", "--logs", str(logs), "--interval", str(value)]
    elif source == "parse-logs-config":
        argv = ["parse-logs", "--logs", str(logs), "--config", str(cfg)]
    else:
        data = tmp_path / "train.csv"
        data.write_text(
            "timestamp,fault_type,a\n1970-01-01T00:00:05,f,1\n1970-01-01T00:00:06,normal,0\n"
        )
        if source == "train-config-before-the-data":
            # No online* log would use the interval, and the data file is missing.
            (logs / "online.log").unlink()
            data = tmp_path / "absent.csv"
        argv = ["train", "--data", str(data), "--logs", str(logs), "--config", str(cfg),
                "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    assert capsys.readouterr().err == "invalid-data: interval must be a positive finite number\n"


@pytest.mark.parametrize(
    "value", [0, 5, -0.5, float("nan")], ids=["zero", "five", "negative", "nan"]
)
@pytest.mark.parametrize("source", ["parse-logs-flag", "train-config-without-logs"])
def test_out_of_range_log_similarity_is_invalid_data(tmp_path, capsys, source, value):
    """train checks logs.similarity before it reads the data, with or without
    --logs, as parse-logs checks --similarity."""
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 heartbeat ok\n")
    if source == "parse-logs-flag":
        argv = ["parse-logs", "--logs", str(logs), "--similarity", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"logs": {"similarity": value}}))
        argv = ["train", "--data", str(tmp_path / "absent.csv"), "--config", str(cfg),
                "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    assert capsys.readouterr().err == "invalid-data: similarity threshold must lie in (0, 1]\n"


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


def _strict_json(line: str):
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(line, parse_constant=reject)


def test_train_trace_emits_diagnostics(tmp_path, scenario, capsys):
    """--trace writes each selection record as one strict JSON line: the
    record select_rule_set emits in-process on the same data, tagged with
    its fault type; a branch's surrogate is surrogate_value at its anchor."""
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    model_path = tmp_path / "m.json"
    code = main(
        [
            "train", "--data", str(data), "--model", str(model_path),
            "-K", "3", "-l", "2", "--trace",
        ]
    )
    assert code == 0
    lines = [_strict_json(line) for line in capsys.readouterr().err.splitlines()]
    model = FaultModel.from_json(model_path.read_text())
    roles = {"fault_type", "service", "timestamp"}
    table = read_csv_columns(data, lambda name: name not in roles)
    unlabelled = transform(model.binarization, table)
    expected = []
    checked = 0
    for name in model.fault_types():
        dataset = relabel(unlabelled, [v == name for v in table["fault_type"]])
        records = []
        rule_set = select_rule_set(dataset, SelectionConfig(3, 1.0, 2), trace=records.append)
        assert rule_set == model.rule_set(name)
        cover = 0
        for rec in records:
            expected.append((name, json.loads(json.dumps(asdict(rec), allow_nan=False))))
            ctx = ObjectiveContext(dataset, cover, cover & dataset.labels, rec.alpha)
            anchor = rec.mm[0].rule if rec.mm else None
            for mm in rec.mm:
                if mm.branch in ("bound1", "bound2"):
                    state = SurrogateState.build(ctx, anchor)
                    kind = int(mm.branch[-1])
                    assert mm.surrogate == surrogate_value(state, mm.rule, kind)
                    checked += 1
                elif mm.branch == "anchor":
                    anchor = mm.rule
            if rec.accepted:
                cover |= cover_of_rule(dataset, rec.rule)
    assert [(obj.pop("fault_type"), obj) for obj in lines] == expected
    assert {name for name, _ in expected} == set(model.fault_types())
    # The third iteration finds every positive covered: no rule, no gains.
    unweighed = [(o["rule"], o["pos_gain"], o["cover_gain"]) for _, o in expected if not o["mm"]]
    assert unweighed and set(unweighed) == {(None, None, None)}
    assert all(0 < o["counted"] <= o["scans"] for _, o in expected if o["mm"])
    assert checked


def test_train_trace_is_written_before_the_model(tmp_path, scenario, capsys):
    """A train that cannot write its model still leaves the trace of every
    fault type it selected rules for."""
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    code = main(
        ["train", "--data", str(data), "--model", str(tmp_path), "-K", "1", "-l", "2", "--trace"]
    )
    assert code == cli.EXIT_IO
    *lines, error = capsys.readouterr().err.splitlines()
    assert error.startswith("io-error: ")
    assert [_strict_json(line)["fault_type"] for line in lines] == list(scenario.fault_types)


def test_parse_logs_without_online_lines_is_invalid_data(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 heartbeat ok\n")
    (logs / "online.log").write_text("")
    out = tmp_path / "frame.csv"
    assert main(["parse-logs", "--logs", str(logs), "--out", str(out)]) == 5
    assert capsys.readouterr().err == f"invalid-data: no online* log files under {logs}\n"
    assert not out.exists()


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


def test_log_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 heartbeat ok\n", encoding="utf-8")
    (logs / "online.log").write_bytes(
        b"\xef\xbb\xbf1970-01-01T00:00:05 worker 3 heartbeat ok\n"
        b"1970-01-01T00:00:09 worker 4 heartbeat ok\n"
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


def test_unsupported_config_schema_version_is_schema_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 2}))
    argv = ["train", "--data", str(_tiny_train_csv(tmp_path)), "--model", str(tmp_path / "m.json")]
    assert main(argv + ["--config", str(cfg)]) == 4
    assert capsys.readouterr().err == f"schema-error: {cfg}: unsupported config schema version\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["train", "localize"])
def test_a_0_byte_csv_is_invalid_data(trained, tmp_path, capsys, command):
    model = trained[2] if command == "localize" else tmp_path / "m.json"
    data = tmp_path / "empty.csv"
    data.write_bytes(b"")
    assert main([command, "--data", str(data), "--model", str(model)]) == 5
    assert capsys.readouterr().err == f"invalid-data: {data}: empty CSV\n"


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


def test_bad_numeric_cell_is_reported_before_the_fault_column_and_log_checks(tmp_path, capsys):
    """The reader parses the numeric cells, so a bad one fails before train
    looks for the fault-type column, the timestamp column or a column
    reserved for the --logs features."""
    data = tmp_path / "bad_cell.csv"
    write_text_csv(data, ["service,log_total,a", "s,1,1", "s,2,abc"])
    logs = _logs_dir(tmp_path, ["2024-01-01T00:00:00"])
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    assert capsys.readouterr().err == (
        f"invalid-data: {data}: column 'a', row 2: could not convert string to float: 'abc'\n"
    )


@pytest.mark.parametrize("command", ["localize", "eval"])
def test_bad_window_cell_is_reported_before_the_window_schema_checks(
    trained, scenario, tmp_path, capsys, command
):
    _, _, model_path = trained
    table, fault, service = scenario.windows[0]
    name = scenario.feature_names[0]
    bad = {k: v for k, v in table.items() if k != "service"}
    bad[name] = ["x?"] + list(table[name][1:])
    window = tmp_path / "w0.csv"
    write_csv_columns(window, bad)
    argv = [command, "--model", str(model_path)]
    if command == "localize":
        argv += ["--data", str(window)]
    else:
        manifest = tmp_path / "cases.json"
        case = {"window": "w0.csv", "true_fault": fault, "true_service": service}
        manifest.write_text(json.dumps({"cases": [case]}))
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 5
    assert capsys.readouterr().err == (
        f"invalid-data: {window}: column {name!r}, row 1: could not convert string to float: 'x?'\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gamma", "2"], "gamma must lie in [0, 1]"),
        (["-K", "0"], "max_rules must be >= 1"),
        (["-l", "0"], "max_len must be >= 1"),
        (["--bins", "1"], "numeric columns need bins >= 2"),
        (["-K", "1025"], "max_rules must be <= 1024"),
        (["-K", "100000000000"], "max_rules must be <= 1024"),
        (["--bins", "65537"], "numeric columns need bins <= 65536"),
        (["--bins", "100000000000"], "numeric columns need bins <= 65536"),
    ],
)
def test_selection_settings_are_checked_before_the_data_is_read(
    tmp_path, capsys, monkeypatch, flags, message
):
    reads, read = [], cli.read_csv_columns
    monkeypatch.setattr(cli, "read_csv_columns", lambda *a: reads.append(a) or read(*a))
    data = _tiny_train_csv(tmp_path)
    assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"), *flags]) == 5
    assert capsys.readouterr().err == f"invalid-data: {message}\n"
    assert reads == []


def test_bins_are_checked_before_the_data_file_is_opened(tmp_path, capsys):
    missing = tmp_path / "nosuch.csv"
    argv = ["train", "--data", str(missing), "--model", str(tmp_path / "m.json"), "--bins", "1"]
    assert main(argv) == 5
    assert capsys.readouterr().err == "invalid-data: numeric columns need bins >= 2\n"


@pytest.mark.parametrize(
    "training, message",
    [
        ({"K": 100000000000}, "max_rules must be <= 1024"),
        ({"bins": 100000000000}, "numeric columns need bins <= 65536"),
    ],
)
def test_capped_counts_from_a_config_fail_before_the_data_file_is_opened(
    tmp_path, capsys, training, message
):
    missing = tmp_path / "nosuch.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"training": training}))
    argv = ["train", "--data", str(missing), "--model", str(tmp_path / "m.json"),
            "--config", str(cfg)]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"invalid-data: {message}\n"


def test_caps_on_rules_and_bins_are_inclusive():
    assert (MAX_RULES, MAX_BINS) == (1024, 65536)
    assert SelectionConfig(max_rules=MAX_RULES).max_rules == MAX_RULES
    check_bins(MAX_BINS)


def test_export_fingerprints_takes_no_config_option(trained, tmp_path, capsys):
    _, _, model_path = trained
    argv = ["export-fingerprints", "--model", str(model_path)]
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--config", str(tmp_path / "missing.json")])
    assert caught.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert main(argv) == 0


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


@pytest.mark.parametrize(
    "flag, config, unknown",
    [
        ("tier,nosuch", None, "nosuch"),
        ("tier,service", None, "service"),
        ("fault_type,tier", None, "fault_type"),
        (None, ["tier", "nosuch"], "nosuch"),
        (None, ["timestamp", "tier"], "timestamp"),
    ],
    ids=["flag-absent", "flag-role", "flag-fault-column", "config-absent", "config-role"],
)
def test_categorical_column_that_is_not_a_feature_is_schema_error(
    tmp_path, capsys, flag, config, unknown
):
    data = tmp_path / "train.csv"
    data.write_text("service,fault_type,tier,a\ns1,f,web,1\ns2,normal,db,0\ns1,normal,db,0\n")
    argv = ["train", "--data", str(data), "--model", str(tmp_path / "m.json")]
    if flag:
        argv += ["--categorical", flag]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"columns": {"categorical": config}}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"schema-error: {data}: categorical column {unknown!r} is not a feature column\n"
    )
    assert not (tmp_path / "m.json").exists()


def test_categorical_log_feature_column_is_accepted_after_the_join(tmp_path, scenario):
    """The --logs columns join the table before the categorical names are
    checked, so they may be named."""
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("conn from 10.0.0.1\n")
    (logs / "online.log").write_text("2024-01-01T00:00:05 disk sda1 full\n")
    model = tmp_path / "m.json"
    argv = ["train", "--data", str(data), "--model", str(model), "--logs", str(logs)]
    assert main(argv + ["--categorical", "log_total", "-K", "1", "-l", "1"]) == 0
    columns = json.loads(model.read_text())["binarization"]["columns"]
    assert {c["name"]: c["kind"] for c in columns}["log_total"] == "categorical"


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
    # The word matrix is packed once, into one store that every fault
    # type's dataset shares.
    stores, datasets = [], []
    real_init, real_select = Coverage.__init__, ruleloc.cli.select_rule_set

    def counting_init(self, *args):
        stores.append(self)
        real_init(self, *args)

    def select_rule_set(dataset, *args, **kwargs):
        datasets.append(dataset)
        return real_select(dataset, *args, **kwargs)

    monkeypatch.setattr(Coverage, "__init__", counting_init)
    monkeypatch.setattr(ruleloc.cli, "select_rule_set", select_rule_set)
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(data), "--model", str(model_path), "-K", "1", "-l", "2"]
    )
    assert code == 0
    assert len(FaultModel.from_json(model_path.read_text()).fault_types()) == 3
    assert len(calls) == 1
    assert len(stores) == 1 and len(datasets) == 3
    assert all(ds.coverage is stores[0] for ds in datasets)
    fault_values = three.train_table["fault_type"]
    for ds, name in zip(datasets, sorted({v for v in fault_values if v != "normal"})):
        assert ds.labels == sum(1 << i for i, v in enumerate(fault_values) if v == name)


def test_train_releases_the_parsed_table_before_selection(tmp_path, monkeypatch):
    """The planted metrics are 0/1 flags, read as rows of one uint8 block;
    two float columns are rows of one float64 block.  transform reads the
    flags as they are, and both blocks are freed before selection."""
    import weakref

    import ruleloc.cli

    three = planted_fault_scenario(
        seed=7, n=900, d=12, n_fault_types=3, n_services=3, n_windows=1,
        imbalance_ratio=10.0, noise=0.0,
    )
    table = dict(three.train_table)
    rng = np.random.default_rng(7)
    for name in ("lat0", "lat1"):
        table[name] = [f"{v:.3f}" for v in rng.random(900)]
    data = tmp_path / "train.csv"
    write_csv_columns(data, table)
    real_fit, real_select = ruleloc.cli.fit, ruleloc.cli.select_rule_set
    refs, selections = [], []

    def fit(table, specs):
        # The block each group of columns views, by identity.
        flags = {id(c.base): c.base for c in (table[f"m{j:02d}"] for j in range(12))}
        floats = {id(c.base): c.base for c in (table["lat0"], table["lat1"])}
        [narrow], [wide] = flags.values(), floats.values()
        assert narrow.dtype == np.uint8 and narrow.shape == (12, 900)
        assert wide.dtype == np.float64 and wide.shape == (2, 900)
        refs.extend((weakref.ref(narrow), weakref.ref(wide)))
        return real_fit(table, specs)

    def select_rule_set(*args, **kwargs):
        if not selections:
            assert [ref() for ref in refs] == [None, None]
        selections.append(1)
        return real_select(*args, **kwargs)

    monkeypatch.setattr(ruleloc.cli, "fit", fit)
    monkeypatch.setattr(ruleloc.cli, "select_rule_set", select_rule_set)
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(data), "--model", str(model_path), "-K", "1", "-l", "2"]
    )
    assert code == 0
    assert len(refs) == 2 and len(selections) == 3


def test_main_builds_its_parser_once(trained, capsys):
    """Importing ruleloc.cli builds no parser; the first main call builds it
    and later calls reuse it."""
    _, _, model_path = trained
    probe = "import ruleloc.cli as c; print(c.build_parser.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["export-fingerprints", "--model", str(model_path)]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
        f"schema-error: {model}: binarization: expected an object, got null\n"
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


def test_description_that_disagrees_with_its_rule_is_schema_error(
    trained, scenario, tmp_path, capsys
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    rule = obj["fault_types"][-1]["rules"][-1]
    rendered = rule["description"]
    t, r = len(obj["fault_types"]) - 1, len(obj["fault_types"][-1]["rules"]) - 1
    rule["description"] = "TRUE"
    code, model = _run_on_model("localize", obj, scenario, tmp_path)
    assert code == 4
    assert capsys.readouterr().err == (
        f"schema-error: {model}: fault_types[{t}].rules[{r}].description: 'TRUE'"
        f" disagrees with the predicates, which read {rendered!r}\n"
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
        (lambda case: {"cases": [case, 5]}, "cases[1] must be a JSON object"),
        (lambda case: {"cases": [{**case, "window": 3}]}, "cases[0]: 'window' must be a string"),
        (lambda case: {"schema_version": 1, "cases": []}, "no cases"),
    ],
    ids=[
        "top-level-list", "cases-not-a-list", "case-missing-key", "case-not-an-object",
        "window-not-a-string", "no-cases",
    ],
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

    for name in ("_log_lines", "build_template_base", "match_and_aggregate"):
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


@pytest.mark.parametrize("kind", ["missing", "regular-file"])
@pytest.mark.parametrize("command", ["train", "parse-logs"])
def test_logs_path_that_is_not_a_directory_is_io_error(
    tmp_path, scenario, capsys, monkeypatch, command, kind
):
    def no_log_work(*args, **kwargs):
        raise AssertionError("a log line was read before the directory check")

    monkeypatch.setattr(cli, "_log_lines", no_log_work)
    logs = tmp_path / "logs"
    if kind == "regular-file":
        logs.write_text("worker 1 ok\n")
    model = tmp_path / "m.json"
    argv = ["parse-logs", "--logs", str(logs)]
    if command == "train":
        data = tmp_path / "train.csv"
        write_csv_columns(data, scenario.train_table)
        argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(model)]
    assert main(argv) == 6
    assert capsys.readouterr().err == f"io-error: {logs}: not a directory\n"
    assert not model.exists()


def test_logs_directory_is_checked_after_the_table_schema(tmp_path, capsys):
    data = _tiny_train_csv(tmp_path)
    argv = ["train", "--data", str(data), "--logs", str(tmp_path / "missing"),
            "--model", str(tmp_path / "m.json")]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"schema-error: {data}: timestamp column 'timestamp' required to join log features\n"
    )


def test_log_commands_pass_line_streams(tmp_path, scenario, monkeypatch):
    """Both commands hand the template build and the matcher lazy iterators,
    never a list of a file's lines.  train runs its log pass in this
    process, where the spies record, when one CPU is usable."""
    _usable_cpus(monkeypatch, {0})
    streams = []

    def spy(function, position):
        def call(*args, **kwargs):
            lines = args[position]
            streams.append(lines)
            assert iter(lines) is lines
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "build_template_base", spy(cli.build_template_base, 0))
    monkeypatch.setattr(cli, "match_and_aggregate", spy(cli.match_and_aggregate, 1))
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    out = tmp_path / "frame.csv"
    assert main(["parse-logs", "--logs", str(logs), "--out", str(out)]) == 0
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 0
    assert len(streams) == 4


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _usable_cpus(monkeypatch, cpus: set) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _counted_forks(monkeypatch) -> list:
    """A list that gains one entry per os.fork call from now on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.fixture(params=["forked", "inline"])
def log_pass(request, monkeypatch):
    """The CPU check patched so that the one train call of the test runs its
    log pass in a forked child, or in this process.  Checks that a forked
    pass came back through the pipe: this process never ran it."""
    forked = request.param == "forked"
    _usable_cpus(monkeypatch, {0, 1} if forked else {0})
    forks = _counted_forks(monkeypatch)
    runs, log_counters = [], cli._log_counters
    monkeypatch.setattr(cli, "_log_counters", lambda *a: runs.append(1) or log_counters(*a))
    yield
    assert forks == [1] * forked
    if forked:
        assert runs == []


def test_forked_and_inline_log_pass_write_the_same_model(tmp_path, scenario, monkeypatch):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 ok\nconn from 10.0.0.1\n")
    stamps = scenario.train_table["timestamp"][:400]
    (logs / "online.log").write_text(
        "".join(
            f"{t} disk sda{i % 3} full\n" if i % 7 == 0 else f"{t} worker {i} ok\n"
            for i, t in enumerate(stamps)
        )
    )
    forks = _counted_forks(monkeypatch)
    models = []
    for cpus in ({0, 1}, {0}):
        _usable_cpus(monkeypatch, cpus)
        model = tmp_path / f"model-{len(cpus)}.json"
        argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(model),
                "-K", "2", "-l", "2"]
        assert main(argv) == 0
        _no_child_left()
        models.append(model.read_bytes())
    assert forks == [1]
    assert models[0] == models[1]
    names = {c.name for c in FaultModel.from_json(models[0].decode()).binarization.columns}
    assert {"log_total", "log_unmatched", "log_distinct_new"} <= names


def test_forked_log_pass_is_skipped_without_two_cpus_or_with_a_thread(
    tmp_path, scenario, monkeypatch
):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    forks = _counted_forks(monkeypatch)
    _usable_cpus(monkeypatch, {0})
    assert main(argv) == 0
    _usable_cpus(monkeypatch, {0, 1})
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert main(argv) == 0
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert main([*argv[:-2], "--model", str(tmp_path / "m2.json")]) == 0
    assert forks == [1]
    _no_child_left()


def test_the_table_is_split_across_two_processes_only_while_a_cpu_is_free(
    tmp_path, scenario, monkeypatch
):
    """A table of more than _CHUNK_ROWS rows is read by two processes when a
    CPU is free of this process and its children: never on one CPU or with
    a live thread, and not beside the log pass on two CPUs.  Each case
    writes the same model."""
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    rows = len(scenario.train_table["fault_type"])
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])
    forks = _counted_forks(monkeypatch)
    models: dict[bool, set] = {False: set(), True: set()}
    for cpus, chunk_rows, with_logs, thread, want in [
        ({0}, rows // 2, False, False, 0),
        ({0, 1}, rows // 2, False, True, 0),
        ({0, 1}, rows // 2, False, False, 1),
        ({0, 1}, rows, False, False, 0),
        ({0, 1}, rows // 2, True, False, 1),
        ({0, 1, 2}, rows // 2, True, False, 2),
    ]:
        _usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(csvgrid, "_CHUNK_ROWS", chunk_rows)
        model = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--model", str(model), "-K", "2", "-l", "2"]
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        if thread:
            waiting.start()
        forks.clear()
        try:
            assert main(argv + ["--logs", str(logs)] * with_logs) == 0
        finally:
            done.set()
        if thread:
            waiting.join(timeout=10)
        assert len(forks) == want
        _no_child_left()
        models[with_logs].add(model.read_bytes())
    assert len(models[False]) == len(models[True]) == 1


@pytest.mark.parametrize("logs_kind", ["missing", "not-utf-8"])
def test_csv_error_is_reported_before_a_broken_logs_directory(
    tmp_path, capsys, log_pass, logs_kind
):
    data = tmp_path / "bad_cell.csv"
    write_text_csv(data, ["timestamp,fault_type,a", "2024-01-01T00:00:00,f,1", "t,normal,abc"])
    logs = tmp_path / "logs"
    if logs_kind == "not-utf-8":
        logs.mkdir()
        (logs / "normal.log").write_bytes(b"worker \xff ok\n")
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    assert capsys.readouterr().err == (
        f"invalid-data: {data}: column 'a', row 2: could not convert string to float: 'abc'\n"
    )
    _no_child_left()


def test_non_utf8_online_log_names_its_file_and_position(tmp_path, scenario, capsys, log_pass):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:1])
    online = logs / "online.log"
    online.write_bytes(online.read_bytes() + b"2024-01-01T00:00:07 worker \xff ok\n")
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    assert main(argv) == 5
    position = len(online.read_bytes().split(b"\xff")[0])
    assert capsys.readouterr().err == (
        f"invalid-data: {online}: 'utf-8' codec can't decode byte 0xff in position {position}:"
        " invalid start byte\n"
    )
    _no_child_left()


def test_logs_path_naming_a_file_is_io_error_with_either_log_pass(
    tmp_path, scenario, capsys, log_pass
):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = tmp_path / "logs.txt"
    logs.write_text("worker 1 ok\n")
    model = tmp_path / "m.json"
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(model)]
    assert main(argv) == 6
    assert capsys.readouterr().err == f"io-error: {logs}: not a directory\n"
    assert not model.exists()
    _no_child_left()


def test_no_online_logs_warns_with_either_log_pass(tmp_path, scenario, log_pass):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "normal.log").write_text("worker 1 ok\n")
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    with pytest.warns(UserWarning, match=f"no online\\* log files under {logs}"):
        assert main(argv) == 0
    _no_child_left()


def test_interrupted_csv_read_leaves_no_child(tmp_path, scenario, monkeypatch, log_pass):
    data = tmp_path / "train.csv"
    write_csv_columns(data, scenario.train_table)
    logs = _logs_dir(tmp_path, scenario.train_table["timestamp"][:5])

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "read_csv_columns", interrupted)
    argv = ["train", "--data", str(data), "--logs", str(logs), "--model", str(tmp_path / "m.json")]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    _no_child_left()


def test_cli_error_pickles_with_its_category():
    error = pickle.loads(pickle.dumps(CliError("io-error", "logs: not a directory")))
    assert (error.category, str(error)) == ("io-error", "logs: not a directory")


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


def _first_rule(obj) -> dict:
    return obj["fault_types"][0]["rules"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda obj: obj["binarization"]["columns"].__setitem__(0, 5),
            "binarization.columns[0]: expected an object, got 5",
        ),
        (
            lambda obj: obj.__setitem__("binarization", []),
            "binarization: expected an object, got a list",
        ),
        (
            lambda obj: obj["fault_types"].__setitem__(0, 7),
            "fault_types[0]: expected an object, got 7",
        ),
        (lambda obj: [], "the model: expected an object, got a list"),
        (
            lambda obj: obj["binarization"]["columns"][2].__setitem__("thresholds", 3),
            "binarization.columns[2].thresholds: expected a list, got 3",
        ),
        (
            lambda obj: obj["binarization"]["columns"][2]["thresholds"].insert(0, 10**400),
            "binarization.columns[2].thresholds: int too large to convert to float",
        ),
        (
            lambda obj: _first_rule(obj).__setitem__("precision", "high"),
            'fault_types[0].rules[0].precision: expected a number in [0, 1], got "high"',
        ),
        (
            lambda obj: _first_rule(obj).__setitem__("recall", True),
            "fault_types[0].rules[0].recall: expected a number in [0, 1], got true",
        ),
        (
            lambda obj: _first_rule(obj).__setitem__("covered", -1),
            "fault_types[0].rules[0].covered: expected a non-negative integer, got -1",
        ),
        (
            lambda obj: _first_rule(obj).__setitem__("covered", False),
            "fault_types[0].rules[0].covered: expected a non-negative integer, got false",
        ),
        (
            lambda obj: _first_rule(obj)["predicates"][0].__setitem__("feature", True),
            "fault_types[0].rules[0].predicates[0].feature:"
            " expected a non-negative integer, got true",
        ),
        (
            lambda obj: _first_rule(obj).__delitem__("covered"),
            "fault_types[0].rules[0].covered: missing",
        ),
        (
            lambda obj: _first_rule(obj).__setitem__("description", None),
            "fault_types[0].rules[0].description: expected a string, got null",
        ),
        (
            lambda obj: _first_rule(obj).__delitem__("description"),
            "fault_types[0].rules[0].description: missing",
        ),
    ],
    ids=[
        "column-number", "binarization-list", "fault-type-number", "model-list",
        "thresholds-number", "threshold-too-large", "precision-text", "recall-boolean",
        "covered-negative", "covered-boolean", "feature-boolean", "covered-missing",
        "description-null", "description-missing",
    ],
)
def test_model_of_the_wrong_json_shape_is_schema_error(
    trained, scenario, tmp_path, capsys, edit, message
):
    _, _, model_path = trained
    obj = json.loads(model_path.read_text())
    replaced = edit(obj)  # None where edit changed obj in place
    code, model = _run_on_model("localize", obj if replaced is None else replaced, scenario, tmp_path)
    assert code == 4
    assert capsys.readouterr().err == f"schema-error: {model}: {message}\n"


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
    if reader == "data-past-first-block":
        # The bad byte lies past the cell reader's first 8 KB decode block.
        bad.write_bytes(LATIN1.replace(b"\nf,", b"\n" + b"normal,s0,1\n" * 2500 + b"f,"))
    if reader.startswith("data"):
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
    online = b"2024-01-01T00:00:00 caf\xe9\n"
    if reader == "log-past-first-block":
        # The bad byte lies at 32023, past the line stream's first 8 KB
        # decode block; the message still counts from the file's start.
        online = b"2024-01-01T00:00:00 worker 2 ok\n" * 1000 + online
    (logs / "online.log").write_bytes(online)
    return ["parse-logs", "--logs", str(logs)], logs / "online.log"


@pytest.mark.parametrize(
    "reader, category",
    [
        ("data", "invalid-data"),
        ("data-past-first-block", "invalid-data"),
        ("window", "invalid-data"),
        ("config", "invalid-data"),
        ("model", "schema-error"),
        ("manifest", "invalid-data"),
        ("log", "invalid-data"),
        ("log-past-first-block", "invalid-data"),
    ],
)
def test_non_utf8_input_names_its_file(trained, scenario, tmp_path, capsys, reader, category):
    argv, path = _non_utf8_input(reader, trained, scenario, tmp_path)
    assert main(argv) == cli.EXIT_CODES[category]
    err = capsys.readouterr().err
    assert err.startswith(f"{category}: {path}: ")
    position = path.read_bytes().index(0xE9)
    assert f"'utf-8' codec can't decode byte 0xe9 in position {position}: " in err
    if reader == "log-past-first-block":
        assert position == 32023
    if reader == "data-past-first-block":
        assert position == 30026


def test_byte_order_mark_before_the_header_is_dropped(tmp_path, capsys):
    plain = _tiny_train_csv(tmp_path)
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_csv_columns(data) == read_csv_columns(plain)
    assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 0


@pytest.mark.parametrize("reader", ["config", "model", "manifest"])
def test_json_input_may_start_with_a_byte_order_mark(trained, scenario, tmp_path, capsys, reader):
    _, data, model_path = trained
    if reader == "config":
        plain = tmp_path / "cfg.json"
        plain.write_text(json.dumps({"training": {"K": 1, "l": 2}}))
    elif reader == "model":
        plain = model_path
    else:
        plain = tmp_path / "cases.json"
        plain.write_text(json.dumps({"cases": [_window_case(scenario, tmp_path)]}))
    marked = tmp_path / f"bom-{plain.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        out = tmp_path / f"out-{path.name}"
        if reader == "config":
            argv = ["train", "--data", str(data), "--model", str(out), "--config", str(path)]
        elif reader == "model":
            argv = ["export-fingerprints", "--model", str(path), "--out", str(out)]
        else:
            argv = ["eval", "--model", str(model_path), "--manifest", str(path), "--out", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("reader", ["config", "model", "manifest"])
@pytest.mark.parametrize(
    "nested",
    ["[" * 200_000 + "]" * 200_000, '{"a": ' * 5_000 + "1" + "}" * 5_000],
    ids=["arrays", "objects"],
)
def test_too_deeply_nested_json_is_one_error_line(trained, tmp_path, capsys, reader, nested):
    _, data, model_path = trained
    bad = tmp_path / f"deep-{reader}.json"
    bad.write_text(nested)
    out = str(tmp_path / "out.json")
    if reader == "config":
        argv = ["train", "--data", str(data), "--model", out, "--config", str(bad)]
        prefix = f"invalid-data: {bad}: bad JSON config: "
    elif reader == "model":
        argv = ["export-fingerprints", "--model", str(bad)]
        prefix = f"schema-error: {bad}: "
    else:
        argv = ["eval", "--model", str(model_path), "--manifest", str(bad)]
        prefix = f"invalid-data: {bad}: "
    assert main(argv) == cli.EXIT_CODES[prefix.split(":")[0]]
    err = capsys.readouterr().err
    assert err.startswith(prefix + "maximum recursion depth exceeded"), err[:300]
    assert err.count("\n") == 1
