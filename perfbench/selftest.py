#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that one seed gives the same
input bytes twice, that the reference scorer agrees with the program on
a small hand-computed case, and that corrupted outputs are counted as
failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from run import SRC, WORK
from inputs import build, write_csv
import reference

TMP = WORK / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def cli(*argv: str) -> int:
    from ruleloc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def same_seed_same_inputs() -> Path:
    first = build("eval-batch", 7, TMP / "a")
    second = build("eval-batch", 7, TMP / "b")
    other = build("eval-batch", 8, TMP / "a")
    files = [json.loads((d / "inputs.json").read_text())["files"] for d in (first, second, other)]
    check(files[0] == files[1], "the same seed gives the same input hashes")
    check(files[0] != files[2], "another seed gives other inputs")
    return first


def hand_case() -> None:
    from ruleloc.binarize import FeatureSpec, fit
    from ruleloc.core import Rule, RuleSet, RuleStats
    from ruleloc.localize import FaultModel

    # Catalog of a, b in {0, 1} at 2 bins: 0 a<=0.5, 1 a>0.5, 2 b<=0.5, 3 b>0.5.
    binarization = fit({"a": [0, 1], "b": [0, 1]}, [FeatureSpec("a", bins=2), FeatureSpec("b", bins=2)])
    x = RuleSet((Rule((1,)),), (RuleStats(0.9, 0.5, 10),))
    y = RuleSet((Rule((1, 3)), Rule((3,))), (RuleStats(0.5, 0.2, 4), RuleStats(0.25, 0.4, 16)))
    model = FaultModel((("x", x), ("y", y)), binarization)
    model_path = TMP / "hand-model.json"
    model_path.write_text(model.to_json(), encoding="utf-8")
    window = TMP / "hand-window.csv"
    write_csv(window, {"service": ["svc0", "svc0", "svc1", "svc1"]}, ["a", "b"],
              np.array([[1, 0], [1, 1], [0, 1], [0, 0]]))
    out = TMP / "hand-report.json"
    code = cli("localize", "--model", str(model_path), "--data", str(window), "--out", str(out))
    check(code == 0, "localize exits 0 on a window where rules fire")

    model_obj = json.loads(model_path.read_text())
    ref = reference.window_scores(model_obj, reference.read_table(window))
    want_faults = {"x": 0.9 + 0.9, "y": 0.5 + 0.25}
    want_services = {"svc0": 0.9 + 0.9 + 0.5, "svc1": 0.25}
    check(all(math.isclose(ref["faults"][k], v) for k, v in want_faults.items()),
          "reference fault scores match the hand computation")
    check(all(math.isclose(ref["services"][k], v) for k, v in want_services.items()),
          "reference service scores match the hand computation")
    report = json.loads(out.read_text())
    check(reference.check_report(report, ref) == [], "the program's report agrees with the reference")

    report["fault_ranking"][1]["score"] += 0.125
    check(reference.check_report(report, ref) != [], "a corrupted fault score is caught")
    report = json.loads(out.read_text())
    report["explanations"]["services"]["svc0"][0]["hits"] += 1
    check(reference.check_report(report, ref) != [], "a corrupted hit count is caught")

    quiet = TMP / "hand-quiet.csv"
    write_csv(quiet, {"service": ["svc0"]}, ["a", "b"], np.array([[0, 0]]))
    code = cli("localize", "--model", str(model_path), "--data", str(quiet), "--out", str(out))
    ref = reference.window_scores(model_obj, reference.read_table(quiet))
    check(code == 3 and ref["no_signal"], "exit code 3 exactly where the reference finds no signal")


def train_case() -> None:
    rng = np.random.default_rng(0)
    m = (rng.random((400, 6)) < 0.3).astype(np.int64)
    labels = ["f" if a and b else "normal" for a, b in m[:, :2].tolist()]
    data = TMP / "train.csv"
    write_csv(data, {"fault_type": labels}, [f"m{j}" for j in range(6)], m)
    model_path = TMP / "train-model.json"
    check(cli("train", "--data", str(data), "--model", str(model_path)) == 0, "train exits 0")
    model = json.loads(model_path.read_text())
    table = reference.read_table(data)
    check(reference.check_train_model(model, table, ["f"]) == [],
          "reference rule statistics agree with the trained model")
    model["fault_types"][0]["rules"][0]["covered"] += 1
    check(reference.check_train_model(model, table, ["f"]) != [], "a corrupted rule count is caught")


def corrupted_output_counts(inputs_dir: Path) -> None:
    out = TMP / "metrics.json"
    code = cli("eval", "--model", str(inputs_dir / "model.json"),
               "--manifest", str(inputs_dir / "manifest.json"), "--out", str(out))
    bad = TMP / "metrics-corrupt.json"
    metrics = json.loads(out.read_text())
    metrics["service_top_k"][0] -= 0.005
    bad.write_text(json.dumps(metrics))
    checker = run.Checker("eval-batch", inputs_dir)
    records = [
        {"key": "metrics", "code": code, "sha256": "good", "output": str(out)},
        {"key": "metrics", "code": code, "sha256": "good", "output": str(bad)},
    ]
    problems = [p for p in run.judge(checker, records, {}) if p]
    check(len(problems) == 1, "a corrupted eval metrics file counts as one failed call")
    records[1]["output"] = str(out)
    records[1]["sha256"] = "changed"
    problems = [p for p in run.judge(checker, records, {}) if p]
    check(len(problems) == 1, "an output that differs from its key's first output counts as failed")


def main() -> int:
    if not (SRC / "ruleloc" / "cli.py").is_file():
        run.fail(f"no ruleloc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    if TMP.exists():
        shutil.rmtree(TMP)
    TMP.mkdir(parents=True)
    inputs_dir = same_seed_same_inputs()
    hand_case()
    train_case()
    corrupted_output_counts(inputs_dir)
    shutil.rmtree(TMP)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
