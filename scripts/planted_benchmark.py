#!/usr/bin/env python3
"""End-to-end planted-fault benchmark.

Generates an imbalanced multi-fault telemetry table with known DNF
ground truth, trains through the CLI entry point, then measures held-out
F1 per fault type and ranking accuracy over planted incident windows.

    python scripts/planted_benchmark.py --n 10000 --d 40 --ratio 50 \
        --noise 0.05 --windows 100 --seed 606
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

from ruleloc.binarize import feature_matrix, relabel, transform
from ruleloc.cli import main as cli_main
from ruleloc.cli import write_csv_columns
from ruleloc.core import f1_score
from ruleloc.evaluate import IncidentCase, evaluate_cases, planted_fault_scenario
from ruleloc.localize import FaultModel, QueryWindow


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--d", type=int, default=40)
    parser.add_argument("--ratio", type=float, default=50.0)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--fault-types", type=int, default=3)
    parser.add_argument("--services", type=int, default=5)
    parser.add_argument("--windows", type=int, default=100)
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--workdir", help="keep artifacts here instead of a temp dir")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="ruleloc-"))
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"artifacts under {workdir}")

    t0 = time.perf_counter()
    scenario = planted_fault_scenario(
        seed=args.seed, n=args.n, d=args.d, imbalance_ratio=args.ratio,
        noise=args.noise, n_fault_types=args.fault_types,
        n_services=args.services, n_windows=args.windows,
    )
    train_csv = workdir / "train.csv"
    write_csv_columns(train_csv, scenario.train_table)
    model_path = workdir / "model.json"
    t1 = time.perf_counter()
    code = cli_main(["train", "--data", str(train_csv), "--model", str(model_path)])
    if code != 0:
        return code
    t2 = time.perf_counter()

    model = FaultModel.from_json(model_path.read_text())
    print("\nheld-out F1 per fault type:")
    heldout = transform(model.binarization, scenario.heldout_table)
    for name in model.fault_types():
        ds = relabel(heldout, [v == name for v in scenario.heldout_table["fault_type"]])
        print(f"  {name}: {f1_score(ds, model.rule_set(name)):.4f}")

    cases = []
    for table, fault, service in scenario.windows:
        window = QueryWindow(feature_matrix(model.binarization, table), tuple(table["service"]))
        cases.append(IncidentCase(window, fault, service))
    report = evaluate_cases(model, cases, train_seconds=t2 - t1)
    t3 = time.perf_counter()

    print()
    print(report.to_table())
    (workdir / "metrics.json").write_text(report.to_json())
    print(f"generation {t1 - t0:.2f}s, training {t2 - t1:.2f}s, "
          f"evaluation {t3 - t2:.2f}s")
    print(json.dumps({"fault_A@1": report.fault_top_k[0],
                      "service_A@1": report.service_top_k[0],
                      "kappa": report.kappa}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
