#!/usr/bin/env python3
"""Benchmark of the ruleloc CLI: four workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its src/.
Inputs are generated from the seed (untimed, cached under
perfbench/.work/).  Each run starts a fresh worker process that imports
ruleloc.cli and calls it in a closed loop with one caller for about S
seconds; setup_s is also measured in separate probe processes and
reported as a median.  Every output is checked against reference.py,
and the last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the same calls untraced and then traced, and
reports the per-layer metrics, the tracing overhead, and whether the
traced outputs are byte-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150

NOMINAL_PROBE_S = 0.010  # worker.host_probe on the 2-core sandbox the bounds were set on


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def plan(workload: str, in_dir: Path, out: Path) -> list[tuple[str, list[str], str]]:
    """(key, CLI argv, output file) of each call in one pass over the workload."""
    if workload.startswith("train-"):
        calls = []
        for j in range(inputs.TRAIN_DRAWS[workload]):
            draw, model = in_dir / f"draw-{j}", str(out / f"model-{j}.json")
            argv = ["train", "--data", str(draw / "train.csv"), "--model", model]
            if workload == "train-telemetry":
                argv += ["--logs", str(draw / "logs"), "--workers", "2"]
            calls.append((f"model-{j}", argv, model))
        return calls
    model = str(in_dir / "model.json")
    if workload == "eval-batch":
        argv = ["eval", "--model", model, "--manifest", str(in_dir / "manifest.json"),
                "--out", str(out / "metrics.json")]
        return [("metrics", argv, str(out / "metrics.json"))]
    calls = []
    for case in json.loads((in_dir / "windows.json").read_text(encoding="utf-8")):
        key = "report-" + Path(case["window"]).stem
        argv = ["localize", "--model", model, "--data", str(in_dir / case["window"]),
                "--out", str(out / f"{key}.json")]
        calls.append((key, argv, str(out / f"{key}.json")))
    return calls


class Checker:
    """Expected exit code and output check of every call, from reference.py."""

    def __init__(self, workload: str, in_dir: Path):
        self.workload = workload
        self.inputs = in_dir
        self.info = json.loads((in_dir / "inputs.json").read_text(encoding="utf-8"))
        self.model = None
        if not workload.startswith("train-"):
            self.model = json.loads((in_dir / "model.json").read_text(encoding="utf-8"))
        self._refs: dict[str, dict] = {}
        self._verdicts: dict[str, list[str]] = {}

    @staticmethod
    def draw(key: str) -> str:
        return "draw-" + key[len("model-"):]

    @staticmethod
    def window(key: str) -> str:
        return f"windows/{key[len('report-'):]}.csv"

    def ref(self, window: str) -> dict:
        if window not in self._refs:
            self._refs[window] = reference.window_scores(
                self.model, reference.read_table(self.inputs / window)
            )
        return self._refs[window]

    def expected_code(self, key: str) -> int:
        if self.workload == "localize-single":
            return 3 if self.ref(self.window(key))["no_signal"] else 0
        return 0

    def output_mismatches(self, key: str, path: str) -> list[str]:
        if path in self._verdicts:
            return self._verdicts[path]
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return self._verdicts.setdefault(path, [f"unreadable output: {exc}"])
        if self.workload.startswith("train-"):
            table = reference.read_table(self.inputs / self.draw(key) / "train.csv")
            found = reference.check_train_model(obj, table, self.info["fault_types"])
        elif self.workload == "eval-batch":
            manifest = json.loads((self.inputs / "manifest.json").read_text(encoding="utf-8"))
            cases = manifest["cases"]
            refs = [self.ref(c["window"]) for c in cases]
            found = reference.check_metrics(obj, refs, cases, self.info["fault_types"])
        else:
            found = reference.check_report(obj, self.ref(self.window(key)))
        return self._verdicts.setdefault(path, found)

    def quality(self, first_outputs: dict[str, str]) -> float:
        """heldout_f1_macro: mean per-fault-type F1 of the workload's decisions."""
        names = self.info["fault_types"]
        if self.workload.startswith("train-"):
            scores = []
            for key, path in first_outputs.items():
                model = json.loads(Path(path).read_text(encoding="utf-8"))
                table = reference.read_table(self.inputs / self.draw(key) / "heldout.csv")
                scores.append(reference.heldout_f1_macro(model, table, table["fault_type"]))
            return statistics.fmean(scores)
        if self.workload == "eval-batch":
            metrics = json.loads(Path(first_outputs["metrics"]).read_text(encoding="utf-8"))
            return sum(metrics["per_fault_type"][n]["f1"] for n in names) / len(names)
        cases = json.loads((self.inputs / "windows.json").read_text(encoding="utf-8"))
        predictions, truths = [], []
        for case in cases:
            key = "report-" + Path(case["window"]).stem
            report = json.loads(Path(first_outputs[key]).read_text(encoding="utf-8"))
            top = report["fault_ranking"][0]["fault_type"]
            predictions.append(reference.NO_SIGNAL if report["no_signal"] else top)
            truths.append(case["true_fault"] or reference.NO_SIGNAL)
        return reference.f1_macro(predictions, truths, names)


def judge(checker: Checker, records: list[dict], first_sha: dict[str, str]) -> list[str]:
    """Problems of each call in order; also pins the first output hash per key."""
    problems = []
    for rec in records:
        key = rec["key"]
        found = []
        want = checker.expected_code(key)
        if rec["code"] != want:
            found.append(f"exit code {rec['code']}, expected {want}")
        found += checker.output_mismatches(key, rec["output"])
        if first_sha.setdefault(key, rec["sha256"]) != rec["sha256"]:
            found.append("output differs from this key's first output")
        problems.append(f"{key}: " + "; ".join(found) if found else "")
    return problems


def host_scaled(records: list[dict], probes: list) -> list[float]:
    """Each call's seconds at nominal host speed.

    On a shared host the same call can take up to twice as long from one
    second to the next.  The worker times a fixed piece of pure-Python work
    (worker.host_probe) between calls; each call is scaled by
    NOMINAL_PROBE_S over the mean of the probes just before and after it.
    """
    times = [t for t, _ in probes]
    out = []
    for r in records:
        before = bisect.bisect_right(times, r["start"]) - 1
        after = bisect.bisect_left(times, r["start"] + r["seconds"])
        host = (probes[max(before, 0)][1] + probes[min(after, len(probes) - 1)][1]) / 2
        out.append(r["seconds"] * NOMINAL_PROBE_S / host)
    return out


def call_seconds(records: list[dict], probes: list) -> float:
    """call_ms / 1000: mean over the workload's inputs of each input's median
    host-scaled call time.  Each train draw is one input, called once."""
    by_key: dict[str, list[float]] = {}
    for r, scaled in zip(records, host_scaled(records, probes)):
        by_key.setdefault(r["key"], []).append(scaled)
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_probe(env: dict) -> float:
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--probe"],
        env=env, capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"setup probe failed:\n{done.stderr.strip()}")
    return float(done.stdout.strip()) - t0


def run_workload(workload: str, seed: int, seconds: int, trace: bool, units: dict) -> dict:
    inputs_dir = inputs.build(workload, seed, WORK / "inputs")
    run_dir = WORK / "runs" / f"{workload}-{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    spec = {"run_dir": str(run_dir), "seconds": seconds, "trace": trace,
            "calls": plan(workload, inputs_dir, run_dir)}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    env = worker_env()
    # Half the probes run before the worker and half after it, so the median
    # spans the run rather than one moment of a host whose speed drifts.
    setup = [setup_probe(env) for _ in range(SETUP_PROBES // 2)]
    with open(run_dir / "worker.out", "wb") as out, open(run_dir / "worker.err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env, stdout=out, stderr=err, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0:
        fail(f"{workload}: worker exited {code}; see {run_dir / 'worker.err'}")
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    setup.append(result["ready"] - t0)
    setup += [setup_probe(env) for _ in range(SETUP_PROBES - len(setup))]

    checker = Checker(workload, inputs_dir)
    first_sha: dict[str, str] = {}
    untraced = result["untraced"]
    traced = result.get("traced", [])
    problems = judge(checker, untraced, first_sha) + judge(checker, traced, first_sha)
    first_outputs = {}
    for rec in untraced:
        first_outputs.setdefault(rec["key"], rec["output"])

    latencies = [r["seconds"] for r in untraced]
    out = {
        "workload": workload,
        "inputs": inputs_dir,
        "input_files": checker.info["files"],
        "outputs": {Path(r["output"]).name: r["sha256"] for r in untraced + traced},
        "attempted": len(problems),
        "problems": [p for p in problems if p],
        "latencies": latencies,
        "probe_s": statistics.median(p for _, p in result["probes"]),
        "setup_s": statistics.median(setup),
    }
    if not trace:
        out["metrics"] = {
            "setup_s": out["setup_s"],
            "call_ms": 1000.0 * call_seconds(untraced, result["probes"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "heldout_f1_macro": checker.quality(first_outputs),
        }
    else:
        # Times: median per traced call.  Counts and ratios: mean per call over
        # the first traced pass, so each input of the workload counts once.
        layers = result["layers"]
        first_pass = layers[: len(spec["calls"])]
        metrics = {}
        for name, unit in units.items():
            values = [m.get(name, 0) for m in (layers if unit == "s" else first_pass)]
            if not values:
                metrics[name] = 0.0
            elif unit == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = sum(values) / len(values)
        metrics["trace.overhead_s"] = statistics.median(
            host_scaled(traced, result["probes"])
        ) - statistics.median(host_scaled(untraced, result["probes"]))
        out["metrics"] = metrics
        out["missing"] = result["missing"]
        out["traced_calls"] = len(traced)
        out["trace_identical"] = all(r["sha256"] == first_sha[r["key"]] for r in traced)
    return out


def report(res: dict, seed: int, trace: bool, units: dict) -> None:
    """Human-readable lines for one workload (everything but the JSON line)."""
    w = res["workload"]
    files = res["input_files"]
    digest = inputs_digest(files)
    print(f"== {w} seed={seed} trace={int(trace)}")
    print(f"inputs: {len(files)} files, combined sha256 {digest} (per-file list in "
          f"{Path(res['inputs']).relative_to(ROOT)}/inputs.json)")
    for name, sha in sorted(res["outputs"].items()):
        print(f"output sha256 {sha}  {name}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    for name in res.get("missing", []):
        print(f"trace: {name} not found; its layer metrics read 0")
    m = res["metrics"]
    attempted = res["attempted"]
    lines = [("setup_s", res["setup_s"], "s")]
    if not trace:
        lat = res["latencies"]
        lines.append(("call_ms (host-scaled, see host_scaled)", m["call_ms"], "ms"))
        lines.append(("host probe median (nominal 10 ms)", 1000.0 * res["probe_s"], "ms"))
        if w.startswith("train-"):
            print("train_s per draw: " + " ".join(f"{s:.3f}" for s in lat))
            lines.append((f"train_s (mean of {len(lat)} draws)", statistics.fmean(lat), "s"))
        elif w == "eval-batch":
            cases = inputs.EVAL_WINDOWS
            lines.append(("eval_windows_per_s", cases * len(lat) / sum(lat), "1/s"))
        else:
            lines.append(("localize_p50_ms", 1000.0 * statistics.median(lat), "ms"))
            t = tail(lat)
            if t is None:
                print("localize_tail_ms: fewer than 11 samples")
            else:
                lines.append((f"localize_tail_ms (p{t[1]:.1f} of {t[2]} samples)",
                              1000.0 * t[0], "ms"))
        lines.append(("peak_rss_mb", m["peak_rss_mb"], "MB"))
        lines.append(("heldout_f1_macro", m["heldout_f1_macro"], "ratio"))
    else:
        print(f"traced calls: {res['traced_calls']}; traced outputs byte-identical to "
              f"untraced: {'yes' if res['trace_identical'] else 'no'}")
        lines += [(name, value, units[name]) for name, value in m.items()]
    lines.append(("failed_frac", len(res["problems"]) / attempted, "ratio"))
    for name, value, unit in lines:
        print(f"{name:<44} {value:>14.6g} {unit}")


def inputs_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, sha in sorted(files.items()):
        h.update(f"{sha}  {name}\n".encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ruleloc" / "cli.py").is_file():
        fail(f"no ruleloc sources at {SRC}; run from the root of a ruleloc checkout")
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    units = metric_units("per_layer" if trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, trace, units) for w in names]
    for res in results:
        report(res, args.seed, trace, units)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["problems"]) for r in results)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
