"""Workload process: a fresh interpreter that imports ruleloc.cli, then calls it.

    python3 perfbench/worker.py --probe      print the monotonic time at which
                                             ruleloc.cli was imported
    python3 perfbench/worker.py SPEC.json    run the calls listed in SPEC.json

run.py starts it with PYTHONPATH pointing at the checkout's src/.  Calls
go through ruleloc.cli.main in this process, one after another (a closed
loop with one caller), and repeat until the next call would overrun the
time budget.  An untraced run always completes the first pass over the
workload's inputs; a traced run makes at least one untraced and one
traced call.  Only the call itself is timed.  Each output file is hashed
after its call and each distinct output is kept for run.py to check.
"""

import sys
import time

import ruleloc.cli

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

UNEXPECTED = -1  # exit code recorded when a call raises instead of returning
PROBE_EVERY_S = 0.2
# Work of the host probe: integer arithmetic, JSON parsing, and string and
# dict building, the mix the CLI spends its time on.
_PROBE_JSON = json.dumps(
    [{"column": f"c{i % 20}", "op": ">", "threshold": i * 0.001234567} for i in range(3000)]
)


def host_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i
    json.loads(_PROBE_JSON)
    words = [str(i) for i in range(15_000)]
    dict(zip(words, words))
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    resident size at fork time.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_calls(calls, budget: float, min_calls: int, outputs: Path, probes: list, tracer=None):
    """Records of the calls made, and peak RSS (KiB) after the first min_calls.

    Between calls, at most every PROBE_EVERY_S, (time, host_probe()) goes
    into probes, and once more after the last call.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((time.perf_counter(), host_probe()))
        if i == min_calls:
            rss_kb = peak_rss_kb()
        if i >= min_calls:
            typical = statistics.median(r["seconds"] for r in records)
            if time.perf_counter() - start + typical > budget:
                break
        key, argv, out = calls[i % len(calls)]
        out = Path(out)
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = ruleloc.cli.main(argv)
            else:
                with tracer.root("cli.main"):
                    code = ruleloc.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = UNEXPECTED
        seconds = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else b""
        sha = hashlib.sha256(data).hexdigest()
        kept = outputs / f"{key}-{sha[:16]}{out.suffix}"
        if not kept.exists():
            kept.write_bytes(data)
        records.append({"key": key, "code": code, "seconds": seconds, "start": t0,
                        "sha256": sha, "output": str(kept)})
        i += 1
    probes.append((time.perf_counter(), host_probe()))
    return records, rss_kb


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    run_dir = Path(spec["run_dir"])
    outputs = run_dir / "outputs"
    outputs.mkdir(exist_ok=True)
    calls, seconds = spec["calls"], spec["seconds"]
    result = {"ready": READY, "probes": []}
    probes = result["probes"]
    if not spec["trace"]:
        # Peak RSS after the first pass, whatever number of passes fits the run.
        result["untraced"], result["peak_rss_kb"] = run_calls(
            calls, seconds, len(calls), outputs, probes
        )
    else:
        from tracing import Tracer, call_metrics

        result["untraced"], _ = run_calls(calls, seconds / 2, 1, outputs, probes)
        tracer = Tracer()
        with tracer.patched():
            result["traced"], _ = run_calls(calls, seconds / 2, 1, outputs, probes, tracer)
        tracer.write(run_dir / "spans.tsv")
        result["layers"] = [m for _, m in sorted(call_metrics(tracer.spans, tracer.counts).items())]
        result["missing"] = sorted(tracer.missing)
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(repr(READY))
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
