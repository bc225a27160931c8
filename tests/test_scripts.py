import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_ARGS = ["--n", "2000", "--d", "20", "--windows", "20", "--seed", "7"]


def _planted_benchmark(tmp_path: Path, *extra: str) -> subprocess.CompletedProcess:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        "TMPDIR": str(tmp_path),
    }
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "planted_benchmark.py"), *SMOKE_ARGS, *extra],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_planted_benchmark_leaves_no_temp_dir(tmp_path):
    run = _planted_benchmark(tmp_path)
    assert run.returncode == 0, run.stderr
    assert '"fault_A@1"' in run.stdout
    assert not list(tmp_path.glob("ruleloc-*"))


def test_planted_benchmark_keeps_artifacts_in_workdir(tmp_path):
    workdir = tmp_path / "kept"
    run = _planted_benchmark(tmp_path, "--workdir", str(workdir))
    assert run.returncode == 0, run.stderr
    assert {p.name for p in workdir.iterdir()} == {"train.csv", "model.json", "metrics.json"}
    assert not list(tmp_path.glob("ruleloc-*"))
