"""Every workload end to end at a tiny size, and the output checks firing."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_listed_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if trace and workload.startswith("train"):
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "train-lfcr", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def run_worker(tmp_path, workload):
    import worker

    result = tmp_path / "result.json"
    rc = worker.main(["--workload", workload, "--seed", "3", "--seconds", "0.3", "--size", "tiny",
                      "--workdir", str(tmp_path / "work"), "--result", str(result),
                      "--t0", repr(time.monotonic())])
    assert rc == 0
    return json.loads(result.read_text())


def test_wrong_reconstruction_shape_counts_as_failed(tmp_path, monkeypatch):
    import worker

    monkeypatch.setattr(worker.evaluate, "reconstruct_image",
                        lambda f, method, **kw: worker.np.zeros((8, 8), dtype=worker.np.float32))
    (tmp_path / "work").mkdir()
    result = run_worker(tmp_path, "reconstruct")
    assert result["failed"] > 0
    assert any("shape" in f for f in result["failures"])


def test_training_that_changes_nothing_counts_as_failed(tmp_path, monkeypatch):
    import worker

    monkeypatch.setattr(worker.optim, "adam_step", lambda params, state, lr: None)
    (tmp_path / "work").mkdir()
    result = run_worker(tmp_path, "train-lfcr")
    assert result["failed"] > 0
    assert any("did not change" in f for f in result["failures"])
