"""nrsr benchmark: training and reconstruction throughput, traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, 30 s each
    python3 perfbench/run.py --workload train-lfcr --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``), one after
another: four set-up-only processes and one measured process, so that
``setup_s`` is a median of five and ``peak_rss_mb`` belongs to one
workload. BLAS pools are capped at the CPUs this process may use
(``nproc``); the cap and the rest of the environment are recorded with
every result in ``perfbench/out/``. All workloads are closed loops from a
single process with no concurrent clients; inputs are synthetic images
made from ``--seed``.

With ``--trace 0`` the last line holds the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics. The command
exits 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-lfcr", "train-vdsr", "reconstruct")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(threads: int) -> dict:
    """Machine, versions and source identity to keep beside every result."""
    env = {"nproc": threads, "blas_threads": threads, "python": platform.python_version(),
           "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = []
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level}{kind[0].lower()} {size}")
        env["caches"] = ", ".join(caches)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def spawn(args, workdir: Path, tag: str, child_env: dict, deadline: float, setup_only: bool):
    """Run one worker to completion; returns (result dict or None, error text)."""
    result = workdir / f"{tag}.json"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir / tag), "--result", str(result),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    (workdir / tag).mkdir(parents=True)
    # worker chatter goes to stderr so stdout ends with our one result line
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=child_env)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, f"{tag}: killed after the {TIME_LIMIT_S:.0f} s limit"
    if rc != 0:
        return None, f"{tag}: worker exited with {rc}"
    return json.loads(result.read_text()), ""


def run_workload(args, spec: dict) -> int:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    child_env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    env = environment(threads)
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    setups, errors = [], []
    main = None
    try:
        for k in range(SETUP_PROBES):
            probe, err = spawn(args, workdir, f"setup{k}", child_env, deadline, True)
            if probe is None:
                errors.append(err)
            else:
                setups.append(probe["setup_s"])
        main, err = spawn(args, workdir, "main", child_env, deadline, False)
        if main is None:
            errors.append(err)
        spans = workdir / "main-spans.json"
        if spans.exists():
            spans.replace(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, dict] = {}
    if main is None:
        attempted, failed, extras = 1, 1, {}   # a killed worker fails all of its units
    else:
        setups.append(main["setup_s"])
        env.update(main["env"])
        attempted, failed, extras = main["attempted"], main["failed"], main["extras"]
        errors += main["failures"]
        values = dict(main["metrics"], setup_s=statistics.median(setups))
        for m in listed:
            value = values.get(m["name"])
            if value is None or not math.isfinite(value):
                errors.append(f"metric {m['name']} missing or not finite")
            else:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not errors and failed == 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, "setup_samples_s": setups,
              "units": main and main["units"], "unit_walls_ms": main and main["unit_walls_ms"],
              "extras": extras, "errors": errors,
              "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
              "wall_s": time.monotonic() - start}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'}  size {args.size} ==")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  ({name} = {value})")
    print(f"  units: {record['units']}  failed_ratio: {failed}/{attempted}")
    for e in errors:
        print(f"  FAILED CHECK: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long smoke inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nrsr" / "__init__.py").is_file():
        print(f"perfbench: no nrsr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return run_workload(args, spec)
    rc = 0
    for workload in WORKLOADS:   # each in its own process, none aborts the next
        rc |= subprocess.call([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size])
    return rc


if __name__ == "__main__":
    sys.exit(main())
