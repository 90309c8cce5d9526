"""Summarise benchmark records, or compare two sets of them.

Records are the JSON files ``run.py`` writes to ``perfbench/out/``::

    python3 perfbench/compare.py perfbench/baseline/*.json
    python3 perfbench/compare.py perfbench/baseline/*.json --against perfbench/out/*.json

Each metric is shown per workload as median [first quartile, third
quartile] and the quartile spread as a share of the median. With
``--against`` the second set's median is checked against the first's by
the metric's bound from ``BENCHMARK.json``. Records made on different
machines, thread caps or library versions are not compared: the command
lists the differing environment keys and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("nproc", "blas_threads", "cpu", "caches", "numpy", "blas", "python")


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def stats(records: list[dict], name: str):
    values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("records", nargs="+")
    p.add_argument("--against", nargs="+", default=[])
    args = p.parse_args(argv)
    old, new = load(args.records), load(args.against)

    envs = {}
    for group in (*old.values(), *new.values()):
        for r in group:
            envs.setdefault(tuple(r["env"].get(k) for k in ENV_KEYS), r["env"])
    if len(envs) > 1:
        first, *others = envs.values()
        for other in others:
            diff = {k: (first.get(k), other.get(k)) for k in ENV_KEYS if first.get(k) != other.get(k)}
            print(f"not comparable, environments differ: {diff}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    verdicts = []
    for key in sorted(old):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'untraced'}, {len(old[key])} runs"
              + (f" vs {len(new.get(key, []))}" if new else "") + ")")
        for name in old[key][0]["metrics"]:
            m, a = meta.get(name, {}), stats(old[key], name)
            if a is None:
                continue
            spread = (a[2] - a[1]) / a[0] if a[0] else 0.0
            line = f"  {name:40s} {a[0]:12.5g} [{a[1]:.5g}, {a[2]:.5g}] spread {spread:6.3f}"
            b = stats(new.get(key, []), name) if new else None
            if b is not None and "bound" in m:
                worse = b[0] / a[0] - 1 if m["better"] == "lower" else 1 - b[0] / a[0]
                verdict = ("unresolved" if spread > m["bound"]
                           else "REGRESSION" if worse > m["bound"] else "ok")
                verdicts.append(verdict)
                line += f"  -> {b[0]:12.5g} ({worse:+.3f} worse, bound {m['bound']}) {verdict}"
            print(line + f" {m.get('unit', '')}")
    return 1 if "REGRESSION" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
