"""Run-to-run spread of the end-to-end metrics across seeds.

Usage::

    python3 perfbench/spread.py [--workloads fit-mix,...] [--seeds 10] [--out FILE]

Runs ``run.py`` untraced once per seed 1, 2, ... and workload, one run at a
time, and prints for each metric the median and the quartile spread
``(Q3 - Q1) / median`` computed with ``statistics.quantiles(values, n=4)``,
next to the metric's bound from ``BENCHMARK.json``.  ``--out`` writes every
run's report (raw values, speed probe, run record) and result line, and
each metric's quartiles, as one JSON file; this is the form of the
end-to-end baseline kept under ``perfbench/baselines/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from report import load_spec, run


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run(workload, seed, False)
            runs.append({"seed": seed, "report": result["report"], **result["result"]})
            if not result["result"]["correct"]:
                correct = False
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
        out[workload] = {"runs": runs, "metrics": summarize(workload, runs, bounds)}
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if correct else 1


def summarize(workload, runs, bounds) -> dict:
    """Print and return each metric's median, quartiles and spread."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": q2, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bounds[name]}
        print(f"{workload:18s} {name:16s} median {q2:12.6g}  spread {spread:6.3f}"
              f"  bound {bounds[name]:5.2f}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}",
              flush=True)
    return summary


if __name__ == "__main__":
    sys.exit(main())
