"""Run all four workloads and print every metric by name.

Usage::

    python3 perfbench/report.py [--trace] [--out FILE]

Runs each workload once untraced with seed 1 for ``run_seconds`` from
``BENCHMARK.json`` and prints its end-to-end metrics, each with its unit,
sample count and percentile, plus ``failed_ratio``.  With ``--trace`` it
instead runs each workload traced twice, prints the per-layer metrics and
the tracing overhead, and checks that every exact count (unit ``count`` or
``ratio``) is identical in the two traced runs.  ``--out`` writes the
reports and result lines as one JSON file; the traced form is the
per-layer baseline kept under ``perfbench/baselines/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT  # noqa: E402
from metrics import EXACT_UNITS  # noqa: E402

SEED = 1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(load_spec()["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_metrics(workload, entries) -> None:
    for name, entry in entries:
        samples = entry.get("samples", "")
        pct = entry.get("percentile")
        pct = f"p{pct}" if pct is not None else ("" if "percentile" not in entry else "n/a")
        print(f"{workload:18s} {name:34s} {fmt(entry['value']):>14s} {entry['unit']:8s}"
              f" {samples!s:>7s} {pct:>5s}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {}
    mismatches = []
    print(f"{'workload':18s} {'metric':34s} {'value':>14s} {'unit':8s} {'samples':>7s} {'pct':>5s}")
    for workload in (w["name"] for w in spec["workloads"]):
        if not args.trace:
            e2e = run(workload, SEED, False)
            out[workload] = e2e
            print_metrics(workload, [(k, v) for k, v in e2e["report"].items()
                                     if isinstance(v, dict) and "value" in v])
            continue
        first, second = (run(workload, SEED, True) for _ in range(2))
        out[workload] = [first, second]
        layer = first["result"]["metrics"]
        print_metrics(workload, layer.items())
        for name, metric in layer.items():
            again = second["result"]["metrics"][name]["value"]
            if units[name] in EXACT_UNITS and metric["value"] != again:
                mismatches.append(f"{workload} {name}: {metric['value']} then {again}")
    for line in mismatches:
        print(f"count differs between traced runs: {line}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    results = [r["result"] for runs in out.values() for r in (runs if args.trace else [runs])]
    return 1 if mismatches or not all(r["correct"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
