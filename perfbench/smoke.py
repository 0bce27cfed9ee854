"""Smoke test of the benchmark.

Usage: ``python3 perfbench/smoke.py`` (exit code 0 when every check holds;
about two minutes on two cores).

For every workload it runs ``run.py`` at minimal size, untraced and traced,
and checks that the run succeeds, that its outputs are correct, and that
every metric named in ``BENCHMARK.json`` is emitted with its unit.  It also
checks that ``run.py`` refuses to run, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT, WORK_ROOT  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spec(spec) -> list[str]:
    errors = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(ours):
            errors.append(f"BENCHMARK.json {key} differs from metrics.py")
    return errors


def check_run(spec, workload, trace) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "minimal"]
    proc = run(cmd, ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        report = json.loads(proc.stdout.splitlines()[-2])["report"]
        errors.append(f"{where}: not correct: {report['failures']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{where}: {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: {metric['name']} emitted as {got}")
    return errors


def check_refuses_without_source() -> list[str]:
    WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fit-mix",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py ran in a directory without the package source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec) + check_refuses_without_source()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errs = check_run(spec, workload, trace)
            print(f"{workload:18s} trace={trace}: {'ok' if not errs else 'FAILED'}", flush=True)
            errors += errs
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
