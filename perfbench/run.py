"""heavytail benchmark: one workload, end-to-end or traced.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` directory.  With ``--trace 0`` the run measures the
end-to-end metrics with no tracing installed: it spawns the workload's
set-up three times to time it, sets up, then runs whole passes until
``--seconds`` have elapsed.  On the in-process workloads a speed probe runs
between the timed calls, and the latency and rate are scaled by it to the
reference machine speed (see ``common.SpeedProbe``); the report keeps each
raw value beside it.

With ``--trace 1`` it alternates untraced and traced passes on the same
inputs for the per-layer metrics and the tracing overhead, then runs the
layer table (``probe.py``) for layers the workload does not reach.

The second-to-last line of standard output is a JSON report with the run
record, the workload's own metrics with their sample counts and
percentiles, and every failed check; the last line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Workloads: fit-mix, study-grid, gaussianize-bulk, cli-pipeline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    WORK_ROOT,
    SetupError,
    SpeedProbe,
    median,
    run_record,
    time_until_ready,
    use_checkout_source,
)
from metrics import END_TO_END, EXACT_UNITS, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = {"full": 3, "minimal": 1}
MAX_NOTES = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "minimal"), default="full",
                        help="minimal shrinks every input, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def make_workload(ht, args, workdir):
    return WORKLOADS[args.workload](ht, args.seed, args.size, workdir)


def one_pass(wl, index, tracer):
    """Prepare, execute (traced when ``tracer`` is given) and check a pass."""
    inputs = wl.prepare(index)
    installed = tracer is not None and wl.in_process
    if installed:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = wl.execute(inputs, tracer)
    finally:
        if installed:
            tracer.uninstall()
    wall = time.perf_counter() - t0
    return wall, wl.check(inputs, raw)


def kind_medians(ops) -> dict[str, float]:
    """The median wall time of each kind of call in the workload's mix.

    A kind (``mle_hh``, ``w_tau``, a CLI command) pools all its calls over
    tails and passes, about 20 on ``fit-mix``.  The gated latency and rate
    are built from these medians, not from all calls at once: the kinds'
    times differ over 1000-fold, so a median over the whole mix falls in a
    gap between kinds and jumps with the data of a few series.  One slow
    fit moves a kind's median little; the tail shows in the report's
    ``_ptail``.
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    return {kind: median(v) for kind, v in by_kind.items()}


def run_end_to_end(ht, args, workdir):
    setup_cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                 "--size", args.size, "--setup-only"]
    setup_samples = [time_until_ready(setup_cmd) for _ in range(SETUP_SAMPLES[args.size])]
    wl = make_workload(ht, args, workdir)
    wl.setup()
    # Only in-process calls are scaled: no probe tried (a fresh interpreter
    # importing numpy, or numpy and scipy) followed the time of a new
    # process from one phase of the machine to the next, so set-up and the
    # CLI commands are reported as measured.
    probe = wl.probe = SpeedProbe() if wl.in_process else None
    ops = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        ops += one_pass(wl, index, None)[1]
        index += 1
    by_kind = kind_medians(ops)
    kinds = list(by_kind.values())
    raw = {
        "setup_s": median(setup_samples),
        # Every kind weighs the same, however fast: a 2 ms fit that gets 2x
        # faster moves this as much as a 300 ms one.
        "latency_gmean_s": math.exp(statistics.fmean(math.log(v) for v in kinds)),
        # Dominated by the slowest kinds, as a user's wall time is.
        "ops_per_s": len(kinds) / sum(kinds),
    }
    scale = probe.scale() if probe else 1.0
    metrics = {
        "setup_s": raw["setup_s"],
        "peak_rss_mb": wl.peak_rss_mb(),
        "latency_gmean_s": raw["latency_gmean_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
    }
    report = {
        "passes": index,
        "speed_probe": probe.report() if probe else None,
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": len(setup_samples),
                    "percentile": 50},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        "kind_p50_s": by_kind,
        "latency_gmean_s": {"value": metrics["latency_gmean_s"], "raw": raw["latency_gmean_s"],
                            "unit": "s", "samples": len(ops), "percentile": 50},
        "ops_per_s": {"value": metrics["ops_per_s"], "raw": raw["ops_per_s"], "unit": "1/s",
                      "samples": len(ops), "percentile": 50},
        **wl.report(ops),
    }
    return metrics, report, ops


def run_traced(ht, args, workdir):
    from probe import run_probe
    from tracing import Tracer, layer_metrics

    wl = make_workload(ht, args, workdir)
    wl.setup()
    ops, plain_ops, runs, overheads = [], [], [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        walls = {}
        # Alternate which side goes first so that warm caches favour neither.
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            tracer = Tracer() if traced else None
            walls[traced], pass_ops = one_pass(wl, index, tracer)
            ops += pass_ops
            if traced:
                runs.append(layer_metrics(tracer.spans))
            else:
                plain_ops += pass_ops
        overheads.append((walls[True] - walls[False], walls[True] / walls[False] - 1.0))
        index += 1

    extra, extra_ops = wl.traced_extra()
    ops += extra_ops
    probe_metrics, table = run_probe(ht, args.seed, workdir, args.size)

    own = {}
    for name in {k for run in runs for k in run}:
        if UNITS.get(name) in EXACT_UNITS:
            own[name] = runs[0][name]
        else:
            own[name] = median([run[name] for run in runs if name in run])
    own.update(extra)
    own["trace.overhead_s"] = median([o[0] for o in overheads])
    own["trace.overhead_share"] = median([o[1] for o in overheads])
    metrics = {**probe_metrics, **own}
    report = {
        "passes": index,
        "traced_passes": len(runs),
        "from_workload": sorted(own),
        "from_layer_table": sorted(set(probe_metrics) - set(own)),
        "layer_table": table,
        **wl.report(plain_ops),
    }
    return metrics, report, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("HEAVYTAIL_THREADS"):
        print("error: HEAVYTAIL_THREADS is set; the benchmark measures the package "
              "default, so unset it", file=sys.stderr)
        return 2
    try:
        ht = use_checkout_source()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.setup_only:
            make_workload(ht, args, workdir).setup()
            print("ready", flush=True)
            return 0
        run = run_traced if args.trace else run_end_to_end
        metrics, report, ops = run(ht, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name, _, _ in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = [op for op in ops if not op.ok]
    report["record"] = run_record(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.size)
    report["attempted"] = len(ops)
    report["failed_ratio"] = {"value": len(failed) / len(ops), "unit": "ratio",
                              "samples": len(ops)}
    report["failures"] = [op.note for op in failed[:MAX_NOTES]]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit, _ in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
