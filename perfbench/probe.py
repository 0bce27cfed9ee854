"""The layer table: every layer once, traced, on one n = 1000 series.

It reproduces the rows of the baseline table in ROADMAP.md (``lambert_w0``,
``loglik``, ``mle_joint`` h/hh/student-t, ``igmm``, ``igmm_double_tail``,
CLI ``fit`` wall time and import time) and supplies the per-layer metrics
of layers a traced workload does not reach itself.

Run ``python3 perfbench/probe.py [--seed N]`` to print the table.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK_ROOT,
    SetupError,
    derive_seed,
    median,
    run_child,
    use_checkout_source,
)
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import compare_threads, gaussian_dist  # noqa: E402

PROBE_UID = 9
DELTA = 1 / 3


def _spawn_median(cmd, workdir: Path, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        code, wall, _ = run_child(cmd, workdir / "spawn.out", workdir / "spawn.err")
        if code != 0:
            raise RuntimeError(f"{cmd!r} exited with {code}: "
                               f"{(workdir / 'spawn.err').read_text()[-300:]}")
        walls.append(wall)
    return median(walls)


@contextlib.contextmanager
def _stdout_to(path: Path):
    """Send file descriptor 1 to ``path``: the CLI also prints through
    ``sys.stdout`` objects bound as default arguments at import time."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(path, "wb") as sink:
            os.dup2(sink.fileno(), 1)
            try:
                yield
            finally:
                sys.stdout.flush()
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def run_probe(ht, seed: int, workdir: Path, size: str = "full") -> tuple[dict, dict]:
    """Per-layer metrics and ROADMAP table rows from one traced probe."""
    from heavytail.cli import main as cli_main
    from heavytail.cli import write_series

    full = size == "full"
    n, reps, spawns = (1000, 20, 3) if full else (200, 3, 1)
    dist = gaussian_dist(ht, DELTA)
    y = ht.rlambertw(n, dist, seed=derive_seed(seed, PROBE_UID, 0))
    probs = (0.5 + np.arange(n)) / n
    y_file = workdir / "probe_y.txt"
    write_series(y, y_file)
    tau_arg = f"--tau=0,1,{DELTA!r}"
    commands = {
        "simulate": ["simulate", tau_arg, "--n", str(n), "--out", str(workdir / "sim.txt")],
        "fit": ["fit", str(y_file), "--json"],
        "fit_hh": ["fit", str(y_file), "--tail", "hh", "--json"],
        "gaussianize": ["gaussianize", str(y_file), "--fit", "--method", "igmm",
                        "--out", str(workdir / "g.txt")],
        "transform": ["transform", str(y_file), tau_arg, "--direction", "inverse",
                      "--out", str(workdir / "x.txt")],
    }
    plan = ht.StudyPlan(sample_sizes=(100,), delta_values=(DELTA,), replications=2,
                        estimators=ht.simulate.ESTIMATORS,
                        seed=derive_seed(seed, PROBE_UID, 1))

    tracer = Tracer()
    tracer.install()
    try:
        tau = dist.tau
        for i in range(reps):
            ht.lambert_w0(DELTA * y * y)
            x = ht.w_tau(y, tau)
            ht.h_tau(x, tau)
            dist.cdf(y)
            dist.pdf(y)
            dist.logpdf(y)
            dist.quantile(probs)
            ht.loglik(y, dist)
            ht.rlambertw(n, dist, seed=derive_seed(seed, PROBE_UID, 2, i))
            ht.anderson_darling(y)
        ht.mle_joint(y)
        ht.mle_joint(y, tail="hh")
        ht.mle_joint(y, family="student-t")
        ht.Gaussianizer("igmm").fit_transform(y)
        ht.Gaussianizer("igmm", "hh").fit_transform(y)
        ht.mle_delta_only(y)
        ht.run_study(plan)
        for label, argv in commands.items():
            with _stdout_to(workdir / "cli.out"):
                code = tracer.call("cli.main", cli_main, argv, label=label)
            if code != 0:
                raise RuntimeError(f"heavytail {' '.join(argv)} exited with {code}")
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer.spans)
    speedup, identical = compare_threads(ht, plan, workdir)
    if not identical:
        raise RuntimeError("run_study tables differ between 1 and 2 worker threads")
    metrics["simulate.study.speedup_2_threads"] = speedup
    python = sys.executable
    metrics["cli.interpreter_s"] = _spawn_median([python, "-c", "pass"], workdir, spawns)
    metrics["cli.import_s"] = _spawn_median([python, "-c", "import heavytail"], workdir, spawns)
    fit_wall = _spawn_median([python, "-m", "heavytail.cli", *commands["fit"]], workdir, 1)

    def per_call(name, label=None):
        """Median span of ``name``; unlabelled names count only outermost calls."""
        return median([r[4] - r[3] for r in tracer.spans if r[1] == name and r[2] == label
                       and (label is not None or r[5] == -1)])

    rows = {
        f"lambert_w0 (n = {n}), ms": 1e3 * per_call("lambert_w0"),
        f"loglik (n = {n}), ms": 1e3 * per_call("loglik"),
        "mle_joint (h), s": per_call("mle_joint", "mle_h"),
        "mle_joint (hh), s": per_call("mle_joint", "mle_hh"),
        "mle_joint (student-t), s": per_call("mle_joint", "mle_t"),
        "igmm, s": per_call("igmm", "igmm"),
        "igmm_double_tail, s": per_call("igmm_double_tail", "igmm_hh"),
        "mle_joint (h) loglik calls": metrics["estimation.mle_h.loglik_calls"],
        "heavytail fit (CLI, wall), s": fit_wall,
        "python -c 'import heavytail' (wall), s": metrics["cli.import_s"],
        "python -c pass (wall), s": metrics["cli.interpreter_s"],
        "run_study 2 threads vs default, speed-up": speedup,
    }
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        ht = use_checkout_source()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    try:
        _, rows = run_probe(ht, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(f"| Layer (Gaussian input, delta = 1/3, seed {args.seed}) | Measurement |")
    print("|---|---|")
    for name, value in rows.items():
        print(f"| {name} | {value:.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
