"""Shared helpers: the checkout's source tree, seeds, timing statistics,
child processes and the run record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch space for input files, child output and span dumps; removed at exit.
WORK_ROOT = ROOT / ".perfbench-work"

CHILD_TIMEOUT_S = 150.0

# The time the speed probe takes on the reference machine (2 vCPUs of an
# Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17).  The latency and rate of
# the in-process workloads are scaled by this over the probe's time in the
# same run; see ``SpeedProbe``.
PROBE_REFERENCE_S = 0.030


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad environment)."""


def use_checkout_source():
    """Import ``heavytail`` from ``<checkout>/src`` and nowhere else."""
    pkg = SRC / "heavytail"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no heavytail source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heavytail

    if Path(heavytail.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"heavytail was imported from {heavytail.__file__}")
    return heavytail


class SpeedProbe:
    """The machine's speed, measured by fixed reference work between calls.

    The host this benchmark runs on lends its cores to other tenants, and
    their load changes the speed of interpreter-bound code by up to 1.6x, in
    bursts of milliseconds and in phases of tens of seconds.  A run is too
    short to average the phases out, so the timed metrics of the in-process
    workloads are multiplied by ``scale()``: the probe's reference time
    over its time in the same run.  The probe runs between the timed calls,
    for a fixed share of their time, so it sees the same phases they do.
    Its work is fixed and never touches heavytail, so a change to the
    package cannot move it: Nelder-Mead fits on an array of 1000 points, as
    the estimators make, and compiling a fixed Python source.
    """

    SHARE = 0.1  # probe time as a share of the timed calls' time
    TRIM = 0.1  # share of the probe times dropped at each end before the mean

    def __init__(self):
        import numpy as np

        self.owed = 0.0
        self.samples: list[float] = []
        self.small = np.random.default_rng(20101010).standard_normal(1000)
        self.source = "\n".join(
            f"def f{i}(a, b=1):\n    return [a * k + b for k in range(a) if k % 3]\n"
            for i in range(75))

    def once(self) -> float:
        import numpy as np
        from scipy import optimize

        small = self.small

        def nll(p):
            z = (small - p[0]) / np.exp(p[1])
            return float(np.sum(0.5 * z * z + 0.1 * np.log1p(z * z)) + small.size * p[1])

        t0 = time.perf_counter()
        for start in (0.3, -0.3, 0.6, -0.6):
            optimize.minimize(nll, [start, 0.2], method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 200})
        compile(self.source, "<probe>", "exec")
        return time.perf_counter() - t0

    def after(self, seconds: float) -> None:
        """Follow a timed call of ``seconds`` with its share of probing.

        Probing owed by short calls is carried over, so the probe runs about
        once per ``once() / SHARE`` seconds of timed calls, whatever their
        length.
        """
        self.owed += self.SHARE * seconds
        while self.owed > 0.0:
            self.samples.append(self.once())
            self.owed -= self.samples[-1]

    def seconds(self) -> float:
        """The probe's time in this run: the mean of its middle 80 %."""
        ordered = sorted(self.samples)
        cut = int(self.TRIM * len(ordered))
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        """Reference speed over this run's speed: multiply a time by it."""
        return PROBE_REFERENCE_S / self.seconds()

    def report(self) -> dict:
        return {"value": self.seconds(), "unit": "s", "samples": len(self.samples),
                "reference": PROBE_REFERENCE_S, "scale": self.scale()}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env.pop("HEAVYTAIL_THREADS", None)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def derive_seed(*keys: int) -> int:
    """A 32-bit seed determined by the benchmark seed and a position."""
    import numpy as np

    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[int | None, float | None]:
    """The highest whole percentile with at least ten samples above it.

    Returns ``(percentile, value)`` by nearest rank, or ``(None, None)``
    when fewer than 20 samples leave no such percentile above the median.
    """
    n = len(values)
    if n < 20:
        return None, None
    ordered = sorted(values)
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, float(ordered[rank - 1])


def _wait(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` on ``proc`` with a timeout; kills the child on expiry."""
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise TimeoutError(f"child {proc.args!r} exceeded {timeout} s")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(cmd, stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run ``cmd`` to completion: (exit code, wall seconds, peak RSS in MB).

    The wall time runs from spawn to exit; the peak RSS is the child's own,
    read from its resource usage when it is reaped.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        code, usage = _wait(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return code, wall, usage.ru_maxrss / 1024.0


def time_until_ready(cmd) -> float:
    """Seconds from spawning ``cmd`` until it prints its first line.

    The child reports readiness with one line on stdout and then exits;
    a child that exits without it, or with a nonzero code, is an error.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SetupError(f"set-up child failed: {err.decode(errors='replace')[-400:]}")
    return elapsed


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names the code it ran."""
    h = hashlib.sha256()
    for path in sorted((SRC / "heavytail").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_record(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
