"""The four benchmark workloads.

Each workload is a closed loop: one client in one process makes one call
at a time.  A pass is a fixed amount of work determined by the benchmark
seed and the pass index, split into three steps so that input generation
and output checks stay out of the timings and out of the traced spans:

* ``prepare(index)`` builds the pass's inputs;
* ``execute(inputs, tracer)`` makes the timed calls and returns raw results
  (``tracer`` is only used by workloads that trace child processes);
* ``check(inputs, raw)`` checks every output and returns one :class:`Op`
  per timed call.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import BENCH_DIR, derive_seed, median, run_child, sha256, tail

# Criterion 9: IGMM leaves Gaussianized kurtosis within 10x its tolerance of 3.
IGMM_KURTOSIS_BAND = 10 * 1.22e-4
ROUND_TRIP_RTOL = 1e-9
W_IDENTITY_RTOL = 1e-12
HH_SLACK = 1e-6
# Seed of the inputs that warm the caches during set-up.  It does not depend
# on --seed, so that set-up does the same work in every run.
WARMUP_SEED = 2**31 - 1


@dataclass
class Op:
    """One timed call: its kind, wall time, work done (input elements;
    replications for a study) and the outcome of its checks."""

    kind: str
    seconds: float
    elements: int
    ok: bool
    note: str | None = None
    raised: bool = False


def timed(fn, *args, **kwargs):
    """``(result, seconds, error)``; a raising call is recorded, not fatal."""
    t0 = time.perf_counter()
    try:
        out, err = fn(*args, **kwargs), None
    except Exception as exc:  # the benchmark counts failures and keeps going
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, err


def kurtosis(x: np.ndarray) -> float:
    c = x - x.mean()
    m2 = np.mean(c * c)
    return float(np.mean(c**4) / (m2 * m2))


def relative_error(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def split_ok(total, input_part, penalty_part) -> bool:
    return total == input_part + penalty_part and penalty_part <= 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gaussian_dist(ht, delta):
    return ht.LambertWDist(ht.Gaussian(0.0, 1.0), delta)


class Workload:
    name = ""
    uid = 0
    in_process = True

    def __init__(self, ht, seed: int, size: str, workdir: Path):
        self.ht = ht
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.digest = None
        # A SpeedProbe to run after each timed call; end-to-end runs set it.
        self.probe = None

    def timed(self, fn, *args, **kwargs):
        """:func:`timed`, then the probe's share of the call's time."""
        out = timed(fn, *args, **kwargs)
        if self.probe is not None:
            self.probe.after(out[1])
        return out

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def traced_extra(self) -> tuple[dict, list[Op]]:
        """Per-layer metrics only a traced run measures, and their checks."""
        return {}, []


class FitMix(Workload):
    """Six estimator calls on each of four n = 1000 series per pass."""

    name = "fit-mix"
    uid = 1
    DELTAS = (0.0, 0.1, 1 / 3, 1.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 1000 if self.size == "full" else 200
        ht = self.ht

        def gaussianize(tail_kind):
            def call(y):
                g = ht.Gaussianizer("igmm", tail_kind)
                x = g.fit_transform(y)
                return g.result_, x

            return call

        self.calls = (
            ("mle_h", lambda y: (ht.mle_joint(y), None)),
            ("mle_hh", lambda y: (ht.mle_joint(y, tail="hh"), None)),
            ("mle_t", lambda y: (ht.mle_joint(y, family="student-t"), None)),
            ("igmm", gaussianize("h")),
            ("igmm_hh", gaussianize("hh")),
            # The series are standardized by their generating location and
            # scale (0, 1), which mle_delta_only takes as known.
            ("delta_only", lambda y: (ht.mle_delta_only(y), None)),
        )

    def setup(self):
        y = self.ht.rlambertw(200, gaussian_dist(self.ht, 0.2), seed=WARMUP_SEED)
        for _, call in self.calls:
            call(y)

    def prepare(self, index):
        series = []
        for i, delta in enumerate(self.DELTAS):
            dist = gaussian_dist(self.ht, delta)
            seed = derive_seed(self.seed, self.uid, index, i)
            series.append((delta, dist, self.ht.rlambertw(self.n, dist, seed=seed)))
        return series

    def execute(self, series, tracer=None):
        return [[(name,) + self.timed(call, y) for name, call in self.calls]
                for _, _, y in series]

    def check(self, series, raw):
        ops = []
        estimates = {}
        for (delta, dist, y), results in zip(series, raw):
            by_name = {name: out for name, out, _, _ in results}
            truth = self.ht.loglik(y, dist).total
            for name, out, seconds, err in results:
                note = err or self._check_fit(name, out, by_name, truth)
                ops.append(Op(name, seconds, y.size, note is None,
                              note and f"delta={delta}: {note}", err is not None))
                if out is not None:
                    estimates[f"{delta!r}/{name}"] = {k: repr(v) for k, v in out[0].params.items()}
        if self.digest is None:
            self.digest = sha256(json.dumps(estimates, sort_keys=True).encode())
        return ops

    @staticmethod
    def _check_fit(name, out, by_name, truth):
        fit, x = out
        if not all(math.isfinite(v) for v in fit.params.values()):
            return f"{name}: non-finite estimate {fit.params}"
        if x is not None and not np.all(np.isfinite(x)):
            return f"{name}: non-finite Gaussianized values"
        if not split_ok(fit.loglik_total, fit.loglik_input, fit.loglik_penalty):
            return f"{name}: log-likelihood split does not add up or penalty > 0"
        if name == "mle_h" and fit.loglik_total < truth:
            return f"mle_h loglik {fit.loglik_total!r} below the generating parameters' {truth!r}"
        if name == "mle_hh" and by_name.get("mle_h") is not None:
            h_total = by_name["mle_h"][0].loglik_total
            if fit.loglik_total < h_total - HH_SLACK:
                return f"mle_hh loglik {fit.loglik_total!r} below mle_h {h_total!r}"
        if name == "igmm" and fit.boundary_hit is None:
            k = kurtosis(x)
            if abs(k - 3.0) > IGMM_KURTOSIS_BAND:
                return f"igmm Gaussianized kurtosis {k!r} outside 3 +- {IGMM_KURTOSIS_BAND}"
        return None

    def report(self, ops):
        seconds = [op.seconds for op in ops]
        completed = sum(1 for op in ops if not op.raised)
        t = tail(seconds)
        return {
            "fit_p50_s": {"value": median(seconds), "unit": "s", "samples": len(seconds),
                          "percentile": 50},
            "fit_ptail_s": {"value": t[1], "unit": "s", "samples": len(seconds),
                            "percentile": t[0]},
            "fits_per_s": {"value": completed / sum(seconds), "unit": "1/s",
                           "samples": len(seconds)},
            "estimates_sha256": self.digest,
        }


def table_bytes(table, workdir: Path) -> bytes:
    csv_path, json_path = workdir / "table.csv", workdir / "table.json"
    table.to_csv(csv_path)
    table.to_json(json_path)
    return csv_path.read_bytes() + json_path.read_bytes()


def compare_threads(ht, plan, workdir: Path) -> tuple[float, bool]:
    """``run_study`` untraced with the default and with 2 worker threads.

    Returns the speed-up of 2 threads over the default and whether the two
    tables are byte-identical.
    """
    threads = str(min(2, os.cpu_count() or 1))
    walls, blobs = [], []
    for setting in (None, threads):
        if setting is not None:
            os.environ["HEAVYTAIL_THREADS"] = setting
        try:
            t0 = time.perf_counter()
            table = ht.run_study(plan)
            walls.append(time.perf_counter() - t0)
        finally:
            os.environ.pop("HEAVYTAIL_THREADS", None)
        blobs.append(table_bytes(table, workdir))
    return walls[0] / walls[1], blobs[0] == blobs[1]


def check_table(table) -> str | None:
    failed = [r for r in table.rows if r.parameter == "failed"]
    if failed:
        r = failed[0]
        return f"{len(failed)} failed cells, e.g. N={r.N} delta={r.delta} {r.estimator}"
    for r in table.rows:
        if r.parameter != "sigma_y" and not math.isfinite(r.mean):
            return f"non-finite mean of {r.parameter} at N={r.N} delta={r.delta} {r.estimator}"
    return None


class StudyGrid(Workload):
    """One ``run_study`` call over the full estimator grid per pass."""

    name = "study-grid"
    uid = 2
    DELTAS = (0.0, 0.1, 1 / 3, 1.0)
    REPLICATIONS = 2

    def __init__(self, *args):
        super().__init__(*args)
        full = self.size == "full"
        self.sample_sizes = (100, 1000) if full else (30,)
        self.deltas = self.DELTAS if full else (0.1, 1.0)

    def plan(self, index):
        return self.ht.StudyPlan(
            sample_sizes=self.sample_sizes,
            delta_values=self.deltas,
            replications=self.REPLICATIONS,
            estimators=self.ht.simulate.ESTIMATORS,
            seed=derive_seed(self.seed, self.uid, index),
        )

    def setup(self):
        self.ht.run_study(self.ht.StudyPlan(sample_sizes=(20,), delta_values=(0.1,),
                                            replications=1, seed=WARMUP_SEED,
                                            estimators=self.ht.simulate.ESTIMATORS))

    def prepare(self, index):
        return self.plan(index)

    def execute(self, plan, tracer=None):
        return self.timed(self.ht.run_study, plan)

    def check(self, plan, raw):
        table, seconds, err = raw
        note = err or check_table(table)
        if self.digest is None and table is not None:
            self.digest = sha256(table_bytes(table, self.workdir))
        cells = len(plan.sample_sizes) * len(plan.delta_values) * len(plan.estimators)
        return [Op("run_study", seconds, cells * plan.replications, note is None, note)]

    def traced_extra(self):
        speedup, identical = compare_threads(self.ht, self.plan(0), self.workdir)
        ok = Op("threads", 0.0, 0, identical,
                None if identical else "tables differ between 1 and 2 worker threads")
        return {"simulate.study.speedup_2_threads": speedup}, [ok]

    def report(self, ops):
        seconds = [op.seconds for op in ops]
        accepted = sum(op.elements for op in ops if op.ok)
        return {
            "study_reps_per_s": {"value": accepted / sum(seconds), "unit": "1/s",
                                 "samples": len(seconds)},
            "table_sha256": self.digest,
        }


class GaussianizeBulk(Workload):
    """Every elementwise layer call on n = 10^5 arrays, for four tails."""

    name = "gaussianize-bulk"
    uid = 3
    TAUS = (0.1, 1 / 3, 1.0, (0.1, 0.5))

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 100_000 if self.size == "full" else 1000

    def setup(self):
        rng = np.random.Generator(np.random.Philox(derive_seed(self.seed, self.uid)))
        self.probs = rng.uniform(1e-12, 1.0 - 1e-12, self.n)
        self.execute([(gaussian_dist(self.ht, d), WARMUP_SEED) for d in self.TAUS], None)

    def prepare(self, index):
        return [(gaussian_dist(self.ht, d), derive_seed(self.seed, self.uid, index, i))
                for i, d in enumerate(self.TAUS)]

    def execute(self, inputs, tracer=None):
        ht = self.ht
        raw = []
        for dist, seed in inputs:
            tau = dist.tau
            res = {"rlambertw": self.timed(ht.rlambertw, self.n, dist, seed=seed)}
            y = res["rlambertw"][0]
            if y is not None:
                res["w_tau"] = self.timed(ht.w_tau, y, tau)
                x = res["w_tau"][0]
                if x is not None:
                    res["h_tau"] = self.timed(ht.h_tau, x, tau)
                res["cdf"] = self.timed(dist.cdf, y)
                res["pdf"] = self.timed(dist.pdf, y)
                res["logpdf"] = self.timed(dist.logpdf, y)
                res["quantile"] = self.timed(dist.quantile, self.probs)
                res["loglik"] = self.timed(ht.loglik, y, dist)
            raw.append(res)
        return raw

    def check(self, inputs, raw):
        ops = []
        for (dist, _), res in zip(inputs, raw):
            y = res["rlambertw"][0]
            for kind in ("rlambertw", "w_tau", "h_tau", "cdf", "pdf", "logpdf", "quantile",
                         "loglik"):
                if kind not in res:
                    ops.append(Op(kind, 0.0, self.n, False, "not run: its input failed"))
                    continue
                out, seconds, err = res[kind]
                note = err or self._check(kind, out, y, dist)
                ops.append(Op(kind, seconds, self.n, note is None,
                              note and f"delta={dist.delta}: {note}", err is not None))
        return ops

    def _check(self, kind, out, y, dist):
        ht = self.ht
        if kind == "loglik":
            if not split_ok(*out) or not math.isfinite(out.total):
                return "log-likelihood split does not add up, or is not finite"
            return None
        if not np.all(np.isfinite(out)):
            return f"{kind}: non-finite output"
        if kind == "w_tau":
            tau = dist.tau
            z = (y - tau.mu_x) / tau.sigma_x
            arg = np.where(z <= 0.0, tau.delta_left, tau.delta_right) * z * z
            w = ht.lambert_w0(arg)
            resid = float(np.max(np.abs(w * np.exp(w) - arg) / np.maximum(1.0, arg)))
            if resid > W_IDENTITY_RTOL:
                return f"W identity residual {resid!r} > {W_IDENTITY_RTOL}"
        if kind == "h_tau":
            err = relative_error(out, y)
            if err > ROUND_TRIP_RTOL:
                return f"h_tau(w_tau(y)) round trip error {err!r} > {ROUND_TRIP_RTOL}"
        if kind == "cdf" and (out.min() < 0.0 or out.max() > 1.0):
            return "cdf outside [0, 1]"
        if kind == "pdf" and out.min() < 0.0:
            return "negative density"
        return None

    def report(self, ops):
        seconds = sum(op.seconds for op in ops)
        w = [op for op in ops if op.kind == "w_tau"]
        return {
            "bulk_melem_per_s": {"value": sum(op.elements for op in ops) / seconds / 1e6,
                                 "unit": "Melem/s", "samples": len(ops)},
            "gaussianize_melem_per_s": {
                "value": sum(op.elements for op in w) / sum(op.seconds for op in w) / 1e6,
                "unit": "Melem/s", "samples": len(w)},
        }


class CliPipeline(Workload):
    """Five CLI commands per pass, each a new ``python -m heavytail.cli``."""

    name = "cli-pipeline"
    uid = 4
    in_process = False
    DELTAS = (1 / 3, 0.1)
    COMMANDS = ("simulate", "fit", "fit_hh", "gaussianize", "transform")

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 1000 if self.size == "full" else 200
        self.peak = 0.0
        self.references = {}
        self.simulated = None

    def setup(self):
        from heavytail.cli import write_series

        self.files = []
        for k, delta in enumerate(self.DELTAS):
            path = self.workdir / f"y{k}.txt"
            y = self.ht.rlambertw(self.n, gaussian_dist(self.ht, delta),
                                  seed=derive_seed(self.seed, self.uid, k))
            write_series(y, path)
            self.files.append((path, delta))

    def prepare(self, index):
        path, delta = self.files[index % len(self.files)]
        out = self.workdir / f"pass{index}"
        out.mkdir(exist_ok=True)
        tau = f"0,1,{delta!r}"
        argv = {
            "simulate": ["simulate", "--tau", "0,1,0.333", "--n", str(self.n),
                         "--seed", str(derive_seed(self.seed, self.uid, 99)),
                         "--out", str(out / "sim.txt")],
            "fit": ["fit", str(path), "--json"],
            "fit_hh": ["fit", str(path), "--tail", "hh", "--json"],
            "gaussianize": ["gaussianize", str(path), "--fit", "--method", "igmm",
                            "--out", str(out / "gauss.txt")],
            "transform": ["transform", str(path), f"--tau={tau}", "--direction", "inverse",
                          "--out", str(out / "x.txt")],
        }
        return {"path": path, "tau": tau, "dir": out, "argv": argv}

    def execute(self, inputs, tracer=None):
        raw = {}
        for label in self.COMMANDS:
            argv = inputs["argv"][label]
            stdout, stderr = inputs["dir"] / f"{label}.out", inputs["dir"] / f"{label}.err"
            if tracer is None:
                cmd = [sys.executable, "-m", "heavytail.cli", *argv]
            else:
                spans = inputs["dir"] / f"{label}.spans.json"
                cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans), label, *argv]
            code, wall, rss = run_child(cmd, stdout, stderr)
            if self.probe is not None:
                self.probe.after(wall)
            self.peak = max(self.peak, rss)
            if tracer is not None and code == 0:
                tracer.absorb(spans)
            raw[label] = (code, wall, stdout, stderr)
        return raw

    def peak_rss_mb(self) -> float:
        return self.peak

    def reference(self, path, kind):
        key = (path, kind)
        if key not in self.references:
            from heavytail.cli import read_series

            y = read_series(path)
            if kind == "igmm":
                self.references[key] = self.ht.igmm(y)
            else:
                self.references[key] = self.ht.mle_joint(y, tail=kind)
        return self.references[key]

    def check(self, inputs, raw):
        ops = []
        for label in self.COMMANDS:
            code, wall, stdout, stderr = raw[label]
            if code != 0:
                note = f"exit code {code}: {stderr.read_text()[-300:]}"
            else:
                note = self._check(label, inputs, stdout)
            ops.append(Op(label, wall, self.n, note is None, note and f"{label}: {note}"))
        return ops

    def _check(self, label, inputs, stdout):
        from heavytail.cli import read_series

        path = inputs["path"]
        if label == "simulate":
            data = (inputs["dir"] / "sim.txt").read_bytes()
            if self.simulated is None:
                self.simulated = data
            return None if data == self.simulated else "output differs from the first run"
        if label in ("fit", "fit_hh"):
            report = json.loads(stdout.read_text())
            ref = self.reference(path, "hh" if label == "fit_hh" else "h")
            got = {k: v["estimate"] for k, v in report["parameters"].items()}
            return None if got == ref.params else f"estimates {got} != in-process {ref.params}"
        if label == "gaussianize":
            tau = self.reference(path, "igmm").tau
            want = "tau: " + ",".join(repr(float(v)) for v in tau.as_array())
            if want not in stdout.read_text().splitlines():
                return f"printed tau differs from in-process igmm ({want})"
            x = read_series(inputs["dir"] / "gauss.txt")
            return None if np.all(np.isfinite(x)) else "non-finite Gaussianized values"
        if label == "transform":
            y = read_series(path)
            x = read_series(inputs["dir"] / "x.txt")
            tau = self.ht.TailParams(*(float(v) for v in inputs["tau"].split(",")))
            err = relative_error(self.ht.h_tau(x, tau), y)
            return None if err <= ROUND_TRIP_RTOL else f"round trip error {err!r}"
        return None

    def report(self, ops):
        seconds = [op.seconds for op in ops]
        t = tail(seconds)
        return {
            "cli_p50_s": {"value": median(seconds), "unit": "s", "samples": len(seconds),
                          "percentile": 50},
            "cli_ptail_s": {"value": t[1], "unit": "s", "samples": len(seconds),
                            "percentile": t[0]},
        }


WORKLOADS = {w.name: w for w in (FitMix, StudyGrid, GaussianizeBulk, CliPipeline)}
