"""Span tracing of the heavytail layers, from outside the package.

A :class:`Tracer` wraps the public layer entry points and rebinds each
wrapped name in every ``heavytail`` module that holds it (``lambert_w0``
inside ``heavytail.transform``, ``loglik`` inside ``heavytail.estimation``
and so on), and the ``LambertWDist`` / ``Gaussianizer`` methods on their
classes.  Each call records a span: name, label, start, end, parent span,
input elements and, for estimators and studies, a few facts about the
result.  Spans stay in memory until :func:`layer_metrics` reduces them.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from metrics import CLI_COMMANDS, ESTIMATORS, STUDY_ESTIMATORS

ESTIMATOR_SPANS = ("mle_joint", "igmm", "igmm_double_tail", "mle_delta_only")

LAYER_SPANS = {
    "transform": ("w_of_delta_z_sq", "w_delta", "w_tau", "h_tau"),
    "distributions": tuple(f"LambertWDist.{m}" for m in ("cdf", "pdf", "logpdf", "quantile")),
}


def _size(value) -> int:
    return int(np.size(value))


def _first_size(args, kwargs) -> int:
    return _size(args[0]) if args else 0


def _method_size(args, kwargs) -> int:
    return _size(args[1]) if len(args) > 1 else 0


def _mle_label(args, kwargs) -> str:
    family = kwargs.get("family", args[1] if len(args) > 1 else "gaussian")
    tail = kwargs.get("tail", args[2] if len(args) > 2 else "h")
    if family == "student-t":
        return "mle_t"
    return "mle_hh" if tail == "hh" else "mle_h"


def _fit_info(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _study_info(args, kwargs, result) -> dict:
    plan = args[0] if args else kwargs["plan"]
    cells = {}
    for row in result.rows:
        cells[(row.N, row.delta, row.estimator)] = (row.parameter, row.na_ratio)
    failed = sum(1 for param, _ in cells.values() if param == "failed")
    redraws = sum(na * plan.replications for param, na in cells.values() if param != "failed")
    accepted = plan.replications * (len(cells) - failed)
    return {"accepted": accepted, "redraws": redraws}


# (defining module, attribute, span name, label, elements, result info)
_TARGETS = (
    ("heavytail.lambertw", "lambert_w0", "lambert_w0", None, _first_size, None),
    ("heavytail.transform", "w_of_delta_z_sq", "w_of_delta_z_sq", None, _first_size, None),
    ("heavytail.transform", "w_delta", "w_delta", None, _first_size, None),
    ("heavytail.transform", "w_tau", "w_tau", None, _first_size, None),
    ("heavytail.transform", "h_tau", "h_tau", None, _first_size, None),
    ("heavytail.estimation", "loglik", "loglik", None, _first_size, None),
    ("heavytail.estimation", "mle_joint", "mle_joint", _mle_label, _first_size, _fit_info),
    ("heavytail.estimation", "igmm", "igmm", lambda a, k: "igmm", _first_size, _fit_info),
    ("heavytail.estimation", "igmm_double_tail", "igmm_double_tail",
     lambda a, k: "igmm_hh", _first_size, _fit_info),
    ("heavytail.estimation", "mle_delta_only", "mle_delta_only",
     lambda a, k: "delta_only", _first_size, _fit_info),
    ("heavytail.simulate", "rlambertw", "rlambertw", None,
     lambda a, k: int(a[0]) if a else int(k["n"]), None),
    ("heavytail.simulate", "run_study", "run_study", None, lambda a, k: 0, _study_info),
    ("heavytail.simulate", "_run_cell", "_run_cell", lambda a, k: a[0][3], lambda a, k: 0, None),
    ("heavytail.normality", "anderson_darling", "anderson_darling", None, _first_size, None),
)
_METHOD_TARGETS = (
    ("heavytail.distributions", "LambertWDist", ("cdf", "pdf", "logpdf", "quantile")),
    ("heavytail.gaussianize", "Gaussianizer", ("fit_transform",)),
)


class Tracer:
    """Records spans in memory; thread-safe for appends.

    A span is the list ``[id, name, label, start, end, parent id, elements,
    info]``: ``parent id`` is -1 for an outermost call, ``elements`` counts
    the input elements, and ``info`` is ``None`` or a dict of facts about the
    result plus the call's process CPU time ``cpu_s``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, label=None, elements=_first_size, info=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter
        cpu = time.process_time

        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [next(ids), name, label(args, kwargs) if label else None, 0.0, 0.0,
                   stack[-1] if stack else -1, elements(args, kwargs), None]
            spans.append(rec)
            stack.append(rec[0])
            cpu0 = cpu() if info is not None else 0.0
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if info is not None:
                rec[7] = {**info(args, kwargs, out), "cpu_s": cpu() - cpu0}
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded ``heavytail`` module."""
        import importlib

        for mod in ("heavytail", "heavytail.cli", "heavytail.gaussianize"):
            importlib.import_module(mod)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "heavytail" or n.startswith("heavytail.")]
        for modname, attr, name, label, elements, info in _TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, original, label, elements, info)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapped)
                    self._restore.append((module, attr, original))
        for modname, clsname, methods in _METHOD_TARGETS:
            cls = getattr(sys.modules[modname], clsname)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(f"{clsname}.{method}", original,
                                               elements=_method_size))
                self._restore.append((cls, method, original))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def call(self, name, fn, *args, label=None):
        """Run ``fn(*args)`` inside one span called ``name``."""
        return self.wrap(name, fn, label=lambda a, k: label, elements=lambda a, k: 0)(*args)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    def absorb(self, path: Path) -> None:
        """Add the spans another process dumped, renumbered after ours."""
        spans = json.loads(path.read_text())
        new_id = {rec[0]: next(self._ids) for rec in sorted(spans, key=lambda r: r[0])}
        for rec in spans:
            rec[0] = new_id[rec[0]]
            rec[5] = new_id.get(rec[5], -1)
        self.spans.extend(spans)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to per-layer metrics; only metrics with data appear."""
    if not spans:
        return {}
    spans = sorted(spans, key=lambda r: r[0])
    index = {rec[0]: i for i, rec in enumerate(spans)}
    count = len(spans)
    dur = [rec[4] - rec[3] for rec in spans]
    parent = [index.get(rec[5], -1) for rec in spans]
    child_time = [0.0] * count
    w_elems = [0] * count
    logliks = [0] * count
    fit_time = [0.0] * count
    for i in range(count - 1, -1, -1):
        name = spans[i][1]
        if name == "lambert_w0":
            w_elems[i] += spans[i][6]
        if name in ESTIMATOR_SPANS:
            fit_time[i] = dur[i]
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            w_elems[p] += w_elems[i]
            logliks[p] += logliks[i] + (name == "loglik")
            fit_time[p] += fit_time[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[1], []).append(i)

    def spans_of(name):
        return by_name.get(name, [])

    def total(values, idx):
        return float(sum(values[i] for i in idx))

    def elems(idx):
        return sum(spans[i][6] for i in idx)

    out: dict[str, float] = {}

    w = spans_of("lambert_w0")
    if w:
        out["lambertw.calls"] = len(w)
        out["lambertw.elements"] = elems(w)
        out["lambertw.self_s"] = total(self_time, w)
        if elems(w):
            out["lambertw.ns_per_elem"] = 1e9 * total(self_time, w) / elems(w)

    for layer, names in LAYER_SPANS.items():
        idx = [i for i, rec in enumerate(spans) if rec[1] in names]
        if idx:
            out[f"{layer}.self_s"] = total(self_time, idx)
    for name in ("w_tau", "h_tau"):
        idx = spans_of(name)
        if idx and elems(idx):
            out[f"transform.{name}.ns_per_elem"] = 1e9 * total(dur, idx) / elems(idx)
    for key, name in (("w_tau", "w_tau"), ("loglik", "loglik"),
                      ("logpdf", "LambertWDist.logpdf"), ("pdf", "LambertWDist.pdf"),
                      ("cdf", "LambertWDist.cdf")):
        idx = spans_of(name)
        if idx and elems(idx):
            out[f"transform.w_evals_per_point.{key}"] = total(w_elems, idx) / elems(idx)
    for method in ("cdf", "pdf", "logpdf", "quantile"):
        idx = spans_of(f"LambertWDist.{method}")
        if idx and elems(idx):
            out[f"distributions.{method}.ns_per_elem"] = 1e9 * total(dur, idx) / elems(idx)

    fits = [i for i, rec in enumerate(spans) if rec[1] in ESTIMATOR_SPANS]
    for label in ESTIMATORS:
        idx = [i for i in fits if spans[i][2] == label]
        if not idx:
            continue
        out[f"estimation.{label}.p50_s"] = float(np.median([dur[i] for i in idx]))
        out[f"estimation.{label}.loglik_calls"] = total(logliks, idx) / len(idx)
        if elems(idx):
            out[f"estimation.{label}.w_evals_per_point"] = total(w_elems, idx) / elems(idx)
        out[f"estimation.{label}.iterations"] = (
            sum(spans[i][7]["iterations"] for i in idx) / len(idx))
    if fits:
        out["estimation.converged_ratio"] = (
            sum(spans[i][7]["converged"] for i in fits) / len(fits))
    ll = spans_of("loglik")
    if ll:
        out["estimation.loglik.self_s"] = total(self_time, ll)

    gt = spans_of("Gaussianizer.fit_transform")
    if gt:
        out["gaussianize.fit_transform.p50_s"] = float(np.median([dur[i] for i in gt]))

    rl = spans_of("rlambertw")
    if rl and elems(rl):
        out["simulate.rlambertw.ns_per_elem"] = 1e9 * total(dur, rl) / elems(rl)
    studies = spans_of("run_study")
    if studies:
        wall = total(dur, studies)
        out["simulate.study.busy_cores"] = sum(spans[i][7]["cpu_s"] for i in studies) / wall
        out["simulate.study.fit_share"] = total(fit_time, studies) / wall
        accepted = sum(spans[i][7]["accepted"] for i in studies)
        redraws = sum(spans[i][7]["redraws"] for i in studies)
        out["simulate.study.redraw_ratio"] = redraws / max(accepted + redraws, 1)
    cells = spans_of("_run_cell")
    for estimator in STUDY_ESTIMATORS:
        idx = [i for i in cells if spans[i][2] == estimator]
        if idx:
            out[f"simulate.study.cell_s.{estimator}"] = total(dur, idx) / len(idx)

    ad = spans_of("anderson_darling")
    if ad:
        out["normality.anderson_darling.self_s"] = total(self_time, ad)

    mains = spans_of("cli.main")
    for label in CLI_COMMANDS:
        idx = [i for i in mains if spans[i][2] == label]
        if idx:
            out[f"cli.main_s.{label}"] = float(np.median([dur[i] for i in idx]))
    return out
