"""Random sample generation and the Monte-Carlo replication study.

``rlambertw`` draws from a heavy-tailed distribution by sampling the input
family and pushing the stream through the forward transform; with all tail
parameters zero the raw input stream comes back bit-identical.

``run_study`` replays the finite-sample estimator comparison on a grid of
sample sizes and tail parameters: per cell it repeatedly simulates, fits
the requested estimators, and aggregates mean estimate, bias, the
proportion of estimates at or below the truth, the empirical standard
deviation times sqrt(N) and the RMSE times sqrt(N).  Replications whose
fit fails or returns non-finite estimates are redrawn (with a hard attempt
cap) and counted in ``na_ratio``.  Every (cell, attempt) pair owns an
independent counter-based RNG substream, so results are reproducible and
independent of execution order.  Cells run serially, one after another.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import Gaussian, LambertWDist, variance_factor
from .estimation import igmm, mle_delta_only, mle_joint
from .exceptions import DataError, DomainError, HeavytailError
from .transform import w_tau

__all__ = [
    "rlambertw",
    "StudyPlan",
    "TableRow",
    "ReplicationTable",
    "run_study",
    "cauchy_demo",
    "CauchyDemo",
    "ESTIMATORS",
]

#: Estimator names usable in a study plan.
ESTIMATORS = ("median", "gaussian_mle", "igmm", "lambertw_mle", "delta_mle")

# Failures of one fit that count as a redraw (or a "failed" cell, or a NaN
# prefix in the Cauchy demo); anything else is a programming error and
# propagates.
_FIT_ERRORS = (HeavytailError, ArithmeticError, np.linalg.LinAlgError)

def _rng_for(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """Independent, reproducible Philox substream for a (cell, attempt) slot."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key))
    )


def rlambertw(n: int, dist: LambertWDist, seed=None) -> np.ndarray:
    """Draw ``n`` observations from ``dist``.

    ``seed`` may be an integer, a ``numpy.random.Generator`` or ``None``
    (equivalent to seed 0: sampling is deterministic by default).  At
    ``delta = 0`` the output equals the raw input-family stream exactly.
    """
    if not isinstance(seed, np.random.Generator):
        seed = 0 if seed is None else int(seed)
    return dist.sample(int(n), seed)


@dataclass(frozen=True)
class StudyPlan:
    """Grid and bookkeeping of a replication study."""

    sample_sizes: tuple[int, ...] = (50, 100, 1000)
    delta_values: tuple[float, ...] = (0.0, 0.1, 1 / 3, 1.0)
    replications: int = 200
    estimators: tuple[str, ...] = ("median", "gaussian_mle", "igmm", "lambertw_mle")
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if not self.sample_sizes or any(n < 10 for n in self.sample_sizes):
            raise DomainError("sample sizes must all be >= 10")
        if not all(0.0 <= d < math.inf for d in self.delta_values):
            raise DomainError("delta values must be finite and >= 0")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise DomainError(
                f"unknown estimator(s) {sorted(unknown)}; choose from {ESTIMATORS}"
            )

    @classmethod
    def from_json(cls, path) -> "StudyPlan":
        """The plan in a JSON object file; a malformed plan raises :class:`DataError`."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DataError(f"a study plan must be a JSON object, got {type(raw).__name__}")

        def items(key, convert, default=None):
            value = raw[key] if default is None else raw.get(key, default)
            if not isinstance(value, (list, tuple)):
                kind = type(value).__name__
                raise DataError(f"study plan field {key!r} must be a list, got {kind}")
            return tuple(map(convert, value))

        def integer(value) -> int:
            # int() would truncate 20.9 to 20; 2.0 is still the count 2.
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{value!r} is not a whole number")
            return int(value)

        try:
            kwargs = dict(
                sample_sizes=items("sample_sizes", integer),
                delta_values=items("delta_values", float),
                replications=integer(raw.get("replications", 200)),
                estimators=items("estimators", str, cls.estimators),
                seed=integer(raw.get("seed", 0)),
            )
        except KeyError as exc:
            raise DataError(f"study plan is missing required key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"study plan has a malformed value: {exc}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class TableRow:
    N: int
    delta: float
    estimator: str
    parameter: str
    mean: float
    bias: float
    prop_below: float
    sd_sqrtN: float
    rmse_sqrtN: float
    na_ratio: float


#: Fixed column order of the emitted tables.
TABLE_COLUMNS = tuple(f.name for f in fields(TableRow))


def _json_safe(obj):
    """Recursively JSON-safe: non-finite floats become "inf"/"-inf"/"nan".

    Containers are walked, tuples become lists, and numpy scalars become
    floats (numpy integers too).
    """
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(float(obj))
    return obj


@dataclass
class ReplicationTable:
    """Aggregated study results with fixed-schema CSV / JSON emitters."""

    rows: list[TableRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TABLE_COLUMNS)
            for r in self.rows:
                writer.writerow([getattr(r, c) for c in TABLE_COLUMNS])

    def to_json(self, path) -> None:
        payload = _json_safe(
            [{c: getattr(r, c) for c in TABLE_COLUMNS} for r in self.rows]
        )
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    def find(self, **keys) -> list[TableRow]:
        """Rows matching all given column values (delta compared with tolerance)."""
        out = []
        for r in self.rows:
            ok = True
            for k, v in keys.items():
                have = getattr(r, k)
                if isinstance(v, float):
                    ok &= abs(have - v) < 1e-12
                else:
                    ok &= have == v
            if ok:
                out.append(r)
        return out


def _implied_sigma_y(sigma_x: float, delta: float) -> float:
    vf = variance_factor(delta)
    return math.inf if vf is None else sigma_x * vf


def _estimate_once(name: str, y: np.ndarray) -> dict[str, float]:
    if name == "median":
        return {"mu_x": float(np.median(y))}
    if name == "gaussian_mle":
        return {"mu_y": float(np.mean(y)), "sigma_y": float(np.std(y))}
    if name == "delta_mle":
        return {"delta": mle_delta_only(y).tau.delta}
    if name == "igmm":
        r = igmm(y)
    elif name == "lambertw_mle":
        r = mle_joint(y, family="gaussian", tail="h")
    else:  # pragma: no cover - guarded by StudyPlan validation
        raise DomainError(f"unknown estimator {name!r}")
    tau = r.tau
    return {
        "mu_x": tau.mu_x,
        "sigma_x": tau.sigma_x,
        "delta": tau.delta,
        "sigma_y": _implied_sigma_y(tau.sigma_x, tau.delta),
    }


def _truth(parameter: str, delta: float) -> float:
    if parameter in ("mu_x", "mu_y"):
        return 0.0
    if parameter == "sigma_x":
        return 1.0
    if parameter == "delta":
        return delta
    return _implied_sigma_y(1.0, delta)  # sigma_y


def _aggregate(
    cell: tuple[int, float, str],
    estimates: dict[str, list[float]],
    na_ratio: float,
) -> list[TableRow]:
    """The table rows of one cell, one per estimated parameter.

    Each statistic of every parameter comes from one axis-1 reduction over
    the cell's (parameter, replication) array.  Each row is reduced as
    ``np.sum`` reduces it on its own, so the table holds the bits of
    ``np.mean`` and ``np.std(ddof=1)`` per parameter.  Bias, sd and RMSE
    are NaN for a parameter with a non-finite estimate or truth, and sd
    for a single replication.
    """
    n, delta, estimator = cell
    names = list(estimates)
    v = np.array([estimates[p] for p in names], dtype=float)
    truth = np.array([_truth(p, delta) for p in names])
    reps = v.shape[1]
    root_n = math.sqrt(n)
    # Rows with an inf estimate or truth give inf - inf here, and their
    # statistics are replaced below.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = v.sum(axis=1) / reps
        centred = v - mean[:, None]
        sd = np.sqrt((centred * centred).sum(axis=1) / max(reps - 1, 1)) * root_n
        err = v - truth[:, None]
        rmse = np.sqrt((err * err).sum(axis=1) / reps) * root_n
        # "<=" so that estimates pinned exactly at a boundary truth
        # (delta = 0) count as not-above, mirroring how the study reports
        # boundary estimators.
        below = (v <= truth[:, None]).sum(axis=1) / reps
    finite = (np.isfinite(v).all(axis=1) & np.isfinite(truth)).tolist()
    rows = []
    for k, parameter in enumerate(names):
        t = float(truth[k])
        ok = finite[k]
        rows.append(
            TableRow(
                N=n,
                delta=delta,
                estimator=estimator,
                parameter=parameter,
                mean=float(mean[k]),
                bias=float(mean[k]) - t if ok else math.nan,
                prop_below=float(below[k]) if math.isfinite(t) else math.nan,
                sd_sqrtN=float(sd[k]) if ok and reps > 1 else math.nan,
                rmse_sqrtN=float(rmse[k]) if ok else math.nan,
                na_ratio=na_ratio,
            )
        )
    return rows


def _run_cell(args) -> list[TableRow]:
    cell_index, n, delta, estimator, plan = args
    dist = LambertWDist(Gaussian(0.0, 1.0), delta)
    estimates: dict[str, list[float]] = {}
    accepted = 0
    attempts = 0
    max_attempts = 10 * plan.replications
    while accepted < plan.replications and attempts < max_attempts:
        rng = _rng_for(plan.seed, (cell_index, attempts))
        attempts += 1
        y = dist.sample(n, rng)
        try:
            est = _estimate_once(estimator, y)
        except _FIT_ERRORS:
            continue
        # Implied sigma_y may legitimately be inf; every directly
        # estimated parameter must be finite for the draw to count.
        direct = [v for k, v in est.items() if k != "sigma_y"]
        if not all(math.isfinite(v) for v in direct):
            continue
        for k, v in est.items():
            estimates.setdefault(k, []).append(v)
        accepted += 1
    if accepted < plan.replications:
        raise DataError(
            f"cell N={n} delta={delta} estimator={estimator}: only {accepted} "
            f"of {plan.replications} replications succeeded in {max_attempts} attempts"
        )
    na_ratio = (attempts - accepted) / plan.replications
    return _aggregate((n, delta, estimator), estimates, na_ratio)


def run_study(plan: StudyPlan) -> ReplicationTable:
    """Run the full replication study described by ``plan``.

    Cells are independent; a cell whose replications cannot be completed
    is recorded as a single ``parameter="failed"`` row rather than
    aborting the study.  Identical plans produce bit-identical tables.
    """
    cells = []
    idx = 0
    for n in plan.sample_sizes:
        for delta in plan.delta_values:
            for estimator in plan.estimators:
                cells.append((idx, int(n), float(delta), estimator, plan))
                idx += 1

    table = ReplicationTable()
    for cell in cells:
        table.rows.extend(_safe_run_cell(cell))
    return table


def _safe_run_cell(args) -> list[TableRow]:
    try:
        return _run_cell(args)
    except _FIT_ERRORS:
        _, n, delta, estimator, plan = args
        nan = math.nan
        return [
            TableRow(n, delta, estimator, "failed", nan, nan, nan, nan, nan, 1.0)
        ]


@dataclass(frozen=True)
class CauchyDemo:
    """Running-average comparison on a standard Cauchy sample.

    For each prefix length the model is refitted and the prefix
    Gaussianized; ``raw_mean`` jumps at extreme draws while
    ``gaussianized_mean`` stabilizes near the true location 0.  Prefixes
    whose fit failed carry NaN.
    """

    lengths: np.ndarray
    raw_mean: np.ndarray
    gaussianized_mean: np.ndarray
    delta_estimates: np.ndarray
    sample: np.ndarray
    final_fit: object


def _cauchy_quantile(q: np.ndarray) -> np.ndarray:
    """Standard Cauchy quantile ``-1 / tan(pi p)`` for q in (0, 1).

    ``p`` is q reduced into (-1/2, 1/2], and q = 1/2 gives 0 exactly.
    Evaluated one value at a time with ``math.tan``, the C library's tan;
    ``np.tan`` may use a different kernel and differ in the last bit.
    """
    p = np.where(q > 0.5, q - 1.0, q)
    return np.array([0.0 if v == 0.5 else -1.0 / math.tan(math.pi * v) for v in p.tolist()])


def cauchy_demo(n: int, seed: int = 0, step: int = 1) -> CauchyDemo:
    """Fit-and-Gaussianize running means of a standard Cauchy sample.

    ``step`` thins the refit grid (every ``step``-th prefix between 10,
    the fewest points :func:`~heavytail.estimation.mle_joint` fits, and
    ``n``) to trade resolution for speed; the final prefix is always
    included.
    """
    if n < 10:
        raise DataError("cauchy_demo needs at least 10 observations")
    rng = _rng_for(int(seed), ())
    y = _cauchy_quantile(np.clip(rng.random(int(n)), 1e-300, 1 - 1e-16))

    lengths = list(range(10, n + 1, max(1, int(step))))
    if lengths[-1] != n:
        lengths.append(n)
    raw = np.full(len(lengths), np.nan)
    gauss = np.full(len(lengths), np.nan)
    deltas = np.full(len(lengths), np.nan)
    fit = None
    start = None
    for i, m in enumerate(lengths):
        prefix = y[:m]
        raw[i] = np.mean(prefix)
        try:
            fit = mle_joint(prefix, family="gaussian", tail="h", start=start)
        except _FIT_ERRORS:
            continue
        start = fit.params
        gauss[i] = np.mean(w_tau(prefix, fit.tau))
        deltas[i] = fit.tau.delta
    return CauchyDemo(
        lengths=np.asarray(lengths),
        raw_mean=raw,
        gaussianized_mean=gauss,
        delta_estimates=deltas,
        sample=y,
        final_fit=fit,
    )
