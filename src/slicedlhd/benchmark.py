"""Monte Carlo integration benchmark over the design families.

Seven estimation methods are compared on two integrands under two failure
scenarios, reporting root-mean-square estimation error over replicates:

  RLH   single randomized Latin hypercube, n runs
  MLH   single midpoint Latin hypercube, n runs
  CLH   MLH followed by the correlation-reduction sweep (one slice)
  IMLH  t independent midpoint LHDs of sizes n_1..n_t, stacked
  ICLH  IMLH with each block decorrelated on its own grid
  SLH   the sliced construction
  CSLH  SLH followed by the sweep (per-slice blocks)

Each method is one row of _METHODS: its stream code, its grid (the row
blocks of generate.method_blocks: "full", "own" or "sliced") and whether it
is swept. All but RLH draw each replicate by permuting each block's
midpoints with one Generator.permuted call along the rows, which runs
shuffle's Fisher-Yates on each column in turn and so draws exactly what a
shuffle per column would; RLH shuffles its levels and subtracts its jitter
from them. A swept method then runs one batch sweep over those same blocks.

FSD (a flexible sliced design from other work) is recognized by name but
not constructible here; requesting it is an error and reports mark its
column unavailable.

f1's true mean is exact. f2's is the adaptive-quadrature float, stored as
a constant (see true_mean_f2), so no run needs more than numpy.

Scenario 1 ("all-complete") estimates with the mean over all n outputs.
Scenario 2 ("one-slice-fails") drops one computer's rows, chosen uniformly
at random, and averages the survivors. Rows are grouped by computer as
contiguous blocks of the configured group sizes: the slices or own-grid
blocks already are, and the full-grid methods (RLH, MLH, CLH) first gather
each replicate's values by a shuffle of 0..n-1 from its assignment stream,
as a shuffle of the values would leave them. Every method then drops one
contiguous block.

Everything is deterministic given the config seed: each (method, replicate,
role) gets its own RNG stream, so replicates can be computed in any order or
in parallel without changing results. A range of replicates' streams is
keyed together by RngStream.generators, which draws exactly what one
SeedSequence + Philox per stream would.

method_estimates draws, sweeps, evaluates and estimates one chunk at a
time: at most _BUDGET design values (one design, if it holds more) and
_MAX_CHUNK replicates, so memory stays bounded whatever R and n are. The
draw keys all the chunk's streams in one call and draws them all in one
pass, so no stream outlives its chunk and the failure step draws nothing.
Every sum runs along one replicate's row, so the chunks change no bit; a
custom integrand is called once per chunk.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import RngStream, SliceSizes, _as_integer, _as_slice_sizes
from .decorrelate import SweepTrace, _sweep_batch
from .generate import method_blocks

__all__ = [
    "ExperimentConfig",
    "RmseReport",
    "METHOD_ORDER",
    "eval_f1",
    "eval_f2",
    "true_mean_f1",
    "true_mean_f2",
    "run_experiment",
    "render_table",
    "write_trace_csv",
]

# Method -> (stream code, grid, swept); see the module docstring. Stream
# codes keep each method's draws disjoint; 6 is reserved for the
# unavailable FSD so codes stay stable if it ever lands.
_METHODS = {
    "RLH": (1, "full", False),
    "MLH": (2, "full", False),
    "CLH": (3, "full", True),
    "IMLH": (4, "own", False),
    "ICLH": (5, "own", True),
    "SLH": (7, "sliced", False),
    "CSLH": (8, "sliced", True),
}
METHOD_ORDER = ("RLH", "MLH", "CLH", "IMLH", "ICLH", "FSD", "SLH", "CSLH")
_ROLE_DESIGN, _ROLE_FAILURE, _ROLE_ASSIGNMENT = 0, 1, 2

SCENARIO_ALL = "all-complete"
SCENARIO_ONE_FAILS = "one-slice-fails"


def eval_f1(x, variant: str = "literal") -> np.ndarray:
    """First test integrand on (0,1]^5.

    The "literal" variant is log(x1*x2*x2*x4*x5), with the second coordinate
    squared and the third unused; "x3" uses all five coordinates once:
    log(x1*x2*x3*x4*x5). Both have mean -5 over the unit cube.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != 5:
        raise ValueError("f1 expects 5 coordinates")
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise ValueError("f1 coordinates must lie in (0, 1]")
    if variant == "literal":
        prod = arr[..., 0] * arr[..., 1] * arr[..., 1] * arr[..., 3] * arr[..., 4]
    elif variant == "x3":
        prod = arr[..., 0] * arr[..., 1] * arr[..., 2] * arr[..., 3] * arr[..., 4]
    else:
        raise ValueError(f"unknown f1 variant: {variant!r}")
    return np.log(prod)


def eval_f2(x) -> np.ndarray:
    """Second test integrand on (0,1]^2: log(x1^(-1/2) + x2^(-1/2))."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != 2:
        raise ValueError("f2 expects 2 coordinates")
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise ValueError("f2 coordinates must lie in (0, 1]")
    return np.log(arr[..., 0] ** -0.5 + arr[..., 1] ** -0.5)


def true_mean_f1() -> float:
    """Exact mean of f1 over the unit cube (either variant).

    The integrand is a sum of logs whose coefficients total 5, and
    the integral of log x over (0,1] is -1.
    """
    return -5.0


# Adaptive quadrature (scipy's dblquad at epsabs = epsrel = 1e-11) gives
# f2's mean as this float, 1.2500000000000677, not 5/4. Every f2 RMSE is
# measured against it, so storing 5/4 instead would move every f2 RMSE bit.
_F2_MEAN = float.fromhex("0x1.4000000000131p+0")


def true_mean_f2() -> float:
    """Mean of f2 over the unit square (5/4 in closed form) as the stored
    adaptive-quadrature float; the tests recompute it bit for bit."""
    return _F2_MEAN


def _as_finite(name: str, value) -> float:
    """``value`` as a float: a finite int or float, never a bool or a string."""
    x = np.asarray(value)
    if x.ndim or x.dtype.kind not in "iuf" or not np.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(x)


def _json_fields(cls, text: str, kind: str) -> dict:
    """``text`` as a JSON object of every field of ``cls`` without a default, and no other key."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"{kind} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {kind} key: {', '.join(map(repr, unknown))}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING:
            raise ValueError(f"{kind} missing key: {f.name}")
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: integrand, sizes, methods, scenario, seed."""

    integrand: str
    sizes: SliceSizes
    dim: int
    methods: tuple[str, ...]
    replicates: int
    scenario: str
    seed: int
    f1_variant: str = "literal"

    def __post_init__(self):
        _as_slice_sizes(self.sizes)
        for name in ("dim", "replicates", "seed"):
            object.__setattr__(self, name, _as_integer(name, getattr(self, name)))
        if self.integrand not in ("f1", "f2", "custom"):
            raise ValueError(f"unknown integrand: {self.integrand!r}")
        need = {"f1": 5, "f2": 2}.get(self.integrand, self.dim)
        if self.dim != need:
            raise ValueError(f"{self.integrand} requires dim={need}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.replicates > 2**32:  # the most streams RngStream.generators keys
            raise ValueError(f"replicates must be <= {2**32}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scenario not in (SCENARIO_ALL, SCENARIO_ONE_FAILS):
            raise ValueError(f"unknown scenario: {self.scenario!r}")
        if self.scenario == SCENARIO_ONE_FAILS and self.sizes.t < 2:
            raise ValueError("one-slice-fails needs at least two slices")
        if self.f1_variant not in ("literal", "x3"):
            raise ValueError(f"unknown f1 variant: {self.f1_variant!r}")
        if self.f1_variant != "literal" and self.integrand != "f1":
            raise ValueError(f"f1_variant {self.f1_variant!r} applies only to integrand 'f1'")
        methods = self.methods
        if not isinstance(methods, (list, tuple)) or not all(isinstance(m, str) for m in methods):
            raise ValueError(f"methods must be a list of method names, got {methods!r}")
        methods = tuple(methods)
        object.__setattr__(self, "methods", methods)
        if not methods:
            raise ValueError("methods must name at least one method")
        repeated = sorted({m for m in methods if methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods names {', '.join(map(repr, repeated))} more than once")
        for m in methods:
            if m == "FSD":
                raise ValueError("method unavailable: FSD")
            if m not in _METHODS:
                raise ValueError(f"unknown method: {m!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config: a JSON object holding every field (``f1_variant``
        may be left out) and no other key. The values are checked by the
        constructor alone, as for a config built in Python."""
        raw = _json_fields(cls, text, "config")
        return cls(**{**raw, "sizes": SliceSizes(raw["sizes"])})

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["sizes"] = self.sizes.sizes
        return json.dumps(raw, indent=2)


@dataclass(frozen=True)
class RmseReport:
    """Per-method RMSE for one (integrand, scenario) run."""

    integrand: str
    scenario: str
    sizes: tuple[int, ...]
    replicates: int
    true_mean: float
    f1_variant: str
    rmse: dict[str, float]

    def __post_init__(self):
        sizes = SliceSizes(self.sizes)
        object.__setattr__(self, "sizes", sizes.sizes)
        if not isinstance(self.rmse, dict):
            raise ValueError(f"rmse must map method names to numbers, got {self.rmse!r}")
        # The fields a config shares are checked by the config that would
        # have made this report, with its own messages.
        dim = 5 if self.integrand == "f1" else 2 if self.integrand == "f2" else 1
        ExperimentConfig(self.integrand, sizes, dim, tuple(self.rmse), self.replicates,
                         self.scenario, 0, self.f1_variant)
        _as_finite("true_mean", self.true_mean)
        for method, value in self.rmse.items():
            if _as_finite(f"rmse of {method}", value) < 0:
                raise ValueError(f"rmse of {method} must be >= 0, got {value!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RmseReport":
        """Parse a report: a JSON object holding every field and no other
        key. The values are checked by the constructor."""
        return cls(**_json_fields(cls, text, "report"))


def render_table(reports: list[RmseReport]) -> str:
    """Plain-text table, one row per report, FSD column marked unavailable."""
    header = ["integrand", "scenario"] + list(METHOD_ORDER)
    rows = [header]
    for rep in reports:
        row = [rep.integrand, "1" if rep.scenario == SCENARIO_ALL else "2"]
        for m in METHOD_ORDER:
            if m == "FSD":
                row.append("n/a")
            elif m in rep.rmse:
                row.append(f"{rep.rmse[m]:.4f}")
            else:
                row.append("-")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines)


def write_trace_csv(trace: SweepTrace, path) -> None:
    """Emit a rho_rms sweep trace as CSV: iteration, whole design, each slice."""
    Path(path).write_text(_trace_csv(trace))


def _trace_csv(trace: SweepTrace) -> str:
    """write_trace_csv's text, which the command line writes too."""
    lines = ["iteration,whole," + ",".join(f"slice{j + 1}" for j in range(len(trace.per_slice)))]
    for it, row in enumerate(zip(trace.whole, *trace.per_slice)):
        lines.append(",".join([str(it), *map(repr, row)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the replicate-chunk pipeline, one stream a (method, replicate, role)

# Design values drawn, swept, evaluated and estimated at once: every array
# but the (R,) estimates holds at most this many (or one design's), whatever
# R and n are.
_BUDGET = 2**16
# Replicates in a chunk at most: its streams' key lists, about 150 B a stream
# and up to 3 a replicate, are outside the value budget, so this bounds them.
_MAX_CHUNK = 1024


def _draws(method: str, cfg: ExperimentConfig, blocks, reps: range):
    """Replicates ``reps``' designs on ``blocks`` (method_blocks of the
    method's grid), failed blocks (one-slice-fails) and row assignments
    (permutations of 0..n-1, on the full grid), or None: one pass over their
    streams, keyed in one call in (replicate, role) order."""
    code, grid, _ = _METHODS[method]
    n, p, t, m = cfg.sizes.n, cfg.dim, cfg.sizes.t, len(reps)
    roles = 1 if cfg.scenario == SCENARIO_ALL else 3 if grid == "full" else 2
    gens = RngStream(cfg.seed).generators(code, reps, range(roles))
    V = np.empty((m, n, p))
    fail = np.empty(m, dtype=np.int64) if roles > 1 else None
    assign = np.broadcast_to(np.arange(n), (m, n)).copy() if roles > 2 else None
    if method == "RLH":
        # Column l is (permutation(n) + 1 - random(n)) / n, its permutation
        # and jitter draws interleaved column by column. permutation(n) is
        # shuffle of 1..n, so shuffling the levels in place draws the same.
        V[...] = np.arange(1, n + 1)[:, None]
        jitter = np.empty((m, p, n))
    else:
        for rows, mids in blocks:
            V[:, rows, :] = mids[:, None]
    for r, design in enumerate(V):
        gen = next(gens)
        if method == "RLH":
            for l in range(p):
                gen.shuffle(design[:, l])
                gen.random(out=jitter[r, l])
        else:
            # permuted(axis=0) runs shuffle's Fisher-Yates on each column in
            # turn: the draws of a shuffle (or permutation(mids)) per column.
            for rows, _ in blocks:
                slab = design[rows]
                gen.permuted(slab, axis=0, out=slab)
        if roles > 1:
            fail[r] = next(gens).integers(t)
        if roles > 2:
            next(gens).shuffle(assign[r])  # the draws of permutation(n)
    if method == "RLH":
        V -= jitter.transpose(0, 2, 1)
        V /= n
    return V, fail, assign


def _estimates(cfg: ExperimentConfig, F: np.ndarray, fail, assign) -> np.ndarray:
    """Estimates from integrand values F (m, n), only read, and _draws'
    ``fail`` and ``assign``."""
    if fail is None:
        return F.mean(axis=1)
    m, n = F.shape
    totals = F.sum(axis=1)
    if assign is not None:  # the rows a shuffle of each F row would leave
        F = np.take_along_axis(F, assign, axis=1)
    block_sums = np.stack([F[:, rows].sum(axis=1) for rows in cfg.sizes.rows], axis=1)
    dropped = block_sums[np.arange(m), fail]
    kept = n - np.asarray(cfg.sizes.sizes)[fail]
    return (totals - dropped) / kept


def _integrand_values(method: str, cfg: ExperimentConfig, V: np.ndarray, custom) -> np.ndarray:
    if cfg.integrand == "f1":
        return eval_f1(V, variant=cfg.f1_variant)
    if cfg.integrand == "f2":
        return eval_f2(V)
    # A C-ordered copy, so every sum runs pairwise along a row, whatever
    # the layout the integrand returned.
    F = np.array(custom(V), dtype=np.float64, order="C")
    if F.shape != V.shape[:2]:
        raise ValueError(
            f"custom integrand must return shape {V.shape[:2]} (replicates, runs), "
            f"got {F.shape}"
        )
    if not np.isfinite(F).all():
        raise ValueError(f"custom_integrand returned a non-finite value for {method}")
    return F


def _check_custom(cfg: ExperimentConfig, name: str, value) -> None:
    custom = cfg.integrand == "custom"
    if (value is None) == custom:
        raise ValueError(f"integrand {cfg.integrand!r} {'needs' if custom else 'takes no'} {name}")
    if name == "custom_integrand" and custom and not callable(value):
        raise ValueError(f"custom_integrand must be callable, got {value!r}")


def _true_mean(cfg: ExperimentConfig, custom_true_mean) -> float:
    _check_custom(cfg, "custom_true_mean", custom_true_mean)
    if cfg.integrand != "custom":
        return true_mean_f1() if cfg.integrand == "f1" else true_mean_f2()
    # NaN or inf would make every RMSE NaN.
    return _as_finite("custom_true_mean", custom_true_mean)


def _scaled(fn, x: np.ndarray):
    """fn(x), for an fn homogeneous of degree 1 (an RMSE, a chunk's estimates).
    Only when fn overflows on finite x is x scaled by its largest magnitude
    first, so every other result keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(x)
        if np.isfinite(out).all() or not np.isfinite(x).all():
            return out
        scale = np.abs(x).max()
        return scale * fn(x / scale)  # at most 1 in magnitude: no overflow


def _rmse(err: np.ndarray) -> float:
    """sqrt(mean(err**2)), summed in replicate order."""
    return float(_scaled(lambda e: np.sqrt(np.add.reduce(e * e) / len(e)), err))


def method_estimates(
    method: str,
    cfg: ExperimentConfig,
    custom_integrand=None,
) -> np.ndarray:
    """Per-replicate estimates for one method, one chunk of replicates at a
    time (see the module docstring); exposed for verification."""
    _check_custom(cfg, "custom_integrand", custom_integrand)
    _, grid, swept = _METHODS[method]
    blocks = method_blocks(grid, cfg.sizes)
    chunk = min(_MAX_CHUNK, max(1, _BUDGET // (cfg.sizes.n * cfg.dim)))
    est = np.empty(cfg.replicates)
    for first in range(0, cfg.replicates, chunk):
        reps = range(first, min(first + chunk, cfg.replicates))
        V, fail, assign = _draws(method, cfg, blocks, reps)
        if swept:
            _sweep_batch(V, blocks)
        F = _integrand_values(method, cfg, V, custom_integrand)
        est[reps.start : reps.stop] = _scaled(lambda x: _estimates(cfg, x, fail, assign), F)
        del V, F, assign  # freed before the next chunk is drawn: one chunk at a time
    return est


def run_experiment(
    config: ExperimentConfig,
    custom_integrand=None,
    custom_true_mean=None,
) -> RmseReport:
    """RMSE of each configured method under the configured scenario.

    The squared errors are averaged in fixed replicate order so repeated
    runs are bit-identical.
    """
    mu = _true_mean(config, custom_true_mean)
    rmse = {m: _rmse(method_estimates(m, config, custom_integrand) - mu) for m in config.methods}
    return RmseReport(
        integrand=config.integrand,
        scenario=config.scenario,
        sizes=config.sizes.sizes,
        replicates=config.replicates,
        true_mean=mu,
        f1_variant=config.f1_variant,
        rmse=rmse,
    )
