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
in place. A swept method then runs one batch sweep over those same blocks.

FSD (a flexible sliced design from other work) is recognized by name but
not constructible here; requesting it is an error and reports mark its
column unavailable.

f1's true mean is exact. f2's is the adaptive-quadrature float, stored as
a constant (see true_mean_f2), so no run needs more than numpy.

Scenario 1 ("all-complete") estimates with the mean over all n outputs.
Scenario 2 ("one-slice-fails") drops one computer's rows, chosen uniformly
at random, and averages the survivors. Rows are grouped by computer as
contiguous blocks of the configured group sizes: the slices or own-grid
blocks already are, and the full-grid methods (RLH, MLH, CLH) first assign
rows to computers uniformly at random by shuffling each replicate's values
with its assignment stream. Every method then drops one contiguous block.

Everything is deterministic given the config seed: each (method, replicate)
pair gets its own RNG stream, so replicates can be computed in any order or
in parallel without changing results. A range of replicates' streams is
keyed together by RngStream.generators, which draws exactly what one
SeedSequence + Philox per stream would.

method_estimates draws, sweeps, evaluates and estimates one chunk at a
time: at most _BUDGET design values (one design, if it holds more) and
_MAX_CHUNK replicates, so memory stays bounded whatever R and n are. Each
stage keys its chunk's range of streams itself; no stream outlives it.
Every sum runs along one replicate's row, so the chunks change no bit; a
custom integrand is called once per chunk.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import RngStream, SliceSizes, _as_integer
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
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
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
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
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


# JSON type of each config key (an ExperimentConfig field, which gives the
# key order and whether it is required); a one-element list means "list of".
_CONFIG_KINDS = {
    "integrand": str,
    "sizes": [int],
    "dim": int,
    "methods": [str],
    "replicates": int,
    "scenario": str,
    "seed": int,
    "f1_variant": str,
}
_KIND_NAMES = {int: "integer", str: "string"}


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
        if not isinstance(self.sizes, SliceSizes):
            raise ValueError(f"sizes must be a SliceSizes, got {self.sizes!r}")
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
        methods = tuple(self.methods)
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
        """Parse a config strictly: an unknown key, a boolean or a
        non-integral number is an error naming its key, never coerced."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_KINDS))
        if unknown:
            raise ValueError(f"unknown config key: {', '.join(map(repr, unknown))}")
        for f in fields(cls):
            if f.name not in raw and f.default is MISSING:
                raise ValueError(f"config missing key: {f.name}")
        for key, value in raw.items():
            kind = _CONFIG_KINDS[key]
            # type(...) is, not isinstance: bool is an int subclass, and a
            # JSON 7.0 or 1.5 decodes to float.
            if isinstance(kind, list):
                if not isinstance(value, list) or any(type(v) is not kind[0] for v in value):
                    raise ValueError(
                        f"config key {key!r} must be a JSON list of "
                        f"{_KIND_NAMES[kind[0]]}s, got {value!r}"
                    )
            elif type(value) is not kind:
                raise ValueError(
                    f"config key {key!r} must be a JSON {_KIND_NAMES[kind]}, got {value!r}"
                )
        return cls(**{**raw, "sizes": SliceSizes(tuple(raw["sizes"]))})

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RmseReport":
        raw = json.loads(text)
        raw["sizes"] = tuple(raw["sizes"])
        return cls(**raw)


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
    lines = ["iteration,whole," + ",".join(f"slice{j + 1}" for j in range(len(trace.per_slice)))]
    for it, row in enumerate(zip(trace.whole, *trace.per_slice)):
        lines.append(",".join([str(it), *map(repr, row)]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the replicate-chunk pipeline, one (method, replicate) stream each

# Design values drawn, swept, evaluated and estimated at once: every array
# but the (R,) estimates holds at most this many (or one design's), whatever
# R and n are.
_BUDGET = 2**16
# Replicates in a chunk at most: its streams' key lists, about 150 B a
# replicate each, are outside the value budget, so this bounds them on tiny designs.
_MAX_CHUNK = 1024


def _generators(code: int, cfg: ExperimentConfig, role: int, reps: range):
    """The generators of replicates ``reps`` for one method and role (see RngStream.generators)."""
    return RngStream(cfg.seed).generators((code,), reps, (role,))


def _batch_designs(method: str, cfg: ExperimentConfig, blocks, reps: range) -> np.ndarray:
    """The designs of replicates ``reps``, drawn from their design streams
    onto ``blocks`` (method_blocks of the method's grid)."""
    n, p = cfg.sizes.n, cfg.dim
    gens = _generators(_METHODS[method][0], cfg, _ROLE_DESIGN, reps)
    out = np.empty((len(reps), n, p))
    if method == "RLH":
        # Column l is (permutation(n) + 1 - random(n)) / n, its permutation
        # and jitter draws interleaved column by column. permutation(n) is
        # shuffle of 1..n, so shuffling the levels in place draws the same.
        out[...] = np.arange(1, n + 1)[:, None]
        jitter = np.empty((p, n))
        for design, gen in zip(out, gens):
            for l in range(p):
                gen.shuffle(design[:, l])
                gen.random(out=jitter[l])
            design -= jitter.T
            design /= n
        return out
    # Permute each block's sorted midpoints in place, one call per block:
    # permuted(axis=0) runs shuffle's Fisher-Yates on each column in turn,
    # so it draws what a shuffle per column (or permutation(mids)) would.
    for rows, mids in blocks:
        out[:, rows, :] = mids[:, None]
    for design, gen in zip(out, gens):
        for rows, _ in blocks:
            slab = design[rows]
            gen.permuted(slab, axis=0, out=slab)
    return out


def _estimates(method: str, cfg: ExperimentConfig, F: np.ndarray, reps: range) -> np.ndarray:
    """Estimates of replicates ``reps`` from their integrand values F (m, n),
    drawing their failure and assignment streams where these are needed."""
    m, n = F.shape
    if cfg.scenario == SCENARIO_ALL:
        return F.mean(axis=1)
    code, grid, _ = _METHODS[method]
    off = cfg.sizes.offsets()
    t = cfg.sizes.t
    failure = _generators(code, cfg, _ROLE_FAILURE, reps)
    fail = np.fromiter((gen.integers(t) for gen in failure), dtype=np.int64, count=m)
    totals = F.sum(axis=1)
    if grid == "full":
        # Assign rows to computers uniformly at random: shuffle each
        # replicate's values in place (the draws of permutation(n)), so
        # each computer's group is a contiguous block.
        for row, gen in zip(F, _generators(code, cfg, _ROLE_ASSIGNMENT, reps)):
            gen.shuffle(row)
    block_sums = np.stack(
        [F[:, off[j] : off[j + 1]].sum(axis=1) for j in range(t)], axis=1
    )
    dropped = block_sums[np.arange(m), fail]
    kept = n - np.asarray(cfg.sizes.sizes)[fail]
    return (totals - dropped) / kept


def _integrand_values(method: str, cfg: ExperimentConfig, V: np.ndarray, custom) -> np.ndarray:
    if cfg.integrand == "f1":
        return eval_f1(V, variant=cfg.f1_variant)
    if cfg.integrand == "f2":
        return eval_f2(V)
    # A C-ordered copy: the failure step shuffles F in place, so a caller's
    # array must not be written, and every sum then runs pairwise along a
    # row, whatever the layout the integrand returned.
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
    # A real number, never parsed from a string; NaN or inf makes every RMSE NaN.
    mu = np.asarray(custom_true_mean)
    if mu.ndim or mu.dtype.kind not in "iuf" or not np.isfinite(mu):
        raise ValueError(f"custom_true_mean must be a finite number, got {custom_true_mean!r}")
    return float(mu)


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
        V = _batch_designs(method, cfg, blocks, reps)
        if swept:
            _sweep_batch(V, blocks)
        F = _integrand_values(method, cfg, V, custom_integrand)
        est[reps.start : reps.stop] = _estimates(method, cfg, F, reps)
        del V, F  # freed before the next chunk is drawn: one chunk at a time
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
    rmse: dict[str, float] = {}
    for method in config.methods:
        est = method_estimates(method, config, custom_integrand)
        err = est - mu
        rmse[method] = float(np.sqrt(np.add.reduce(err * err) / config.replicates))
    return RmseReport(
        integrand=config.integrand,
        scenario=config.scenario,
        sizes=config.sizes.sizes,
        replicates=config.replicates,
        true_mean=mu,
        f1_variant=config.f1_variant,
        rmse=rmse,
    )
