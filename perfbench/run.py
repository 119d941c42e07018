#!/usr/bin/env python3
"""Benchmark of the slicedlhd library: Monte Carlo throughput and a design request loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-f1-fail --seed 20240817 --seconds 30 --trace 0

Each run is one process with one caller and no threads (closed loop). It
imports the package from ``src/``, times ``--seconds`` seconds of requests,
checks every output, and prints the metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
request twice, untraced then traced, and reports the per-layer metrics,
the tracing overhead and the wall time the spans leave uncovered. The
spans, every report digest and the provenance go to ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import reference

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 20240817
PINNED_SEEDS = (20240817, 1)
# Request i repeats request i % PINNED_REQUESTS (same seed and parameters),
# so at a pinned seed every request of a run of any length has a pin.
PINNED_REQUESTS = 1000
SETUP_PROBES = 7
# A request's time is the shortest of this many back-to-back runs: other
# tenants' bursts hit single runs and would otherwise set the p95.
TIMED_RUNS = 2
FIXED_POINT_DESIGNS = 20

# Every mc request is one run_experiment call over one half of the config's
# methods: "plain" draws and evaluates, "decor" also runs the batch sweep.
# A plain/decor pair with one seed is exactly the config's 7-method run.
PLAIN = ("RLH", "MLH", "IMLH", "SLH")
DECOR = ("CLH", "ICLH", "CSLH")
SWEPT_TWIN = {"CLH": "MLH", "ICLH": "IMLH", "CSLH": "SLH"}
METHODS = ("RLH", "MLH", "CLH", "IMLH", "ICLH", "SLH", "CSLH")

# workload -> (config, replicates per request). The counts are chosen so a
# request spends its time as the config's own 10k-replicate run does (shares
# of batch sweep, stream builds and failure step, measured with --trace 1;
# see steadiness.json) while a run still holds many requests of each kind.
MC = {
    "mc-f1-fail": ("configs/table1-f1-failures.cfg", 40),
    "mc-f2-all": ("configs/table1-f2.cfg", 320),
}
# Peak memory is measured on one untimed request after the timed loop, at
# the config's own replicate count, of the method whose arrays peak highest
# (CLH: about 60 MB over the interpreter on table1-f1-failures at 10k).
MEMORY_METHOD = "CLH"
CLI = "design-cli"
WORKLOADS = tuple(MC) + (CLI,)

# design-cli request space: t slices of n_j runs in p columns.
CLI_T = range(2, 7)
CLI_NJ = (2, 60)
CLI_P = range(2, 9)


def import_program():
    """Import slicedlhd from this checkout's src/, never from site-packages."""
    pkg = SRC / "slicedlhd"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {pkg} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import slicedlhd
    import slicedlhd.benchmark
    import slicedlhd.cli

    if Path(slicedlhd.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported slicedlhd from {slicedlhd.__file__}, not {pkg}")
    return slicedlhd


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'none' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    src_digest = hashlib.sha256()
    for path in sorted((SRC / "slicedlhd").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "configs_sha256": {
            str(p.relative_to(ROOT)): sha256_file(p) for p in sorted((ROOT / "configs").glob("*.cfg"))
        },
    }


# ---------------------------------------------------------------------------
# tracing: spans recorded from here, around calls into the library's layers


class Tracer:
    """In-memory spans [name, parent, start, end]; off unless ``on`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.on = False

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(sid)
        try:
            yield sid
        finally:
            self.spans[sid][3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, observe=None):
        """``fn`` with a span around each call while tracing is on.

        ``name`` is a string or a function of the call's arguments;
        ``observe`` sees each traced call's result.
        """

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with self.span(name if isinstance(name, str) else name(*args, **kwargs)):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return traced

    def write(self, path: Path, header: dict) -> None:
        """A header line, then one [id, parent, name, start_ns, end_ns] line per span."""
        base = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, round((start - base) * 1e9),
                                     round((end - base) * 1e9)]) + "\n")


def install_tracer(lib, tracer: Tracer, sweep_traces: list) -> None:
    """Patch the module attributes the library looks its layers up by."""
    bm, cli, core = lib.benchmark, lib.cli, lib.core
    gen, part, dec, val = lib.generate, lib.partition, lib.decorrelate, lib.validate
    bm.run_experiment = tracer.wrap("benchmark.run_experiment", bm.run_experiment)
    bm.method_estimates = tracer.wrap(
        lambda method, *a, **k: f"benchmark.method_estimates.{method}", bm.method_estimates)
    bm.eval_f1 = tracer.wrap("benchmark.eval_f1", bm.eval_f1)
    bm.eval_f2 = tracer.wrap("benchmark.eval_f2", bm.eval_f2)
    core.RngStream.generator = tracer.wrap("core.generator", core.RngStream.generator)
    partition = tracer.wrap("partition.partition_levels", part.partition_levels)
    for module in (bm, cli, gen):
        module.partition_levels = partition
    cli.generate_sliced_lhd = tracer.wrap("generate.generate_sliced_lhd", gen.generate_sliced_lhd)
    cli.reduce_correlations = tracer.wrap(
        "decorrelate.reduce_correlations", dec.reduce_correlations,
        observe=lambda result: sweep_traces.append(result[1]))
    cli.validate_sliced = tracer.wrap("validate.validate_sliced", val.validate_sliced)
    cli.main = tracer.wrap(lambda argv: f"cli.main.{argv[0]}", cli.main)


# ---------------------------------------------------------------------------
# workloads: request i has a kind (even: plain, odd: decor), a timed run()
# and an untimed check() that returns its digest and any problems


def rmse_digest(rmse: dict) -> str:
    text = "\n".join(f"{m} {float(v).hex()}" for m, v in rmse.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class McWorkload:
    """run_experiment on a bundled config, alternating plain and decor requests."""

    def __init__(self, lib, name: str, seed: int):
        self.lib = lib
        cfg_path, replicates = MC[name]
        self.base = lib.benchmark.ExperimentConfig.from_path(ROOT / cfg_path)
        self.replicates = replicates
        self.seed = seed
        self.reports: list[str] = []

    def config(self, i: int, scenario=None):
        kind = "plain" if i % 2 == 0 else "decor"
        methods = tuple(m for m in self.base.methods if m in (PLAIN if kind == "plain" else DECOR))
        cfg = replace(self.base, replicates=self.replicates, methods=methods,
                      seed=self.seed * 1_000_000 + i % PINNED_REQUESTS // 2)
        if scenario is not None:
            cfg = replace(cfg, scenario=scenario)
        return kind, cfg

    def designs(self, i: int) -> int:
        return len(self.config(i)[1].methods) * self.replicates

    def run(self, i: int, scenario=None):
        return self.lib.benchmark.run_experiment(self.config(i, scenario)[1])

    def memory_request(self, pin) -> tuple[str, list[str]]:
        """The config as users run it (its replicates and seed), MEMORY_METHOD only."""
        cfg = replace(self.base, methods=(MEMORY_METHOD,))
        return self.check_report(cfg.methods, self.lib.benchmark.run_experiment(cfg), pin)

    def check(self, i: int, report, pin, mutate=None) -> tuple[str, list[str]]:
        return self.check_report(self.config(i)[1].methods, report, pin, mutate)

    def check_report(self, want, report, pin, mutate=None) -> tuple[str, list[str]]:
        rmse = dict(report.rmse)
        if mutate is not None:
            mutate(rmse)
        self.reports.append(hashlib.sha256(report.to_json().encode()).hexdigest())
        problems = []
        if tuple(rmse) != want:
            problems.append(f"methods {tuple(rmse)} != {want}")
        for m, v in rmse.items():
            if not (math.isfinite(v) and v > 0.0):
                problems.append(f"{m} rmse {v!r} not finite and positive")
        digest = rmse_digest(rmse)
        if pin is not None and digest != pin:
            problems.append(f"rmse digest {digest} != pinned {pin}")
        return digest, problems


def cli_schedule(seed: int):
    """Endless (sizes, p, design seed) pairs; every block of 35 pairs covers
    each (t, p) once, so the mix of design sizes hardly depends on the seed."""
    rng = random.Random(seed)
    while True:
        block = [(t, p) for t in CLI_T for p in CLI_P]
        rng.shuffle(block)
        for t, p in block:
            sizes = tuple(rng.randint(*CLI_NJ) for _ in range(t))
            yield sizes, p, rng.randrange(2**31)


def bin_counter_problems(text: str, sizes, p: int, design_seed: int, decor: bool) -> list[str]:
    """Brute-force check of a levels-format design file, independent of validate_sliced."""
    n = sum(sizes)
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition(":")
            header[key.strip()] = value.strip()
        elif line.strip():
            rows.append(line.split())
    want = {"sizes": ",".join(map(str, sizes)), "n": str(n), "dim": str(p),
            "seed": str(design_seed), "decorrelated": "yes" if decor else "no", "format": "levels"}
    problems = [f"header {k}: {header.get(k)!r} != {v!r}" for k, v in want.items() if header.get(k) != v]
    if len(rows) != n or any(len(r) != p for r in rows):
        return problems + [f"shape {len(rows)}x{[len(r) for r in rows[:1]]} != {n}x{p}"]
    try:
        numer = [[int(tok) for tok in row] for row in rows]
    except ValueError:
        return problems + ["non-integer entry"]
    for l in range(p):
        col = [row[l] for row in numer]
        if any(v < 1 or v > 2 * n - 1 or v % 2 != 1 for v in col):
            problems.append(f"column {l}: entry off the odd numerators 1..{2 * n - 1}")
            continue
        if sorted((v + 1) // 2 for v in col) != list(range(1, n + 1)):
            problems.append(f"column {l}: whole-grid bins not each hit once")
        start = 0
        for j, nj in enumerate(sizes):
            # midpoint v/(2n) lies in bin ceil(nj*v/(2n)) of slice j's nj bins
            bins = sorted(-(-nj * v // (2 * n)) for v in col[start:start + nj])
            if bins != list(range(1, nj + 1)):
                problems.append(f"column {l} slice {j}: {nj} bins not each hit once")
            start += nj
    return problems


class CliWorkload:
    """generate then validate through cli.main, alternating plain and decor."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.params: list = []
        self.schedule = cli_schedule(seed)
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)

    def request(self, i: int):
        pair = i % PINNED_REQUESTS // 2
        while len(self.params) <= pair:
            self.params.append(next(self.schedule))
        sizes, p, design_seed = self.params[pair]
        return ("plain" if i % 2 == 0 else "decor"), sizes, p, design_seed

    def designs(self, i: int) -> int:
        return 1

    def run(self, i: int):
        kind, sizes, p, design_seed = self.request(i)
        path = self.work / f"{kind}.txt"
        text_sizes = ",".join(map(str, sizes))
        argv = ["generate", "--sizes", text_sizes, "--dim", str(p), "--seed", str(design_seed),
                "-o", str(path)]
        if kind == "decor":
            argv.append("--decorrelate")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc_gen = self.lib.cli.main(argv)
            rc_val = self.lib.cli.main(["validate", str(path), "--sizes", text_sizes])
        return rc_gen, rc_val, stdout.getvalue(), path

    def check(self, i: int, result, pin, mutate=None) -> tuple[str, list[str]]:
        kind, sizes, p, design_seed = self.request(i)
        rc_gen, rc_val, stdout, path = result
        if mutate is not None:
            mutate(path)
        data = path.read_bytes()
        problems = []
        if rc_gen != 0 or rc_val != 0:
            problems.append(f"exit codes generate={rc_gen} validate={rc_val}")
        if "overall: all-pass" not in stdout:
            problems.append("validate did not report all-pass")
        problems += bin_counter_problems(data.decode(), sizes, p, design_seed, kind == "decor")
        digest = hashlib.sha256(data).hexdigest()[:16]
        if pin is not None and digest != pin:
            problems.append(f"design digest {digest} != pinned {pin}")
        return digest, problems


def make_workload(lib, name: str, seed: int):
    return CliWorkload(lib, seed) if name == CLI else McWorkload(lib, name, seed)


def load_pins(name: str, key: str):
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    return pins.get(name, {}).get(key)


# ---------------------------------------------------------------------------
# set-up: measured in fresh processes, since import time is part of it


def measure_setup(name: str, first_sizes) -> list[dict]:
    cfg = MC[name][0] if name in MC else ""
    argv = [sys.executable, str(HERE / "probe_setup.py"), name, cfg, ",".join(map(str, first_sizes))]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# the timed loop


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of the values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_loop(workload, name: str, seed: int, seconds: float, tracer: Tracer | None,
             mutate=None) -> dict:
    """Requests in plain/decor pairs until ``seconds`` have passed.

    Each request runs TIMED_RUNS times back to back and keeps its shortest
    wall. Traced, each request also runs traced (and, for a one-slice-fails
    config, as an all-complete twin) after its untimed runs.
    """
    pins = load_pins(name, str(seed)) if seed in PINNED_SEEDS else None
    walls, refs, traced_walls, kinds, digests, failures = [], [], [], [], [], []
    twin = isinstance(workload, McWorkload) and workload.base.scenario != "all-complete"
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i % 2 == 1:
        refs.append(reference.kernel_seconds())
        wall = math.inf
        for _ in range(TIMED_RUNS):
            t0 = time.perf_counter()
            result = workload.run(i)
            wall = min(wall, time.perf_counter() - t0)
        if tracer is not None:
            tracer.on = True
            with tracer.span("request") as sid:
                traced_result = workload.run(i)
            traced_walls.append(tracer.spans[sid][3] - tracer.spans[sid][2])
            if twin:
                with tracer.span("twin"):
                    workload.run(i, scenario="all-complete")
            tracer.on = False
            result = traced_result
        walls.append(wall)
        kinds.append("plain" if i % 2 == 0 else "decor")
        digest, problems = workload.check(i, result, pins[i % PINNED_REQUESTS] if pins else None, mutate)
        digests.append(digest)
        if problems:
            failures.append({"request": i, "problems": problems})
        i += 1
    refs.append(reference.kernel_seconds())
    # Determinism: the first pair again, outside the timed region.
    for j in range(2):
        digest, problems = workload.check(j, workload.run(j), digests[j])
        if problems:
            failures.append({"request": j, "rerun": True, "problems": problems})
    return {"walls": walls, "refs": refs, "traced_walls": traced_walls, "kinds": kinds,
            "digests": digests, "failures": failures, "requests": i}


def end_to_end_metrics(workload, loop: dict, setup: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics; times are scaled to the reference kernel's
    nominal speed (see reference.py) unless ``scaled`` is false."""
    if scaled:
        # Each request is bracketed by two kernel timings.
        refs = loop["refs"]
        walls = [w * reference.NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, w in enumerate(loop["walls"])]
        setup_s = statistics.median(p["total_s"] * reference.NOMINAL_S / p["ref_s"] for p in setup)
    else:
        walls = loop["walls"]
        setup_s = statistics.median(p["total_s"] for p in setup)
    kinds = loop["kinds"]
    designs = sum(workload.designs(i) for i in range(len(walls)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "designs_per_s": (designs / sum(walls), "1/s"),
    }
    for kind in ("plain", "decor"):
        ms = [w * 1e3 for w, k in zip(walls, kinds) if k == kind]
        metrics[f"{kind}_p50_ms"] = (percentile(ms, 0.50), "ms")
        metrics[f"{kind}_p95_ms"] = (percentile(ms, 0.95), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def fixed_point_iterations(trace) -> int:
    """Sweep iterations that still changed the design, read off a SweepTrace."""
    rows = [trace.whole] + list(trace.per_slice)
    for it in range(1, trace.iterations + 1):
        if all(r[it] == r[it - 1] for r in rows):
            return it - 1
    return trace.iterations


def per_layer_metrics(lib, workload, loop: dict, setup: list[dict],
                      tracer: Tracer, sweep_traces: list) -> dict:
    spans = tracer.spans
    roots = {sid for sid, s in enumerate(spans) if s[1] == -1}
    root_of = []
    for sid, s in enumerate(spans):
        root_of.append(sid if s[1] == -1 else root_of[s[1]])
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for sid, s in enumerate(spans):
        if s[1] != -1:
            child[s[1]] += dur[sid]

    def in_kind(sid, kind):
        return spans[root_of[sid]][0] == kind

    def total(prefix, kind="request"):
        return sum(dur[s] for s in range(len(spans)) if spans[s][0].startswith(prefix) and in_kind(s, kind))

    def calls(prefix, kind="request"):
        return sum(1 for s in range(len(spans)) if spans[s][0].startswith(prefix) and in_kind(s, kind))

    def per_call(prefix, kind="request"):
        c = calls(prefix, kind)
        return total(prefix, kind) / c if c else 0.0

    requests = loop["requests"]
    request_wall = sum(dur[s] for s in roots if spans[s][0] == "request")
    depth1 = sum(dur[s] for s in range(len(spans)) if spans[s][1] in roots and in_kind(s, "request"))
    m = {}
    m["core.stream_builds"] = (calls("core.generator") / requests, "count")
    m["core.stream_setup_s"] = (total("core.generator") / requests, "s")
    for meth in METHODS:
        m[f"benchmark.method_s.{meth}"] = (per_call(f"benchmark.method_estimates.{meth}"), "s")
    for meth, plain in SWEPT_TWIN.items():
        m[f"decorrelate.batch_sweep_s.{meth}"] = (
            m[f"benchmark.method_s.{meth}"][0] - m[f"benchmark.method_s.{plain}"][0], "s")
    for meth in METHODS:
        step = 0.0
        if calls(f"benchmark.method_estimates.{meth}", "twin"):
            step = m[f"benchmark.method_s.{meth}"][0] - per_call(f"benchmark.method_estimates.{meth}", "twin")
        m[f"benchmark.failure_step_s.{meth}"] = (step, "s")
    # Shares of the request wall time, comparable across replicate counts.
    def summed(prefix, methods):
        return sum(m[prefix + meth][0] * calls(f"benchmark.method_estimates.{meth}") for meth in methods)

    sweep_total = summed("decorrelate.batch_sweep_s.", SWEPT_TWIN)
    step_total = summed("benchmark.failure_step_s.", METHODS)
    m["decorrelate.batch_sweep_frac"] = (sweep_total / request_wall, "ratio")
    m["benchmark.failure_step_frac"] = (step_total / request_wall, "ratio")
    m["core.stream_setup_frac"] = (total("core.generator") / request_wall, "ratio")
    m["benchmark.integrand_s"] = (total("benchmark.eval_f") / requests, "s")
    m["benchmark.true_mean_s"] = (statistics.median(p["true_mean_s"] for p in setup), "s")
    m["setup.import_s"] = (statistics.median(p["import_s"] for p in setup), "s")
    if isinstance(workload, McWorkload):
        cfg = workload.base
        m["benchmark.design_bytes"] = (cfg.replicates * cfg.sizes.n * cfg.dim * 8, "bytes")
        part = lib.partition.partition_levels(cfg.sizes)
        for k in range(FIXED_POINT_DESIGNS):
            design = lib.generate.generate_sliced_lhd(
                cfg.sizes, cfg.dim, lib.core.RngStream(workload.seed).split(9, k), partition=part)
            sweep_traces.append(lib.decorrelate.reduce_correlations(design, part)[1])
    else:
        sizes = [workload.request(i) for i in range(requests)]
        m["benchmark.design_bytes"] = (statistics.fmean(sum(s) * p * 8 for _, s, p, _ in sizes), "bytes")
    iters = [fixed_point_iterations(tr) for tr in sweep_traces] or [0]
    m["decorrelate.fixed_point_iters_mean"] = (statistics.fmean(iters), "count")
    m["decorrelate.fixed_point_iters_max"] = (max(iters), "count")
    m["decorrelate.reduce_s"] = (per_call("decorrelate.reduce_correlations"), "s")
    m["partition.partition_s"] = (per_call("partition.partition_levels"), "s")
    m["generate.generate_s"] = (per_call("generate.generate_sliced_lhd"), "s")
    m["validate.validate_s"] = (per_call("validate.validate_sliced"), "s")
    for cmd in ("generate", "validate"):
        sids = [s for s in range(len(spans)) if spans[s][0] == f"cli.main.{cmd}" and in_kind(s, "request")]
        self_ms = statistics.fmean(dur[s] - child[s] for s in sids) * 1e3 if sids else 0.0
        m[f"cli.{cmd}_self_ms"] = (self_ms, "ms")
    layer_self = {layer: 0.0 for layer in
                  ("cli", "benchmark", "core", "partition", "generate", "decorrelate", "validate")}
    for s in range(len(spans)):
        if spans[s][1] != -1 and in_kind(s, "request"):
            layer_self[spans[s][0].split(".")[0]] += dur[s] - child[s]
    for layer, secs in layer_self.items():
        m[f"{layer}.self_s"] = (secs / requests, "s")
    m["trace.uncovered_frac"] = (1.0 - depth1 / request_wall, "ratio")
    methods = total("benchmark.method_estimates.")
    m["benchmark.method_remainder_frac"] = (1.0 - methods / request_wall if methods else 0.0, "ratio")
    diffs = [(tw - w) * 1e3 for tw, w in zip(loop["traced_walls"], loop["walls"])]
    m["trace.overhead_ms"] = (statistics.median(diffs), "ms")
    m["trace.overhead_frac"] = (sum(loop["traced_walls"]) / sum(loop["walls"]) - 1.0, "ratio")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, mutate=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    lib = import_program()
    OUT.mkdir(exist_ok=True)
    workload = make_workload(lib, name, seed)
    if name in MC:
        # The true mean is cached per process; set-up pays for it, requests do not.
        bm = lib.benchmark
        (bm.true_mean_f1 if workload.base.integrand == "f1" else bm.true_mean_f2)()
    first_sizes = workload.request(0)[1] if name == CLI else workload.base.sizes.sizes
    setup = measure_setup(name, first_sizes)
    tracer = sweep_traces = None
    if trace:
        tracer, sweep_traces = Tracer(), []
        install_tracer(lib, tracer, sweep_traces)
    loop = run_loop(workload, name, seed, seconds, tracer, mutate)
    if name in MC and not trace:
        # After the timed loop, so its large arrays leave the allocator of
        # the timed requests as it was.
        _, problems = workload.memory_request(load_pins(name, "memory"))
        if problems:
            loop["failures"].append({"request": "memory", "problems": problems})
    if trace:
        metrics = per_layer_metrics(lib, workload, loop, setup, tracer, sweep_traces)
    else:
        metrics = end_to_end_metrics(workload, loop, setup)
        unscaled = end_to_end_metrics(workload, loop, setup, scaled=False)
    attempted = loop["requests"] + 2 + (name in MC and not trace)
    failed = len({f["request"] for f in loop["failures"] if not f.get("rerun")}) + sum(
        1 for f in loop["failures"] if f.get("rerun"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(name, seed)
    prov["failed_frac"] = failed / attempted
    prov["reports_sha256"] = getattr(workload, "reports", [])
    prov["reference_kernel_ms"] = {"nominal": reference.NOMINAL_S * 1e3,
                                   "median": statistics.median(loop["refs"]) * 1e3}
    if not trace:
        prov["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "setup_probes": setup,
         "request_walls_s": loop["walls"], "reference_s": loop["refs"],
         "request_digests": loop["digests"], "failures": loop["failures"]}, indent=1))
    if trace:
        tracer.write(OUT / f"{stem}.spans.jsonl", prov)
    result["_provenance"] = prov
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = result.pop("_provenance")
    reports = prov.pop("reports_sha256")
    if reports:
        prov["reports_sha256_of_all"] = hashlib.sha256("".join(reports).encode()).hexdigest()
    print("provenance " + json.dumps(prov, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {prov['failed_frac']:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
