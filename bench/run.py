"""plrica benchmark: scenario-grid workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload ica_hard --seed 1 --seconds 30 --trace 0

--trace 0 times whole grids the way `plrica experiment` runs them
(scenario_from_config -> run_scenario -> emit_csv -> csv_digest) with no
tracing, and reports the end-to-end metrics. --trace 1 runs the same grids
untraced once more, replays them serially with spans around each module's
public functions, probes single stages, and reports the per-layer metrics.

Both modes check the outputs: the CSV reads back field for field, repeats
give the same digest, every theta_true matches its cell's spec, and the
traced replay reproduces the untraced estimates bit for bit. Human-readable
lines and a run manifest come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The benchmark
sets no BLAS thread variable; it records the ones it finds.

Workloads are defined in bench/workloads.json. Spans and manifests are
written to bench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PLAN = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(SRC))
try:
    import plrica
    from plrica import baselines, dgp, harness, ica, kernels
except ModuleNotFoundError as exc:
    raise SystemExit(f"bench: cannot import plrica from {SRC}: {exc}")

SETUP_REPEATS = 5
TRACE_BATCH_SHARE = 3  # a traced batch costs about three untraced ones
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "finite_share": "share",
    "converged_share": "share",
    "good_fit_share": "share",
    "err_iqm": "l2",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "harness.scenario_from_config.s": "s",
    "dgp.simulate.calls": "count",
    "dgp.simulate.s": "s",
    "dgp.self_s": "s",
    "ica.estimate_ica.calls": "count",
    "ica.estimate_ica.s": "s",
    "ica.self_s": "s",
    "ica.iterations.p50": "count",
    "ica.iterations.tail": "count",
    "ica.iterations.total": "count",
    "ica.whiten.s": "s",
    "ica.fastica.s": "s",
    "ica.canonicalize.s": "s",
    "ica.ms_per_iteration": "ms",
    "ica.nonconverged": "count",
    "ica.failed": "count",
    "baselines.estimate_oml.s": "s",
    "baselines.estimate_homl.s": "s",
    "baselines.ols_joint.s": "s",
    "baselines.self_s": "s",
    "baselines.fit_nuisance.s": "s",
    "kernels.lasso_fit.sweeps": "count",
    "kernels.lasso_fit.ms_per_sweep": "ms",
    "harness.replication_ms.p50": "ms",
    "harness.replication_ms.tail": "ms",
    "harness.self_s": "s",
    "harness.emit_csv.s": "s",
    "harness.read_records.s": "s",
    "harness.csv_digest.s": "s",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}
REPLAY_LAYERS = ("harness", "dgp", "ica", "baselines")
METHOD_SPANS = {"ica": "ica.estimate_ica", "oml": "baselines.estimate_oml",
                "homl": "baselines.estimate_homl", "ols": "baselines.ols_joint"}

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2] the
# workload's config text. Prints the in-process import and config times.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import plrica.cli
t1 = time.perf_counter()
plrica.harness.scenario_from_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""


class CheckFailed(Exception):
    """An output of the program is wrong."""


# ------------------------------------------------------------------ tracing


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; written out once the run ends.

    A span inherits its parent's replication id unless it names its own.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        s = Span(len(self.spans), name, time.perf_counter(), math.nan,
                 None if parent is None else parent.id, rid, probe)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.spans if s.name == name), 0.0)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the part their children cover
        (spans nest serially, so children never overlap)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = {layer: 0.0 for layer in REPLAY_LAYERS}
        for s in self.spans:
            if not s.probe:
                layer = s.name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + s.duration - child_time[s.id]
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


# ----------------------------------------------------------------- workloads


def config_text(workload: str, seed: int, batch: int) -> str:
    lines = PLAN["workloads"][workload]["config"]
    return "\n".join(lines + [f"label = {workload}-s{seed}-b{batch}"]) + "\n"


def batch_count(workload: str, seconds: float) -> int:
    return max(2, round(PLAN["workloads"][workload]["batches_per_second"] * seconds))


def run_grid(config, csv_path: Path):
    """The timed path of `plrica experiment` after config parsing, serial:
    peak_rss_mb reads this process only, so no workload uses the pool."""
    start = time.perf_counter()
    records = harness.run_scenario(config, workers=1)
    harness.emit_csv(records, csv_path)
    digest = harness.csv_digest(csv_path)
    return records, digest, time.perf_counter() - start


def setup_sample(text: str) -> tuple[float, float, float]:
    """One fresh interpreter importing plrica and building the config:
    (wall time of the whole process, in-process import time, config time)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), text],
                          capture_output=True, text=True, check=True, timeout=120)
    wall = time.perf_counter() - start
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall, child["import_s"], child["config_s"]


# ------------------------------------------------------------------- checks


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _same_vector(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def check_roundtrip(records, csv_path: Path) -> None:
    """The CSV must read back into the written records, field for field
    (notes are not serialized)."""
    back = harness.read_records(csv_path)
    if len(back) != len(records):
        raise CheckFailed(f"{csv_path.name}: wrote {len(records)} records, read {len(back)}")
    for i, (r, b) in enumerate(zip(records, back)):
        same = (
            (r.scenario, r.n, r.dim_x, r.n_treat, r.nonlinearity, r.contrast, r.method, r.seed,
             r.converged) == (b.scenario, b.n, b.dim_x, b.n_treat, b.nonlinearity, b.contrast,
                              b.method, b.seed, b.converged)
            and (r.beta is None) == (b.beta is None)
            and (r.beta is None or _same_float(r.beta, b.beta))
            and _same_vector(r.theta_true, b.theta_true)
            and _same_vector(r.theta_hat, b.theta_hat)
            and _same_float(r.mse, b.mse)
            and _same_float(r.relative_error, b.relative_error)
            and _same_float(r.wall_ms, b.wall_ms)
        )
        if not same:
            raise CheckFailed(f"{csv_path.name}: record {i} does not read back as written")


def check_truth(config, records) -> None:
    """Each record belongs to its grid slot, in run_scenario's order of
    (cell, replication, method), and carries its cell's theta."""
    slots = [(cell, i, method) for cell in config.cells() for i in range(config.seeds)
             for method in config.methods]
    if len(slots) != len(records):
        raise CheckFailed(f"expected {len(slots)} records, got {len(records)}")
    for (cell, i, method), r in zip(slots, records):
        theta = np.asarray(harness.spec_for_cell(config, cell).theta, dtype=float)
        if (r.n, r.dim_x, r.method, r.seed) != (cell["n"], cell["dim_x"], method,
                                                harness.cell_seed(config.scenario, cell, i)):
            raise CheckFailed(f"record {r.method} n={r.n} p={r.dim_x} is out of grid order")
        if not np.array_equal(r.theta_true, theta):
            raise CheckFailed(f"theta_true {r.theta_true} differs from cell spec {theta}")


# -------------------------------------------------------------- traced replay


def _estimate(method: str, dataset, config, cell, ica_seed):
    """The estimator call run_cell_replication makes for `method`."""
    if method == "ica":
        return ica.estimate_ica(dataset, contrast=cell["contrast"], tol=config.tol,
                                max_iter=config.max_iter, mode=config.ica_mode, seed=ica_seed)
    if method == "oml":
        return baselines.estimate_oml(dataset, lambda_scale=config.lambda_scale,
                                      folds=config.folds, tol=config.tol, max_iter=config.max_iter)
    if method == "homl":
        estimate, _ = baselines.estimate_homl(dataset, lambda_scale=config.lambda_scale,
                                              folds=config.folds, tol=config.tol,
                                              max_iter=config.max_iter)
        return estimate
    return baselines.ols_joint(dataset)


def _cell_data(config, cell, index: int):
    seed = harness.cell_seed(config.scenario, cell, index)
    data_seq, ica_seq = np.random.SeedSequence(seed).spawn(2)
    return harness.spec_for_cell(config, cell), data_seq, ica_seq


@dataclass
class ReplayStats:
    iterations: list
    nonconverged: int = 0
    failed: int = 0
    probe_s: float = 0.0


def replay_grid(config, batch: int, tracer: Tracer, stats: ReplayStats) -> list[np.ndarray]:
    """Serial replay of run_scenario through public functions, one span per
    replication and per module call. Each replayed dataset also gets one
    fit_nuisance probe, outside its replication span."""
    thetas = []
    for c, cell in enumerate(config.cells()):
        for i in range(config.seeds):
            rid = f"b{batch}/c{c}/r{i}"
            with tracer.span("harness.replication", rid):
                spec, data_seq, ica_seq = _cell_data(config, cell, i)
                with tracer.span("dgp.simulate"):
                    dataset = dgp.simulate(spec, cell["n"], data_seq)
                truth = dataset.ground_truth.theta
                for method in config.methods:
                    with tracer.span(METHOD_SPANS[method]):
                        try:
                            est = _estimate(method, dataset, config, cell, ica_seq)
                            theta_hat = np.atleast_1d(np.asarray(est.theta_hat, dtype=float))
                            diag = est.diagnostics
                        except Exception:  # the harness records any failure as nan
                            theta_hat, diag = np.full(spec.m, math.nan), None
                    if theta_hat.shape != truth.shape:
                        theta_hat, diag = np.full(truth.shape, math.nan), None
                    if method == "ica":
                        if diag is None or not np.all(np.isfinite(theta_hat)):
                            stats.failed += 1
                        if diag is not None:
                            stats.iterations.append(diag.iterations)
                            stats.nonconverged += not diag.converged
                    thetas.append(theta_hat)
            with tracer.span("baselines.fit_nuisance", rid, probe=True) as s:
                baselines.fit_nuisance(dataset, lambda_scale=config.lambda_scale,
                                       folds=config.folds, tol=config.tol, max_iter=config.max_iter)
            stats.probe_s += s.duration
    return thetas


def probe_cells(config, tracer: Tracer) -> dict:
    """Stage probes on replication 0 of each cell: whiten -> fastica ->
    canonicalize with the data and seed estimate_ica would get, and
    lasso_fit with the fold splits and penalty fit_nuisance documents."""
    iterations, sweeps, probe_failures = 0, 0, 0
    for c, cell in enumerate(config.cells()):
        spec, data_seq, ica_seq = _cell_data(config, cell, 0)
        dataset = dgp.simulate(spec, cell["n"], data_seq)
        rid = f"probe/c{c}/r0"
        try:
            with tracer.span("ica.whiten", rid, probe=True):
                z, k, means = ica.whiten(dataset.columns)
            with tracer.span("ica.fastica", rid, probe=True):
                result = ica.fastica(z, contrast=cell["contrast"], tol=config.tol,
                                     max_iter=config.max_iter, mode=config.ica_mode, seed=ica_seq)
            iterations += result.iterations
            with tracer.span("ica.canonicalize", rid, probe=True):
                ica.canonicalize(ica.assemble_unmixing(result, k, means, cell["contrast"]))
        except (ica.IcaError, kernels.KernelError):
            probe_failures += 1
        folds = np.arange(dataset.n) % config.folds
        with tracer.span("kernels.lasso_fit", rid, probe=True):
            for fold in range(config.folds):
                train = folds != fold
                lam = config.lambda_scale * math.sqrt(
                    math.log(dataset.p + dataset.m + 1) / int(train.sum()))
                targets = [dataset.t[train, j] for j in range(dataset.m)] + [dataset.y[train]]
                for target in targets:
                    fit = kernels.lasso_fit(dataset.x[train], target, lam,
                                            tol=config.tol, max_iter=config.max_iter)
                    sweeps += fit.n_sweeps
    return {"iterations": iterations, "sweeps": sweeps, "failures": probe_failures}


# ------------------------------------------------------------------ metrics


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, else the median."""
    for q in TAIL_LADDER:
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return 50.0, float(np.percentile(values, 50.0)) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process (run_grid starts no worker processes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def interquartile_mean(values) -> float:
    """Mean of the values from the first to the third quartile."""
    v = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(v, [25, 75])
    return float(v[(v >= q1) & (v <= q3)].mean())


def accuracy(records) -> dict:
    """Failure and convergence shares, and the error ||theta_hat - theta||_2
    over finite records: per method as a mean, and for the whole workload as
    an interquartile mean. The plain mean is too unsteady across seeds for a
    bound (a few ica fits land on a wrong fixed point, with errors near
    2 theta), and the median is too unsteady where errors are light-tailed.
    The interquartile mean drops those wrong fits, so good_fit_share counts
    them: the share of all records that are finite with an error below
    |theta| / 2."""
    finite = [r for r in records if np.all(np.isfinite(r.theta_hat))]
    good = [r for r in finite if r.mse < np.linalg.norm(r.theta_true) / 2]
    out = {
        "finite_share": len(finite) / len(records),
        "converged_share": sum(r.converged for r in records) / len(records),
        "good_fit_share": len(good) / len(records),
        "err_iqm": interquartile_mean([r.mse for r in finite]) if finite else math.nan,
    }
    for method in sorted({r.method for r in records}):
        errs = [r.mse for r in finite if r.method == method]
        out[f"err_{method}"] = float(np.mean(errs)) if errs else math.nan
    return out


# ----------------------------------------------------------------- manifest


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def manifest(workload: str, seed: int, trace: int, labels, digests) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "plrica": plrica.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workers": 1,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "labels": labels,
        "batch_digests": digests,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }


# --------------------------------------------------------------------- runs


class Run:
    """Shared state of one benchmark run: counts, output paths, manifest."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{workload}-s{seed}-t{trace}"
        self.csv_path = OUT_DIR / f"{stem}.csv"
        self.manifest_path = OUT_DIR / f"{stem}.manifest.json"
        self.spans_path = OUT_DIR / f"{stem}.spans.json"
        self.attempted = 0
        self.labels: list[str] = []
        self.digests: list[str] = []

    def config(self, batch: int):
        config = harness.scenario_from_config(config_text(self.workload, self.seed, batch))
        self.labels.append(config.scenario)
        return config

    def checked_grid(self, config):
        records, digest, wall = run_grid(config, self.csv_path)
        self.attempted += len(records)
        check_roundtrip(records, self.csv_path)
        check_truth(config, records)
        return records, digest, wall

    def finish(self) -> None:
        self.csv_path.unlink(missing_ok=True)
        info = manifest(self.workload, self.seed, self.trace, self.labels, self.digests)
        self.manifest_path.write_text(json.dumps(info, indent=1), encoding="utf-8")
        print("manifest " + json.dumps(info))


def measure_end_to_end(run: Run) -> dict:
    """Distinct batches first (their records give the accuracy metrics),
    then repeats of earlier batches until --seconds is used up; every
    repeat must reproduce its batch's digest."""
    text = config_text(run.workload, run.seed, 0)
    n_batches = batch_count(run.workload, run.seconds)
    # set-up samples are spread over the run so that one slow spell of a
    # shared machine does not decide their median
    setup_before = [k * n_batches // SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setup_walls = []
    start = time.perf_counter()
    configs, times, records = [], [], []
    for b in range(n_batches):
        setup_walls += [setup_sample(text)[0] for _ in range(setup_before.count(b))]
        configs.append(run.config(b))
        recs, digest, wall = run.checked_grid(configs[b])
        records += recs
        run.digests.append(digest)
        times.append([wall])
    repeats = 0
    while repeats == 0 or time.perf_counter() - start < run.seconds:
        b = repeats % n_batches
        _, digest, wall = run.checked_grid(configs[b])
        if digest != run.digests[b]:
            raise CheckFailed(f"repeat of {configs[b].scenario} changed its digest")
        times[b].append(wall)
        repeats += 1
    batch_walls = [statistics.median(t) for t in times]
    acc = accuracy(records)
    q, wall_tail = tail(batch_walls)
    print(f"wall_s per batch: p50 {statistics.median(batch_walls):.4f} s, p{q:g} {wall_tail:.4f} s, "
          f"{n_batches} batches, {repeats} repeats")
    print(f"failed_share {1 - acc['finite_share']:.6f} share, "
          f"nonconverged_share {1 - acc['converged_share']:.6f} share, {len(records)} records")
    for key in sorted(k for k in acc if k.startswith("err_") and k != "err_iqm"):
        print(f"{key} {acc[key]:.6g} l2 (mean over finite records)")
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(batch_walls),
        "peak_rss_mb": peak_rss_mb(),
        "finite_share": acc["finite_share"],
        "converged_share": acc["converged_share"],
        "good_fit_share": acc["good_fit_share"],
        "err_iqm": acc["err_iqm"],
    }


def measure_per_layer(run: Run) -> dict:
    """Per batch: the untraced grid, then its traced serial replay, whose
    estimates must agree bit for bit; then stage probes on the first batch.

    The tracing overhead is the traced replay's non-probe time minus the
    untraced wall time, and the parallel efficiency is the replication time
    over workers x wall time, with workers = 1; both are per-batch medians
    (the overhead scaled to all batches), so one slow spell of a shared
    machine does not decide them.
    """
    samples = [setup_sample(config_text(run.workload, run.seed, 0)) for _ in range(SETUP_REPEATS)]
    tracer = Tracer()
    stats = ReplayStats(iterations=[])
    n_batches = max(1, batch_count(run.workload, run.seconds) // TRACE_BATCH_SHARE)
    configs = [run.config(b) for b in range(n_batches)]
    run.checked_grid(configs[0])  # warm-up, so the first untraced batch is not the slow one
    overheads, efficiencies = [], []
    for b, config in enumerate(configs):
        records, digest, wall = run.checked_grid(config)
        run.digests.append(digest)
        first_span, probe_before = len(tracer.spans), stats.probe_s
        with tracer.span("harness.grid", f"b{b}") as grid:
            thetas = replay_grid(config, b, tracer, stats)
        with tracer.span("harness.emit_csv", f"b{b}") as emit:
            harness.emit_csv(records, run.csv_path)
        with tracer.span("harness.read_records", f"b{b}"):
            harness.read_records(run.csv_path)
        with tracer.span("harness.csv_digest", f"b{b}") as hashing:
            harness.csv_digest(run.csv_path)
        traced = grid.duration - (stats.probe_s - probe_before) + emit.duration + hashing.duration
        overheads.append(traced - wall)
        replicated = sum(s.duration for s in tracer.spans[first_span:]
                         if s.name == "harness.replication")
        efficiencies.append(replicated / wall)
        if len(thetas) != len(records):
            raise CheckFailed(f"traced replay gave {len(thetas)} estimates, "
                              f"untraced {len(records)}")
        for r, theta in zip(records, thetas):
            if not _same_vector(r.theta_hat, theta):
                raise CheckFailed(f"traced replay of {r.method} seed {r.seed} gave {theta}, "
                                  f"untraced {r.theta_hat}")
    probes = probe_cells(configs[0], tracer)
    tracer.write(run.spans_path)

    self_s = tracer.self_times()
    replications = [d * 1e3 for d in tracer.durations("harness.replication")]
    iters = stats.iterations
    rep_q, rep_tail = tail(replications)
    it_q, it_tail = tail(iters) if iters else (0.0, 0.0)
    fastica_s, lasso_s = tracer.total("ica.fastica"), tracer.total("kernels.lasso_fit")
    print(f"traced replay: {len(replications)} replications, {len(iters)} ica fits, "
          f"replication tail p{rep_q:g}, iteration tail p{it_q:g}, "
          f"{probes['failures']} failed stage probes, spans in {run.spans_path.name}")
    for layer, value in self_s.items():
        print(f"self time {layer} {value:.4f} s")
    return {
        "cli.import_s": statistics.median(s[1] for s in samples),
        "harness.scenario_from_config.s": statistics.median(s[2] for s in samples),
        "dgp.simulate.calls": len(tracer.durations("dgp.simulate")),
        "dgp.simulate.s": tracer.total("dgp.simulate"),
        "dgp.self_s": self_s["dgp"],
        "ica.estimate_ica.calls": len(tracer.durations("ica.estimate_ica")),
        "ica.estimate_ica.s": tracer.total("ica.estimate_ica"),
        "ica.self_s": self_s["ica"],
        "ica.iterations.p50": float(np.median(iters)) if iters else 0.0,
        "ica.iterations.tail": it_tail,
        "ica.iterations.total": int(sum(iters)),
        "ica.whiten.s": tracer.total("ica.whiten"),
        "ica.fastica.s": fastica_s,
        "ica.canonicalize.s": tracer.total("ica.canonicalize"),
        "ica.ms_per_iteration": fastica_s * 1e3 / max(probes["iterations"], 1),
        "ica.nonconverged": stats.nonconverged,
        "ica.failed": stats.failed,
        "baselines.estimate_oml.s": tracer.total("baselines.estimate_oml"),
        "baselines.estimate_homl.s": tracer.total("baselines.estimate_homl"),
        "baselines.ols_joint.s": tracer.total("baselines.ols_joint"),
        "baselines.self_s": self_s["baselines"],
        "baselines.fit_nuisance.s": stats.probe_s,
        "kernels.lasso_fit.sweeps": probes["sweeps"],
        "kernels.lasso_fit.ms_per_sweep": lasso_s * 1e3 / max(probes["sweeps"], 1),
        "harness.replication_ms.p50": float(np.median(replications)),
        "harness.replication_ms.tail": rep_tail,
        "harness.self_s": self_s["harness"],
        "harness.emit_csv.s": tracer.total("harness.emit_csv"),
        "harness.read_records.s": tracer.total("harness.read_records"),
        "harness.csv_digest.s": tracer.total("harness.csv_digest"),
        "harness.parallel_efficiency": statistics.median(efficiencies),
        "trace.overhead_s": n_batches * statistics.median(overheads),
    }


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(plrica.__file__).resolve().parent != SRC / "plrica":
        print(f"bench: imported plrica from {plrica.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        values = measure(run)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        run.finish()
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.attempted, 1), "metrics": {}}))
        return 1
    run.finish()
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(result_line(True, run.attempted, 0, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
