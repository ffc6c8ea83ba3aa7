"""Monte-Carlo experiment harness.

A ScenarioConfig is a grid of process/estimator settings plus a seed
count. run_scenario expands the grid and derives one independent seed per
(data cell, replication) from the scenario content, so results are
independent of execution order and worker count. A data cell is a cell
without its contrast: the contrast is an estimator setting, like the
methods, so every contrast of one replication fits the same dataset.
Each replication draws its dataset once, whitens it once for every
contrast, runs every configured method, and run_scenario returns flat
ResultRecords. Records serialize to a stable CSV whose digest ignores only
the wall-clock column.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import math
import re
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._converters import _as_float, _as_int, _as_name, _convert, _each, _instance_of, _one_of
from .baselines import _with_stopped_fits, fit_nuisance, homl_estimate, ols_joint, oml_estimate
from .dgp import _FIELDS as _PLR_FIELDS, Dataset, PlrSpec, _as_noise, simulate
from .distributions import NoiseSpec
from .ica import CONTRASTS, EffectEstimate, _estimate_whitened, _sweep_whitening

__all__ = ["BUILTIN_SCENARIOS", "CellStats", "ConfigError", "Metrics", "ResultRecord",
           "ScenarioConfig", "aggregate", "band_verdict", "cell_seed", "csv_digest", "emit_csv",
           "metrics", "parse_config_text", "parse_noise", "read_records", "run_scenario",
           "scenario_from_config", "spec_from_config"]

METHOD_NAMES = ("ica", "oml", "homl", "ols")


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# Grid axes in canonical order: (cell key, ScenarioConfig field and config
# key, converter of each entry, process keys the axis sets). cells() and
# cell_seed follow this order; axes without a results column are folded into
# the scenario id. The process keys go through build_plr_spec, the path
# scalar config keys take, so the spec constructors judge both alike.
# location and scale move all three noises instead, and coefficient pins
# the blocks after the build, since blocks are not config keys.
AXES = (
    ("n", "sample_sizes", _as_int, None),
    ("dim_x", "covariate_dims", _as_int, lambda v: {"p": v}),
    ("n_treat", "treatment_counts", _as_int, lambda v: {"m": v}),
    ("beta", "beta_values", _as_float, lambda v: {"noise_x": NoiseSpec.generalized_normal(v)}),
    ("nonlinearity", "nonlinearities", _as_name, lambda v: {"nuisance": v}),
    ("slope", "leaky_slopes", _as_float, lambda v: {"leaky_slope": v}),
    ("location", "locations", _as_float, None),
    ("scale", "scales", _as_float, None),
    ("contrast", "contrasts", _one_of(CONTRASTS), None),
    ("sparsity", "sparsity_levels", _as_float, lambda v: {"sparsity_keep_prob": v}),
    ("coefficient", "coefficient_values", _as_float, None),
)


# Every ScenarioConfig field with its converter: the one judge of a field's
# type, for configs built in Python and from config text alike. plr is no
# config key; config text builds it from the process keys.
_FIELDS = ({name: _each(convert) for _, name, convert, _ in AXES}
           | {"methods": _each(_one_of(METHOD_NAMES)), "scenario": _as_name,
              "plr": _instance_of(PlrSpec), "seeds": _as_int, "folds": _as_int,
              "max_iter": _as_int, "lambda_scale": _as_float, "tol": _as_float})


# ---------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metrics:
    """Error summary for one estimate: mse is the Euclidean distance
    ||theta_true - theta_hat||_2, relative_error divides it by
    ||theta_true||_2."""

    mse: float
    relative_error: float


def metrics(theta_true, theta_hat) -> Metrics:
    """Distance between true and estimated effect vectors, entry by entry.

    Every estimator reads its effects in column order with signs fixed,
    so a swapped or sign-flipped estimate scores its plain distance.
    Non-finite estimates yield nan metrics.
    """
    tt = np.atleast_1d(np.asarray(theta_true, dtype=float))
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if tt.ndim != 1 or th.ndim != 1:
        raise ValueError(f"effect vectors must be 1-d, got {tt.shape} and {th.shape}")
    if tt.shape != th.shape:
        raise ValueError(f"shape mismatch: {tt.shape} vs {th.shape}")
    if not np.all(np.isfinite(tt)):
        raise ValueError("theta_true must be finite")
    norm_true = float(np.linalg.norm(tt))
    if not np.all(np.isfinite(th)):
        return Metrics(mse=math.nan, relative_error=math.nan)
    dist = float(np.linalg.norm(tt - th))
    rel = dist / norm_true if norm_true > 0 else math.nan
    return Metrics(mse=dist, relative_error=rel)


# ----------------------------------------------------------- result rows


@dataclass(eq=False)
class ResultRecord:
    """One estimator run on one simulated dataset."""

    scenario: str
    n: int
    dim_x: int
    n_treat: int
    beta: Optional[float]
    nonlinearity: str
    contrast: str
    method: str
    seed: int
    theta_true: np.ndarray
    theta_hat: np.ndarray
    mse: float
    relative_error: float
    converged: bool
    wall_ms: float
    notes: str = ""


# ------------------------------------------------------------- scenarios


@dataclass(eq=False, frozen=True)
class ScenarioConfig:
    """Grid of settings for one study.

    Swept axes multiply: every combination of the non-empty axis lists
    becomes one cell, run with `seeds` independent replications. The plr
    field is a template, and spec_for_cell builds each cell's process from
    it with build_plr_spec, so an axis value obeys the same rules as its
    scalar key (leaky_slopes entries as leaky_slope, treatment_counts as m,
    and so on). A treatment count other than the template's redraws theta.
    location/scale axes additionally disable noise standardization, since
    they exist to move the noise away from the standardized regime.

    Every field goes through its converter (_FIELDS) at construction, so a
    config built in Python is refused where config text is, and gets the
    same cells and cell seeds. Construction, and so dataclasses.replace,
    also refuses an axis list or methods that names an entry twice, after
    conversion, and a config with a cell that cannot run.
    """

    scenario: str
    plr: PlrSpec
    sample_sizes: tuple = (100, 200, 500, 1000, 2000, 5000)
    covariate_dims: tuple = (2, 5, 10, 20, 50)
    treatment_counts: tuple = ()
    beta_values: tuple = ()
    nonlinearities: tuple = ()
    leaky_slopes: tuple = ()
    locations: tuple = ()
    scales: tuple = ()
    contrasts: tuple = ("logcosh",)
    sparsity_levels: tuple = ()
    coefficient_values: tuple = ()
    seeds: int = 20
    methods: tuple = ("ica",)
    lambda_scale: float = 1.0
    folds: int = 2
    tol: float = 1e-4
    max_iter: int = 1000
    ica_mode = "parallel"  # not a field; leaves with the benchmark change in ROADMAP item 5

    def __post_init__(self):
        """Convert every field, check lengths and ranges no converter or process
        constructor judges, then build every cell's spec. A process value the
        constructors refuse raises a ConfigError that names the cell by
        config key."""
        for name, convert in _FIELDS.items():
            value = _convert(name, convert, getattr(self, name), ConfigError)
            object.__setattr__(self, name, value)
        for name in ("sample_sizes", "covariate_dims", "contrasts", "methods"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        for name in [name for _, name, _, _ in AXES] + ["methods"]:
            values = getattr(self, name)
            for k, value in enumerate(values):
                if value in values[:k]:
                    raise ConfigError(f"{name} lists {value!r} twice; each entry must differ")
        if (min(self.sample_sizes) < 1 or self.seeds < 1 or self.folds < 2 or self.max_iter < 1
                or not self.tol > 0 or not self.lambda_scale > 0):
            raise ConfigError("out of range: need sample_sizes, seeds and max_iter >= 1, "
                              "folds >= 2, tol > 0 and lambda_scale > 0")
        if self.sparsity_levels and (self.plr.a_block is not None or self.plr.b_block is not None):
            raise ConfigError("sparsity sweeps need drawn coefficient blocks; "
                              "remove a_block/b_block from the template")
        for cell in self.cells():
            try:
                spec_for_cell(self, cell)
            except ValueError as exc:
                where = ", ".join(f"{name} = {cell[key]}" for key, name, _, _ in AXES
                                  if key in cell)
                raise ConfigError(f"cell ({where}): {exc}") from None

    def cells(self) -> list[dict]:
        """All combinations of the non-empty axes, in canonical order."""
        axes = {key: getattr(self, name) for key, name, _, _ in AXES if getattr(self, name)}
        return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _spell(value: float) -> str:
    """%g when it reads back as value, else repr, so distinct values get distinct labels."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def scenario_id_for_cell(config: ScenarioConfig, cell: dict) -> str:
    """Scenario name, suffixed with axis values that lack CSV columns."""
    extras = [f"{key}={_spell(cell[key])}" for key, _, _, _ in AXES
              if key in cell and key not in _HEADER]
    return f"{config.scenario}[{','.join(extras)}]" if extras else config.scenario


def cell_seed(scenario: str, cell: dict, index: int) -> int:
    """Deterministic 63-bit seed derived from cell content, not order.

    Every cell gets the seed of its logcosh twin, the same cell with
    contrast = logcosh, so the contrasts of one replication share its
    dataset, and a logcosh cell keeps the seed it had when the contrast
    was hashed with the rest.
    """
    parts = [scenario]
    for key, _, _, _ in AXES:
        if key in cell:
            parts.append(f"{key}={'logcosh' if key == 'contrast' else cell[key]!r}")
    parts.append(f"replication={index}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def spec_for_cell(config: ScenarioConfig, cell: dict) -> PlrSpec:
    """The plr template at one grid cell, built by build_plr_spec."""
    base = config.plr
    keys = {}
    for key, _, _, to_keys in AXES:
        if to_keys and key in cell:
            keys.update(to_keys(cell[key]))
    shift = {key: cell[key] for key in ("location", "scale") if key in cell}
    if shift:
        for name in _NOISE_KEYS:
            keys[name] = replace(keys.get(name, getattr(base, name)), **shift)
        keys["standardize_noise"] = False
    spec = build_plr_spec(keys, base=base)
    if "coefficient" in cell:
        a_block, b_block = np.zeros((spec.m, spec.p)), np.zeros(spec.p)
        a_block[:, 0] = b_block[0] = cell["coefficient"]
        spec = replace(spec, a_block=a_block, b_block=b_block)
    return spec


def estimate(method: str, dataset: Dataset, *, contrast="logcosh", seed=0, tol: float = 1e-4,
             max_iter: int = 1000, lambda_scale: float = 1.0, folds: int = 2,
             shared: Optional[dict] = None) -> EffectEstimate:
    """The effect estimate of one method in METHOD_NAMES on one dataset.

    ica is estimate_ica with contrast, seed, tol and max_iter; oml and homl
    read fit_nuisance's (outcome, treatment) residuals at lambda_scale,
    folds, tol and max_iter, and are not converged when one of its lasso
    fits stopped at max_iter; ols uses no setting. Every method takes any
    number of treatments. shared, the caller's dict for this one dataset,
    keeps ("whitening", tol): _sweep_whitening(dataset, tol), and
    ("residuals", lambda_scale, folds, tol, max_iter): fit_nuisance's. Each
    is made on first need and never written into; a fit that raises is not
    kept, so the next estimate that needs it retries it.
    """
    shared = {} if shared is None else shared
    if method == "ica":
        key = ("whitening", tol)
        if key not in shared:
            shared[key] = _sweep_whitening(dataset, tol)
        return _estimate_whitened(dataset, shared[key], contrast=contrast, tol=tol,
                                  max_iter=max_iter, seed=seed)
    if method in ("oml", "homl"):
        key = ("residuals", lambda_scale, folds, tol, max_iter)
        if key not in shared:
            shared[key] = fit_nuisance(dataset, lambda_scale=lambda_scale, folds=folds, tol=tol,
                                       max_iter=max_iter)
        ry, rt, stopped = shared[key]
        moment = oml_estimate(ry, rt) if method == "oml" else homl_estimate(ry, rt)[0]
        return _with_stopped_fits(moment, stopped)
    if method == "ols":
        return ols_joint(dataset)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")


def run_cell_replication(config: ScenarioConfig, cell: dict,
                         index: int) -> dict[str, list[ResultRecord]]:
    """One simulated dataset, every configured contrast and method.

    cell names the dataset by its other axis values; its contrast is
    ignored, as cell_seed ignores it. The result maps each contrast of
    config.contrasts to its records, in config.methods order. A method that
    does not read the contrast is fitted once, and its record stands under
    every contrast. The estimates share one dict of fits (see estimate): the
    ica fits one whitening, oml and homl one nuisance fit. The first
    estimate that needs a fit makes it, so its wall_ms includes it: the
    first contrast's ica record holds the whitening. A fit that raises is
    retried by the next estimate, so each gets its own nan record.
    """
    seed = cell_seed(config.scenario, cell, index)
    data_seq, ica_seq = np.random.SeedSequence(seed).spawn(2)
    spec = spec_for_cell(config, cell)
    dataset = simulate(spec, cell["n"], data_seq)
    shared = {}
    truth = dataset.ground_truth.theta
    beta = dataset.ground_truth.spec.noise_x.shape_beta
    scenario_id = scenario_id_for_cell(config, cell)
    # (method, contrast column) of each contrast's records; only ica's names a contrast
    slots = {contrast: [(method, contrast if method == "ica" else "") for method in config.methods]
             for contrast in config.contrasts}
    fits = {}
    for method, contrast in dict.fromkeys(itertools.chain.from_iterable(slots.values())):
        start = time.perf_counter()
        try:
            est = estimate(method, dataset, contrast=contrast, seed=ica_seq, tol=config.tol,
                           max_iter=config.max_iter, lambda_scale=config.lambda_scale,
                           folds=config.folds, shared=shared)
            theta_hat = np.atleast_1d(np.asarray(est.theta_hat, dtype=float))
            converged = est.diagnostics.converged
            notes = est.diagnostics.notes
        except Exception as exc:  # a failed run is a data point, not a crash
            theta_hat = np.full(spec.m, math.nan)
            converged = False
            notes = f"{type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - start) * 1e3
        met = metrics(truth, theta_hat)
        fits[method, contrast] = ResultRecord(
            scenario=scenario_id,
            n=cell["n"],
            dim_x=cell["dim_x"],
            n_treat=spec.m,
            beta=None if beta is None else float(beta),
            nonlinearity=spec.nuisance,
            contrast=contrast,
            method=method,
            seed=seed,
            theta_true=truth.copy(),
            theta_hat=theta_hat,
            mse=met.mse,
            relative_error=met.relative_error,
            converged=bool(converged),
            wall_ms=wall_ms,
            notes=notes,
        )
    return {contrast: [fits[slot] for slot in row] for contrast, row in slots.items()}


def run_scenario(config: ScenarioConfig, workers: int = 1) -> list[ResultRecord]:
    """Run every (cell, replication, method) combination, in that order.

    The unit of work is one (data cell, replication): run_cell_replication
    draws its dataset and fits every contrast and method on it. Output
    order and content are independent of the worker count; each
    replication's seed is derived from the scenario content. The pool
    starts all its workers at once, so it gets at most one per unit.
    Estimator failures become nan-valued records instead of aborting the
    sweep.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    cells = config.cells()
    # a data cell stands for every contrast of its dataset
    data_cells = [cell for cell in cells if cell["contrast"] == config.contrasts[0]]
    units = [(cell, index) for cell in data_cells for index in range(config.seeds)]
    tasks = (itertools.repeat(config), *zip(*units))
    workers = min(workers, len(units))
    if workers == 1:
        chunks = map(run_cell_replication, *tasks)
    else:
        # imported here: the pool costs a serial run or a plain import nothing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell_replication, *tasks,
                                   chunksize=max(1, len(units) // (workers * 8))))
    by_seed = {cell_seed(config.scenario, cell, index): chunk
               for (cell, index), chunk in zip(units, chunks)}
    return [record for cell in cells for index in range(config.seeds)
            for record in by_seed[cell_seed(config.scenario, cell, index)][cell["contrast"]]]


# ------------------------------------------------------------- csv layer


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _fmt_vector(vec: np.ndarray) -> str:
    return ";".join(_fmt(v) for v in np.atleast_1d(vec))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(";")], dtype=float)


# Results CSV columns in file order: (header, ResultRecord attribute, format,
# parse). Floats carry 17 significant digits so they round-trip exactly;
# notes is not serialized.
RESULT_COLUMNS = (
    ("scenario", "scenario", str, str),
    ("n", "n", str, int),
    ("dim_x", "dim_x", str, int),
    ("n_treat", "n_treat", str, int),
    ("beta", "beta", lambda v: "" if v is None else _fmt(v),
     lambda text: None if text == "" else float(text)),
    ("nonlinearity", "nonlinearity", str, str),
    ("contrast", "contrast", str, str),
    ("method", "method", str, str),
    ("seed", "seed", str, int),
    ("theta_true", "theta_true", _fmt_vector, _parse_vector),
    ("theta_hat", "theta_hat", _fmt_vector, _parse_vector),
    ("mse", "mse", _fmt, float),
    ("rel_err", "relative_error", _fmt, float),
    ("converged", "converged", lambda v: "true" if v else "false", lambda text: text == "true"),
    ("wall_ms", "wall_ms", _fmt, float),
)
_HEADER = [name for name, _, _, _ in RESULT_COLUMNS]


def emit_csv(records: list[ResultRecord], path) -> None:
    """Write records in their given order under RESULT_COLUMNS."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for r in records:
            writer.writerow([fmt(getattr(r, attr)) for _, attr, fmt, _ in RESULT_COLUMNS])


def _read_results_rows(path) -> list[list[str]]:
    """Rows of a results CSV, header first. Raises ConfigError unless the
    first row is the results header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _HEADER:
        raise ConfigError(f"unexpected results header in {path}")
    return rows


def read_records(path) -> list[ResultRecord]:
    """Parse a results CSV back into records (notes are not serialized)."""
    rows = _read_results_rows(path)
    records = []
    for row in rows[1:]:
        if len(row) != len(RESULT_COLUMNS):
            raise ConfigError(f"expected {len(RESULT_COLUMNS)} columns, got {len(row)} in {path}")
        records.append(ResultRecord(**{attr: parse(text) for (_, attr, _, parse), text
                                       in zip(RESULT_COLUMNS, row)}))
    return records


def csv_digest(path) -> str:
    """Content hash of a results CSV, ignoring the wall-clock column.

    Two runs of the same scenario (any worker count) produce the same
    digest; wall_ms is the only field that legitimately differs. A file
    without the results header raises ConfigError, as read_records does.
    """
    wall_idx = _HEADER.index("wall_ms")
    hasher = hashlib.sha256()
    for row in _read_results_rows(path):
        kept = row[:wall_idx] + row[wall_idx + 1 :]
        hasher.update("\x1f".join(kept).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


# ----------------------------------------------------------- aggregation


@dataclass(frozen=True)
class CellStats:
    """Per-cell summary over replications.

    Means and standard deviations cover the runs that produced a finite
    distance; n_failed counts the rest. std_mse uses ddof=1 (0.0 for a
    single run).
    """

    count: int
    n_failed: int
    n_converged: int
    mean_mse: float
    std_mse: float
    mean_squared_error: float


AGG_KEY_FIELDS = ("scenario", "n", "dim_x", "n_treat", "beta", "nonlinearity",
                  "contrast", "method")


def record_key(record: ResultRecord) -> tuple:
    return tuple(getattr(record, f) for f in AGG_KEY_FIELDS)


def aggregate(records: list[ResultRecord]) -> dict[tuple, CellStats]:
    """Group records by cell key and summarize the error distributions.

    A record counts once per (cell key, seed): a method that ignores the
    contrast is fitted once per replication, and its one record stands
    under every contrast of the grid with the same key and seed.
    """
    groups: dict[tuple, dict[int, ResultRecord]] = {}
    for rec in records:
        groups.setdefault(record_key(rec), {}).setdefault(rec.seed, rec)
    out = {}
    for key, by_seed in groups.items():
        recs = list(by_seed.values())
        mses = np.array([r.mse for r in recs])
        ok = np.isfinite(mses)
        n_ok = int(ok.sum())
        mean_mse = float(mses[ok].mean()) if n_ok else math.nan
        std_mse = float(mses[ok].std(ddof=1)) if n_ok > 1 else 0.0
        msq = float((mses[ok] ** 2).mean()) if n_ok else math.nan
        out[key] = CellStats(
            count=len(recs),
            n_failed=len(recs) - n_ok,
            n_converged=sum(1 for r in recs if r.converged),
            mean_mse=mean_mse,
            std_mse=std_mse,
            mean_squared_error=msq,
        )
    return out


def band_verdict(stats_a: CellStats, stats_b: CellStats) -> str:
    """'a_better' / 'b_better' when one cell's one-standard-deviation mse
    band sits strictly below the other's, 'overlap' when they intersect.
    A cell with no finite run (mean_mse nan) ranks as an infinite error
    with no spread: never the better one, and two such cells overlap."""
    (mean_a, std_a), (mean_b, std_b) = ((math.inf, 0.0) if math.isnan(s.mean_mse)
                                        else (s.mean_mse, s.std_mse) for s in (stats_a, stats_b))
    if mean_a - std_a <= mean_b + std_b and mean_b - std_b <= mean_a + std_a:
        return "overlap"
    return "a_better" if mean_a < mean_b else "b_better"


# ------------------------------------------------------------ config I/O


_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _split_list_items(inner: str) -> list[str]:
    """Comma-separated items; one trailing comma is allowed, an empty item is not."""
    items = [item.strip() for item in inner.split(",")]
    if items[-1] == "":
        items.pop()
    if "" in items:
        raise ConfigError(f"empty item in list {inner!r}")
    return items


def _parse_atom(text: str):
    s = text.strip()
    if s[:1] in ("'", '"'):
        if len(s) < 2 or s[-1] != s[0]:
            raise ConfigError(f"unclosed quote in {s!r}")
        return s[1:-1]
    if re.fullmatch(r"[+-]?\d+", s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        pass
    if s in ("true", "false"):
        return s == "true"
    return s


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; `[a, b]` values become lists.

    # starts a comment. Duplicate keys are rejected.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if value.startswith("[") and value.endswith("]"):
            out[key] = [_parse_atom(item) for item in _split_list_items(value[1:-1])]
        else:
            out[key] = _parse_atom(value)
    return out


_NOISE_ALIASES = {"gaussian": "gaussian", "normal": "gaussian", "laplace": "laplace",
                  "uniform": "uniform", "gennorm": "generalized_normal",
                  "three_point": "discrete_symmetric"}
# argument spellings of the noise syntax and the NoiseSpec field each sets;
# beta is positional only
_NOISE_ARGS = {"beta": "shape_beta", "loc": "location", "scale": "scale"}
_NOISE_KEYWORDS = ("loc", "scale")


def parse_noise(text) -> NoiseSpec:
    """Noise string like `laplace`, `gennorm(1.5)`, `uniform(loc=1, scale=2)`.

    The positional arguments are beta, loc, scale for gennorm and loc,
    scale otherwise. Values are config atoms that must be numbers; a bad
    or repeated one is reported under the spelling the text used.
    """
    if isinstance(text, NoiseSpec):
        return text
    s = str(text).strip()
    m = re.fullmatch(r"([a-z_]+)\s*(?:\((.*)\))?", s)
    if not m or m.group(1) not in _NOISE_ALIASES:
        raise ConfigError(
            f"bad noise {text!r}; expected one of {sorted(set(_NOISE_ALIASES))} "
            "optionally with (args)"
        )
    family = _NOISE_ALIASES[m.group(1)]
    args: dict = {}  # spelling -> value text
    positional: list[str] = []
    if m.group(2) is not None and m.group(2).strip():
        for item in _split_list_items(m.group(2)):
            if "=" in item:
                k, _, v = item.partition("=")
                k = k.strip()
                if k not in _NOISE_KEYWORDS:
                    raise ConfigError(f"unknown noise argument {k!r} in {text!r}")
                if k in args:
                    raise ConfigError(f"argument {k!r} given twice in {text!r}")
                args[k] = v
            else:
                positional.append(item)
    names = ("beta", "loc", "scale") if family == "generalized_normal" else ("loc", "scale")
    if len(positional) > len(names):
        raise ConfigError(f"too many positional arguments in {text!r}")
    for k, v in zip(names, positional):
        if k in args:
            raise ConfigError(f"argument {k!r} given twice in {text!r}")
        args[k] = v
    try:
        return NoiseSpec(family, **{_NOISE_ARGS[k]: _convert(k, _as_float, _parse_atom(v), ConfigError)
                                    for k, v in args.items()})
    except ValueError as exc:
        raise ConfigError(f"bad noise {text!r}: {exc}") from None


# process keys a scenario config may set: every PlrSpec field but p, which
# covariate_dims sets per cell. The PlrSpec constructor judges every value;
# noise keys are parsed to a NoiseSpec first.
_SPEC_KEYS = tuple(key for key in _PLR_FIELDS if key != "p")
_NOISE_KEYS = tuple(key for key, convert in _PLR_FIELDS.items() if convert is _as_noise)


def build_plr_spec(overrides: dict, base: Optional[PlrSpec] = None) -> PlrSpec:
    """PlrSpec from flat config keys, on top of an optional template.

    A new treatment count without theta unsets theta, so the spec takes
    the first m default effects (multi_treatment_theta).
    """
    keys = ("p", *_SPEC_KEYS)
    unknown = set(overrides) - set(keys)
    if unknown:
        raise ConfigError(f"unknown spec keys {sorted(unknown)}; expected {keys}")
    if base is None:
        base = PlrSpec(
            p=10, m=1, theta=[3.0],
            noise_x=NoiseSpec.generalized_normal(1.0),
            noise_t=NoiseSpec.three_point(),
            noise_y=NoiseSpec.uniform(),
            sparsity_keep_prob=0.4,
        )
    try:
        changes = {key: _convert(key, parse_noise, value, ConfigError) if key in _NOISE_KEYS
                   else value for key, value in overrides.items()}
        if "theta" not in changes and changes.get("m", base.m) != base.m:
            changes["theta"] = None
        return replace(base, **changes)
    except ValueError as exc:
        raise ConfigError(f"bad process spec: {exc}") from None


def spec_from_config(text: str) -> PlrSpec:
    """PlrSpec from config text (process keys only)."""
    return build_plr_spec(parse_config_text(text))


def scenario_from_config(text: str) -> ScenarioConfig:
    """ScenarioConfig from config text.

    The `scenario` key picks a builtin (see BUILTIN_SCENARIOS; default
    `custom`). Its text is applied over the ScenarioConfig field defaults
    and build_plr_spec's default process, then every other key on top:
    process keys rebuild the process with the one before as base, `label`
    renames the scenario, and the rest replace fields. The config is built
    once. Unknown keys are errors, never silently ignored.
    """
    user = parse_config_text(text)
    name = str(user.pop("scenario", "custom"))
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {sorted(BUILTIN_SCENARIOS)}"
        )
    known = {"label", *_FIELDS, *_SPEC_KEYS} - {"plr"}
    plr, fields = build_plr_spec({}), {"scenario": name}
    for keys in (parse_config_text(BUILTIN_SCENARIOS[name]), user):
        if set(keys) - known:
            raise ConfigError(f"unknown config keys {sorted(set(keys) - known)}; "
                              f"expected a subset of {sorted(known)}")
        if "label" in keys:
            keys["scenario"] = _convert("label", _as_name, keys.pop("label"), ConfigError)
        plr = build_plr_spec({k: keys.pop(k) for k in list(keys) if k in _SPEC_KEYS}, base=plr)
        fields.update(keys)
    return ScenarioConfig(plr=plr, **fields)


# ------------------------------------------------------ builtin scenarios

# The paper's figure grids as config text. Keys not set here keep the
# ScenarioConfig field defaults and build_plr_spec's default process: p =
# 10, theta = 3, gennorm(1) covariates, three-point treatment noise,
# uniform outcome noise, sparsity_keep_prob = 0.4.
_LAPLACE = """
noise_x = laplace
noise_t = laplace
noise_y = laplace
"""

BUILTIN_SCENARIOS: dict[str, str] = {
    "fig2_linear_homl": """
        beta_values = [1.0]
        methods = [ica, oml, homl]
    """,
    "fig2_right_variance": """
        theta = 1.0
        sample_sizes = [10000]
        covariate_dims = [10]
        coefficient_values = [0.0, 0.25, 0.5, 0.75, 1.0]
        seeds = 50
        methods = [ica, homl]
    """,
    "fig3_left_multi": _LAPLACE + """
        theta = 1.55
        sample_sizes = [5000]
        treatment_counts = [1, 2, 5]
        methods = [ica, ols]
    """,
    "fig3_right_nonlinear": _LAPLACE + """
        theta = 1.55
        nuisance = tanh
        sparsity_keep_prob = 1.0
        sample_sizes = [5000]
        nonlinearities = [relu, leaky_relu, sigmoid, tanh]
    """,
    "appE_contrast": """
        sample_sizes = [5000]
        covariate_dims = [50]
        contrasts = [logcosh, exp, cube]
    """,
    "appE_sparsity": """
        sample_sizes = [5000]
        covariate_dims = [50]
        sparsity_levels = [0.2, 0.4, 0.6, 0.8, 1.0]
    """,
    "appE_locscale": _LAPLACE + """
        theta = 1.55
        sample_sizes = [5000]
        covariate_dims = [50]
        locations = [0.0, 1.0, 2.0, 4.0]
        scales = [0.5, 1.0, 2.0, 4.0]
    """,
    "appE_slopes": _LAPLACE + """
        theta = 1.55
        nuisance = leaky_relu
        sparsity_keep_prob = 1.0
        sample_sizes = [5000]
        leaky_slopes = [0.01, 0.1, 0.2, 0.5]
    """,
    "appF_robustness": """
        tie_ab = true
        methods = [ica, oml, homl]
    """,
    # the abstract's Gaussian confounders: beta = 2 draws Gaussian covariates,
    # beta = 1 the Laplace ones beside them
    "gaussian_confounders": """
        noise_t = laplace
        noise_y = laplace
        beta_values = [1.0, 2.0]
        covariate_dims = [2, 10, 20]
        sample_sizes = [1000, 5000]
        methods = [ica, oml, homl, ols]
    """,
    "default_test": _LAPLACE + """
        sparsity_keep_prob = 1.0
        sample_sizes = [200, 500]
        covariate_dims = [2]
        seeds = 3
        methods = [ica, oml, homl, ols]
    """,
    "custom": """
        sample_sizes = [1000]
        covariate_dims = [10]
    """,
}
