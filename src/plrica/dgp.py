"""Partially linear data-generating processes.

Covariates X are independent noise, treatments follow T = f(X) + eta, and
the outcome follows Y = g(X) + theta . T + eps. With linear f and g the
full vector (X, T, Y) is an invertible linear mixing of the independent
sources (xi, eta, eps), and build_linear_mixing exposes that mixing and
its exact inverse.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._converters import _as_bool, _as_float, _as_int, _as_name, _convert, _each, _instance_of
from .distributions import NoiseSpec

__all__ = ["DEFAULT_MULTI_THETA", "NONLINEARITY_NAMES", "Dataset", "DgpError", "GroundTruth",
           "PlrSpec", "apply_nonlinearity", "build_linear_mixing", "multi_treatment_theta",
           "resolve", "simulate"]

NONLINEARITY_NAMES = ("linear", "relu", "leaky_relu", "sigmoid", "tanh")

# canonical per-treatment effects used when theta is not supplied
DEFAULT_MULTI_THETA = (1.55, 0.65, -2.45, 1.75, -1.35)


class DgpError(ValueError):
    """Invalid process specification or simulation request."""


def multi_treatment_theta(m: int) -> np.ndarray:
    """First m entries of the canonical effect vector."""
    if not 1 <= m <= len(DEFAULT_MULTI_THETA):
        raise DgpError(f"m must be in [1, {len(DEFAULT_MULTI_THETA)}], got {m}")
    return np.asarray(DEFAULT_MULTI_THETA[:m], dtype=float)


def apply_nonlinearity(name: str, x, slope: float = 0.2) -> np.ndarray:
    """Apply a named scalar nonlinearity elementwise.

    slope only affects leaky_relu, where negative inputs are multiplied
    by it (slope 0.2 maps -5 to -1).
    """
    u = np.asarray(x, dtype=float)
    if name == "linear":
        return u
    if name == "relu":
        return np.maximum(u, 0.0)
    if name == "leaky_relu":
        return np.where(u >= 0.0, u, slope * u)
    if name == "sigmoid":
        with np.errstate(over="ignore"):  # exp(-u) = inf gives the exact limit 0
            return 1.0 / (1.0 + np.exp(-u))
    if name == "tanh":
        return np.tanh(u)
    raise DgpError(
        f"unknown nonlinearity {name!r}; expected one of {NONLINEARITY_NAMES}"
    )


def _coerce_block(value, shape, name):
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and len(shape) == 2 and shape[0] == 1:
        arr = arr[None, :]
    if arr.shape != shape:
        raise DgpError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DgpError(f"{name} contains non-finite entries")
    return arr.copy()


_as_noise = _instance_of(NoiseSpec)  # config text reaches here through harness.parse_noise


# PlrSpec field converters, the ones its config keys use (noise keys parse
# to a NoiseSpec first); a_block and b_block go through _coerce_block
_FIELDS = {"p": _as_int, "m": _as_int,
           "theta": lambda v: None if v is None else _each(_as_float)(v),
           "nuisance": _as_name, "leaky_slope": _as_float, "noise_x": _as_noise,
           "noise_t": _as_noise, "noise_y": _as_noise, "sparsity_keep_prob": _as_float,
           "standardize_noise": _as_bool, "tie_ab": _as_bool}


@dataclass(eq=False, frozen=True)
class PlrSpec:
    """Specification of one partially linear process.

    a_block ((m, p), X -> T) and b_block ((p,), X -> Y) may be left None;
    resolve() then draws them. For the linear nuisance the draws are
    uniform on [-1, 1] masked entrywise by Bernoulli(sparsity_keep_prob);
    for nonlinear nuisances they are unit-norm Gaussian directions (no
    mask) so the nonlinearity operates in its responsive range. tie_ab
    forces the drawn single-treatment a row to equal b. theta left None is
    the first m entries of DEFAULT_MULTI_THETA.

    standardize_noise replaces each noise family member by its zero-mean
    unit-variance version before sampling (on by default).

    Every other field goes through its config key's converter (_FIELDS) at
    construction, so a spec built in Python is refused where config text
    is. The spec is frozen; use dataclasses.replace for a variant.
    """

    p: int
    m: int = 1
    theta: Optional[object] = None
    a_block: Optional[object] = None
    b_block: Optional[object] = None
    nuisance: str = "linear"
    leaky_slope: float = 0.2
    noise_x: NoiseSpec = field(default_factory=NoiseSpec.laplace)
    noise_t: NoiseSpec = field(default_factory=NoiseSpec.laplace)
    noise_y: NoiseSpec = field(default_factory=NoiseSpec.laplace)
    sparsity_keep_prob: float = 1.0
    standardize_noise: bool = True
    tie_ab: bool = False

    def __post_init__(self):
        for name, convert in _FIELDS.items():
            object.__setattr__(self, name, _convert(name, convert, getattr(self, name), DgpError))
        if self.p < 1 or self.m < 1:
            raise DgpError(f"p and m must be at least 1, got p={self.p}, m={self.m}")
        theta = multi_treatment_theta(self.m) if self.theta is None else np.asarray(self.theta)
        if theta.shape != (self.m,):
            raise DgpError(f"theta must have {self.m} entries, got shape {theta.shape}")
        if self.nuisance not in NONLINEARITY_NAMES:
            raise DgpError(
                f"unknown nuisance {self.nuisance!r}; expected one of {NONLINEARITY_NAMES}"
            )
        if self.leaky_slope < 0:
            raise DgpError("leaky_slope must be nonnegative")
        if not 0.0 < self.sparsity_keep_prob <= 1.0:
            raise DgpError("sparsity_keep_prob must lie in (0, 1]")
        for name, value in (("theta", theta),
                            ("a_block", _coerce_block(self.a_block, (self.m, self.p), "a_block")),
                            ("b_block", _coerce_block(self.b_block, (self.p,), "b_block"))):
            object.__setattr__(self, name, value)
        if self.tie_ab:
            if self.m != 1 or self.nuisance != "linear":
                raise DgpError("tie_ab requires a single treatment and a linear nuisance")
            if self.a_block is not None or self.b_block is not None:
                raise DgpError("tie_ab only applies when the blocks are drawn, not supplied")

    @property
    def is_resolved(self) -> bool:
        return self.a_block is not None and self.b_block is not None

    def effective_noises(self) -> tuple[NoiseSpec, NoiseSpec, NoiseSpec]:
        if self.standardize_noise:
            return (self.noise_x.standardized(), self.noise_t.standardized(),
                    self.noise_y.standardized())
        return (self.noise_x, self.noise_t, self.noise_y)


def _masked_uniform(rng, shape, keep_prob):
    coef = rng.uniform(-1.0, 1.0, shape)
    if keep_prob < 1.0:
        coef = coef * (rng.random(shape) < keep_prob)
    return coef


def _unit_rows(rng, shape):
    rows = rng.standard_normal(shape)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DgpError("degenerate zero draw for a nuisance direction")
    return rows / norms


def resolve(spec: PlrSpec, rng) -> PlrSpec:
    """Fill in any missing coefficient blocks.

    A fully resolved spec is returned unchanged without consuming
    randomness. Draw order is a_block then b_block (b first under tie_ab,
    where the single a row is set equal to b).
    """
    if spec.is_resolved:
        return spec
    rng = np.random.default_rng(rng)
    if spec.nuisance == "linear":
        if spec.tie_ab:
            b = _masked_uniform(rng, spec.p, spec.sparsity_keep_prob)
            a = b[None, :].copy()
        else:
            a = spec.a_block
            if a is None:
                a = _masked_uniform(rng, (spec.m, spec.p), spec.sparsity_keep_prob)
            b = spec.b_block
            if b is None:
                b = _masked_uniform(rng, spec.p, spec.sparsity_keep_prob)
    else:
        a = spec.a_block if spec.a_block is not None else _unit_rows(rng, (spec.m, spec.p))
        b = spec.b_block if spec.b_block is not None else _unit_rows(rng, spec.p)
    return replace(spec, a_block=a, b_block=b, tie_ab=False)


def nuisance_t(spec: PlrSpec, x: np.ndarray) -> np.ndarray:
    """f(X): (n, m) conditional treatment mean."""
    base = x @ spec.a_block.T
    return apply_nonlinearity(spec.nuisance, base, spec.leaky_slope)


def nuisance_y(spec: PlrSpec, x: np.ndarray) -> np.ndarray:
    """g(X): (n,) structural outcome term before treatment effects."""
    base = x @ spec.b_block
    return apply_nonlinearity(spec.nuisance, base, spec.leaky_slope)


@dataclass(eq=False)
class GroundTruth:
    """Resolved spec and the exact source draws behind a simulated dataset.

    The draws are kept as blocks: xi (n, p), eta (n, m) and eps (n,).
    Since X = xi, simulate stores xi as the covariate block of the
    dataset's columns, so xi shares memory with columns.
    """

    spec: PlrSpec
    xi: np.ndarray
    eta: np.ndarray
    eps: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        return self.spec.theta

    @property
    def sources(self) -> np.ndarray:
        """(n, p + m + 1) columns xi, eta, eps, assembled when read."""
        return np.column_stack([self.xi, self.eta, self.eps])


def _column_names(p: int, m: int) -> tuple[str, ...]:
    """The x_0..x_{p-1},t_0..t_{m-1},y layout of a dataset's columns and CSV header."""
    return tuple([f"x_{i}" for i in range(p)] + [f"t_{j}" for j in range(m)] + ["y"])


@dataclass(eq=False)
class Dataset:
    """Observed columns of one simulated (or loaded) sample.

    columns stacks X (p >= 0 columns), T (m >= 1 columns), Y (one column)
    in that order. ground_truth is present only for simulated data.
    """

    columns: np.ndarray
    p: int
    m: int
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        self.p = _convert("p", _as_int, self.p, DgpError)
        self.m = _convert("m", _as_int, self.m, DgpError)
        if self.p < 0 or self.m < 1:
            raise DgpError(f"need p >= 0 and m >= 1, got p={self.p}, m={self.m}")
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise DgpError(f"columns must be 2-d, got shape {cols.shape}")
        if cols.shape[1] != self.p + self.m + 1:
            raise DgpError(
                f"expected {self.p + self.m + 1} columns for p={self.p}, m={self.m}; "
                f"got {cols.shape[1]}"
            )
        if not np.isfinite(cols).all():
            raise DgpError("data contain non-finite values")
        self.columns = cols

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.columns[:, : self.p]

    @property
    def t(self) -> np.ndarray:
        return self.columns[:, self.p : self.p + self.m]

    @property
    def y(self) -> np.ndarray:
        return self.columns[:, -1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return _column_names(self.p, self.m)

    def to_csv(self, path) -> None:
        """Write rows with a x_0,..,t_0,..,y header; floats round-trip."""
        header = ",".join(self.column_names)
        np.savetxt(path, self.columns, delimiter=",", header=header, comments="", fmt="%.17g")

    @staticmethod
    def from_csv(path) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            names = [s.strip() for s in fh.readline().split(",")]
            with warnings.catch_warnings():  # a file without rows is refused below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0:
            raise DgpError("csv needs a header line and at least one row")
        p = sum(1 for s in names if s.startswith("x_"))
        m = len(names) - p - 1
        if m < 1 or tuple(names) != _column_names(p, m):
            raise DgpError(f"bad csv header {names!r}; expected x_0..x_{{p-1}},t_0..t_{{m-1}},y")
        return Dataset(columns=data, p=p, m=m)  # its column count refuses rows wider or narrower


def simulate(spec: PlrSpec, n: int, seed) -> Dataset:
    """Simulate n rows from the process.

    seed may be an int, SeedSequence, or Generator. Unresolved coefficient
    blocks are drawn first from the same stream, then sources in the fixed
    order xi, eta, eps, so output is bitwise reproducible.
    """
    n = _convert("n", _as_int, n, DgpError)
    if n < 1:
        raise DgpError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    resolved = resolve(spec, rng)
    nx, nt, ny = resolved.effective_noises()
    xi = nx.sample((n, spec.p), rng)
    eta = nt.sample((n, spec.m), rng)
    eps = ny.sample(n, rng)
    x = xi
    t = nuisance_t(resolved, x) + eta
    y = nuisance_y(resolved, x) + t @ resolved.theta + eps
    columns = np.column_stack([x, t, y])
    # X = xi, so the covariate block of columns is the xi draw; no copy
    truth = GroundTruth(spec=resolved, xi=columns[:, : spec.p], eta=eta, eps=eps)
    return Dataset(columns=columns, p=spec.p, m=spec.m, ground_truth=truth)


def build_linear_mixing(spec: PlrSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mixing matrix A and its exact inverse W for a linear process.

    Sources map to observations as (X, T, Y) = A @ (xi, eta, eps); both
    matrices are unit-lower-triangular, so det(A) = det(W) = 1 and the
    product A @ W is the identity up to float rounding.
    """
    if spec.nuisance != "linear":
        raise DgpError("mixing matrices exist only for the linear nuisance")
    if not spec.is_resolved:
        raise DgpError("spec has unresolved coefficient blocks; call resolve() first")
    p, m = spec.p, spec.m
    d = p + m + 1
    a, b, theta = spec.a_block, spec.b_block, spec.theta
    mix = np.eye(d)
    mix[p : p + m, :p] = a
    mix[-1, :p] = b + theta @ a
    mix[-1, p : p + m] = theta
    unmix = np.eye(d)
    unmix[p : p + m, :p] = -a
    unmix[-1, :p] = -b
    unmix[-1, p : p + m] = -theta
    return mix, unmix
