"""Treatment-effect estimation by linear source separation.

The observed columns (X, T, Y) of a linear partially linear process are an
invertible mixing of independent non-Gaussian sources, so the unmixing
matrix is identified up to row scaling and permutation. A fixed-point
contrast iteration on whitened data recovers an orthonormal rotation;
canonicalize() then resolves the permutation/scale ambiguity by a
minimum-cost assignment and pivot rescaling, after which the outcome row
carries the negated treatment effects.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dgp import Dataset
from .kernels import hungarian

PIVOT_DEGENERACY_TOL = 1e-8
LOG_CLIP = 1e-300


class IcaError(ValueError):
    """Estimation-level failure."""


class RankDeficientError(IcaError):
    """Data covariance is numerically rank deficient."""


class CanonicalizationError(IcaError):
    """A selected pivot is too close to zero to fix row scales."""


@dataclass(frozen=True)
class Contrast:
    """Elementwise contrast t fused with the mean of its derivative.

    evaluate(s, out=None) returns (t(s), axis-0 mean of t'(s)) from one
    pass over s: the mean is per column for 2-d s and a scalar for 1-d s.
    t(s) is written into out when given (an array shaped like s, not s
    itself) and into a new array otherwise. It never writes into s.
    """

    name: str
    evaluate: Callable[..., tuple[np.ndarray, np.ndarray]]


def _col_mean_of_product(a, b):  # no n x d temporary: allocating it costs more than a*b
    return np.einsum("i...,i...->...", a, b) / a.shape[0]


def _logcosh(u, out=None):
    g = np.tanh(u, out=out)
    return g, 1.0 - _col_mean_of_product(g, g)


def _exp(u, out=None):
    g = np.multiply(u, u, out=out)
    g *= -0.5
    np.exp(g, out=g)
    e_mean = g.mean(axis=0)
    g *= u
    return g, e_mean - _col_mean_of_product(u, g)


def _cube(u, out=None):
    g = np.multiply(u, u, out=out)
    g *= u
    return g, 3.0 * _col_mean_of_product(u, u)


CONTRASTS = {
    "logcosh": Contrast("logcosh", _logcosh),
    "exp": Contrast("exp", _exp),
    "cube": Contrast("cube", _cube),
}


def get_contrast(name: str) -> Contrast:
    try:
        return CONTRASTS[name]
    except KeyError:
        raise IcaError(f"unknown contrast {name!r}; expected one of {tuple(CONTRASTS)}") from None


@dataclass(frozen=True)
class Diagnostics:
    """Fit-quality facts attached to an effect estimate."""

    converged: bool = True
    iterations: int = 0
    condition_value: Optional[float] = None
    notes: str = ""


@dataclass(eq=False)
class EffectEstimate:
    """Estimated per-treatment effects plus method diagnostics."""

    theta_hat: np.ndarray
    method: str
    diagnostics: Diagnostics


@dataclass(eq=False)
class FastIcaResult:
    """Orthonormal rotation found in whitened coordinates."""

    w_rotation: np.ndarray
    converged: bool
    iterations: int


@dataclass(eq=False)
class UnmixingEstimate:
    """Estimated unmixing of the raw (centered) columns.

    w_total = w_rotation @ whitening maps centered data to estimated
    sources, still subject to row permutation and scale ambiguity.
    """

    w_total: np.ndarray
    w_rotation: np.ndarray
    whitening: np.ndarray
    means: np.ndarray
    converged: bool
    iterations: int
    contrast: str


def whiten(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and decorrelate columns to identity covariance.

    Returns (whitened, K, means) with whitened = (data - means) @ K.T.
    Raises RankDeficientError when the covariance is numerically singular.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise IcaError(f"data must be 2-d, got shape {x.shape}")
    n, d = x.shape
    if n <= d:
        raise IcaError(f"need more rows than columns, got {n} rows for {d} columns")
    means = x.mean(axis=0)
    xc = x - means
    cov = xc.T @ xc / n
    if not np.all(np.isfinite(cov)):
        raise IcaError("data contain non-finite values")
    # numpy forms xc.T @ xc by syrk, so cov is exactly symmetric as eigh assumes
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending, so K's rows keep their order
    if vals[-1] <= vals[0] * 1e-12 or vals[-1] <= 0.0:
        raise RankDeficientError("data covariance is rank deficient")
    k = vecs.T / np.sqrt(vals)[:, None]
    return xc @ k.T, k, means


def _sym_decorrelation(w: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix with the same row space: (W W^T)^(-1/2) W."""
    vals, vecs = np.linalg.eigh(w @ w.T)  # ascending: vals[0] is the smallest
    if vals[0] <= vals[-1] * 1e-14 or vals[0] <= 0.0:
        raise IcaError("rotation candidate is rank deficient; cannot decorrelate")
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def fastica(whitened, contrast="logcosh", tol: float = 1e-4, max_iter: int = 1000,
            mode: str = "parallel", seed=0, w_init=None) -> FastIcaResult:
    """Fixed-point contrast iteration on whitened data.

    All rows update jointly, each update followed by symmetric
    decorrelation. Convergence means 1 - |cos| of the angle between every
    row and its last update is below tol. That leaves a converged row up
    to about sqrt(2 tol) rad from the fixed point (1.4e-2 at the default
    tol). A non-converged result is still returned with converged=False.
    """
    z = np.asarray(whitened, dtype=float)
    if z.ndim != 2 or z.shape[0] <= z.shape[1]:
        raise IcaError("whitened data must be 2-d with more rows than columns")
    if tol <= 0 or max_iter < 1:
        raise IcaError("tol must be positive and max_iter at least 1")
    if mode != "parallel":  # mode leaves with the benchmark change in ROADMAP item 4
        raise IcaError(f"unknown mode {mode!r}; the iteration is 'parallel' only")
    con = get_contrast(contrast)
    n, d = z.shape
    if w_init is None:
        w = np.random.default_rng(seed).standard_normal((d, d))
    else:
        w = np.array(w_init, dtype=float)
        if w.shape != (d, d):
            raise IcaError(f"w_init must have shape {(d, d)}, got {w.shape}")
    w = _sym_decorrelation(w)
    s, g = np.empty((n, d)), np.empty((n, d))  # sources and t(sources), refilled every iteration
    for it in range(1, max_iter + 1):
        np.matmul(z, w.T, out=s)
        _, gp = con.evaluate(s, out=g)
        w1 = _sym_decorrelation((g.T @ z) / n - gp[:, None] * w)
        lim = float(np.max(np.abs(np.abs(np.sum(w1 * w, axis=1)) - 1.0)))
        w = w1
        if lim < tol:
            return FastIcaResult(w_rotation=w, converged=True, iterations=it)
    return FastIcaResult(w_rotation=w, converged=False, iterations=it)


def assemble_unmixing(result: FastIcaResult, whitening: np.ndarray, means: np.ndarray,
                      contrast: str = "logcosh") -> UnmixingEstimate:
    """Compose the whitening map and the rotation into a full unmixing."""
    k = np.asarray(whitening, dtype=float)
    return UnmixingEstimate(
        w_total=result.w_rotation @ k,
        w_rotation=np.asarray(result.w_rotation, dtype=float),
        whitening=k,
        means=np.asarray(means, dtype=float),
        converged=result.converged,
        iterations=result.iterations,
        contrast=contrast,
    )


def _canonicalize_details(w: np.ndarray):
    d = w.shape[0]
    cost = -np.log(np.maximum(np.abs(w), LOG_CLIP))
    assignment = hungarian(cost)
    row_of_col = assignment.inverse()
    canonical = np.empty_like(w)
    pivots = np.empty(d)
    for col in range(d):
        row = row_of_col[col]
        pivot = w[row, col]
        pivots[col] = pivot
        if abs(pivot) < PIVOT_DEGENERACY_TOL:
            raise CanonicalizationError(
                f"pivot |{pivot:.3e}| for source {col} is below {PIVOT_DEGENERACY_TOL:.0e}; "
                "the unmixing estimate is degenerate"
            )
        canonical[col] = w[row] / pivot
    return canonical, pivots


def canonicalize(estimate) -> np.ndarray:
    """Resolve permutation and scale: unit diagonal, sources in column order.

    Rows are matched to source columns by a minimum-cost assignment on
    -log|entry| (the most negative-log-magnitude, i.e. largest-product,
    bijection), then each matched row is divided by its diagonal entry.
    The output is invariant to row permutation and row rescaling of the
    input. Accepts an UnmixingEstimate or a square matrix.
    """
    w = estimate.w_total if isinstance(estimate, UnmixingEstimate) else np.asarray(estimate, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise IcaError(f"unmixing matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise IcaError("unmixing matrix contains non-finite entries")
    canonical, _ = _canonicalize_details(w)
    return canonical


def _checked_canonical(canonical, p: int, m: int) -> np.ndarray:
    c = np.asarray(canonical, dtype=float)
    d = p + m + 1
    if c.shape != (d, d):
        raise IcaError(f"canonical matrix must have shape {(d, d)}, got {c.shape}")
    if np.max(np.abs(np.diag(c) - 1.0)) > PIVOT_DEGENERACY_TOL:
        raise IcaError("canonical matrix must have a unit diagonal")
    return c


def extract_effects(canonical: np.ndarray, p: int, m: int,
                    diagnostics: Optional[Diagnostics] = None) -> EffectEstimate:
    """Read treatment effects off the canonical unmixing.

    The outcome row of the exact unmixing is (-b, -theta, 1) against
    columns (xi, eta, eps), so after unit-diagonal scaling the effects
    are the negated treatment entries of the last row.
    """
    c = _checked_canonical(canonical, p, m)
    theta_hat = -c[p + m, p : p + m].copy()
    return EffectEstimate(
        theta_hat=theta_hat,
        method="ica",
        diagnostics=diagnostics if diagnostics is not None else Diagnostics(),
    )


def extract_effects_from_mixing(canonical: np.ndarray, p: int, m: int,
                                diagnostics: Optional[Diagnostics] = None) -> EffectEstimate:
    """Read treatment effects off the mixing matrix implied by the unmixing.

    Inverts the canonical unmixing and reads the outcome-row treatment
    entries of the resulting mixing estimate, whose exact outcome row is
    (b + theta a, theta, 1). Algebraically identical to extract_effects on
    exact input; on estimated input the two reads differ because inversion
    reweights the estimation error, so their sampling variances differ.
    """
    mixing = np.linalg.inv(_checked_canonical(canonical, p, m))
    theta_hat = mixing[p + m, p : p + m].copy()
    return EffectEstimate(
        theta_hat=theta_hat,
        method="ica_mixing",
        diagnostics=diagnostics if diagnostics is not None else Diagnostics(),
    )


def stationarity_residual(whitened, w_row, contrast="logcosh") -> float:
    """Norm of E[z t(s)] - lambda w with s = z @ w, lambda = E[s t(s)].

    Zero at an exact fixed point of the contrast iteration; small values
    certify approximate stationarity of a fitted row.
    """
    con = get_contrast(contrast)
    z = np.asarray(whitened, dtype=float)
    w = np.asarray(w_row, dtype=float)
    s = z @ w
    ts, _ = con.evaluate(s)
    lhs = ts @ z / z.shape[0]
    lam = float((s * ts).mean())
    return float(np.linalg.norm(lhs - lam * w))


def estimate_ica(dataset: Dataset, contrast="logcosh", tol: float = 1e-4,
                 max_iter: int = 1000, mode: str = "parallel", seed=0) -> EffectEstimate:
    """Full pipeline: whiten, rotate, canonicalize, read effects.

    diagnostics.condition_value is the smallest pivot magnitude used for
    row rescaling; values near the degeneracy threshold mean the source
    match was barely identified.
    """
    whitened, k, means = whiten(dataset.columns)
    # mode leaves with the benchmark change in ROADMAP item 4
    result = fastica(whitened, contrast=contrast, tol=tol, max_iter=max_iter,
                     mode=mode, seed=seed)
    est = assemble_unmixing(result, k, means, contrast)
    canonical, pivots = _canonicalize_details(est.w_total)
    diag = Diagnostics(
        converged=result.converged,
        iterations=result.iterations,
        condition_value=float(np.min(np.abs(pivots))),
        notes="" if result.converged else "contrast iteration hit max_iter",
    )
    return extract_effects(canonical, dataset.p, dataset.m, diag)
