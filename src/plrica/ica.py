"""Treatment-effect estimation by linear source separation.

The observed columns (X, T, Y) of a linear partially linear process are an
invertible mixing of independent non-Gaussian sources, so the unmixing
matrix is identified up to row scaling and permutation. Whitened by the
Cholesky factor, the unmixing least squares implies is block diagonal and
its outcome row is the last unit vector. A fixed-point contrast iteration
started there recovers an orthonormal rotation; the final row nearest that
vector, scaled to a unit outcome entry, holds the negated treatment
effects. Both reads take W K as the fit returns it; canonicalize() resolves
permutation and scale without a start, and no read needs it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._converters import _as_float, _as_int, _convert
from .dgp import Dataset
from .kernels import hungarian

__all__ = ["CONTRASTS", "Diagnostics", "EffectEstimate", "FastIcaResult", "IcaError",
           "RankDeficientError", "estimate_ica", "extract_effects", "extract_effects_from_mixing",
           "fastica", "get_contrast", "regression_start", "stationarity_residual", "whiten"]
# assemble_unmixing and canonicalize stay outside __all__: only bench/run.py's
# ica.canonicalize.s probe calls them, and they go with it in ROADMAP item 5

PIVOT_DEGENERACY_TOL = 1e-8
LOG_CLIP = 1e-300
# lowest tol fastica's float32 sweeps serve; a lower tol runs every sweep in
# float64. Float32 sweeps from a converged rotation give 1 - |cos| of 1e-14
# to 1e-12 (d = 4 to 52, n = 500 to 10^6), so a float32 stop level near or
# below that floor would hold them to max_iter; 1e-8 is four orders above it
F32_SWITCH = 1e-8
# largest float64 row block _whitened forms at once (630 rows at d = 52).
# It sits beside the centered copy and the float32 output, so it sets how
# far the whitening peak rises above fastica's sweep buffers (1.5 times the
# data bytes); at 1 MiB it would pass them by 0.25 times the data at n = 10^4
_WHITEN_BLOCK_BYTES = 2**18


class IcaError(ValueError):
    """Estimation-level failure."""


class RankDeficientError(IcaError):
    """Data covariance is numerically rank deficient."""


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


# Each contrast t, fused with the mean of its derivative: contrast(s, out=None)
# returns (t(s), axis-0 mean of t'(s)) from one pass over s, the mean per
# column for 2-d s and a scalar for 1-d s. t(s) is written into out when
# given (an array shaped like s, not s itself) and into a new array
# otherwise; s is never written. Both outputs keep the dtype of s, and no
# temporary of another dtype is made: fastica's float32 sweeps pass float32
# s, and an upcast would undo their gain without changing a result.
CONTRASTS = {"logcosh": _logcosh, "exp": _exp, "cube": _cube}


def get_contrast(name: str) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
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
    restarts: int = 0


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
    restarts: int = 0


def whiten(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and decorrelate columns to identity covariance.

    Returns (whitened, K, means) with whitened = (data - means) @ K.T and
    K = L^-1 / sd lower triangular: sd holds the column standard deviations
    and L L^T is the correlation matrix. Raises RankDeficientError when a
    column is constant or a squared pivot of L (the share of a standardized
    column's variance the columns before it leave unexplained) is at most
    1e-12, a test that does not depend on the units of the columns.
    ols_joint reads its slopes off the same factor and test (_whitening_factor).
    whitened is float64, formed in row blocks and equal bit for bit to the
    one-shot product.
    """
    xc, k, means = _whitening_factor(data)
    return _whitened(xc, k, np.float64), k, means


def _whitened(xc, k, dtype) -> np.ndarray:
    """xc @ k.T in a new dtype array, formed in row blocks of at most _WHITEN_BLOCK_BYTES.

    Each block is a float64 product cast into the output, so a float32
    output costs no float64 n x d temporary (np.matmul with a float32 out
    makes one) and rounds each entry once. A row of the product depends on
    its own row of xc only, so the output equals (xc @ k.T).astype(dtype)
    bit for bit. Blocks are balanced, as BLAS can round a product of a few
    dozen rows or fewer differently.
    """
    n, d = xc.shape
    out = np.empty((n, d), dtype)
    blocks = -(-n * d * 8 // _WHITEN_BLOCK_BYTES)  # ceiling divisions
    rows = -(-n // blocks)
    for lo in range(0, n, rows):
        np.matmul(xc[lo:lo + rows], k.T, out=out[lo:lo + rows])
    return out


def _whitening_factor(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data - means, K, means): whiten without its product, with its checks."""
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
    sd = np.sqrt(np.diag(cov))
    if not np.all(sd > 0.0):
        raise RankDeficientError("data covariance is rank deficient: a column is constant")
    try:  # cholesky reads the lower triangle only, so exact symmetry is not needed
        chol = np.linalg.cholesky(cov / sd / sd[:, None])
    except np.linalg.LinAlgError:
        raise RankDeficientError("data covariance is rank deficient") from None
    if np.min(np.diag(chol)) ** 2 <= 1e-12:
        raise RankDeficientError("data covariance is rank deficient")
    k = np.tril(np.linalg.inv(chol)) / sd  # tril: inv pivots, leaving rounding above the diagonal
    return xc, k, means


def _sym_decorrelation(w: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix with the same row space: (W W^T)^(-1/2) W."""
    vals, vecs = np.linalg.eigh(w @ w.T)  # ascending: vals[0] is the smallest
    if vals[0] <= vals[-1] * 1e-14 or vals[0] <= 0.0:
        raise IcaError("rotation candidate is rank deficient; cannot decorrelate")
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def _outcome_column(a: np.ndarray, p: int, m: int, name: str) -> int:
    """q = p + m, for Dataset's sizes p >= 0 and m >= 1 and an a of side q + 1."""
    if p < 0 or m < 1:
        raise IcaError(f"need p >= 0 and m >= 1, got p={p}, m={m}")
    if a.shape != (p + m + 1, p + m + 1):
        raise IcaError(f"{name} must have shape {(p + m + 1, p + m + 1)}, got {a.shape}")
    return p + m


def regression_start(k, p: int, m: int) -> np.ndarray:
    """The unmixing least squares implies, in the coordinates of whiten's K.

    Least squares of each T_j on X (slopes A) and of Y on (X, T) (slopes
    b, theta) gives the unmixing [I_p, 0, 0], [-A, I_m, 0], [-b, -theta, 1]
    of the centered columns, the exact unmixing of a linear partially linear
    process. As K is lower triangular, that is W K up to row scale, with W
    the block diagonal of K^-1 over the X, T and Y blocks, returned with
    unit rows (unit source variances). Its outcome row is the last unit vector.
    Sizes outside p >= 0, m >= 1 or a K not of side p + m + 1 raise IcaError.
    """
    k = np.asarray(k, dtype=float)
    q = _outcome_column(k, p, m, "K")
    w = np.zeros_like(k)
    for lo, hi in ((0, p), (p, q), (q, q + 1)):
        w[lo:hi, lo:hi] = np.tril(np.linalg.inv(k[lo:hi, lo:hi]))
    return w / np.linalg.norm(w, axis=1)[:, None]


def _sweep_precision(tol, n: int) -> tuple[type, float]:
    """fastica's sweep dtype and stop level for tol on n rows; a bad tol raises IcaError."""
    tol = _convert("tol", _as_float, tol, IcaError)
    if tol <= 0:
        raise IcaError("tol must be positive")
    return (np.float32, max(tol, 1.0 / n)) if tol >= F32_SWITCH else (np.float64, tol)


def fastica(whitened, contrast="logcosh", tol: float = 1e-4, max_iter: int = 1000,
            mode: str = "parallel", seed=0, w_init=None, anchor=None) -> FastIcaResult:
    """Fixed-point contrast iteration on whitened data.

    All rows update jointly, each update followed by symmetric
    decorrelation. The stop test takes 1 - |cos| of the angle between a
    row and its update: of every row when anchor is None, and otherwise of
    the one row j with the largest |W[j, anchor]| in the update, the row a
    read anchored on whitened column anchor takes. Convergence means the
    test passed on two sweeps running; one pass alone can be a wandering
    fit's chance step. At a stop level s a passing row can still be about
    sqrt(2 s) rad from the fixed point (1.4e-2 at s = 1e-4). Rows the
    anchored test does not watch may still be moving when it stops. A
    non-converged result is still returned with converged=False.

    tol and the row count n of whitened fix the precision and the stop
    level once. At tol >= F32_SWITCH every sweep runs in float32 and the
    stop level is max(tol, 1/n): a fitted row is known only to about n^-1/2
    per entry, and a sweep with 1 - |cos| < 1/n turns it by less than
    sqrt(2/n), about one standard error, so later sweeps follow noise.
    Below F32_SWITCH every sweep runs in float64 and the stop level is tol,
    for the float64 fixed point. Only the sources z w^T, the contrast and
    g^T z take that precision: whitened is read as given when its dtype is
    the sweeps', and through one copy in it otherwise (a float64 copy of a
    float32 whitened below F32_SWITCH). The rotation, the decorrelation and
    the test stay float64.

    The iteration starts from w_init, or from a draw of default_rng(seed)
    when w_init is None. After a rank-deficient update candidate it goes on
    from a fresh draw of default_rng(seed) and the passes counted toward
    the two start again at zero; restarts counts these, and max_iter counts
    their sweeps. A rank-deficient or non-finite w_init raises, and so does
    an anchor outside 0..d-1. A nan or inf in whitened raises IcaError on
    the first sweep, found in the d x d update candidate.
    """
    z = np.asarray(whitened)
    if z.ndim != 2 or z.shape[0] <= z.shape[1]:
        raise IcaError("whitened data must be 2-d with more rows than columns")
    n, d = z.shape
    dtype, stop = _sweep_precision(tol, n)
    max_iter = _convert("max_iter", _as_int, max_iter, IcaError)
    if max_iter < 1:
        raise IcaError("max_iter must be at least 1")
    if mode != "parallel":  # mode leaves with the benchmark change in ROADMAP item 5
        raise IcaError(f"unknown mode {mode!r}; the iteration is 'parallel' only")
    con = get_contrast(contrast)
    if anchor is not None:
        anchor = _convert("anchor", _as_int, anchor, IcaError)
        if not 0 <= anchor < d:
            raise IcaError(f"anchor must be a column index in 0..{d - 1}, got {anchor}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, d)) if w_init is None else np.array(w_init, dtype=float)
    if w.shape != (d, d):
        raise IcaError(f"w_init must have shape {(d, d)}, got {w.shape}")
    if not np.isfinite(w).all():
        raise IcaError("w_init must be finite")
    w = _sym_decorrelation(w)
    zt = z.astype(dtype, copy=False)
    s = np.empty((n, d), dtype)  # the sources and t(sources), refilled every sweep
    g = np.empty_like(s)
    it = restarts = passes = 0
    while passes < 2:
        if it == max_iter:
            return FastIcaResult(w, False, it, restarts)
        it += 1
        with np.errstate(invalid="ignore"):  # a nan it makes raises IcaError below
            np.matmul(zt, w.T.astype(dtype, copy=False), out=s)
            _, gp = con(s, out=g)
            w1 = (g.T @ zt).astype(float, copy=False) / n - gp[:, None] * w
        if not np.isfinite(w1).all():  # outside the try: a restart would meet it again
            raise IcaError("whitened data contain non-finite values")
        try:
            w1 = _sym_decorrelation(w1)
        except IcaError:
            w = _sym_decorrelation(rng.standard_normal((d, d)))
            restarts += 1
            passes = 0
            continue
        rows = slice(None) if anchor is None else int(np.argmax(np.abs(w1[:, anchor])))
        lim = float(np.max(np.abs(np.abs(np.sum(w1[rows] * w[rows], axis=-1)) - 1.0)))
        w = w1
        passes = passes + 1 if lim < stop else 0
    return FastIcaResult(w, True, it, restarts)


def assemble_unmixing(result: FastIcaResult, whitening: np.ndarray, means: np.ndarray,
                      contrast: str = "logcosh") -> np.ndarray:
    """The unmixing W K of the raw columns: the rotation composed with the whitening."""
    # means and contrast are ignored; they leave with ROADMAP item 5, as the mode shims do
    return result.w_rotation @ np.asarray(whitening, dtype=float)


def canonicalize(unmixing) -> np.ndarray:
    """Resolve permutation and scale: unit diagonal, sources in column order.

    Rows are matched to source columns by a minimum-cost assignment on
    -log|entry| (the most negative-log-magnitude, i.e. largest-product,
    bijection), then each matched row is divided by its diagonal entry.
    The output is invariant to row permutation and row rescaling of the
    input. A pivot at most PIVOT_DEGENERACY_TOL times the largest |entry|
    of its column raises IcaError, a test that column units
    do not change. Neither read of theta needs it.
    """
    w = np.asarray(unmixing, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise IcaError(f"unmixing matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise IcaError("unmixing matrix contains non-finite entries")
    row_of_col = np.argsort(hungarian(-np.log(np.maximum(np.abs(w), LOG_CLIP))))
    pivots = w[row_of_col, np.arange(w.shape[0])]
    small = np.flatnonzero(np.abs(pivots) <= PIVOT_DEGENERACY_TOL * np.max(np.abs(w), axis=0))
    if small.size:
        raise IcaError(
            f"pivot |{pivots[small[0]]:.3e}| for source {small[0]} is at most "
            f"{PIVOT_DEGENERACY_TOL:.0e} times the largest |entry| of its column; "
            "the unmixing estimate is degenerate"
        )
    return w[row_of_col] / pivots[:, None]


def _outcome_row(unmixing, p: int, m: int) -> tuple[np.ndarray, int]:
    """W as a float array and its outcome row j = argmax |W[:, q]|, q = p + m."""
    w = np.asarray(unmixing, dtype=float)
    q = _outcome_column(w, p, m, "unmixing matrix")
    if not np.all(np.isfinite(w)):
        raise IcaError("unmixing matrix contains non-finite entries")
    j = int(np.argmax(np.abs(w[:, q])))
    if w[j, q] == 0.0:
        raise IcaError(f"column {q} of the unmixing matrix is zero; no row holds the outcome")
    return w, j


def extract_effects(unmixing: np.ndarray, p: int, m: int) -> EffectEstimate:
    """Read treatment effects off an unmixing of the raw columns (X, T, Y).

    The exact outcome row (-b, -theta, 1) is the only row with a nonzero
    entry in column q = p + m, so in any row order and scale the read takes
    row j with the largest |W[j, q]| and returns -W[j, p:q] / W[j, q]. On
    estimate_ica's W K, column q is W[:, q] K[q, q] (K is lower triangular),
    so j is the row nearest the start's outcome row. Sizes outside p >= 0,
    m >= 1, a wrong shape, a non-finite entry or an all-zero column q raise
    IcaError.
    """
    w, j = _outcome_row(unmixing, p, m)
    return EffectEstimate(-(w[j, p:p + m] / w[j, p + m]), "ica", Diagnostics())


def extract_effects_from_mixing(unmixing: np.ndarray, p: int, m: int) -> EffectEstimate:
    """Read treatment effects off the mixing matrix W^-1 the unmixing implies.

    Row j is extract_effects's; treatment i's row r_i is the row other than
    j with the largest |W[r, p + i]|, and theta_i = (W^-1)[q, r_i] W[r_i, p + i]
    in any row order and scale, as the exact mixing's outcome row is
    (b + theta a, theta, 1). Its sampling variance differs from
    extract_effects's. Pass W K as the fit returns it: canonicalize()'s pivot
    division can hand column p + i to another row (criterion 9's fits read
    so gave n Var = 189 at c = 0, limit 1.0). Two treatments on one row or
    a singular W raise IcaError, besides extract_effects's checks.
    """
    w, j = _outcome_row(unmixing, p, m)
    q = p + m
    entries = np.abs(w[:, p:q])
    entries[j] = -1.0  # the outcome row is no treatment's row
    rows = np.argmax(entries, axis=0)
    if np.unique(rows).size < m:
        raise IcaError("two treatments pick the same row of the unmixing matrix")
    try:
        mixing = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        raise IcaError("unmixing matrix is singular; it implies no mixing matrix") from None
    return EffectEstimate(mixing[q, rows] * w[rows, np.arange(p, q)], "ica_mixing", Diagnostics())


def stationarity_residual(whitened, w_row, contrast="logcosh") -> float:
    """Norm of E[z t(s)] - lambda w with s = z @ w, lambda = E[s t(s)].

    Zero at an exact fixed point of the contrast iteration; small values
    certify approximate stationarity of a fitted row.
    """
    con = get_contrast(contrast)
    z = np.asarray(whitened, dtype=float)
    w = np.asarray(w_row, dtype=float)
    s = z @ w
    ts, _ = con(s)
    lhs = ts @ z / z.shape[0]
    lam = float((s * ts).mean())
    return float(np.linalg.norm(lhs - lam * w))


def estimate_ica(dataset: Dataset, contrast="logcosh", tol: float = 1e-4,
                 max_iter: int = 1000, mode: str = "parallel", seed=0) -> EffectEstimate:
    """Full pipeline: whiten, rotate, read effects off the outcome row.

    The contrast iteration starts from regression_start; seed feeds only the
    restart draws. The start's outcome row is e_q with q = p + m, and
    extract_effects reads theta_hat off W K from the final row j with the
    largest |W[j, q]|, the row nearest e_q. The iteration runs with
    anchor=q, so converged means that row passed the stop test on two
    sweeps running; rows the read does not take may still move, as those
    inside a Gaussian covariate subspace do. condition_value is
    |W[j, q]|, the |cos| of row j with e_q: at least 1/sqrt(d), as column q
    of the orthonormal W has unit norm, and low when the iteration moved far
    from the start.

    tol goes to fastica as given, which stops at max(tol, 1/n), or at tol
    itself below F32_SWITCH. The stop sets accuracy as well as cost at small
    n: on 60 fig2 datasets at n = 500, p = 50, tol = 1e-10 gives median error
    0.120 and 4 errors above 0.5 in a median 991 sweeps; the default gives
    0.073 and 1 in 10 sweeps (0.082 and none in 36.5 at a stop level of 1e-4).

    The whitened columns are formed straight in fastica's sweep precision,
    bit for bit whiten's float64 output cast to it, so the fit is fastica's
    on that output. With the centered copy dropped before the iteration, a
    fit at tol >= F32_SWITCH holds about 1.5 times the dataset's bytes beside
    it (1.57 at n = 10^4, d = 52, where a float64 whitened copy made it 2.54).
    The two halves are _sweep_whitening and _estimate_whitened, so fits
    with several contrasts on one dataset can share one whitening.
    """
    return _estimate_whitened(dataset, _sweep_whitening(dataset, tol), contrast=contrast,
                              tol=tol, max_iter=max_iter, mode=mode, seed=seed)


def _sweep_whitening(dataset: Dataset, tol) -> tuple[np.ndarray, np.ndarray]:
    """(whitened, K) for fits at tol: whiten's columns of dataset in fastica's
    sweep precision, and its float64 factor K. The centered copy is dropped
    on return. Raises what whiten raises, and IcaError for a bad tol."""
    dtype, _ = _sweep_precision(tol, dataset.n)
    xc, k, _ = _whitening_factor(dataset.columns)
    return _whitened(xc, k, dtype), k


def _estimate_whitened(dataset: Dataset, whitening: tuple[np.ndarray, np.ndarray], *,
                       contrast, tol: float, max_iter: int, seed,
                       mode: str = "parallel") -> EffectEstimate:
    """estimate_ica's fit and read on _sweep_whitening(dataset, tol), which
    it reads and never writes, so one whitening serves any number of fits."""
    whitened, k = whitening
    p, q = dataset.p, dataset.p + dataset.m
    result = fastica(whitened, contrast=contrast, tol=tol, max_iter=max_iter,
                     mode=mode, seed=seed, w_init=regression_start(k, p, dataset.m), anchor=q)
    notes = "" if result.converged else "contrast iteration hit max_iter"
    diag = Diagnostics(converged=result.converged, iterations=result.iterations,
                       condition_value=float(np.max(np.abs(result.w_rotation[:, q]))),
                       notes=notes, restarts=result.restarts)
    read = extract_effects(result.w_rotation @ k, p, dataset.m)
    return EffectEstimate(read.theta_hat, "ica", diag)
