"""Dense numeric kernels shared by the estimators.

A lasso solved from second moments alone (gram_lasso): a primal-dual
active-set start, guarded so that a singular active block or a start
worse than zero falls back to zero, then covariance-update coordinate
descent to the usual stop test, so that n_sweeps counts the sweeps after
the start, usually one. Also minimum-cost assignment, implemented here by
shortest augmenting paths so that the package needs numpy only.
Everything operates on float64 arrays and is a pure function of its
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._converters import _as_float, _as_int, _convert

__all__ = ["KernelError", "LassoFit", "hungarian", "lasso_fit", "soft_threshold"]

ZERO_SCALE = 1e-12  # a column with standard deviation at or below this gets weight 0
ACTIVE_SET_STEPS = 20  # cap on active-set steps per target; coordinate descent finishes
PIVOT_FLOOR = 1e-10  # smallest accepted ratio of Cholesky pivots in an active-set solve


class KernelError(ValueError):
    """Base class for kernel-level failures."""


def soft_threshold(value: float, threshold: float) -> float:
    """Soft-thresholding operator S(value, threshold)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


@dataclass(frozen=True)
class LassoFit:
    """Lasso solution in original (unstandardized) coordinates.

    weights/intercept predict via X @ weights + intercept.
    """

    weights: np.ndarray
    intercept: float
    lam: float
    converged: bool
    n_sweeps: int

    def predict(self, design) -> np.ndarray:
        x = np.asarray(design, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return x @ self.weights + self.intercept


def lasso_fit(design, target, lam: float, tol: float = 1e-4, max_iter: int = 1000) -> LassoFit:
    """Lasso on internally standardized columns.

    Minimizes (1/(2n))||target - design @ w||^2 + lam * ||w||_1 on
    internally standardized columns (zero mean, unit sample variance) with
    the intercept handled by centering the target; the returned weights are
    mapped back to the original column scales. The fit is gram_lasso's on
    the second moments of the centered [design | target]: an active-set
    start, then coordinate descent until the largest coordinate change in
    a sweep drops below tol or after max_iter sweeps. Columns with zero
    variance get weight exactly 0.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    y = np.asarray(target, dtype=float)
    if y.shape != (n,):
        raise KernelError(f"target shape {y.shape} does not match design rows {n}")
    if n < 1:
        raise KernelError("need at least one observation")
    centered = np.column_stack([x, y])
    means = centered.mean(axis=0)
    centered -= means
    [(weights, converged, sweeps)] = gram_lasso(centered.T @ centered / n, p, lam, tol, max_iter)
    return LassoFit(
        weights=weights,
        intercept=float(means[p] - means[:p] @ weights),
        lam=float(lam),  # gram_lasso has refused anything but a number
        converged=converged,
        n_sweeps=sweeps,
    )


def gram_lasso(moments: np.ndarray, p: int, lam: float, tol: float,
               max_iter: int) -> list[tuple[np.ndarray, bool, int]]:
    """Lasso of each target on p covariates from second moments alone.

    moments is the centered second-moment matrix of (X, targets), the p
    covariates first. The square roots of its first p diagonal entries
    scale the columns (Friedman, Hastie and Tibshirani, JSS 2010); a
    column at or below ZERO_SCALE is dead and gets weight 0. On the live
    columns each target minimizes w'Gw/2 - c'w + lam * ||w||_1 for the
    standardized Gram matrix G and the target's standardized covariances
    c. It starts from active_set_start and runs cyclic coordinate descent
    on q = c - G w, the standardized X'(residual)/n, so the step
    rho = q[j] + w[j] is the one the residual-update form takes and an
    update costs O(p) instead of O(n). Descent stops when the largest
    coordinate change in a sweep drops below tol or after max_iter sweeps;
    from an exact start one sweep passes the test. Returns (weights in the
    original column scales, converged, sweeps counted from the start) per
    target.
    """
    lam = _convert("lam", _as_float, lam, KernelError)
    tol = _convert("tol", _as_float, tol, KernelError)
    max_iter = _convert("max_iter", _as_int, max_iter, KernelError)
    if lam < 0:
        raise KernelError("lam must be nonnegative")
    if tol <= 0 or max_iter < 1:
        raise KernelError("tol must be positive and max_iter at least 1")
    scales = np.sqrt(np.maximum(moments.diagonal()[:p], 0.0))
    alive = scales > ZERO_SCALE
    safe_scales = np.where(alive, scales, 1.0)
    gram = moments[:p, :p] / np.outer(safe_scales, safe_scales)
    covs = moments[:p, p:].T / safe_scales
    live = np.flatnonzero(alive)
    g = gram[live[:, None], live]  # dead columns never move, so descent skips them
    rows = list(g)  # g is symmetric, so row j is column j; views made once, not per update
    step = np.empty(len(live))  # g[j] * delta, refilled every update
    out = []
    for cov in covs:
        c = cov[live]
        start = active_set_start(g, c, lam)
        q = c - g @ start
        w = start.tolist()  # Python floats: scalar arithmetic without numpy boxing
        converged = False
        sweeps = 0
        for _ in range(max_iter):
            sweeps += 1
            max_delta = 0.0
            for j, w_old in enumerate(w):
                # unit sample variance makes the coordinate divisor 1
                w_new = soft_threshold(q.item(j) + w_old, lam)
                if w_new != w_old:
                    delta = w_new - w_old
                    np.multiply(rows[j], delta, out=step)
                    q -= step
                    w[j] = w_new
                    max_delta = max(max_delta, abs(delta))
            if max_delta < tol:
                converged = True
                break
        weights = np.zeros(p)
        weights[live] = w
        out.append((weights / safe_scales, converged, sweeps))  # a dead column's stays exactly 0
    return out


def active_set_start(gram: np.ndarray, cov: np.ndarray, lam: float) -> np.ndarray:
    """Primal-dual active-set start for gram_lasso (Hintermueller, Ito and
    Kunisch, SIAM J. Optim. 2002) on the live columns, or zeros when it
    cannot be trusted.

    From w = 0, each step sets u = w + cov - G w, takes the active set
    A = {j : |u_j| > lam} and solves w_A = G_AA^-1 (cov_A - lam *
    sign u_A) with w = 0 off A; it stops when A and the signs repeat,
    which is the lasso's optimality condition, when they return to those
    of two steps back (a two-step cycle), or after ACTIVE_SET_STEPS
    steps. The start is refused, and zeros returned, when a Cholesky
    factorization of some G_AA fails or has a pivot ratio at or below
    PIVOT_FLOOR (p at least the training rows, or a zero penalty on a
    singular design), or when its objective is above the objective at 0.
    """
    w = np.zeros(len(cov))
    u = cov  # w + cov - G w at w = 0
    state = previous = None  # sign u_j on A and 0 off it, now and one step back
    for _ in range(ACTIVE_SET_STEPS):
        step_state = np.sign(u) * (np.abs(u) > lam)
        if any(seen is not None and (step_state == seen).all() for seen in (state, previous)):
            break
        state, previous = step_state, state
        active = np.flatnonzero(state)
        w = np.zeros_like(w)
        if active.size:
            block = gram[active[:, None], active]
            try:
                pivots = np.diagonal(np.linalg.cholesky(block))
            except np.linalg.LinAlgError:
                return np.zeros_like(w)
            if not pivots.min() ** 2 > PIVOT_FLOOR * pivots.max() ** 2:  # False on nan too
                return np.zeros_like(w)
            w[active] = np.linalg.solve(block, cov[active] - lam * state[active])
        u = w + cov - gram @ w
    objective = 0.5 * (w @ (gram @ w)) - cov @ w + lam * np.abs(w).sum()
    return w if objective <= 0.0 else np.zeros_like(w)


def hungarian(cost) -> tuple[int, ...]:
    """Exact minimum-cost assignment on a square cost matrix: the column
    matched to each row.

    Shortest augmenting paths with dual potentials u (rows) and v
    (columns): Jonker & Volgenant, Computing 1987, in the form of Crouse,
    IEEE TAES 2016. Row reduction (u = row minima, v = 0) and a greedy
    match of each row to its argmin column, when that column is free,
    give a feasible warm start; only rows left unmatched then search for
    an augmenting path. Each search is a Dijkstra pass over reduced costs
    c - u - v >= 0, vectorized over columns. On a tie for the nearest
    column a free one is taken, so the search ends as early as it can.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise KernelError(f"cost must be a square 2-d array, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise KernelError("cost contains non-finite entries")
    d = c.shape[0]
    if d == 0:
        return ()
    u = c.min(axis=1)
    v = np.zeros(d)
    col4row = np.full(d, -1)
    row4col = np.full(d, -1)
    for row, col in enumerate(c.argmin(axis=1)):
        if row4col[col] < 0:
            row4col[col] = row
            col4row[row] = col

    for free_row in np.flatnonzero(col4row < 0):
        dist = np.full(d, np.inf)  # shortest reduced path cost to each open column
        path = np.zeros(d, dtype=int)  # row preceding each column on its path
        shift = -v  # becomes +inf once a column is scanned, closing it
        cols, levels = [], []  # scanned columns and their final path costs
        row, reach = free_row, 0.0
        while True:
            r = c[row] + (reach - u[row]) + shift
            path[r < dist] = row
            np.minimum(dist, r, out=dist)
            reach = dist.min()
            nearest = np.flatnonzero(dist == reach)
            col = nearest[0]
            if len(nearest) > 1:
                free = nearest[row4col[nearest] < 0]
                col = free[0] if free.size else col
            cols.append(col)
            levels.append(reach)
            dist[col] = shift[col] = np.inf
            if row4col[col] < 0:
                break
            row = row4col[col]

        gain = reach - np.array(levels)  # zero at the sink, the last column
        u[free_row] += reach
        u[row4col[cols[:-1]]] += gain[:-1]
        v[cols] -= gain

        while True:  # flip the matching along the path ending at col
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == free_row:
                break
    return tuple(int(col) for col in col4row)
