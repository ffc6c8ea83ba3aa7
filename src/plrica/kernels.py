"""Dense numeric kernels shared by the estimators.

A covariance-update coordinate-descent lasso on a shared Gram matrix and
minimum-cost assignment, the latter implemented here by shortest
augmenting paths so that the package needs numpy only. Everything
operates on float64 arrays and is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KernelError(ValueError):
    """Base class for kernel-level failures."""


def _as_square(mat, name: str) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise KernelError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise KernelError(f"{name} contains non-finite entries")
    return a


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
    """Lasso by covariance-update coordinate descent on a shared Gram matrix.

    Minimizes (1/(2n))||target - design @ w||^2 + lam * ||w||_1 on
    internally standardized columns (zero mean, unit sample variance) with
    the intercept handled by centering the target; the returned weights are
    mapped back to the original column scales. Iteration stops when the
    largest coordinate change in a sweep drops below tol or after max_iter
    sweeps. Columns with zero variance get weight exactly 0. This is
    lasso_fits with a single target.
    """
    return lasso_fits(design, [target], lam, tol=tol, max_iter=max_iter)[0]


def lasso_fits(design, targets, lam: float, tol: float = 1e-4, max_iter: int = 1000) -> list[LassoFit]:
    """lasso_fit of each 1-d array in targets on one shared design.

    The design is standardized once and its Gram matrix G = xs'xs/n is
    formed once for all targets (Friedman, Hastie and Tibshirani, JSS
    2010). Target k then runs cyclic coordinate descent on
    q = xs'(y_k - mean y_k)/n - G w, which is xs'(residual)/n, so the step
    rho = q[j] + w[j] is the one the residual-update form takes and an
    update costs O(p) instead of O(n). Each target's covariances come from
    its own product, so every fit equals lasso_fit on that target alone.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    ys = [np.asarray(target, dtype=float) for target in targets]
    for y in ys:
        if y.shape != (n,):
            raise KernelError(f"target shape {y.shape} does not match design rows {n}")
    if n < 1:
        raise KernelError("need at least one observation")
    if lam < 0:
        raise KernelError("lam must be nonnegative")
    if tol <= 0 or max_iter < 1:
        raise KernelError("tol must be positive and max_iter at least 1")

    # one centered copy; its scales are x.std(axis=0) by the same reductions
    col_means = x.mean(axis=0)
    xs = x - col_means
    col_scales = np.sqrt(np.add.reduce(xs * xs, axis=0) / n)
    alive = col_scales > 1e-12
    safe_scales = np.where(alive, col_scales, 1.0)
    xs /= safe_scales
    gram = xs.T @ xs / n  # symmetric, so row j is column j
    live = np.flatnonzero(alive).tolist()
    rows = list(gram)  # row views made once, not one per update
    step = np.empty(p)  # gram[j] * delta, refilled every update

    fits = []
    for y in ys:
        y_mean = float(y.mean())
        q = xs.T @ (y - y_mean) / n
        w = [0.0] * p  # Python floats: scalar arithmetic without numpy boxing
        converged = False
        sweeps = 0
        for _ in range(max_iter):
            sweeps += 1
            max_delta = 0.0
            for j in live:
                w_old = w[j]
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

        weights = np.where(alive, np.array(w) / safe_scales, 0.0)
        fits.append(LassoFit(
            weights=weights,
            intercept=y_mean - float(col_means @ weights),
            lam=float(lam),
            converged=converged,
            n_sweeps=sweeps,
        ))
    return fits


@dataclass(frozen=True)
class Assignment:
    """Minimum-cost bijection rows -> columns.

    mapping[i] is the column matched to row i.
    """

    mapping: tuple[int, ...]

    def inverse(self) -> tuple[int, ...]:
        """Row matched to each column."""
        inv = [0] * len(self.mapping)
        for row, col in enumerate(self.mapping):
            inv[col] = row
        return tuple(inv)


def hungarian(cost) -> Assignment:
    """Exact minimum-cost assignment on a square cost matrix.

    Shortest augmenting paths with dual potentials u (rows) and v
    (columns): Jonker & Volgenant, Computing 1987, in the form of Crouse,
    IEEE TAES 2016. Row reduction (u = row minima, v = 0) and a greedy
    match of each row to its argmin column, when that column is free,
    give a feasible warm start; only rows left unmatched then search for
    an augmenting path. Each search is a Dijkstra pass over reduced costs
    c - u - v >= 0, vectorized over columns. On a tie for the nearest
    column a free one is taken, so the search ends as early as it can.
    """
    c = _as_square(cost, "cost")
    d = c.shape[0]
    if d == 0:
        return Assignment(mapping=())
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
    return Assignment(mapping=tuple(int(col) for col in col4row))
