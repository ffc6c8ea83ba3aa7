"""Dense numeric kernels shared by the estimators.

Symmetric eigendecomposition, a cyclic coordinate-descent lasso, and
minimum-cost assignment. Everything operates on float64 arrays and is a
pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


class KernelError(ValueError):
    """Base class for kernel-level failures."""


class NotSymmetricError(KernelError):
    """Input matrix is not symmetric within tolerance."""


def _as_square(mat, name: str) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise KernelError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise KernelError(f"{name} contains non-finite entries")
    return a


def sym_eig(mat, sym_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns, so that
    mat = V @ diag(vals) @ V.T.

    Raises NotSymmetricError when max|mat - mat.T| exceeds sym_tol.
    """
    a = _as_square(mat, "mat")
    if a.size and np.max(np.abs(a - a.T)) > sym_tol:
        raise NotSymmetricError(
            f"matrix asymmetry {np.max(np.abs(a - a.T)):.3e} exceeds {sym_tol:.1e}"
        )
    a = 0.5 * (a + a.T)  # kill roundoff asymmetry before LAPACK
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


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
    """Cyclic coordinate-descent lasso.

    Minimizes (1/(2n))||target - design @ w||^2 + lam * ||w||_1 on
    internally standardized columns (zero mean, unit sample variance) with
    the intercept handled by centering the target; the returned weights are
    mapped back to the original column scales. Iteration stops when the
    largest coordinate change in a sweep drops below tol or after max_iter
    sweeps. Columns with zero variance get weight exactly 0.
    """
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(target, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise KernelError(f"target shape {y.shape} does not match design rows {n}")
    if n < 1:
        raise KernelError("need at least one observation")
    if lam < 0:
        raise KernelError("lam must be nonnegative")
    if tol <= 0 or max_iter < 1:
        raise KernelError("tol must be positive and max_iter at least 1")

    col_means = x.mean(axis=0)
    col_scales = x.std(axis=0)
    alive = col_scales > 1e-12
    safe_scales = np.where(alive, col_scales, 1.0)
    xs = (x - col_means) / safe_scales
    y_mean = float(y.mean())
    resid = y - y_mean

    w = np.zeros(p)
    converged = False
    sweeps = 0
    for _ in range(max_iter):
        sweeps += 1
        max_delta = 0.0
        for j in range(p):
            if not alive[j]:
                continue
            w_old = w[j]
            # unit sample variance makes the coordinate divisor 1
            rho = float(xs[:, j] @ resid) / n + w_old
            w_new = soft_threshold(rho, lam)
            if w_new != w_old:
                resid += xs[:, j] * (w_old - w_new)
                w[j] = w_new
                max_delta = max(max_delta, abs(w_new - w_old))
        if max_delta < tol:
            converged = True
            break

    weights = np.where(alive, w / safe_scales, 0.0)
    intercept = y_mean - float(col_means @ weights)
    return LassoFit(
        weights=weights,
        intercept=intercept,
        lam=float(lam),
        converged=converged,
        n_sweeps=sweeps,
    )


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
    """Exact minimum-cost assignment on a square cost matrix."""
    c = _as_square(cost, "cost")
    rows, cols = linear_sum_assignment(c)
    mapping = np.empty(c.shape[0], dtype=int)
    mapping[rows] = cols
    return Assignment(mapping=tuple(int(v) for v in mapping))
