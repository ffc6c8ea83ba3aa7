"""Reference estimators: residual-on-residual, higher-moment orthogonal
scores, and plain joint least squares.

The first two follow the standard two-stage recipe: cross-fitted lasso
regressions of T on X and Y on X produce out-of-fold residuals, then a
method-of-moments step on the residuals yields the effects. All three take
any number of treatments. ols_joint regresses Y on (X, T, 1) jointly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._converters import _as_float, _as_int, _convert
from .dgp import Dataset
from .ica import CONTRASTS, Diagnostics, EffectEstimate, RankDeficientError, _whitening_factor
from .kernels import gram_lasso

HOML_DENOMINATOR_FLOOR = 1e-6
_HOML_CONTRAST = CONTRASTS["cube"]  # var_homl is the limit for this contrast only


class BaselineError(ValueError):
    """Invalid baseline request."""


@dataclass(eq=False, frozen=True)
class MomentDiagnostics:
    """Health of the orthogonal-moment denominators, one entry per treatment.

    denominator[j] is mean(psi_j * r_j), the j-th diagonal entry of the
    moment matrix. degenerate[j] is True when |denominator[j]| falls below
    condition_value[j] = max(floor, 3 standard errors of it), i.e. the data
    cannot tell that denominator from zero.
    """

    denominator: np.ndarray
    condition_value: np.ndarray
    degenerate: np.ndarray


def fit_nuisance(dataset: Dataset, lambda_scale: float = 1.0, folds: int = 2,
                 tol: float = 1e-4, max_iter: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Cross-fitted (n,) outcome and (n, m) treatment residuals on X, the
    input of oml_estimate and homl_estimate: each row's residual is from
    the lasso fit on the other folds.

    Fold k is the rows with index % folds == k, the strided view
    xc[k::folds] of one centered copy xc of dataset.columns. The penalty
    is lambda_scale * sqrt(log(p + m + 1) / n_train) for each training
    split. A training split's column sums and cross-products are the sums
    of the other folds' strided products, never a total minus a fold,
    which can lose positive semi-definiteness on singular cells; from
    them comes the split's centered second-moment matrix, on which
    kernels.gram_lasso standardizes once and fits all m + 1 targets. Each
    fold is then predicted with one product xc[k::folds, :p] @ B for the
    (p, m + 1) weights B. No row is copied.
    """
    lambda_scale = _convert("lambda_scale", _as_float, lambda_scale, BaselineError)
    folds = _convert("folds", _as_int, folds, BaselineError)
    if folds < 2:
        raise BaselineError("need at least 2 folds for cross-fitting")
    n, p = dataset.n, dataset.p
    if n < 2 * folds:
        raise BaselineError(f"need at least {2 * folds} rows for {folds} folds")
    if lambda_scale <= 0:
        raise BaselineError("lambda_scale must be positive")
    cols = dataset.columns
    col_means = np.ones(n) @ cols / n
    xc = cols - col_means
    parts = [xc[k::folds] for k in range(folds)]
    sums = [np.ones(len(part)) @ part for part in parts]
    cross = [part.T @ part for part in parts]
    predictions = np.empty((n, dataset.m + 1))
    for k in range(folds):
        n_train = n - len(parts[k])
        others = [j for j in range(folds) if j != k]
        train_means = sum(sums[j] for j in others) / n_train
        moments = sum(cross[j] for j in others) / n_train - np.outer(train_means, train_means)
        lam = lambda_scale * math.sqrt(math.log(p + dataset.m + 1) / n_train)
        weights = np.column_stack([w for w, _, _ in gram_lasso(moments, p, lam, tol, max_iter)])
        offsets = train_means[p:] - train_means[:p] @ weights + col_means[p:]
        predictions[k::folds] = parts[k][:, :p] @ weights + offsets
    return dataset.y - predictions[:, -1], dataset.t - predictions[:, :-1]


def _residual_columns(resid_y, resid_t) -> tuple[np.ndarray, np.ndarray]:
    """(n,) outcome and (n, m) treatment residuals; a 1-d treatment residual is one column."""
    ry = np.asarray(resid_y, dtype=float)
    rt = np.atleast_2d(np.asarray(resid_t, dtype=float).T).T
    if ry.ndim != 1 or rt.ndim != 2 or rt.shape[0] != ry.size or ry.size < 2:
        raise BaselineError("need (n,) outcome and (n,) or (n, m) treatment residuals, n >= 2")
    return ry, rt


def oml_estimate(resid_y, resid_t) -> EffectEstimate:
    """Residual-on-residual least squares: theta solves (R^T R) theta = R^T ry
    for the (n, m) treatment residuals R. condition_value is the smallest
    eigenvalue of R^T R over n."""
    ry, rt = _residual_columns(resid_y, resid_t)
    gram = rt.T @ rt
    smallest = float(np.linalg.eigvalsh(gram)[0])
    if not smallest > 0.0:
        raise BaselineError("treatment residuals are linearly dependent")
    diagnostics = Diagnostics(condition_value=smallest / ry.size)
    return EffectEstimate(np.linalg.solve(gram, rt.T @ ry), "oml", diagnostics)


def homl_estimate(resid_y, resid_t) -> tuple[EffectEstimate, MomentDiagnostics]:
    """Higher-moment orthogonal score on the residuals, one score column per treatment.

    With t(u) = u^3 and psi_j = t(r_j) - mean(t(r_j)) - r_j * mean(t'(r_j))
    for each treatment residual column r_j, theta solves D theta =
    mean(psi * ry) with D[j, k] = mean(psi_j * r_k). D's diagonal targets
    E[eta t(eta)] - E[t'(eta)] Var(eta), which vanishes for Gaussian
    treatment noise; the returned MomentDiagnostics flags that regime per
    column by comparing |D[j, j]| against max(1e-6, 3 standard errors).
    Diagnostics.condition_value is the diagonal entry of smallest magnitude.
    """
    ry, rt = _residual_columns(resid_y, resid_t)
    ts, tp_mean = _HOML_CONTRAST(rt)
    psi = ts - ts.mean(axis=0) - rt * tp_mean
    prods = psi[:, :, None] * rt[:, None, :]
    d = prods.mean(axis=0)
    denominator = d.diagonal()
    se = np.diagonal(prods, axis1=1, axis2=2).std(axis=0, ddof=1) / math.sqrt(ry.size)
    condition_value = np.maximum(HOML_DENOMINATOR_FLOOR, 3.0 * se)
    degenerate = np.abs(denominator) < condition_value
    try:
        theta = np.linalg.solve(d, (psi * ry[:, None]).mean(axis=0))
    except np.linalg.LinAlgError:
        raise BaselineError("orthogonal-moment matrix is singular") from None
    notes = "degenerate orthogonal moment" if degenerate.any() else ""
    smallest = float(denominator[np.argmin(np.abs(denominator))])
    estimate = EffectEstimate(theta, "homl", Diagnostics(condition_value=smallest, notes=notes))
    return estimate, MomentDiagnostics(denominator, condition_value, degenerate)


def estimate_oml(dataset: Dataset, lambda_scale: float = 1.0, folds: int = 2,
                 tol: float = 1e-4, max_iter: int = 1000) -> EffectEstimate:
    """Cross-fitted residual-on-residual estimate of every treatment effect."""
    ry, rt = fit_nuisance(dataset, lambda_scale, folds, tol, max_iter)
    return oml_estimate(ry, rt)


def estimate_homl(dataset: Dataset, lambda_scale: float = 1.0, folds: int = 2, tol: float = 1e-4,
                  max_iter: int = 1000) -> tuple[EffectEstimate, MomentDiagnostics]:
    """Cross-fitted higher-moment orthogonal estimate of every treatment effect.

    Returns the estimate together with the moment-denominator health report;
    callers that only need the point estimate can discard the second element.
    """
    ry, rt = fit_nuisance(dataset, lambda_scale, folds, tol, max_iter)
    return homl_estimate(ry, rt)


def ols_joint(dataset: Dataset) -> EffectEstimate:
    """Least squares of Y on covariates, treatments and an intercept, (X, T, 1).

    whiten's factor K of the centered columns xc is lower triangular, so
    beta = -K[q, :q] / K[q, q] (q = p + m) is the least-squares start, the
    read extract_effects takes on K. One refinement step follows: beta +=
    K_A^T K_A xc_A^T (xc[:, q] - xc_A beta) / n, with K_A = K[:q, :q] and
    xc_A = xc[:, :q]. theta_hat is beta[p:q], which a shift of the columns
    does not move. condition_value is q + 1 whenever whiten accepts; its
    test ignores column units, so column scales 1e13 or more apart may read
    full rank where lstsq would not. Designs whiten refuses, as it does
    near-duplicate covariates, go to np.linalg.lstsq on the explicit
    uncentered design, which reports its rank, so a collinear design
    shifted by 1e6 or more is still read uncentered.
    """
    n, p, q = dataset.n, dataset.p, dataset.p + dataset.m
    if n <= q + 1:
        raise BaselineError(f"need more than {q + 1} rows, got {n}")
    try:
        xc, k, _ = _whitening_factor(dataset.columns)
    except RankDeficientError:
        design = np.column_stack([dataset.columns[:, :q], np.ones(n)])
        coef, _, rank, _ = np.linalg.lstsq(design, dataset.y, rcond=None)
    else:
        coef = -k[q, :q] / k[q, q]
        resid = xc[:, q] - xc[:, :q] @ coef
        coef += k[:q, :q].T @ (k[:q, :q] @ (resid @ xc[:, :q] / n))
        rank = q + 1
    notes = "" if rank == q + 1 else "rank-deficient design"
    diagnostics = Diagnostics(condition_value=float(rank), notes=notes)
    return EffectEstimate(coef[p:q].copy(), "ols", diagnostics)
