"""Asymptotic variance formulas and the score cross-derivative identity.

All variance expressions are stated for the cubic contrast t(z) = z^3 on
standardized noise and describe the limit of n * Var(theta_hat). The
moment inputs are MomentReport values, so the same code paths serve exact
analytic moments and (via a hand-built report) empirical ones.

Every noise family is symmetric, so the contrast's statistics reduce to
the fourth and sixth moments: E[t(z)] = 0, E[t'(z)] = 3, E[z t(z)] =
E[z^4] and Var(t(z)) = E[z^6].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._converters import _as_float, _convert
from .dgp import PlrSpec, nuisance_t, nuisance_y, resolve
from .distributions import MomentReport

DEGENERACY_TOL = 1e-12

REGIME_ICA = "ica_better"
REGIME_HOML = "homl_better"
REGIME_TIE = "tie"


class AsymptoticsError(ValueError):
    """Degenerate or invalid variance request."""


@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic variances for one process plus the regime comparison.

    numerator_gap is the difference of the higher-moment and
    source-separation variance numerators over their common denominator;
    it is only defined when the standardized treatment and outcome noises
    coincide, and is nan otherwise. regime compares var_ica_hyvarinen
    against var_homl.
    """

    var_homl: float
    var_ica_auddy: float
    var_ica_hyvarinen: float
    numerator_gap: float
    regime: str


def _check_denominator(moments: MomentReport, what: str) -> float:
    den = moments.fourth_moment - 3.0  # E[z t(z)] - E[t'(z)]
    if abs(den) < DEGENERACY_TOL:
        raise AsymptoticsError(
            f"{what} is degenerate: E[z t(z)] - E[t'(z)] = {den:.3e} vanishes "
            "(Gaussian-like fourth moment)"
        )
    return den


def var_homl(moments: MomentReport, eps_variance: float = 1.0) -> float:
    """Large-sample variance of the higher-moment orthogonal estimator.

    moments describe the standardized treatment noise; eps_variance is the
    variance of the outcome noise (1 under standardization). The value is
    eps_variance * Var(psi) / (E[z t(z)] - E[t'(z)])^2 with
    psi = t(z) - E[t(z)] - z E[t'(z)].
    """
    eps_variance = _convert("eps_variance", _as_float, eps_variance, AsymptoticsError)
    if eps_variance <= 0:
        raise AsymptoticsError("eps_variance must be positive")
    den = _check_denominator(moments, "higher-moment score")
    numerator = moments.sixth_moment + 9.0 - 6.0 * moments.fourth_moment
    return eps_variance * numerator / den**2


def _coefficient_blocks(a_block, b_block, theta):
    a = np.atleast_2d(np.asarray(a_block, dtype=float))
    b = np.atleast_1d(np.asarray(b_block, dtype=float))
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if a.shape != (th.size, b.size):
        raise AsymptoticsError(
            f"a_block shape {a.shape} does not match {th.size} treatments x {b.size} covariates"
        )
    return a, b, th


def var_ica_auddy(a_block, b_block, theta, moments: MomentReport) -> float:
    """Paper's prefactor form of the mixing-coefficient variance.

    moments describe the standardized treatment noise. The prefactor
    ||b + a^T theta||^2 + 1 is the squared norm of the outcome row of the
    mixing matrix restricted to the covariate and outcome coordinates; the
    rest is Var(t(z)) / (E[z^4] - 3)^2.

    This is neither the limit of n * Var for the mixing read of
    symmetric FastICA nor a bound on it. For Laplace covariates and
    outcome noise, uniform treatment noise and theta = 1 it is 2.68 times
    the exact value (var_ica_mixing) at multiplier 0, while for large
    multipliers the exact value is about 1.19 times it.
    """
    a, b, th = _coefficient_blocks(a_block, b_block, theta)
    kurt = _check_denominator(moments, "mixing-coefficient variance")
    multiplier = float(np.sum((b + a.T @ th) ** 2)) + 1.0
    return multiplier * moments.sixth_moment / kurt**2


def _tau(moments: MomentReport) -> float:
    return abs(moments.fourth_moment - 3.0)


def _pair_variance(k: MomentReport, l: MomentReport, what: str) -> float:
    """Limit of n * Var(E_kl) for symmetric cube FastICA.

    E = G - I is the gain-matrix error of the estimated unmixing; the
    value is (gamma_k + gamma_l + tau_l^2) / (tau_k + tau_l)^2 with
    gamma = E[z^6] - E[z^4]^2 and tau = |E[z^4] - 3| (Tichavsky, Koldovsky
    and Oja, IEEE TSP 2006).
    """
    den = _tau(k) + _tau(l)
    if den < DEGENERACY_TOL:
        raise AsymptoticsError(
            f"{what} pair is not separable: both sources have E[z^4] = 3 "
            "(Gaussian-like fourth moment)"
        )
    gamma_k = k.sixth_moment - k.fourth_moment**2
    gamma_l = l.sixth_moment - l.fourth_moment**2
    return (gamma_k + gamma_l + _tau(l) ** 2) / den**2


def var_ica_mixing(a_block, b_block, theta, moments_x: MomentReport,
                   moments_t: MomentReport, moments_y: MomentReport) -> np.ndarray:
    """Exact limit of n * Var(theta_hat_i) for the mixing read.

    The estimator is extract_effects_from_mixing after whiten and
    fastica(contrast="cube"). moments_x, moments_t and moments_y describe
    the noises the data are drawn from (the effective ones: standardized
    unless the spec disables it); all covariates share moments_x and all
    treatments moments_t. Returns one value per treatment.

    With gain matrix G = W_hat A = I + E in unit-variance sources and
    r = sd(eps) / sd(eta), the read linearises to

        theta_hat_i - theta_i = -sum_j c_j (sd(xi) / sd(eta)) E[xi_j, eta_i]
                                - sum_{k != i} theta_k E[eta_k, eta_i]
                                - r E[eps, eta_i] - (theta_i^2 / r) E[eta_i, eps]

    with c = b + a^T theta. Sample whitening forces E[eps, eta_i] +
    E[eta_i, eps] = -(sample covariance of eps and eta_i), whose n * Var
    is 1 and whose covariance with E[eps, eta_i] is -tau_eta / (tau_eps +
    tau_eta). The distinct pairs are asymptotically uncorrelated for
    sources with zero third moment, as every family in distributions is.
    Hence, with V(k <- l) from the symmetric-FastICA pair variance,

        n Var -> ||c||^2 (var_x / var_t) V(xi <- eta)
                 + sum_{k != i} theta_k^2 V(eta <- eta)
                 + (r - theta_i^2 / r)^2 V(eps <- eta) + theta_i^4 / r^2
                 + 2 (r - theta_i^2 / r) (theta_i^2 / r) tau_eta / (tau_eps + tau_eta).

    With one treatment, theta = r and c = 0, the value is exactly 1
    whatever the noise shapes. Raises AsymptoticsError when a pair (k, eta) that the read
    uses has tau_k + tau_eta = 0.
    """
    a, b, th = _coefficient_blocks(a_block, b_block, theta)
    v_xt = _pair_variance(moments_x, moments_t, "covariate-treatment")
    v_yt = _pair_variance(moments_y, moments_t, "outcome-treatment")
    v_tt = _pair_variance(moments_t, moments_t, "treatment-treatment") if th.size > 1 else 0.0
    share = _tau(moments_t) / (_tau(moments_y) + _tau(moments_t))
    c_sq = float(np.sum((b + a.T @ th) ** 2))
    r = math.sqrt(moments_y.variance / moments_t.variance)
    lead = r - th**2 / r
    return (
        c_sq * (moments_x.variance / moments_t.variance) * v_xt
        + (float(np.sum(th**2)) - th**2) * v_tt
        + lead**2 * v_yt
        + th**4 / r**2
        + 2.0 * lead * (th**2 / r) * share
    )


def var_ica_hyvarinen(moments: MomentReport) -> float:
    """Fixed-point-iteration variance of the source-separation estimate.

    moments describe the standardized outcome noise. The value is
    (E[t(z)^2] - E[z t(z)]^2) / (E[z t(z)] - E[t'(z)])^2.
    """
    den = _check_denominator(moments, "contrast fixed point")
    return (moments.sixth_moment - moments.fourth_moment**2) / den**2


def compare_numerators(moments: MomentReport) -> float:
    """Variance-numerator gap over the shared denominator.

    Both estimators' variances share the denominator
    (E[z t(z)] - E[t'(z)])^2 when treatment and outcome noise coincide.
    The gap (E[t'(z)] - E[z t(z)])^2 - E[t(z)]^2 = (3 - E[z^4])^2 is the
    higher-moment numerator minus the source-separation numerator:
    positive means the source-separation route is strictly more
    efficient, zero (as in the Gaussian limit) a tie.
    """
    return (3.0 - moments.fourth_moment) ** 2


def _classify(v_homl: float, v_ica: float) -> str:
    if v_ica < v_homl:
        return REGIME_ICA
    if v_ica > v_homl:
        return REGIME_HOML
    return REGIME_TIE


def variance_report(spec: PlrSpec, seed=0) -> VarianceReport:
    """All variance quantities for one process specification.

    Unresolved coefficient blocks are drawn with the given seed, mirroring
    what simulate() would use. Noise moments are the effective
    (standardized, unless disabled) ones.
    """
    resolved = resolve(spec, np.random.default_rng(seed))
    _, noise_t_eff, noise_y_eff = resolved.effective_noises()
    moments_t = noise_t_eff.moments()
    moments_y = noise_y_eff.moments()
    v_homl = var_homl(moments_t, eps_variance=moments_y.variance)
    v_auddy = var_ica_auddy(resolved.a_block, resolved.b_block, resolved.theta, moments_t)
    v_hyv = var_ica_hyvarinen(moments_y)
    same_noise = noise_t_eff.standardized() == noise_y_eff.standardized()
    gap = compare_numerators(moments_t) if same_noise else math.nan
    return VarianceReport(
        var_homl=v_homl,
        var_ica_auddy=v_auddy,
        var_ica_hyvarinen=v_hyv,
        numerator_gap=gap,
        regime=_classify(v_homl, v_hyv),
    )


def score_cross_derivative(spec: PlrSpec, x, t, y, h: float = 1e-3) -> np.ndarray:
    """Numeric cross-derivative of the joint log density at one point.

    Returns the length-m vector of central second differences
    d^2/(dt_j dy) log p(x, t, y). The covariate and treatment log-density
    terms cancel exactly in each cross difference, so the value only
    probes the outcome-noise term; for standard Gaussian outcome noise
    the quadratic log density makes the difference quotient equal to
    theta_j up to float rounding, whatever the evaluation point.

    Requires continuous noise families (densities must exist). h is
    restricted to [1e-4, 1e-2]: large steps leave the local regime,
    smaller ones lose all precision to cancellation.
    """
    if not 1e-4 <= h <= 1e-2:
        raise AsymptoticsError(f"h must lie in [1e-4, 1e-2], got {h}")
    if not spec.is_resolved:
        raise AsymptoticsError("spec has unresolved coefficient blocks; call resolve() first")
    xv = np.asarray(x, dtype=float)
    tv = np.asarray(t, dtype=float)
    if xv.shape != (spec.p,) or tv.shape != (spec.m,):
        raise AsymptoticsError(
            f"expected x of shape {(spec.p,)} and t of shape {(spec.m,)}, "
            f"got {xv.shape} and {tv.shape}"
        )
    yv = float(y)
    _, noise_t_eff, noise_y_eff = spec.effective_noises()
    f_x = nuisance_t(spec, xv[None, :])[0]
    g_x = float(nuisance_y(spec, xv[None, :])[0])

    def log_joint(t_point, y_point):
        # the x term is constant across corners and cancels; skip it
        eta = t_point - f_x
        eps = y_point - g_x - float(spec.theta @ t_point)
        return float(np.sum(noise_t_eff.log_density(eta))) + float(noise_y_eff.log_density(eps))

    out = np.empty(spec.m)
    for j in range(spec.m):
        step = np.zeros(spec.m)
        step[j] = h
        out[j] = (
            log_joint(tv + step, yv + h)
            - log_joint(tv + step, yv - h)
            - log_joint(tv - step, yv + h)
            + log_joint(tv - step, yv - h)
        ) / (4.0 * h * h)
    return out
