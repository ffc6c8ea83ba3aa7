import math

import numpy as np
import pytest

from plrica import (
    REGIME_HOML,
    REGIME_ICA,
    AsymptoticsError,
    NoiseSpec,
    PlrSpec,
    compare_numerators,
    ica_condition_value,
    resolve,
    score_cross_derivative,
    var_homl,
    var_ica_auddy,
    var_ica_hyvarinen,
    var_ica_mixing,
    variance_report,
)

LAPLACE = NoiseSpec.laplace().standardized()
UNIFORM = NoiseSpec.uniform()
THREE_POINT = NoiseSpec.three_point()


class TestVarianceFormulas:
    def test_homl_frozen_values(self):
        assert var_homl(LAPLACE.moments()) == pytest.approx(7.0, abs=1e-9)
        assert var_homl(UNIFORM.moments()) == pytest.approx(10.0 / 7.0, abs=1e-9)

    def test_homl_scales_with_outcome_variance(self):
        base = var_homl(LAPLACE.moments(), eps_variance=1.0)
        assert var_homl(LAPLACE.moments(), eps_variance=0.25) == pytest.approx(0.25 * base)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_homl_non_finite_outcome_variance_refused(self, value):
        with pytest.raises(AsymptoticsError, match="bad value for 'eps_variance'"):
            var_homl(LAPLACE.moments(), eps_variance=value)

    def test_hyvarinen_frozen_values(self):
        assert var_ica_hyvarinen(LAPLACE.moments()) == pytest.approx(6.0, abs=1e-9)
        assert var_ica_hyvarinen(UNIFORM.moments()) == pytest.approx(3.0 / 7.0, abs=1e-9)
        assert var_ica_hyvarinen(THREE_POINT.moments()) == pytest.approx(0.0, abs=1e-12)

    def test_auddy_frozen_base_values(self):
        # multiplier is 1 when b + a^T theta = 0
        for spec, want in ((LAPLACE, 10.0), (UNIFORM, 75.0 / 28.0), (THREE_POINT, 4.0)):
            got = var_ica_auddy([[0.0]], [0.0], [1.0], spec.moments())
            assert got == pytest.approx(want, abs=1e-9)

    def test_auddy_multiplier_growth(self):
        rep = LAPLACE.moments()
        base = var_ica_auddy([[0.0]], [0.0], [1.0], rep)
        one = var_ica_auddy([[0.5]], [0.5], [1.0], rep)
        four = var_ica_auddy([[1.0]], [1.0], [1.0], rep)
        assert one == pytest.approx(2.0 * base)
        assert four == pytest.approx(5.0 * base)

    def test_auddy_multi_treatment_prefactor(self):
        rep = LAPLACE.moments()
        a = [[1.0, 0.0], [0.0, 1.0]]
        b = [1.0, -1.0]
        th = [2.0, 0.5]
        want = (np.sum((np.array(b) + np.array(a).T @ np.array(th)) ** 2) + 1.0) * 10.0
        assert var_ica_auddy(a, b, th, rep) == pytest.approx(want)

    def test_gaussian_degenerate_everywhere(self):
        rep = NoiseSpec.gaussian().moments()
        with pytest.raises(AsymptoticsError):
            var_homl(rep)
        with pytest.raises(AsymptoticsError):
            var_ica_hyvarinen(rep)
        with pytest.raises(AsymptoticsError):
            var_ica_auddy([[0.0]], [0.0], [1.0], rep)

    def test_shape_mismatch(self):
        rep = LAPLACE.moments()
        with pytest.raises(AsymptoticsError):
            var_ica_auddy([[1.0, 0.0]], [1.0], [1.0], rep)
        with pytest.raises(AsymptoticsError):
            var_ica_mixing([[1.0, 0.0]], [1.0], [1.0], rep, rep, rep)


class TestMixingReadVariance:
    def test_criterion_nine_closed_forms(self):
        # Laplace covariates and outcome noise, uniform treatment noise,
        # theta = 1: the limit is 1 + (b + a theta)^2 * 1090/343
        lap, uni = LAPLACE.moments(), UNIFORM.moments()
        for c, want in ((0.0, 1.0), (0.5, 1433.0 / 343.0), (1.0, 4703.0 / 343.0)):
            got = var_ica_mixing([[c]], [c], [1.0], lap, uni, lap)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("noise_x,noise_t,noise_y", [
        (LAPLACE, UNIFORM, LAPLACE),
        (UNIFORM, LAPLACE, THREE_POINT),
        (THREE_POINT, NoiseSpec.generalized_normal(1.5).standardized(), UNIFORM),
        (NoiseSpec.gaussian(), THREE_POINT, LAPLACE),
    ])
    def test_whitening_identity_at_unit_theta(self, noise_x, noise_t, noise_y):
        # theta = 1 with b + a theta = 0 leaves only the sample covariance of
        # the treatment and outcome noises, whose n * Var is 1
        reps = (noise_x.moments(), noise_t.moments(), noise_y.moments())
        for a, b in (([[0.0]], [0.0]), ([[1.5]], [-1.5])):
            assert var_ica_mixing(a, b, [1.0], *reps)[0] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_covariates_are_finite(self):
        got = var_ica_mixing([[0.5]], [0.5], [1.0], NoiseSpec.gaussian().moments(),
                             UNIFORM.moments(), LAPLACE.moments())
        assert np.isfinite(got[0]) and got[0] > 1.0

    def test_gaussian_treatment_and_outcome_raise(self):
        gauss = NoiseSpec.gaussian().moments()
        with pytest.raises(AsymptoticsError):
            var_ica_mixing([[0.5]], [0.5], [1.0], LAPLACE.moments(), gauss, gauss)

    def test_gaussian_treatments_raise_for_several_treatments(self):
        gauss = NoiseSpec.gaussian().moments()
        lap = LAPLACE.moments()
        assert np.isfinite(var_ica_mixing([[1.0]], [1.0], [1.0], lap, gauss, lap)[0])
        with pytest.raises(AsymptoticsError):
            var_ica_mixing([[1.0], [1.0]], [1.0], [1.0, 2.0], lap, gauss, lap)

    def test_other_treatments_add_their_pair_terms(self):
        lap, uni = LAPLACE.moments(), UNIFORM.moments()
        single = var_ica_mixing([[0.0]], [0.0], [1.0], lap, uni, lap)[0]
        both = var_ica_mixing([[0.0], [0.0]], [0.0], [1.0, 2.0], lap, uni, lap)
        # V(eta <- eta) = (2 gamma + tau^2) / (2 tau)^2 for the uniform noise
        gamma, tau = 27.0 / 7.0 - 1.8**2, 1.2
        assert both[0] == pytest.approx(single + 4.0 * (2 * gamma + tau**2) / (2 * tau) ** 2)


class TestNumeratorGap:
    @pytest.mark.parametrize("spec,want", [
        (LAPLACE, 9.0),
        (UNIFORM, 36.0 / 25.0),
        (THREE_POINT, 1.0),
        (NoiseSpec.gaussian(), 0.0),
    ])
    def test_frozen_values(self, spec, want):
        assert compare_numerators(spec.moments()) == pytest.approx(want, abs=1e-9)

    def test_gap_equals_variance_difference_over_denominator(self):
        # identity: var_homl - var_hyvarinen = gap / denominator^2 when the
        # same standardized noise drives both
        for spec in (LAPLACE, UNIFORM):
            rep = spec.moments()
            den = rep.fourth_moment - 3.0
            diff = var_homl(rep) - var_ica_hyvarinen(rep)
            assert diff == pytest.approx(compare_numerators(rep) / den**2, abs=1e-9)

    def test_shares_condition_denominator(self):
        # the one condition value is the denominator every cube-contrast
        # variance divides by, and the one check that refuses it at 0
        for spec in (LAPLACE, UNIFORM, THREE_POINT):
            rep, den = spec.moments(), ica_condition_value(spec)
            assert var_homl(rep) == (rep.sixth_moment + 9.0 - 6.0 * rep.fourth_moment) / den**2
            assert var_ica_hyvarinen(rep) == (rep.sixth_moment - rep.fourth_moment**2) / den**2
            assert var_ica_auddy([[0.0]], [0.0], [1.0], rep) == rep.sixth_moment / den**2
        rep = NoiseSpec.gaussian().moments()
        assert ica_condition_value(NoiseSpec.gaussian()) == 0.0
        for variance in (var_homl, var_ica_hyvarinen,
                         lambda r: var_ica_auddy([[0.0]], [0.0], [1.0], r)):
            with pytest.raises(AsymptoticsError, match=r"E\[z t\(z\)\] - E\[t'\(z\)\] = 0"):
                variance(rep)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        for spec in (LAPLACE, UNIFORM, THREE_POINT):
            rep = spec.moments()
            draws = spec.sample(400_000, rng)
            t = draws**3
            tprime = 3.0 * draws**2
            zt = draws * t
            a = tprime - zt
            mu_a, mu_t = a.mean(), t.mean()
            gap_mc = mu_a**2 - mu_t**2
            # delta-method standard error of the plug-in gap
            n = draws.size
            grad_var = 4 * mu_a**2 * a.var(ddof=1) + 4 * mu_t**2 * t.var(ddof=1)
            cov_at = np.cov(a, t, ddof=1)[0, 1]
            grad_var -= 8 * mu_a * mu_t * cov_at
            se = math.sqrt(max(grad_var, 1e-30) / n)
            assert abs(gap_mc - compare_numerators(rep)) <= 4 * se


class TestVarianceReport:
    def test_all_laplace(self):
        lap = NoiseSpec.laplace()
        spec = PlrSpec(p=1, m=1, theta=[1.0], a_block=[[0.0]], b_block=[0.0],
                       noise_x=lap, noise_t=lap, noise_y=lap)
        rep = variance_report(spec)
        assert rep.var_homl == pytest.approx(7.0)
        assert rep.var_ica_hyvarinen == pytest.approx(6.0)
        assert rep.var_ica_auddy == pytest.approx(10.0)
        assert rep.numerator_gap == pytest.approx(9.0)
        assert rep.regime == REGIME_ICA

    def test_gap_nan_for_mixed_noises(self):
        spec = PlrSpec(p=1, m=1, theta=[1.0], a_block=[[0.0]], b_block=[0.0],
                       noise_x=NoiseSpec.laplace(), noise_t=NoiseSpec.uniform(),
                       noise_y=NoiseSpec.laplace())
        rep = variance_report(spec)
        assert math.isnan(rep.numerator_gap)

    def test_homl_better_when_outcome_noise_is_small(self):
        # tiny outcome noise shrinks the cross-fitted variance while the
        # fixed-point variance tracks the outcome family shape only
        spec = PlrSpec(p=1, m=1, theta=[1.0], a_block=[[0.0]], b_block=[0.0],
                       noise_x=NoiseSpec.laplace(), noise_t=NoiseSpec.laplace(),
                       noise_y=NoiseSpec.laplace(scale=0.1), standardize_noise=False)
        rep = variance_report(spec)
        assert rep.regime == REGIME_HOML

    def test_unresolved_spec_resolved_with_seed(self):
        lap = NoiseSpec.laplace()
        spec = PlrSpec(p=3, m=1, theta=[1.0], noise_x=lap, noise_t=lap, noise_y=lap)
        a = variance_report(spec, seed=1)
        b = variance_report(spec, seed=1)
        assert a == b

    def test_gaussian_treatment_noise_raises(self):
        spec = PlrSpec(p=1, m=1, theta=[1.0], a_block=[[0.0]], b_block=[0.0],
                       noise_x=NoiseSpec.laplace(), noise_t=NoiseSpec.gaussian(),
                       noise_y=NoiseSpec.laplace())
        with pytest.raises(AsymptoticsError):
            variance_report(spec)


class TestScoreCrossDerivative:
    def test_linear_gaussian_outcome_returns_theta(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            theta = rng.uniform(-2, 2, m)
            spec = resolve(PlrSpec(p=p, m=m, theta=theta,
                                   noise_x=NoiseSpec.laplace(),
                                   noise_t=NoiseSpec.laplace(),
                                   noise_y=NoiseSpec.gaussian()), rng)
            x = rng.uniform(-1, 1, p)
            t = rng.uniform(-1, 1, m)
            y = float(rng.uniform(-1, 1))
            got = score_cross_derivative(spec, x, t, y)
            assert np.max(np.abs(got - theta)) <= 1e-3

    def test_tanh_nuisance_gaussian_outcome(self):
        rng = np.random.default_rng(2)
        spec = resolve(PlrSpec(p=3, m=1, theta=[1.55], nuisance="tanh",
                               noise_x=NoiseSpec.laplace(),
                               noise_t=NoiseSpec.laplace(),
                               noise_y=NoiseSpec.gaussian()), rng)
        got = score_cross_derivative(spec, rng.uniform(-1, 1, 3),
                                     rng.uniform(-1, 1, 1), 0.3)
        assert got[0] == pytest.approx(1.55, abs=1e-3)

    def test_unresolved_spec_rejected(self):
        with pytest.raises(AsymptoticsError):
            score_cross_derivative(PlrSpec(p=1, m=1), [0.0], [0.0], 0.0)

    def test_shape_validation(self):
        spec = resolve(PlrSpec(p=2, m=1, theta=[1.0]), np.random.default_rng(0))
        with pytest.raises(AsymptoticsError):
            score_cross_derivative(spec, [0.0], [0.0], 0.0)

    def test_discrete_noise_has_no_density(self):
        spec = resolve(PlrSpec(p=1, m=1, theta=[1.0],
                               noise_t=NoiseSpec.three_point()),
                       np.random.default_rng(0))
        with pytest.raises(Exception):
            score_cross_derivative(spec, [0.0], [0.5], 0.0)


# Pinned in float.hex: var_homl (eps_variance the noise's own variance),
# var_ica_hyvarinen, var_ica_auddy, compare_numerators and var_ica_mixing on
# PIN_NOISES' moments, then variance_report's var_ica_auddy. The other report
# fields must equal the direct calls.
PIN_NOISES = {
    "laplace": NoiseSpec.laplace(location=0.5, scale=1.7),
    "uniform": NoiseSpec.uniform(location=-1.0, scale=0.6),
    "three_point": NoiseSpec.three_point(location=0.25, scale=2.0),
    "gennorm0.5": NoiseSpec.generalized_normal(0.5, scale=0.8),
    "gennorm1.5": NoiseSpec.generalized_normal(1.5, location=1.0, scale=1.3),
    "gennorm3.7": NoiseSpec.generalized_normal(3.7, location=-2.0, scale=2.5),
}
PINNED_VARIANCES = {
    ("laplace", "standardized"): (
        "0x1.c000000000002p+2", "0x1.8000000000000p+2", "0x1.c200000000000p+5",
        "0x1.2000000000000p+3", "0x1.fe4fffffffffep+6", "0x1.203024dd472a0p+4"),
    ("laplace", "raw"): (
        "0x1.43ae147ae147bp+5", "0x1.8000000000000p+2", "0x1.c200000000000p+5",
        "0x1.2000000000000p+3", "0x1.c21f3993ee48bp+4", "0x1.203024dd472a0p+4"),
    ("uniform", "standardized"): (
        "0x1.6db6db6db6db6p+0", "0x1.b6db6db6db6dap-2", "0x1.e224924924925p+3",
        "0x1.70a3d70a3d70ap+0", "0x1.e238f4cdfe81dp+6", "0x1.34c5de5acc3f5p+2"),
    ("uniform", "raw"): (
        "0x1.0750750750750p-1", "0x1.b6db6db6db6dap-2", "0x1.e224924924925p+3",
        "0x1.70a3d70a3d70ap+0", "0x1.4996487abbea7p+8", "0x1.34c5de5acc3f5p+2"),
    ("three_point", "standardized"): (
        "0x1.000000000000dp+0", "0x1.ffffffffffff8p-51", "0x1.67ffffffffff9p+4",
        "0x1.0000000000004p+0", "0x1.03a7fffffffffp+7", "0x1.cd19d4953ea91p+2"),
    ("three_point", "raw"): (
        "0x1.000000000000dp+2", "0x1.ffffffffffff8p-51", "0x1.67ffffffffff9p+4",
        "0x1.0000000000004p+0", "0x1.137ffffffffffp+5", "0x1.cd19d4953ea91p+2"),
    ("gennorm0.5", "standardized"): (
        "0x1.c17ef8b5038f9p+2", "0x1.817ef8b5038fcp+2", "0x1.490929b354b76p+5",
        "0x1.ecd70a3d709f5p+8", "0x1.a855ebdb8fea5p+7", "0x1.a570da77c3e4ap+3"),
    ("gennorm0.5", "raw"): (
        "0x1.0db295396889cp+9", "0x1.817ef8b5038fcp+2", "0x1.490929b354b76p+5",
        "0x1.ecd70a3d709f5p+8", "0x1.406d37a09d02ep+3", "0x1.a570da77c3e4ap+3"),
    ("gennorm1.5", "standardized"): (
        "0x1.7163b6045c154p+4", "0x1.6163b6045c155p+4", "0x1.055b0b4c5ba21p+8",
        "0x1.294107801ebccp-1", "0x1.883bf45a2952fp+7", "0x1.4ec0f08ba41dbp+6"),
    ("gennorm1.5", "raw"): (
        "0x1.cd03c21044a28p+4", "0x1.6163b6045c155p+4", "0x1.055b0b4c5ba21p+8",
        "0x1.294107801ebccp-1", "0x1.422ffba5f41ffp+7", "0x1.4ec0f08ba41dbp+6"),
    ("gennorm3.7", "standardized"): (
        "0x1.1a6dd7b442187p+2", "0x1.b4dbaf688430bp+1", "0x1.10b7c64846ec6p+6",
        "0x1.2733b6f16bfa4p-1", "0x1.32b083af7b498p+7", "0x1.5d4e8bb7407eap+4"),
    ("gennorm3.7", "raw"): (
        "0x1.3094025126e18p+3", "0x1.b4dbaf688430bp+1", "0x1.10b7c64846ec6p+6",
        "0x1.2733b6f16bfa4p-1", "0x1.27c5d197a12dfp+6", "0x1.5d4e8bb7407eap+4"),
}


@pytest.mark.parametrize("name,form", sorted(PINNED_VARIANCES))
def test_variances_pinned_bitwise(name, form):
    noise = PIN_NOISES[name]
    if form == "standardized":
        noise = noise.standardized()
    rep = noise.moments()
    a_block, b_block, theta = [[0.5, -1.0]], [1.0, 0.25], [1.5]
    direct = (var_homl(rep, eps_variance=rep.variance), var_ica_hyvarinen(rep),
              var_ica_auddy(a_block, b_block, theta, rep), compare_numerators(rep),
              float(var_ica_mixing(a_block, b_block, theta,
                                   NoiseSpec.laplace(scale=2.0).moments(), rep, rep)[0]))
    report = variance_report(PlrSpec(p=2, m=1, theta=theta, noise_x=NoiseSpec.laplace(),
                                     noise_t=noise, noise_y=noise,
                                     standardize_noise=form == "standardized"), seed=3)
    got = [v.hex() for v in direct + (report.var_ica_auddy,)]
    assert got == list(PINNED_VARIANCES[name, form])
    assert (report.var_homl, report.var_ica_hyvarinen, report.numerator_gap) == (
        direct[0], direct[1], direct[3])
    assert report.regime == REGIME_ICA
