import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrica import (
    CONTRASTS,
    FAMILIES,
    THREE_POINT_PROBABILITIES,
    THREE_POINT_SUPPORT,
    DistributionError,
    MomentReport,
    NoiseSpec,
    ica_condition_value,
)

# standardized fourth and sixth moments, precomputed from the closed forms
FROZEN = {
    "gaussian": (3.0, 15.0),
    "laplace": (6.0, 90.0),
    "uniform": (9.0 / 5.0, 27.0 / 7.0),
    "three_point": (2.0, 4.0),
    "gennorm_1.5": (3.761954236930, 26.975352487277),
}


def standard_specs():
    return {
        "gaussian": NoiseSpec.gaussian(),
        "laplace": NoiseSpec.laplace().standardized(),
        "uniform": NoiseSpec.uniform(),
        "three_point": NoiseSpec.three_point(),
        "gennorm_1.5": NoiseSpec.generalized_normal(1.5).standardized(),
    }


# one value the noise syntax cannot express per field, for every NoiseSpec field
BAD_NOISE_FIELDS = [
    ("family", lambda: NoiseSpec(3)),
    ("family", lambda: NoiseSpec("cauchy")),
    ("location", lambda: NoiseSpec.laplace(location=True)),
    ("location", lambda: NoiseSpec.gaussian("1")),
    ("location", lambda: NoiseSpec.laplace(location=math.nan)),
    ("location", lambda: NoiseSpec.uniform(location=-math.inf)),
    ("scale", lambda: NoiseSpec.uniform(scale=False)),
    ("scale", lambda: NoiseSpec.gaussian(scale=math.inf)),
    ("scale", lambda: NoiseSpec.three_point(scale=math.nan)),
    ("shape_beta", lambda: NoiseSpec.generalized_normal(True)),
    ("shape_beta", lambda: NoiseSpec.generalized_normal("1.5")),
    ("shape_beta", lambda: NoiseSpec.generalized_normal(0.004)),
    ("shape_beta", lambda: NoiseSpec.generalized_normal(1e-305)),
    ("shape_beta", lambda: NoiseSpec.generalized_normal(5e-324)),
]


class TestMoments:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_standardized_moments(self, name):
        spec = standard_specs()[name]
        rep = spec.moments()
        m4, m6 = FROZEN[name]
        assert spec.mean() == pytest.approx(0.0, abs=1e-12)
        assert rep.variance == pytest.approx(1.0, abs=1e-12)
        assert rep.fourth_moment == pytest.approx(m4, abs=1e-9)
        assert rep.sixth_moment == pytest.approx(m6, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_monte_carlo_agreement(self, name):
        spec = standard_specs()[name]
        rng = np.random.default_rng(0)
        draws = spec.sample(1_000_000, rng)
        rep = spec.moments()
        for k, want in ((2, rep.variance), (4, rep.fourth_moment), (6, rep.sixth_moment)):
            vals = draws**k
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - want) <= 5 * se, (name, k)

    def test_location_scale_propagation(self):
        spec = NoiseSpec.laplace(location=2.0, scale=3.0)
        rep = spec.moments()
        assert spec.mean() == pytest.approx(2.0)
        assert rep.variance == pytest.approx(2 * 3.0**2)

    def test_cube_statistics_fields(self):
        # the cube contrast's statistics are the fourth and sixth moments
        rep = NoiseSpec.laplace().standardized().moments()
        assert [f.name for f in dataclasses.fields(rep)] == [
            "variance", "fourth_moment", "sixth_moment"]
        assert rep.sixth_moment == pytest.approx(90.0, abs=1e-9)


class TestSampling:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_bitwise_determinism(self, name):
        spec = standard_specs()[name]
        a = spec.sample(1000, np.random.default_rng(42))
        b = spec.sample(1000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_tuple_size(self):
        draws = NoiseSpec.gaussian().sample((30, 4), np.random.default_rng(1))
        assert draws.shape == (30, 4)

    def test_three_point_support(self):
        draws = NoiseSpec.three_point().sample(5000, np.random.default_rng(2))
        assert set(np.round(draws, 12)) <= set(np.round(THREE_POINT_SUPPORT, 12))
        frac_zero = float(np.mean(draws == 0.0))
        assert abs(frac_zero - THREE_POINT_PROBABILITIES[1]) < 0.03


def _gennorm_formula(spec, size, seed):
    """The generalized-normal draw as one expression over the same two draws."""
    rng = np.random.default_rng(seed)
    b = spec.shape_beta
    g = rng.standard_gamma(1.0 / b, size)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return spec.location + spec.scale * signs * g ** (1.0 / b)


class TestGeneralizedNormalSampler:
    # 0.5 and 2 put 1/beta on numpy's square and sqrt fast paths, 1 on the copy
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("location,scale", [(0.0, 1.0), (4.0, 0.5), (-1.3, 2.7)])
    @pytest.mark.parametrize("size", [1001, (250, 7)])
    def test_bitwise_equal_to_formula(self, beta, location, scale, size):
        spec = NoiseSpec.generalized_normal(beta, location, scale)
        got = spec.sample(size, 123)
        want = _gennorm_formula(spec, size, 123)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_leaves_the_stream_where_the_formula_does(self):
        spec = NoiseSpec.generalized_normal(1.5)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        spec.sample(300, rng_a)
        _gennorm_formula(spec, 300, rng_b)
        assert rng_a.random() == rng_b.random()


class TestStandardized:
    @pytest.mark.parametrize("family,ctor", [
        ("laplace", lambda: NoiseSpec.laplace(location=1.0, scale=2.0)),
        ("uniform", lambda: NoiseSpec.uniform(location=-3.0, scale=0.5)),
        ("generalized_normal", lambda: NoiseSpec.generalized_normal(0.8, scale=4.0)),
    ])
    def test_unit_moments(self, family, ctor):
        std = ctor().standardized()
        rep = std.moments()
        assert std.mean() == pytest.approx(0.0, abs=1e-12)
        assert rep.variance == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self):
        std = NoiseSpec.laplace().standardized()
        assert std.standardized() is std

    def test_shape_preserved(self):
        std = NoiseSpec.generalized_normal(1.3, scale=2.0).standardized()
        assert std.shape_beta == 1.3


class TestConditionValues:
    @pytest.mark.parametrize("location,scale", [(0.0, 1.0), (2.0, 3.0), (-1.0, 0.25)])
    def test_is_the_mean_cube_score_of_the_three_point_law(self, location, scale):
        # exact expectation of z t(z) - t'(z) under the cube contrast over the
        # three support points; one row, so the derivative mean is t'(z) itself
        z = np.asarray(THREE_POINT_SUPPORT)[None, :]
        t, tprime = CONTRASTS["cube"](z)
        score = float(np.dot(THREE_POINT_PROBABILITIES, z[0] * t[0] - tprime))
        spec = NoiseSpec.three_point(location=location, scale=scale)
        assert ica_condition_value(spec) == pytest.approx(score, abs=1e-12)
        assert ica_condition_value(spec) == pytest.approx(-1.0, abs=1e-12)

    def test_signs(self):
        assert ica_condition_value(NoiseSpec.laplace().standardized()) == pytest.approx(3.0)
        assert ica_condition_value(NoiseSpec.uniform()) == pytest.approx(-1.2)
        assert ica_condition_value(NoiseSpec.gaussian()) == pytest.approx(0.0, abs=1e-12)


class TestLogDensity:
    def test_gaussian_at_zero(self):
        assert NoiseSpec.gaussian().log_density(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_laplace_at_zero(self):
        assert NoiseSpec.laplace().log_density(0.0) == pytest.approx(math.log(0.5))

    def test_uniform_inside_outside(self):
        u = NoiseSpec.uniform()
        width = 2 * math.sqrt(3)
        assert u.log_density(0.0) == pytest.approx(-math.log(width))
        assert u.log_density(100.0) == -np.inf

    def test_gennorm_matches_gaussian_at_beta_two(self):
        g2 = NoiseSpec.generalized_normal(2.0, scale=math.sqrt(2))
        xs = np.linspace(-2, 2, 9)
        want = -0.5 * xs**2 - 0.5 * math.log(2 * math.pi)
        got = g2.log_density(xs)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_discrete_raises(self):
        with pytest.raises(DistributionError, match="discrete family has no density"):
            NoiseSpec.three_point().log_density(0.0)

    @given(st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_location_shift(self, x):
        base = NoiseSpec.laplace()
        shifted = NoiseSpec.laplace(location=1.5)
        assert shifted.log_density(x) == pytest.approx(base.log_density(x - 1.5))


class TestValidation:
    def test_families_constant(self):
        assert set(FAMILIES) == {
            "gaussian", "laplace", "uniform", "generalized_normal", "discrete_symmetric",
        }

    def test_unknown_family(self):
        with pytest.raises(DistributionError):
            NoiseSpec("cauchy")

    def test_gennorm_needs_positive_beta(self):
        with pytest.raises(DistributionError):
            NoiseSpec.generalized_normal(0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_gennorm_needs_finite_beta(self, beta):
        # an infinite beta would pass construction and then fail in moments()
        # with a math domain error, and sample() would draw only +-1
        with pytest.raises(DistributionError, match="'shape_beta': expected a finite number"):
            NoiseSpec.generalized_normal(beta)

    def test_gennorm_beta_refused_where_moments_overflow(self):
        # E[B^6] passes float range just below beta = 0.0383; moments() and
        # standardized() used to raise OverflowError there
        with pytest.raises(DistributionError, match="'shape_beta': 0.038 is too small"):
            NoiseSpec.generalized_normal(0.038)
        rep = NoiseSpec.generalized_normal(0.039).standardized().moments()
        assert all(math.isfinite(v) for v in dataclasses.astuple(rep))

    def test_scale_positive(self):
        with pytest.raises(DistributionError):
            NoiseSpec.laplace(scale=0.0)

    def test_bad_values_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(NoiseSpec)}
        assert {key for key, _ in BAD_NOISE_FIELDS} == fields

    @pytest.mark.parametrize("key,build", BAD_NOISE_FIELDS)
    def test_constructor_refuses_what_noise_syntax_refuses(self, key, build):
        with pytest.raises(DistributionError, match=f"bad value for '{key}'"):
            build()

    def test_fields_take_canonical_types(self):
        spec = NoiseSpec.generalized_normal(np.int64(2), location=1, scale=np.float32(0.5))
        assert [type(v) for v in (spec.shape_beta, spec.location, spec.scale)] == [float] * 3
        assert spec == NoiseSpec("generalized_normal", 1.0, 0.5, 2.0)


class TestThreePointLaw:
    def test_draws_and_moments_pinned(self):
        # three-point draws feed every builtin's default treatment noise, so
        # these literals pin the results digests too
        spec = NoiseSpec.three_point()
        root2 = 1.4142135623730951
        assert spec.sample(8, 0).tolist() == [0.0, 0.0, -root2, -root2, root2, root2, 0.0, 0.0]
        assert spec.mean() == 0.0
        assert spec.moments() == MomentReport(
            variance=1.0000000000000002, fourth_moment=1.9999999999999996,
            sixth_moment=3.999999999999999)

    def test_family_name_is_the_three_point_law(self):
        assert NoiseSpec("discrete_symmetric", 1.0, 2.0) == NoiseSpec.three_point(1.0, 2.0)

