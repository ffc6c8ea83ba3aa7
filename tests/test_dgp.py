import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from plrica import (
    DEFAULT_MULTI_THETA,
    Dataset,
    DgpError,
    NoiseSpec,
    PlrSpec,
    UnknownNonlinearityError,
    apply_nonlinearity,
    build_linear_mixing,
    multi_treatment_theta,
    resolve,
    simulate,
)
from plrica.dgp import nuisance_t, nuisance_y

# one value config text refuses per field, for every PlrSpec field but the blocks
BAD_SPEC_FIELDS = [
    ("p", True), ("p", 2.0), ("m", True), ("m", 1.5), ("theta", "3"), ("theta", [1.0, True]),
    ("theta", [math.nan]), ("theta", math.inf), ("nuisance", 3), ("nuisance", ""),
    ("leaky_slope", True), ("leaky_slope", math.nan), ("leaky_slope", math.inf),
    ("noise_x", "laplace"),
    ("noise_t", None), ("noise_y", 1.0), ("sparsity_keep_prob", True),
    ("standardize_noise", "no"), ("standardize_noise", 1), ("tie_ab", 1),
]


class TestThetaPrefix:
    def test_prefixes(self):
        for m in range(1, 6):
            assert np.array_equal(multi_treatment_theta(m), DEFAULT_MULTI_THETA[:m])

    @pytest.mark.parametrize("m", [0, 6, -1])
    def test_out_of_range(self, m):
        with pytest.raises(DgpError):
            multi_treatment_theta(m)


class TestNonlinearities:
    def test_linear_identity(self):
        x = np.linspace(-2, 2, 7)
        assert np.array_equal(apply_nonlinearity("linear", x), x)

    def test_relu(self):
        assert apply_nonlinearity("relu", np.array([-5.0]))[0] == 0.0
        assert apply_nonlinearity("relu", np.array([2.5]))[0] == 2.5

    def test_leaky_relu_slope(self):
        assert apply_nonlinearity("leaky_relu", np.array([-5.0]), slope=0.2)[0] == pytest.approx(-1.0)
        assert apply_nonlinearity("leaky_relu", np.array([3.0]), slope=0.2)[0] == 3.0

    def test_tanh_and_sigmoid(self):
        assert apply_nonlinearity("tanh", np.array([0.5]))[0] == pytest.approx(np.tanh(0.5))
        assert apply_nonlinearity("sigmoid", np.array([0.0]))[0] == pytest.approx(0.5)

    def test_unknown_name(self):
        with pytest.raises(UnknownNonlinearityError):
            apply_nonlinearity("swish", np.zeros(1))

    def test_sigmoid_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_nonlinearity("sigmoid", np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_matches_scalar_formula(self):
        x = np.linspace(-700.0, 700.0, 14001)
        got = apply_nonlinearity("sigmoid", x)
        want = np.array([1.0 / (1.0 + math.exp(-t)) for t in x])
        # np.exp may differ from libm's exp by one ulp, a relative eps; the
        # add and the divide round once more on each side, so the two
        # values agree to 3 eps relative
        assert np.all(np.abs(got - want) <= 3 * np.finfo(float).eps * want)


class TestPlrSpecValidation:
    def test_theta_defaults_to_prefix(self):
        spec = PlrSpec(p=4, m=3)
        assert np.allclose(spec.theta, DEFAULT_MULTI_THETA[:3])

    def test_theta_length_mismatch(self):
        with pytest.raises(DgpError):
            PlrSpec(p=2, m=2, theta=[1.0])

    def test_bad_p(self):
        with pytest.raises(DgpError):
            PlrSpec(p=0)

    def test_boolean_p_refused(self):
        with pytest.raises(DgpError, match="bad value for 'p': expected an integer, got True"):
            PlrSpec(p=True)

    def test_boolean_m_refused(self):
        with pytest.raises(DgpError, match="bad value for 'm': expected an integer, got True"):
            PlrSpec(p=2, m=True)

    def test_tie_ab_restrictions(self):
        with pytest.raises(DgpError):
            PlrSpec(p=2, m=2, tie_ab=True)
        with pytest.raises(DgpError):
            PlrSpec(p=2, m=1, nuisance="tanh", tie_ab=True)
        with pytest.raises(DgpError):
            PlrSpec(p=1, m=1, a_block=[[1.0]], b_block=[1.0], tie_ab=True)

    def test_sparsity_range(self):
        with pytest.raises(DgpError):
            PlrSpec(p=2, sparsity_keep_prob=0.0)

    def test_block_shape_check(self):
        with pytest.raises(DgpError):
            PlrSpec(p=3, m=1, a_block=[[1.0, 2.0]], b_block=[1.0, 2.0, 3.0])

    def test_noise_type_check(self):
        with pytest.raises(DgpError):
            PlrSpec(p=2, noise_x="laplace")

    def test_bad_values_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(PlrSpec)} - {"a_block", "b_block"}
        assert {key for key, _ in BAD_SPEC_FIELDS} == fields

    @pytest.mark.parametrize("key,value", BAD_SPEC_FIELDS)
    def test_constructor_refuses_what_config_text_refuses(self, key, value):
        with pytest.raises(DgpError, match=f"bad value for '{key}'"):
            PlrSpec(**{"p": 2, key: value})

    def test_fields_take_canonical_types(self):
        spec = PlrSpec(p=np.int64(3), m=2, theta=[1, np.float32(0.5)], leaky_slope=1,
                       sparsity_keep_prob=1)
        assert type(spec.p) is int and spec.theta.dtype == float
        assert spec.theta.tolist() == [1.0, 0.5]
        assert type(spec.leaky_slope) is float and type(spec.sparsity_keep_prob) is float

    def test_spec_is_frozen(self):
        spec = PlrSpec(p=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.m = 2


class TestResolve:
    def test_resolved_passthrough(self):
        spec = PlrSpec(p=1, m=1, theta=[2.0], a_block=[[0.5]], b_block=[0.3])
        assert spec.is_resolved
        assert resolve(spec, np.random.default_rng(0)) is spec

    def test_fills_blocks(self):
        spec = PlrSpec(p=3, m=2)
        out = resolve(spec, np.random.default_rng(1))
        assert out.is_resolved
        assert np.asarray(out.a_block).shape == (2, 3)
        assert np.asarray(out.b_block).shape == (3,)

    def test_deterministic_given_rng_state(self):
        spec = PlrSpec(p=4, m=1)
        a = resolve(spec, np.random.default_rng(7))
        b = resolve(spec, np.random.default_rng(7))
        assert np.array_equal(a.a_block, b.a_block)
        assert np.array_equal(a.b_block, b.b_block)

    def test_tie_ab_makes_blocks_equal(self):
        spec = PlrSpec(p=3, m=1, tie_ab=True)
        out = resolve(spec, np.random.default_rng(3))
        assert np.array_equal(np.asarray(out.a_block)[0], np.asarray(out.b_block))

    def test_sparsity_masks_entries(self):
        spec = PlrSpec(p=50, m=1, sparsity_keep_prob=0.2)
        out = resolve(spec, np.random.default_rng(5))
        frac = np.mean(np.asarray(out.b_block) != 0.0)
        assert 0.02 <= frac <= 0.5

    def test_nonlinear_rows_unit_norm(self):
        spec = PlrSpec(p=6, m=1, nuisance="tanh")
        out = resolve(spec, np.random.default_rng(9))
        assert np.linalg.norm(np.asarray(out.a_block)[0]) == pytest.approx(1.0)
        assert np.linalg.norm(np.asarray(out.b_block)) == pytest.approx(1.0)


class TestSimulate:
    def test_shapes_and_names(self):
        ds = simulate(PlrSpec(p=3, m=2), 50, seed=0)
        assert ds.columns.shape == (50, 6)
        assert ds.n == 50 and ds.p == 3 and ds.m == 2
        assert ds.column_names == ("x_0", "x_1", "x_2", "t_0", "t_1", "y")
        assert ds.x.shape == (50, 3)
        assert ds.t.shape == (50, 2)
        assert ds.y.shape == (50,)

    def test_bitwise_seed_determinism(self):
        spec = PlrSpec(p=2, m=1)
        a = simulate(spec, 100, seed=11)
        b = simulate(spec, 100, seed=11)
        assert np.array_equal(a.columns, b.columns)
        c = simulate(spec, 100, seed=12)
        assert not np.array_equal(a.columns, c.columns)

    def test_linear_structure_exact(self):
        # columns must reproduce the structural equations from the stored sources
        spec = PlrSpec(p=2, m=2, theta=[1.5, -0.5])
        ds = simulate(spec, 200, seed=4)
        gt = ds.ground_truth
        xi = gt.sources[:, :2]
        eta = gt.sources[:, 2:4]
        eps = gt.sources[:, 4]
        a = np.asarray(gt.spec.a_block)
        b = np.asarray(gt.spec.b_block)
        t_want = xi @ a.T + eta
        y_want = xi @ b + t_want @ gt.theta + eps
        assert np.max(np.abs(ds.t - t_want)) <= 1e-12
        assert np.max(np.abs(ds.y - y_want)) <= 1e-12

    def test_mixing_consistency(self):
        spec = PlrSpec(p=3, m=1, theta=[2.0])
        ds = simulate(spec, 100, seed=6)
        mixing, _ = build_linear_mixing(ds.ground_truth.spec)
        want = ds.ground_truth.sources @ mixing.T
        assert np.max(np.abs(ds.columns - want)) <= 1e-10

    def test_nonlinear_structure(self):
        spec = PlrSpec(p=4, m=1, theta=[1.55], nuisance="sigmoid")
        ds = simulate(spec, 150, seed=8)
        gt = ds.ground_truth
        xi = gt.sources[:, :4]
        eta = gt.sources[:, 4]
        a = np.asarray(gt.spec.a_block)[0]
        t_want = apply_nonlinearity("sigmoid", xi @ a) + eta
        assert np.max(np.abs(ds.t[:, 0] - t_want)) <= 1e-12

    def test_noise_standardization_default(self):
        spec = PlrSpec(p=1, m=1, noise_t=NoiseSpec.laplace(scale=9.0))
        ds = simulate(spec, 100_000, seed=10)
        eta = ds.ground_truth.sources[:, 1]
        assert abs(eta.var() - 1.0) < 0.05

    def test_standardization_can_be_disabled(self):
        spec = PlrSpec(p=1, m=1, noise_t=NoiseSpec.laplace(scale=3.0),
                       standardize_noise=False)
        ds = simulate(spec, 100_000, seed=10)
        eta = ds.ground_truth.sources[:, 1]
        assert abs(eta.var() - 18.0) < 1.0

    def test_source_independence(self):
        ds = simulate(PlrSpec(p=1, m=1), 100_000, seed=13)
        s = ds.ground_truth.sources
        corr = np.corrcoef(s.T)
        off = corr[np.triu_indices(3, k=1)]
        assert np.max(np.abs(off)) < 0.02

    def test_bad_n(self):
        with pytest.raises(DgpError):
            simulate(PlrSpec(p=1), 0, seed=0)

    def test_boolean_n_refused(self):
        with pytest.raises(DgpError, match="bad value for 'n': expected an integer, got True"):
            simulate(PlrSpec(p=1), True, seed=0)


class TestMixingMatrices:
    def test_product_is_identity(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, 4))
            spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-2, 2, m)), rng)
            mixing, unmixing = build_linear_mixing(spec)
            d = p + m + 1
            assert np.max(np.abs(mixing @ unmixing - np.eye(d))) <= 1e-12

    def test_unit_determinant(self):
        spec = resolve(PlrSpec(p=5, m=2), np.random.default_rng(2))
        mixing, unmixing = build_linear_mixing(spec)
        assert np.linalg.det(mixing) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(unmixing) == pytest.approx(1.0, abs=1e-9)

    def test_unresolved_rejected(self):
        with pytest.raises(DgpError):
            build_linear_mixing(PlrSpec(p=2, m=1))

    def test_nonlinear_rejected(self):
        spec = resolve(PlrSpec(p=2, m=1, nuisance="tanh"), np.random.default_rng(0))
        with pytest.raises(DgpError):
            build_linear_mixing(spec)


class TestDataset:
    def test_csv_round_trip_bitwise(self, tmp_path):
        ds = simulate(PlrSpec(p=3, m=2), 25, seed=2)
        path = tmp_path / "sample.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.p == 3 and back.m == 2
        assert np.array_equal(back.columns, ds.columns)
        assert back.ground_truth is None

    def test_csv_round_trip_without_covariates(self, tmp_path):
        ds = Dataset(columns=simulate(PlrSpec(p=2, m=1), 25, seed=2).columns[:, 2:], p=0, m=1)
        path = tmp_path / "p0.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == "t_0,y"
        back = Dataset.from_csv(path)
        assert (back.p, back.m) == (0, 1)
        assert np.array_equal(back.columns, ds.columns)

    @pytest.mark.filterwarnings("error")
    def test_csv_without_rows_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "x_0,t_0,y\n", "x_0,t_0,y\n\n"):
            path.write_text(text)
            with pytest.raises(DgpError, match="needs a header line and at least one row"):
                Dataset.from_csv(path)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DgpError):
            Dataset.from_csv(path)

    def test_direct_construction_checks(self):
        with pytest.raises(DgpError):
            Dataset(columns=np.zeros((5, 3)), p=3, m=1)

    @pytest.mark.parametrize("p, m", [(-1, 2), (1, 0), (True, 1), (1, True), (1.0, 1)])
    def test_impossible_block_sizes_refused(self, p, m):
        # the column count matches p + m + 1 in each case, so only the
        # block sizes themselves can be refused
        columns = np.random.default_rng(0).standard_normal((20, int(p) + int(m) + 1))
        with pytest.raises(DgpError, match="'p'|'m'|p >= 0 and m >= 1"):
            Dataset(columns=columns, p=p, m=m)

    def test_no_covariates_and_numpy_sizes_taken(self):
        ds = Dataset(columns=np.random.default_rng(0).standard_normal((20, 2)),
                     p=np.int64(0), m=np.int64(1))
        assert (ds.p, ds.m) == (0, 1) and type(ds.p) is int and type(ds.m) is int
        assert ds.x.shape == (20, 0) and ds.t.shape == (20, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_refused(self, bad, tmp_path):
        columns = simulate(PlrSpec(p=2), 10, seed=3).columns
        columns[4, 1] = bad
        with pytest.raises(DgpError, match="data contain non-finite values"):
            Dataset(columns=columns, p=2, m=1)
        path = tmp_path / "bad.csv"
        path.write_text(f"x_0,x_1,t_0,y\n1,2,3,4\n5,{bad!r},7,8\n")
        with pytest.raises(DgpError, match="data contain non-finite values"):
            Dataset.from_csv(path)


def _assemble(spec, n, seed):
    """(columns, sources) built here from simulate's draws, in its draw order."""
    rng = np.random.default_rng(seed)
    resolved = resolve(spec, rng)
    nx, nt, ny = resolved.effective_noises()
    xi = nx.sample((n, spec.p), rng)
    eta = nt.sample((n, spec.m), rng)
    eps = ny.sample(n, rng)
    t = nuisance_t(resolved, xi) + eta
    y = nuisance_y(resolved, xi) + t @ resolved.theta + eps
    return np.column_stack([xi, t, y]), np.column_stack([xi, eta, eps])


GROUND_TRUTH_SPECS = {
    "laplace": PlrSpec(p=3, m=1),
    "gennorm covariates, two treatments": PlrSpec(p=4, m=2, noise_x=NoiseSpec.generalized_normal(0.5),
                                                  noise_t=NoiseSpec.three_point()),
    "sigmoid, unstandardized": PlrSpec(p=2, m=1, nuisance="sigmoid", standardize_noise=False,
                                       noise_y=NoiseSpec.uniform(location=1.0, scale=2.0)),
}


class TestGroundTruthBlocks:
    @pytest.mark.parametrize("name", sorted(GROUND_TRUTH_SPECS))
    def test_columns_and_sources_bitwise(self, name):
        spec = GROUND_TRUTH_SPECS[name]
        ds = simulate(spec, 300, seed=21)
        columns, sources = _assemble(spec, 300, 21)
        assert ds.columns.tobytes() == columns.tobytes()
        assert ds.ground_truth.sources.shape == sources.shape
        assert ds.ground_truth.sources.tobytes() == sources.tobytes()

    def test_covariate_block_is_a_view_of_columns(self):
        ds = simulate(PlrSpec(p=3, m=2), 50, seed=3)
        gt = ds.ground_truth
        assert np.shares_memory(gt.xi, ds.columns)
        assert gt.xi.shape == (50, 3) and gt.eta.shape == (50, 2) and gt.eps.shape == (50,)


@pytest.mark.parametrize("noise_x", [NoiseSpec.laplace(), NoiseSpec.generalized_normal(1.0)])
def test_simulate_peak_memory(noise_x):
    """simulate holds no n x p temporaries beyond the columns and one draw.

    tracemalloc sees numpy's data buffers. A separate sources array puts
    the peak at about 3 times the columns' size, and a generalized-normal
    draw through n x p temporaries at about 3.8 times.
    """
    spec = PlrSpec(p=50, noise_x=noise_x)
    simulate(spec, 10, seed=0)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        ds = simulate(spec, 20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * ds.columns.nbytes
