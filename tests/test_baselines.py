import math
import tracemalloc

import numpy as np
import pytest

from plrica import (
    BaselineError,
    Dataset,
    NoiseSpec,
    PlrSpec,
    estimate_homl,
    estimate_oml,
    fit_nuisance,
    homl_estimate,
    lasso_fit,
    ols_joint,
    oml_estimate,
    scenario_from_config,
    simulate,
)
from plrica.harness import run_cell_replication
from plrica.ica import CONTRASTS


def laplace_spec(p=2, theta=3.0, **kw):
    lap = NoiseSpec.laplace()
    return PlrSpec(p=p, m=1, theta=[theta], noise_x=lap, noise_t=lap, noise_y=lap, **kw)


class TestFitNuisance:
    def test_residuals_of_lasso_fit_on_the_other_folds(self):
        # n = 101 in 2 folds: fold 0 holds the 51 even rows, so its model
        # trained on 50 rows and fold 1's on 51, each at its own penalty
        ds = simulate(laplace_spec(p=2), 101, seed=0)
        ry, rt = fit_nuisance(ds, lambda_scale=2.0, folds=2)
        residuals = np.column_stack([rt, ry])
        targets = np.column_stack([ds.t, ds.y])
        for k, n_train in ((0, 50), (1, 51)):
            test = np.arange(101) % 2 == k
            assert int((~test).sum()) == n_train
            lam = 2.0 * math.sqrt(math.log(2 + 1 + 1) / n_train)
            for j in range(2):
                single = lasso_fit(ds.x[~test], targets[~test, j], lam)
                want = targets[test, j] - single.predict(ds.x[test])
                assert np.max(np.abs(residuals[test, j] - want)) <= 1e-12

    def test_residual_shapes(self):
        spec = PlrSpec(p=3, m=2, noise_x=NoiseSpec.laplace(),
                       noise_t=NoiseSpec.laplace(), noise_y=NoiseSpec.laplace())
        ds = simulate(spec, 120, seed=2)
        ry, rt = fit_nuisance(ds)
        assert ry.shape == (120,)
        assert rt.shape == (120, 2)

    def test_residuals_out_of_fold(self):
        # prediction quality on held-out halves: residual var must be close
        # to the noise floor, far below the raw outcome variance
        ds = simulate(laplace_spec(p=5), 4000, seed=3)
        ry, _ = fit_nuisance(ds)
        assert ry.var() < 0.5 * ds.y.var()

    @pytest.mark.parametrize("folds", [2, 3])
    def test_copies_no_rows(self, folds):
        # one centered copy of the columns and (p + m + 1)^2 statistics per
        # fold; copying a fold's training rows of X alone would add
        # (folds - 1) / folds of the covariate block
        ds = simulate(laplace_spec(p=50), 5000, seed=5)
        fit_nuisance(ds, folds=folds)
        tracemalloc.start()
        try:
            fit_nuisance(ds, folds=folds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.columns.nbytes

    def test_wide_fig2_cell_stays_finite(self):
        # fig2's n = 100, p = 50 cell trains each fold on 50 rows, where an
        # active set's Gram block can be singular; the start is refused
        # there, and the estimates stay near those of coordinate descent
        # from zero (the literals), which an unguarded start moves to 1e16
        cfg = scenario_from_config("scenario = fig2_linear_homl\nmethods = [oml, homl]\n"
                                   "sample_sizes = [100]\ncovariate_dims = [50]")
        zero_start = [
            [2.6274646632860055, 2.572433727513836], [2.1917694833609915, 0.8627287119476014],
            [2.5456535366013027, 4.353642610569457], [2.752617604278375, 4.521177992694821],
            [2.203343068907836, 2.8023593505155495], [2.184310443985266, 3.3855089889129446],
            [2.36734975920871, -5.4454937538205535], [2.440984889718908, -0.26095672406058046],
            [2.4206333867798673, 1.3450192196721216], [2.0326497397833085, -1.4925956924288166],
        ]
        got = [[float(r.theta_hat[0])
                for r in run_cell_replication(cfg, cfg.cells()[0], i)["logcosh"]]
               for i in range(len(zero_start))]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(np.array(got) - zero_start)) <= 1e-2

    def test_bad_args(self):
        ds = simulate(laplace_spec(), 50, seed=4)
        with pytest.raises(BaselineError):
            fit_nuisance(ds, folds=1)
        with pytest.raises(BaselineError):
            fit_nuisance(ds, lambda_scale=0.0)

    @pytest.mark.parametrize("key, value", [("lambda_scale", math.nan), ("lambda_scale", math.inf),
                                            ("folds", math.nan), ("folds", math.inf),
                                            ("folds", 2.0)])
    def test_non_finite_and_float_settings_refused(self, key, value):
        ds = simulate(laplace_spec(), 50, seed=4)
        with pytest.raises(BaselineError, match=f"bad value for '{key}'"):
            fit_nuisance(ds, **{key: value})
        with pytest.raises(BaselineError, match=f"bad value for '{key}'"):
            estimate_oml(ds, **{key: value})


class TestMomentEstimators:
    def test_oml_closed_form(self):
        ry = np.array([2.0, 4.0, 6.0])
        rt = np.array([1.0, 2.0, 3.0])
        assert oml_estimate(ry, rt).theta_hat[0] == pytest.approx(2.0)

    def test_homl_zero_denominator_raises(self):
        with pytest.raises(BaselineError):
            homl_estimate(np.ones(4), np.zeros(4))

    def test_homl_flags_gaussian_residual(self):
        rng = np.random.default_rng(5)
        rt = rng.standard_normal(10_000)
        ry = 2.0 * rt + rng.standard_normal(10_000)
        est, diag = homl_estimate(ry, rt)
        assert diag.degenerate.tolist() == [True]
        assert "degenerate" in est.diagnostics.notes

    def test_homl_accepts_heavy_tailed_residual(self):
        rng = np.random.default_rng(6)
        rt = rng.laplace(size=10_000) / math.sqrt(2)
        ry = 2.0 * rt + rng.standard_normal(10_000)
        est, diag = homl_estimate(ry, rt)
        assert diag.degenerate.tolist() == [False]
        assert est.theta_hat[0] == pytest.approx(2.0, abs=0.15)

    def test_oml_homl_agree_on_large_linear_sample(self):
        ds = simulate(laplace_spec(p=3), 100_000, seed=7)
        oml = estimate_oml(ds)
        homl, diag = estimate_homl(ds)
        assert abs(oml.theta_hat[0] - homl.theta_hat[0]) <= 0.05
        assert oml.theta_hat[0] == pytest.approx(3.0, abs=0.05)
        assert diag.degenerate.tolist() == [False]

    def test_oml_dependent_treatment_residuals_raise(self):
        rt = np.random.default_rng(8).laplace(size=(50, 1))
        with pytest.raises(BaselineError, match="linearly dependent"):
            oml_estimate(rt[:, 0], np.hstack([rt, 2.0 * rt]))
        with pytest.raises(BaselineError, match="linearly dependent"):
            oml_estimate(rt[:, 0], np.zeros(50))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_treatment_keeps_the_scalar_bits(self, seed):
        # the (n, m) forms at m = 1 give the scalar ratios' floats exactly,
        # whether the treatment residual comes as (n,) or as (n, 1)
        rng = np.random.default_rng(seed)
        rt = rng.laplace(size=300 + 1000 * seed)
        ry = 1.55 * rt + rng.standard_normal(rt.size)
        ts, tp_mean = CONTRASTS["cube"](rt)
        psi = ts - ts.mean() - rt * tp_mean
        denominator = float((rt * psi).mean())
        for shaped in (rt, rt[:, None]):
            assert oml_estimate(ry, shaped).theta_hat.tolist() == [float(ry @ rt) / float(rt @ rt)]
            est, diag = homl_estimate(ry, shaped)
            assert est.theta_hat.tolist() == [float((ry * psi).mean()) / denominator]
            assert diag.denominator.tolist() == [denominator]
            assert est.diagnostics.condition_value == denominator

    def test_residual_shapes_checked(self):
        with pytest.raises(BaselineError, match="treatment residuals"):
            oml_estimate(np.ones(5), np.ones(4))
        with pytest.raises(BaselineError, match="treatment residuals"):
            homl_estimate(np.ones((5, 1)), np.ones(5))
        with pytest.raises(BaselineError, match="n >= 2"):
            homl_estimate(np.ones(1), np.ones(1))


MULTI = PlrSpec(p=10, m=2, theta=[1.55, 0.65], noise_x=NoiseSpec.laplace(),
                noise_t=NoiseSpec.laplace(), noise_y=NoiseSpec.laplace())


class TestSeveralTreatments:
    def test_exact_on_noiseless_correlated_columns(self):
        # ry = rt theta exactly, with treatment residuals that share a
        # component: both moment steps must solve the m x m system, not
        # take one column at a time
        rng = np.random.default_rng(30)
        shared = rng.laplace(size=2000)
        rt = np.column_stack([shared + rng.laplace(size=2000), shared - rng.uniform(-2, 2, 2000),
                              rng.laplace(size=2000)])
        theta = np.array([1.55, -0.65, 2.0])
        assert np.allclose(oml_estimate(rt @ theta, rt).theta_hat, theta, rtol=0, atol=1e-12)
        est, diag = homl_estimate(rt @ theta, rt)
        assert np.allclose(est.theta_hat, theta, rtol=0, atol=1e-12)
        assert diag.denominator.shape == diag.condition_value.shape == diag.degenerate.shape == (3,)
        smallest = min(diag.denominator, key=abs)
        assert est.diagnostics.condition_value == smallest != diag.denominator[0]

    def test_residual_baselines_centre_on_theta(self):
        # 8 seeds at n = 5000: each mean estimate within 3 Monte-Carlo
        # standard errors of theta, column by column. The default penalty's
        # shrinkage leaves oml about 0.01 low at this n (ROADMAP, small open
        # FOUND lines), which 8 seeds cannot resolve and 60 do; this checks
        # the moment steps, not the first stage
        residuals = [fit_nuisance(simulate(MULTI, 5000, seed=s)) for s in range(8)]
        assert residuals[0][1].shape == (5000, 2)
        for name, moment in (("oml", oml_estimate), ("homl", lambda *r: homl_estimate(*r)[0])):
            thetas = np.array([moment(ry, rt).theta_hat for ry, rt in residuals])
            se = thetas.std(axis=0, ddof=1) / math.sqrt(len(thetas))
            assert np.all(np.abs(thetas.mean(axis=0) - MULTI.theta) <= 3.0 * se), name

    def test_oml_error_shrinks_like_root_n(self):
        def mean_error(n):
            return np.mean([np.linalg.norm(estimate_oml(simulate(MULTI, n, seed=s)).theta_hat
                                           - MULTI.theta) for s in range(12)])
        # four times the rows, half the error
        assert 0.35 <= mean_error(5000) / mean_error(1250) <= 0.7

    def test_homl_flags_each_column_on_its_own(self):
        # Gaussian noise on treatment 0 leaves its moment denominator at
        # zero; three-point noise on treatment 1 keeps its own near -1
        rng = np.random.default_rng(31)
        n, p = 20_000, 3
        x = rng.laplace(size=(n, p))
        eta = np.column_stack([rng.standard_normal(n), NoiseSpec.three_point().sample(n, rng)])
        t = x @ rng.uniform(-1.0, 1.0, (p, 2)) + eta
        y = x @ rng.uniform(-1.0, 1.0, p) + t @ MULTI.theta + rng.laplace(size=n)
        est, diag = estimate_homl(Dataset(columns=np.column_stack([x, t, y]), p=p, m=2))
        assert diag.degenerate.tolist() == [True, False]
        assert diag.denominator[1] == pytest.approx(-1.0, abs=0.1)
        assert est.diagnostics.notes == "degenerate orthogonal moment"
        assert est.diagnostics.condition_value == diag.denominator[0]


class TestOlsJoint:
    def test_exact_on_noiseless_columns(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((200, 2))
        t = rng.standard_normal((200, 1))
        y = x @ np.array([2.0, -1.0]) + 3.0 * t[:, 0] + 1.0
        ds = Dataset(columns=np.column_stack([x, t, y]), p=2, m=1)
        est = ols_joint(ds)
        assert est.theta_hat[0] == pytest.approx(3.0, abs=1e-10)

    def test_multi_treatment(self):
        spec = PlrSpec(p=2, m=2, theta=[1.5, -0.5], noise_x=NoiseSpec.laplace(),
                       noise_t=NoiseSpec.laplace(), noise_y=NoiseSpec.laplace())
        ds = simulate(spec, 50_000, seed=10)
        est = ols_joint(ds)
        assert np.allclose(est.theta_hat, [1.5, -0.5], atol=0.03)

    def test_duplicated_covariate_reports_rank(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 3))
        x[:, 2] = x[:, 0]
        t = x[:, :1] + rng.laplace(size=(300, 1))
        y = 3.0 * t[:, 0] + x[:, 0] - x[:, 1] + rng.laplace(size=300)
        full = ols_joint(Dataset(columns=np.column_stack([x, t, y]), p=3, m=1))
        assert full.diagnostics.notes == "rank-deficient design"
        assert full.diagnostics.condition_value == 4.0  # 1 + 3 + 1 columns, one repeated
        assert np.all(np.isfinite(full.theta_hat))
        assert full.theta_hat[0] == pytest.approx(3.0, abs=0.2)
        distinct = ols_joint(Dataset(columns=np.column_stack([x[:, :2], t, y]), p=2, m=1))
        assert distinct.diagnostics.notes == ""
        assert distinct.diagnostics.condition_value == 4.0


def _lstsq_reference(ds):
    """Rank and treatment coefficients from np.linalg.lstsq on the explicit (X, T, 1) design."""
    design = np.column_stack([ds.x, ds.t, np.ones((ds.n, 1))])
    coef, _, rank, _ = np.linalg.lstsq(design, ds.y, rcond=None)
    q = design.shape[1] - 1
    return rank, design.shape[1], coef[q - ds.m : q]


def _collinear_design(covariate_noise, treatment_noise=1.0):
    """x_2 = x_0 + covariate_noise * N(0, 1) and t = x_0 + treatment_noise * Laplace."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((400, 3))
    x[:, 2] = x[:, 0] + covariate_noise * rng.standard_normal(400)
    t = x[:, :1] + treatment_noise * rng.laplace(size=(400, 1))
    y = 3.0 * t[:, 0] + x[:, 0] - x[:, 1] + rng.laplace(size=400)
    return Dataset(columns=np.column_stack([x, t, y]), p=3, m=1)


_LOCSCALE_NOISE = NoiseSpec.laplace(location=4.0, scale=0.5)

OLS_CASES = {
    "three_treatments": lambda: simulate(PlrSpec(p=5, m=3, theta=[1.5, -0.5, 2.0]), 2000, seed=21),
    "near_duplicate_covariate": lambda: _collinear_design(1e-9),
    "exact_duplicate_covariate": lambda: _collinear_design(0.0),
    "all_zero_covariate": lambda: Dataset(columns=np.column_stack(
        [np.zeros(400), _collinear_design(1.0).columns]), p=4, m=1),
    # whiten accepts it, but the factor read alone misses theta by 1e-9: needs the refinement step
    "treatment_near_covariate": lambda: _collinear_design(1.0, treatment_noise=1e-3),
    "location_4_scale_half": lambda: simulate(PlrSpec(
        p=10, theta=[1.55], noise_x=_LOCSCALE_NOISE, noise_t=_LOCSCALE_NOISE,
        noise_y=_LOCSCALE_NOISE, standardize_noise=False), 5000, seed=23),
}


@pytest.mark.parametrize("case", list(OLS_CASES))
def test_ols_joint_matches_lstsq(case):
    ds = OLS_CASES[case]()
    rank, columns, theta = _lstsq_reference(ds)
    est = ols_joint(ds)
    assert est.diagnostics.condition_value == float(rank)
    assert est.diagnostics.notes == ("" if rank == columns else "rank-deficient design")
    assert est.theta_hat.shape == (ds.m,)
    assert np.max(np.abs(est.theta_hat - theta)) <= 1e-10 * np.max(np.abs(theta))


class TestDegeneracyFlagAcrossSeeds:
    def test_gaussian_treatment_noise_flags(self):
        flagged = 0
        for seed in range(5):
            spec = PlrSpec(p=2, m=1, theta=[1.0], noise_x=NoiseSpec.laplace(),
                           noise_t=NoiseSpec.gaussian(), noise_y=NoiseSpec.laplace())
            ds = simulate(spec, 10_000, seed=seed)
            _, diag = estimate_homl(ds)
            flagged += bool(diag.degenerate[0])
        assert flagged >= 4

    def test_three_point_treatment_noise_never_flags(self):
        for seed in range(5):
            spec = PlrSpec(p=2, m=1, theta=[1.0], noise_x=NoiseSpec.laplace(),
                           noise_t=NoiseSpec.three_point(), noise_y=NoiseSpec.laplace())
            ds = simulate(spec, 10_000, seed=seed)
            _, diag = estimate_homl(ds)
            assert diag.degenerate.tolist() == [False]
