import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from plrica import baselines, harness
from plrica.harness import AXES
from plrica import (
    BUILTIN_SCENARIOS,
    CellStats,
    ConfigError,
    NoiseSpec,
    PlrSpec,
    RankDeficientError,
    ResultRecord,
    ScenarioConfig,
    aggregate,
    band_verdict,
    cell_seed,
    csv_digest,
    emit_csv,
    estimate_homl,
    estimate_ica,
    estimate_oml,
    lasso_fit,
    metrics,
    read_records,
    run_scenario,
    scenario_from_config,
    simulate,
    spec_from_config,
)
from plrica.harness import (
    estimate,
    parse_config_text,
    parse_noise,
    run_cell_replication,
    scenario_id_for_cell,
    spec_for_cell,
)

LAP = NoiseSpec.laplace()


def tiny_config(**kw):
    base = dict(
        scenario="tiny",
        plr=PlrSpec(p=2, m=1, theta=[1.0], noise_x=LAP, noise_t=LAP, noise_y=LAP),
        sample_sizes=(120,),
        covariate_dims=(2,),
        seeds=2,
        methods=("ica", "ols"),
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestMetrics:
    def test_exact_zero(self):
        m = metrics(np.array([2.0]), np.array([2.0]))
        assert m.mse == 0.0
        assert m.relative_error == 0.0

    def test_two_norm(self):
        m = metrics(np.array([1.0, 1.0]), np.array([1.3, 0.6]))
        assert m.mse == pytest.approx(0.5)
        assert m.relative_error == pytest.approx(0.5 / math.sqrt(2))

    @pytest.mark.parametrize("theta_hat,dist", [
        ([-2.05, 1.1], math.hypot(3.05, 3.1)),
        ([-1.1, 2.0], math.hypot(2.1, 4.0)),
        ([2.0, -1.0], math.hypot(1.0, 1.0)),
    ], ids=["swapped", "sign-flipped", "swapped-and-flipped"])
    def test_swapped_or_flipped_estimate_scores_its_plain_distance(self, theta_hat, dist):
        # effects are read in column order with fixed signs; no alignment hides a misread
        m = metrics(np.array([1.0, -2.0]), np.array(theta_hat))
        assert m.mse == pytest.approx(dist, rel=1e-15)
        assert m.relative_error == pytest.approx(dist / math.sqrt(5.0), rel=1e-15)

    def test_nan_propagates(self):
        m = metrics(np.array([1.0]), np.array([np.nan]))
        assert math.isnan(m.mse) and math.isnan(m.relative_error)

    @pytest.mark.parametrize("theta_true, theta_hat, message", [
        ([1.0, 2.0], [1.0], r"shape mismatch: \(2,\) vs \(1,\)"),
        ([[1.0, 2.0]], [[1.0, 2.0]], r"effect vectors must be 1-d, got \(1, 2\) and \(1, 2\)"),
        ([1.0, np.nan], [1.0, 2.0], "theta_true must be finite"),
        ([np.inf], [1.0], "theta_true must be finite"),
    ])
    def test_incomparable_vectors_refused(self, theta_true, theta_hat, message):
        with pytest.raises(ValueError, match=message):
            metrics(np.array(theta_true), np.array(theta_hat))


class TestScenarioConfig:
    def test_cells_product_order(self):
        cfg = tiny_config(sample_sizes=(100, 200), contrasts=("logcosh", "cube"))
        cells = cfg.cells()
        assert len(cells) == 4
        assert cells[0] == {"n": 100, "dim_x": 2, "contrast": "logcosh"}
        assert cells[1] == {"n": 100, "dim_x": 2, "contrast": "cube"}
        assert cells[2]["n"] == 200

    def test_dim_sweep_requires_drawn_blocks(self):
        with pytest.raises(ConfigError):
            tiny_config(
                plr=PlrSpec(p=2, m=1, theta=[1.0], a_block=[[1.0, 0.0]],
                            b_block=[1.0, 0.0], noise_x=LAP, noise_t=LAP, noise_y=LAP),
                covariate_dims=(2, 5),
            )

    def test_coefficient_sweep_conflicts_with_tie(self):
        with pytest.raises(ConfigError):
            tiny_config(
                plr=PlrSpec(p=2, m=1, theta=[1.0], tie_ab=True,
                            noise_x=LAP, noise_t=LAP, noise_y=LAP),
                coefficient_values=(0.0, 1.0),
            )

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            tiny_config(methods=("ica", "ridge"))

    @pytest.mark.parametrize("key", ["seeds", "folds", "max_iter"])
    @pytest.mark.parametrize("value", [2.5, 10.0, True])
    def test_integer_settings_refuse_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            tiny_config(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("scales", "inf"), ("locations", "nan"), ("coefficient_values", "nan"),
        ("beta_values", "inf"), ("leaky_slopes", "inf"),
    ])
    def test_non_finite_float_axis_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = [1.0, {value}]")

    @pytest.mark.parametrize("text,where", [
        ("treatment_counts = [1, 6]", "treatment_counts = 6"),
        ("noise_x = gennorm(inf)", r"'noise_x'.*gennorm\(inf\)"),
        ("tie_ab = true\nnonlinearities = [relu]", "nonlinearities = relu"),
        ("tie_ab = true\ntreatment_counts = [2]", "treatment_counts = 2"),
        ("beta_values = [0.004, 1.0]", r"beta_values = 0.004.*'shape_beta'"),
    ])
    def test_process_values_the_spec_refuses_are_config_errors(self, text, where):
        # each of these used to pass validation and stop the grid at its first bad cell
        with pytest.raises(ConfigError, match=where):
            scenario_from_config(f"scenario = custom\n{text}")

    def test_error_names_the_cell_by_config_key(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_config("scenario = custom\nscales = [1.0, -1.0]")
        assert str(err.value).startswith("cell (sample_sizes = 1000, covariate_dims = 10, "
                                         "scales = -1.0, contrasts = logcosh): ")
        assert "scale must be positive" in str(err.value)

    def test_bad_cell_stops_the_grid_before_any_replication(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_cell_replication", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="treatment_counts = 6"):
            run_scenario(tiny_config(treatment_counts=(1, 6)), workers=1)
        assert calls == []

    def test_bad_cell_refused_at_construction(self):
        # a built config is a runnable one, however it was built
        with pytest.raises(ConfigError, match=r"^cell \(sample_sizes = 120, covariate_dims = 2, "
                                              r"treatment_counts = 6, contrasts = logcosh\): "):
            tiny_config(treatment_counts=(1, 6))
        with pytest.raises(ConfigError, match="treatment_counts = 6"):
            dataclasses.replace(tiny_config(), treatment_counts=(1, 6))

    def test_residual_methods_run_on_cells_with_several_treatments(self):
        cfg = scenario_from_config("scenario = fig3_left_multi\nmethods = [ica, oml, homl, ols]\n"
                                   "sample_sizes = [400]\ncovariate_dims = [3]\nseeds = 1")
        recs = run_scenario(cfg, workers=1)
        assert [(r.n_treat, r.method) for r in recs] \
            == [(m, method) for m in (1, 2, 5) for method in ("ica", "oml", "homl", "ols")]
        for rec in recs:
            assert rec.theta_hat.shape == (rec.n_treat,)
            assert np.isfinite(rec.mse), (rec.method, rec.n_treat, rec.notes)

    @pytest.mark.parametrize("plr", [None, "junk"])
    def test_plr_must_be_a_process_spec(self, plr):
        # the template goes through its converter like every other field
        with pytest.raises(ConfigError, match="bad value for 'plr': expected a PlrSpec"):
            ScenarioConfig(scenario="x", plr=plr, sample_sizes=(200,), covariate_dims=(3,),
                           seeds=1)
        with pytest.raises(ConfigError, match="unknown config keys \\['plr'\\]"):
            scenario_from_config("plr = junk")

    def test_slope_axis_takes_the_scalar_key_rules(self):
        cfg = scenario_from_config("scenario = custom\nnuisance = leaky_relu\nleaky_slopes = [0.0]")
        scalar = scenario_from_config("scenario = custom\nnuisance = leaky_relu\nleaky_slope = 0.0")
        assert spec_for_cell(cfg, cfg.cells()[0]).leaky_slope == scalar.plr.leaky_slope == 0.0

    def test_theta_redrawn_only_for_a_new_treatment_count(self):
        cfg = scenario_from_config("scenario = custom\ntheta = 3.0\ntreatment_counts = [1, 2]")
        thetas = [spec_for_cell(cfg, cell).theta.tolist() for cell in cfg.cells()]
        assert thetas == [[3.0], [1.55, 0.65]]

    def test_builtins_all_validate(self):
        for name, text in BUILTIN_SCENARIOS.items():
            assert isinstance(text, str), name
            if name == "custom":
                continue
            cfg = scenario_from_config(f"scenario = {name}")
            assert cfg.cells(), name


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        cfg = tiny_config()
        cell = cfg.cells()[0]
        s0 = cell_seed(cfg.scenario, cell, 0)
        assert s0 == cell_seed(cfg.scenario, cell, 0)
        assert s0 != cell_seed(cfg.scenario, cell, 1)
        assert s0 != cell_seed("other", cell, 0)

    def test_known_value_stable(self):
        # frozen: the digest-derived seed must never drift across releases
        assert cell_seed("default_test", {"n": 200, "dim_x": 2, "contrast": "logcosh"}, 0) \
            == 1586863246163916480

    @pytest.mark.parametrize("contrast", ["exp", "cube"])
    def test_every_contrast_takes_its_logcosh_twins_seed(self, contrast):
        for index in range(3):
            twin = cell_seed("default_test", {"n": 200, "dim_x": 2, "contrast": "logcosh"}, index)
            assert cell_seed("default_test", {"n": 200, "dim_x": 2, "contrast": contrast},
                             index) == twin

    def test_all_axes_order_and_seed_stable(self):
        # frozen like the value above, for a grid that sets every axis
        cfg = ScenarioConfig(
            scenario="all_axes", plr=PlrSpec(p=3),
            sample_sizes=(300,), covariate_dims=(3,), treatment_counts=(1,),
            beta_values=(1.5,), nonlinearities=("tanh",), leaky_slopes=(0.3,),
            locations=(0.5,), scales=(2.0,), contrasts=("cube",),
            sparsity_levels=(0.6,), coefficient_values=(0.25,),
        )
        (cell,) = cfg.cells()
        assert list(cell) == ["n", "dim_x", "n_treat", "beta", "nonlinearity", "slope",
                              "location", "scale", "contrast", "sparsity", "coefficient"]
        # the cube cell draws the data of its logcosh twin, whose seed this is;
        # 1042894417430622746 while the contrast was hashed with the rest
        assert cell_seed(cfg.scenario, cell, 4) == 8826907118085438149
        assert cell_seed(cfg.scenario, {**cell, "contrast": "logcosh"}, 4) == 8826907118085438149
        assert scenario_id_for_cell(cfg, cell) == \
            "all_axes[slope=0.3,location=0.5,scale=2,sparsity=0.6,coefficient=0.25]"


class TestSpecForCell:
    def test_dim_and_treatments(self):
        cfg = tiny_config(covariate_dims=(7,), treatment_counts=(2,))
        cell = cfg.cells()[0]
        spec = spec_for_cell(cfg, cell)
        assert spec.p == 7 and spec.m == 2
        assert np.allclose(spec.theta, [1.55, 0.65])

    def test_beta_swaps_covariate_noise(self):
        cfg = tiny_config(beta_values=(0.6,))
        spec = spec_for_cell(cfg, cfg.cells()[0])
        assert spec.noise_x.family == "generalized_normal"
        assert spec.noise_x.shape_beta == 0.6

    def test_location_scale_disable_standardization(self):
        cfg = tiny_config(locations=(2.0,), scales=(4.0,))
        spec = spec_for_cell(cfg, cfg.cells()[0])
        assert not spec.standardize_noise
        assert spec.noise_t.location == 2.0
        assert spec.noise_t.scale == 4.0

    def test_coefficient_pins_blocks(self):
        cfg = tiny_config(coefficient_values=(0.5,))
        spec = spec_for_cell(cfg, cfg.cells()[0])
        a = np.asarray(spec.a_block)
        b = np.asarray(spec.b_block)
        assert a[0, 0] == 0.5 and b[0] == 0.5
        assert np.all(a[:, 1:] == 0.0) and np.all(b[1:] == 0.0)

    def test_scenario_id_suffix(self):
        cfg = tiny_config(leaky_slopes=(0.1, 0.5),
                          plr=PlrSpec(p=2, m=1, theta=[1.0], nuisance="leaky_relu",
                                      noise_x=LAP, noise_t=LAP, noise_y=LAP))
        ids = [scenario_id_for_cell(cfg, c) for c in cfg.cells()]
        assert ids == ["tiny[slope=0.1]", "tiny[slope=0.5]"]

    def test_close_values_get_distinct_labels(self):
        # %g spells both slopes 0.1, and one label would merge the two cells in aggregate
        cfg = scenario_from_config("nuisance = leaky_relu\nleaky_slopes = [0.1, 0.1000001]\n"
                                   "sample_sizes = [120]\ncovariate_dims = [2]\nseeds = 2\n"
                                   "methods = [ols]")
        ids = [scenario_id_for_cell(cfg, c) for c in cfg.cells()]
        assert ids == ["custom[slope=0.1]", "custom[slope=0.1000001]"]
        stats = aggregate(run_scenario(cfg))
        assert [key[0] for key in stats] == ids
        assert [cell.count for cell in stats.values()] == [2, 2]


class TestRunAndEmit:
    def test_replication_records(self):
        cfg = tiny_config()
        recs = run_cell_replication(cfg, cfg.cells()[0], 0)["logcosh"]
        assert [r.method for r in recs] == ["ica", "ols"]
        for r in recs:
            assert r.n == 120 and r.dim_x == 2
            assert np.isfinite(r.mse)
            assert r.wall_ms >= 0.0
        assert recs[0].contrast == "logcosh"
        assert recs[1].contrast == ""

    def test_residual_methods_share_one_nuisance_fit(self, monkeypatch):
        calls = []
        real_fit = harness.fit_nuisance

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        cfg = tiny_config(methods=("oml", "homl"))
        cell = cfg.cells()[0]
        monkeypatch.setattr(harness, "fit_nuisance", counting_fit)
        recs = run_cell_replication(cfg, cell, 0)["logcosh"]
        assert len(calls) == 1
        data_seq, _ = np.random.SeedSequence(cell_seed(cfg.scenario, cell, 0)).spawn(2)
        dataset = simulate(spec_for_cell(cfg, cell), cell["n"], data_seq)
        settings = dict(lambda_scale=cfg.lambda_scale, folds=cfg.folds, tol=cfg.tol,
                        max_iter=cfg.max_iter)
        want_oml = estimate_oml(dataset, **settings).theta_hat
        want_homl = estimate_homl(dataset, **settings)[0].theta_hat
        assert np.array_equal(recs[0].theta_hat, want_oml)
        assert np.array_equal(recs[1].theta_hat, want_homl)

    def test_nuisance_fit_builds_one_gram_per_fold(self, monkeypatch):
        # each fold builds its training moment matrix once and the solver
        # fits all m + 1 targets on it; the residuals are those of one
        # lasso_fit call per target
        calls = []
        real_solver = baselines.gram_lasso

        def counting_solver(moments, p, *args, **kwargs):
            calls.append(len(moments) - p)
            return real_solver(moments, p, *args, **kwargs)

        spec = PlrSpec(p=5, m=2, theta=[1.0, 0.5], noise_x=LAP, noise_t=LAP, noise_y=LAP)
        dataset = simulate(spec, 300, seed=3)
        monkeypatch.setattr(baselines, "gram_lasso", counting_solver)
        ry, rt = baselines.fit_nuisance(dataset, folds=3)
        assert calls == [3, 3, 3]
        columns = np.column_stack([dataset.t, dataset.y])
        residuals = np.column_stack([rt, ry])
        for k in range(3):
            test = np.arange(dataset.n) % 3 == k
            train = ~test
            lam = math.sqrt(math.log(5 + 2 + 1) / int(train.sum()))
            for j in range(3):
                single = lasso_fit(dataset.x[train], columns[train, j], lam)
                want = columns[test, j] - single.predict(dataset.x[test])
                assert np.max(np.abs(residuals[test, j] - want)) <= 1e-12

    def test_replication_routes_every_method_through_estimate(self, monkeypatch):
        seen = []
        real_estimate = harness.estimate

        def recording_estimate(method, dataset, **kwargs):
            seen.append(method)
            return real_estimate(method, dataset, **kwargs)

        cfg = tiny_config(methods=("ica", "oml", "homl", "ols"))
        monkeypatch.setattr(harness, "estimate", recording_estimate)
        recs = run_cell_replication(cfg, cfg.cells()[0], 0)["logcosh"]
        assert seen == ["ica", "oml", "homl", "ols"]
        assert all(np.isfinite(r.mse) for r in recs)

    def test_failure_becomes_nan_record(self):
        # two folds need four rows, so at n = 3 the nuisance fit raises; each
        # residual method must survive with nan metrics and the error name in
        # the notes, even though the two share one nuisance fit
        cfg = tiny_config(sample_sizes=(3,), methods=("oml", "homl"))
        recs = run_cell_replication(cfg, cfg.cells()[0], 0)["logcosh"]
        assert [r.method for r in recs] == ["oml", "homl"]
        for rec in recs:
            assert math.isnan(rec.mse)
            assert not rec.converged
            assert "BaselineError" in rec.notes

    def test_run_scenario_order_and_determinism(self):
        cfg = tiny_config()
        a = run_scenario(cfg, workers=1)
        b = run_scenario(cfg, workers=2)
        assert len(a) == len(cfg.cells()) * cfg.seeds * len(cfg.methods)
        for ra, rb in zip(a, b):
            assert ra.theta_hat == rb.theta_hat
            assert ra.seed == rb.seed

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config()
        recs = run_scenario(cfg, workers=1)
        path = tmp_path / "out.csv"
        emit_csv(recs, path)
        back = read_records(path)
        assert len(back) == len(recs)
        for ra, rb in zip(recs, back):
            assert ra.scenario == rb.scenario
            assert ra.theta_hat == rb.theta_hat
            assert ra.beta is None and rb.beta is None
            assert ra.converged == rb.converged

    def test_digest_masks_wall_clock(self, tmp_path):
        cfg = tiny_config()
        recs = run_scenario(cfg, workers=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(recs, p1)
        bumped = [type(r)(**{**r.__dict__, "wall_ms": r.wall_ms + 5.0}) for r in recs]
        emit_csv(bumped, p2)
        assert csv_digest(p1) == csv_digest(p2)

    def test_digest_sensitive_to_results(self, tmp_path):
        cfg = tiny_config()
        recs = run_scenario(cfg, workers=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(recs, p1)
        changed = [type(r)(**{**r.__dict__, "seed": r.seed + 1}) for r in recs]
        emit_csv(changed, p2)
        assert csv_digest(p1) != csv_digest(p2)

    @pytest.mark.parametrize("header", [
        "x_0,t_0,y",  # no wall_ms column
        "spec,var_homl,wall_ms",  # a wall_ms column in another file
        ",".join(reversed([name for name, _, _, _ in harness.RESULT_COLUMNS])),
        None,  # empty file
    ])
    def test_digest_refuses_what_read_records_refuses(self, tmp_path, header):
        path = tmp_path / "other.csv"
        path.write_text("" if header is None else header + "\n1,2,3\n", encoding="utf-8")
        for read in (csv_digest, read_records):
            with pytest.raises(ConfigError, match="unexpected results header"):
                read(path)

    def test_aggregate_matches_after_round_trip(self, tmp_path):
        cfg = tiny_config()
        recs = run_scenario(cfg, workers=1)
        path = tmp_path / "agg.csv"
        emit_csv(recs, path)
        direct = aggregate(recs)
        loaded = aggregate(read_records(path))
        assert set(direct) == set(loaded)
        for key in direct:
            assert direct[key].mean_mse == pytest.approx(loaded[key].mean_mse, abs=1e-12)
            assert direct[key].count == loaded[key].count

    def test_aggregate_keys(self):
        cfg = tiny_config()
        stats = aggregate(run_scenario(cfg, workers=1))
        keys = sorted(stats)
        assert keys[0] == ("tiny", 120, 2, 1, None, "linear", "", "ols")
        assert keys[1] == ("tiny", 120, 2, 1, None, "linear", "logcosh", "ica")
        assert all(isinstance(v, CellStats) for v in stats.values())


def hand_records():
    return [
        ResultRecord(scenario="tiny", n=200, dim_x=2, n_treat=1, beta=None,
                     nonlinearity="linear", contrast="logcosh", method="ica", seed=12345,
                     theta_true=np.array([1.5]), theta_hat=np.array([1.25]), mse=0.25,
                     relative_error=1 / 6, converged=True, wall_ms=3.5),
        ResultRecord(scenario="tiny[slope=0.1,scale=2]", n=500, dim_x=5, n_treat=2, beta=1.5,
                     nonlinearity="tanh", contrast="", method="ols", seed=2**62,
                     theta_true=np.array([1.55, 0.65]), theta_hat=np.array([math.nan, 0.5]),
                     mse=math.nan, relative_error=math.nan, converged=False, wall_ms=0.125),
    ]


class TestEstimateDispatch:
    def dataset(self):
        spec = PlrSpec(p=3, m=1, theta=[2.0], noise_x=LAP, noise_t=LAP, noise_y=LAP)
        return simulate(spec, 400, seed=5)

    def test_residual_methods_fit_their_own_residuals(self):
        ds = self.dataset()
        settings = dict(lambda_scale=0.5, folds=3, tol=1e-6, max_iter=200)
        got_oml = estimate("oml", ds, **settings)
        got_homl = estimate("homl", ds, **settings)
        assert np.array_equal(got_oml.theta_hat, estimate_oml(ds, **settings).theta_hat)
        assert np.array_equal(got_homl.theta_hat, estimate_homl(ds, **settings)[0].theta_hat)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method 'ridge'"):
            estimate("ridge", self.dataset())


class TestCsvFormat:
    def test_exact_text(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(hand_records(), path)
        assert path.read_bytes().decode("utf-8") == (
            "scenario,n,dim_x,n_treat,beta,nonlinearity,contrast,method,seed,"
            "theta_true,theta_hat,mse,rel_err,converged,wall_ms\r\n"
            "tiny,200,2,1,,linear,logcosh,ica,12345,1.5,1.25,0.25,0.16666666666666666,"
            "true,3.5\r\n"
            '"tiny[slope=0.1,scale=2]",500,5,2,1.5,tanh,,ols,4611686018427387904,'
            "1.55;0.65000000000000002,nan;0.5,nan,nan,false,0.125\r\n"
        )

    def test_round_trip_every_field(self, tmp_path):
        path = tmp_path / "out.csv"
        recs = hand_records()
        emit_csv(recs, path)
        back = read_records(path)
        assert len(back) == len(recs)
        for ra, rb in zip(recs, back):
            for f in dataclasses.fields(ResultRecord):
                a, b = getattr(ra, f.name), getattr(rb, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b, equal_nan=True), f.name
                elif isinstance(a, float) and math.isnan(a):
                    assert math.isnan(b), f.name
                else:
                    assert a == b and type(a) is type(b), f.name

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(hand_records(), path)
        path.write_text(path.read_text().replace("rel_err", "relative_error", 1))
        with pytest.raises(ConfigError, match="header"):
            read_records(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(hand_records(), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="expected 15 columns, got 14"):
            read_records(path)


def band_cell(mean_mse, std_mse):
    """CellStats of ten runs as aggregate gives it; a nan mean is a cell whose every run failed."""
    failed = 10 if math.isnan(mean_mse) else 0
    return CellStats(count=10, n_failed=failed, n_converged=10 - failed, mean_mse=mean_mse,
                     std_mse=std_mse, mean_squared_error=mean_mse**2)


class TestBands:
    @pytest.mark.parametrize("a, b, verdict", [
        ((1.0, 0.1), (2.0, 0.1), "a_better"),
        ((2.0, 0.1), (1.0, 0.1), "b_better"),
        ((1.0, 0.1), (1.05, 0.2), "overlap"),
        ((1.0, 0.2), (1.3, 0.2), "overlap"),
        ((1.3, 0.2), (1.0, 0.2), "overlap"),
        # a cell with no finite run is never the better one
        ((1.0, 0.1), (math.nan, 0.0), "a_better"),
        ((math.nan, 0.0), (1.0, 0.1), "b_better"),
        ((math.nan, 0.0), (math.nan, 0.0), "overlap"),
    ])
    def test_band_verdict(self, a, b, verdict):
        assert band_verdict(band_cell(*a), band_cell(*b)) == verdict


class TestWorkers:
    def test_fewer_than_one_rejected(self):
        with pytest.raises(ConfigError, match="workers must be at least 1, got 0"):
            run_scenario(tiny_config(), workers=0)

    def test_pool_gets_at_most_one_worker_per_unit(self, monkeypatch, tmp_path):
        # the pool starts every worker at its first submit, so a pool wider
        # than the grid would fork processes that never get a unit; the two
        # contrasts of a replication are one unit, so 6 cell replications make 3
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = tiny_config(seeds=3, methods=("ols",), contrasts=("logcosh", "cube"))
        for workers, path in ((8, tmp_path / "pool.csv"), (1, tmp_path / "serial.csv")):
            emit_csv(run_scenario(cfg, workers=workers), path)
        assert widths == [3]
        assert csv_digest(tmp_path / "pool.csv") == csv_digest(tmp_path / "serial.csv")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_follow_cells_then_replications(self, workers):
        cfg = tiny_config(sample_sizes=(120, 150), seeds=3, methods=("ols",))
        recs = run_scenario(cfg, workers=workers)
        assert [(r.n, r.seed) for r in recs] == [(cell["n"], cell_seed(cfg.scenario, cell, i))
                                                 for cell in cfg.cells() for i in range(3)]


def contrast_grid(contrasts=("logcosh", "exp"), **kw):
    """Two data cells, a sparsity axis after the contrast axis (so a data
    cell's contrasts are not adjacent in grid order), two replications."""
    return tiny_config(sample_sizes=(150,), sparsity_levels=(0.5, 1.0), contrasts=contrasts,
                       **kw)


def row(record):
    """Every field of a record but wall_ms, vectors by their bytes."""
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                 for name, value in record.__dict__.items() if name != "wall_ms")


class TestSharedReplication:
    """Every contrast of a replication fits one dataset with one whitening."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_follow_cells_replications_and_methods(self, workers):
        cfg = contrast_grid()
        recs = run_scenario(cfg, workers=workers)
        want = [(scenario_id_for_cell(cfg, cell), cell_seed(cfg.scenario, cell, i), method,
                 cell["contrast"] if method == "ica" else "")
                for cell in cfg.cells() for i in range(2) for method in ("ica", "ols")]
        assert [(r.scenario, r.seed, r.method, r.contrast) for r in recs] == want

    def test_contrasts_of_a_replication_share_seed_and_truth(self):
        cfg = contrast_grid(contrasts=("logcosh", "exp", "cube"))
        recs = run_scenario(cfg, workers=1)
        shared = {}
        for rec in recs:
            shared.setdefault((rec.scenario, rec.seed), set()).add(rec.theta_true.tobytes())
        assert len(shared) == 2 * cfg.seeds  # one seed per data cell and replication
        assert all(len(truths) == 1 for truths in shared.values())
        ica_recs = [r for r in recs if r.method == "ica"]
        assert len({(r.scenario, r.seed, r.contrast) for r in ica_recs}) == len(ica_recs) == 12

    def test_logcosh_rows_equal_a_logcosh_only_grid(self):
        alone = run_scenario(contrast_grid(contrasts=("logcosh",)), workers=1)
        cfg = contrast_grid(contrasts=("cube", "logcosh"))
        per_cell = cfg.seeds * len(cfg.methods)
        logcosh = [rec for k, rec in enumerate(run_scenario(cfg, workers=1))
                   if cfg.cells()[k // per_cell]["contrast"] == "logcosh"]
        assert [row(r) for r in logcosh] == [row(r) for r in alone]

    def test_one_simulate_and_one_whitening_per_unit(self, monkeypatch):
        calls = {"simulate": 0, "whitening": 0}

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(harness, "simulate", counting("simulate", harness.simulate))
        monkeypatch.setattr(harness, "_sweep_whitening",
                            counting("whitening", harness._sweep_whitening))
        cfg = contrast_grid(contrasts=("logcosh", "exp", "cube"))
        recs = run_scenario(cfg, workers=1)
        assert len(recs) == 6 * 2 * 2
        assert calls == {"simulate": 4, "whitening": 4}  # 2 data cells x 2 replications

    def test_shared_whitening_estimates_equal_estimate_ica_alone(self):
        cfg = contrast_grid(contrasts=("logcosh", "exp", "cube"))
        recs = run_scenario(cfg, workers=1)
        for k, cell in enumerate(cfg.cells()):
            for i in range(cfg.seeds):
                rec = recs[(k * cfg.seeds + i) * 2]
                assert (rec.method, rec.contrast) == ("ica", cell["contrast"])
                data_seq, ica_seq = np.random.SeedSequence(rec.seed).spawn(2)
                dataset = simulate(spec_for_cell(cfg, cell), cell["n"], data_seq)
                alone = estimate_ica(dataset, contrast=cell["contrast"], tol=cfg.tol,
                                     max_iter=cfg.max_iter, seed=ica_seq)
                assert rec.theta_hat.tobytes() == alone.theta_hat.tobytes()
                assert rec.converged == alone.diagnostics.converged

    def test_a_failed_whitening_is_retried_by_each_contrast(self, monkeypatch):
        calls = []

        def refusing(*args):
            calls.append(1)
            raise RankDeficientError("data covariance is rank deficient")

        monkeypatch.setattr(harness, "_sweep_whitening", refusing)
        cfg = tiny_config(seeds=1, contrasts=("logcosh", "exp", "cube"))
        by_contrast = run_cell_replication(cfg, cfg.cells()[0], 0)
        assert {contrast: [(r.method, r.contrast) for r in recs]
                for contrast, recs in by_contrast.items()} == {
            contrast: [("ica", contrast), ("ols", "")] for contrast in ("logcosh", "exp", "cube")}
        recs = [rec for recs in by_contrast.values() for rec in recs]
        assert len(calls) == 3
        for rec in recs:
            assert math.isnan(rec.mse) == (rec.method == "ica")
        assert all("RankDeficientError" in r.notes for r in recs if r.method == "ica")


    def test_aggregate_counts_a_contrast_blind_record_once(self):
        # ols stands under both contrasts with one record per replication; its
        # cell summarizes the 2 datasets, as on a one-contrast grid of the same seeds
        both = aggregate(run_scenario(tiny_config(contrasts=("logcosh", "exp"))))
        alone = aggregate(run_scenario(tiny_config()))
        key = ("tiny", 120, 2, 1, None, "linear", "", "ols")
        assert both[key].count == 2
        assert both[key] == alone[key]
        assert [stats.count for stats in both.values()] == [2, 2, 2]


class TestConfigParsing:
    def test_flat_keys_and_comments(self):
        text = """
        # comment line
        scenario = default_test
        seeds = 4        # trailing comment
        sample_sizes = [100, 200]
        """
        out = parse_config_text(text)
        assert out == {"scenario": "default_test", "seeds": 4,
                       "sample_sizes": [100, 200]}

    @pytest.mark.parametrize("line,sample_sizes", [
        ("noise_x = gennorm(1, (2, 3))", None),
        ("noise_x = laplace(loc=(1, scale=2)", None),
        ("methods = [ica(a, b)]", None),
        ("sample_sizes = [1,,2]", None),
        ("sample_sizes = [100, 200,]", (100, 200)),
    ])
    def test_list_items_split_at_every_comma(self, line, sample_sizes):
        # no list key or noise argument takes parentheses, so none are tracked
        if sample_sizes is None:
            with pytest.raises(ConfigError):
                scenario_from_config(line)
        else:
            assert scenario_from_config(line).sample_sizes == sample_sizes

    @pytest.mark.parametrize("line", ['label = "run#2"', "label = 'x", "label = '"])
    def test_unclosed_quote_refused(self, line):
        # '#' starts a comment, so the first line's value is '"run'
        with pytest.raises(ConfigError, match="unclosed quote"):
            scenario_from_config(line)
        assert scenario_from_config('label = "run2"').scenario == "run2"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seeds = 2\nseeds = 3\n")

    def test_noise_aliases(self):
        assert parse_noise("normal").family == "gaussian"
        assert parse_noise("laplace(scale=2)").scale == 2.0
        g = parse_noise("gennorm(0.7, scale=2)")
        assert g.family == "generalized_normal"
        assert g.shape_beta == 0.7 and g.scale == 2.0
        tp = parse_noise("three_point")
        assert tp.family == "discrete_symmetric"
        u = parse_noise("uniform(loc=1, scale=3)")
        assert u.location == 1.0 and u.scale == 3.0

    def test_bad_noise(self):
        with pytest.raises(ConfigError):
            parse_noise("cauchy")
        with pytest.raises(ConfigError, match="bad noise 'gennorm'.*shape_beta"):
            parse_noise("gennorm")

    @pytest.mark.parametrize("text", ["generalized_normal(1.5)", "discrete", "laplace(location=1)",
                                      "gennorm(beta=1.5)", "gennorm(shape_beta=1.5)"])
    def test_only_documented_noise_spellings(self, text):
        with pytest.raises(ConfigError, match="bad noise|unknown noise argument"):
            parse_noise(text)

    @pytest.mark.parametrize("text,message", [
        ("laplace(loc=abc)",
         "bad noise 'laplace(loc=abc)': bad value for 'loc': expected a number, got 'abc'"),
        ("gennorm(true)", "bad noise 'gennorm(true)': bad value for 'beta': expected a number, got True"),
        ("uniform(1, '2')", "bad noise \"uniform(1, '2')\": bad value for 'scale': "
                            "expected a number, got '2'"),
        ("laplace(1, loc=2)", "argument 'loc' given twice in 'laplace(1, loc=2)'"),
        ("laplace(scale=1, scale=2)", "argument 'scale' given twice in 'laplace(scale=1, scale=2)'"),
    ])
    def test_noise_arguments_reported_as_written(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_noise(text)
        assert str(info.value) == message

    def test_scenario_from_builtin_with_overrides(self):
        cfg = scenario_from_config("scenario = default_test\nseeds = 5\n")
        assert cfg.scenario == "default_test"
        assert cfg.seeds == 5

    def test_label_renames(self):
        cfg = scenario_from_config("scenario = default_test\nlabel = my_run\n")
        assert cfg.scenario == "my_run"

    def test_bad_label_is_reported_by_its_key(self):
        with pytest.raises(ConfigError, match="bad value for 'label': expected a non-empty name"):
            scenario_from_config("scenario = custom\nlabel = 3")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario_from_config("scenario = fig9_nothing\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            scenario_from_config("scenario = default_test\nbogus = 1\n")

    def test_ica_mode_is_not_a_config_key(self):
        # the contrast iteration is symmetric only
        with pytest.raises(ConfigError, match=r"unknown config keys \['ica_mode'\]"):
            scenario_from_config("ica_mode = deflation")
        assert "ica_mode" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert ScenarioConfig.ica_mode == "parallel"

    def test_custom_spec_keys(self):
        text = """
        scenario = custom
        m = 1
        theta = [2.0]
        noise_x = laplace
        noise_t = laplace
        noise_y = laplace
        sample_sizes = [150]
        covariate_dims = [3]
        methods = [ica]
        seeds = 1
        """
        cfg = scenario_from_config(text)
        assert cfg.cells()[0]["dim_x"] == 3
        assert cfg.plr.noise_x.family == "laplace"
        recs = run_scenario(cfg, workers=1)
        assert len(recs) == 1

    def test_spec_override_redraws_theta_for_new_treatment_count(self):
        cfg = scenario_from_config("scenario = fig3_left_multi\nm = 2\ntreatment_counts = [2]")
        assert np.array_equal(cfg.plr.theta, [1.55, 0.65])
        assert np.array_equal(spec_for_cell(cfg, cfg.cells()[0]).theta, [1.55, 0.65])

    def test_user_key_replaces_builtin_key(self):
        cfg = scenario_from_config("scenario = appE_contrast\nsample_sizes = [300, 600]")
        assert cfg.sample_sizes == (300, 600)
        assert cfg.contrasts == ("logcosh", "exp", "cube")
        cfg = scenario_from_config("scenario = default_test\nnoise_x = gaussian")
        assert cfg.plr.noise_x == NoiseSpec.gaussian()
        assert cfg.plr.noise_t == LAP

    def test_gaussian_confounders_builtin(self):
        cfg = scenario_from_config("scenario = gaussian_confounders")
        assert cfg.methods == ("ica", "oml", "homl", "ols")
        assert cfg.plr.noise_t == cfg.plr.noise_y == LAP
        covariates = {(cell["n"], cell["dim_x"]): spec_for_cell(cfg, cell).noise_x
                      for cell in cfg.cells() if cell["beta"] == 2.0}
        assert sorted(covariates) == [(n, p) for n in (1000, 5000) for p in (2, 10, 20)]
        assert set(covariates.values()) == {NoiseSpec.generalized_normal(2.0)}

    def test_builtin_spec_keys_survive_other_keys(self):
        cfg = scenario_from_config("scenario = appE_slopes\nseeds = 2\nnoise_y = uniform")
        assert cfg.plr.nuisance == "leaky_relu"
        assert cfg.plr.sparsity_keep_prob == 1.0
        assert np.array_equal(cfg.plr.theta, [1.55])
        assert cfg.plr.noise_x == LAP and cfg.plr.noise_y == NoiseSpec.uniform()
        assert cfg.leaky_slopes == (0.01, 0.1, 0.2, 0.5) and cfg.seeds == 2

    def test_dimension_key_rejected_in_scenario(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_config("scenario = default_test\np = 4")

    def test_spec_from_config(self):
        spec = spec_from_config("p = 4\nm = 2\ntheta = [1.0, -1.0]\n")
        assert spec.p == 4 and spec.m == 2


INT_AXES = [name for _, name, convert, _ in AXES if convert is harness._as_int]
FLOAT_AXES = [name for _, name, convert, _ in AXES if convert is harness._as_float]
LIST_FIELDS = [name for _, name, _, _ in AXES] + ["methods"]
# one value config text refuses per rule, for every ScenarioConfig field but plr
BAD_FIELD_VALUES = (
    [(key, v) for key in INT_AXES + ["seeds", "folds", "max_iter"] for v in (True, 2.5)]
    + [(key, v) for key in FLOAT_AXES + ["lambda_scale", "tol"]
       for v in (False, "x", math.inf, math.nan)]
    + [(key, v) for key in ("nonlinearities", "contrasts", "methods", "scenario")
       for v in (None, 3)]
    + [("contrasts", "bogus"), ("methods", "ridge"), ("scenario", "")]
)


class TestStrictConfigValues:
    def test_bad_values_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"plr"}
        assert {key for key, _ in BAD_FIELD_VALUES} == fields

    @pytest.mark.parametrize("key,value", BAD_FIELD_VALUES)
    def test_python_config_refuses_what_text_refuses(self, key, value):
        # the field converters judge a config at construction
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            tiny_config(**{key: (value,) if key in LIST_FIELDS else value})

    def test_python_config_matches_its_config_text(self):
        text = scenario_from_config("scenario = custom\nlabel = tiny\nsample_sizes = 120\n"
                                    "covariate_dims = [2]\nbeta_values = [1]\nmethods = ica")
        built = ScenarioConfig(scenario="tiny", plr=text.plr, sample_sizes=120,
                               covariate_dims=(2,), beta_values=(1,), methods="ica")
        assert repr(built.cells()) == repr(text.cells())
        assert [cell_seed(built.scenario, cell, 0) for cell in built.cells()] \
            == [cell_seed(text.scenario, cell, 0) for cell in text.cells()]
        assert built.methods == text.methods == ("ica",)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_config().seeds = 3

    @pytest.mark.parametrize("key", INT_AXES)
    @pytest.mark.parametrize("value", ["500.7", "2.0", "true", "big"])
    def test_int_axis_rejects_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = [1, {value}]")

    @pytest.mark.parametrize("key", ["seeds", "folds", "max_iter"])
    @pytest.mark.parametrize("value", ["2.9", "3.0", "false"])
    def test_int_scalar_rejects_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = {value}")

    @pytest.mark.parametrize("value", ["1.5", "1.0", "true"])
    def test_treatment_count_rejects_non_integers(self, value):
        with pytest.raises(ConfigError, match="bad value for 'm'"):
            scenario_from_config(f"scenario = custom\nm = {value}")
        with pytest.raises(ConfigError, match="bad value for 'p'"):
            spec_from_config(f"p = {value}")

    def test_integers_accepted(self):
        cfg = scenario_from_config("scenario = custom\nsample_sizes = [500]\nseeds = 2\nm = 2")
        assert cfg.sample_sizes == (500,) and cfg.seeds == 2 and cfg.plr.m == 2

    @pytest.mark.parametrize("key", FLOAT_AXES)
    @pytest.mark.parametrize("value", ["true", "false", "big"])
    def test_float_axis_rejects_non_numbers(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = [1.0, {value}]")

    @pytest.mark.parametrize("key", ["lambda_scale", "tol", "leaky_slope", "sparsity_keep_prob"])
    @pytest.mark.parametrize("value", ["true", "false", "big", "inf", "nan"])
    def test_float_scalar_rejects_non_numbers(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = {value}")

    @pytest.mark.parametrize("key", ["tol", "lambda_scale"])
    def test_integer_past_float_range_refused(self, key):
        # float() of a 400-digit integer overflows; it used to escape as a traceback
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = 1{'0' * 400}")

    @pytest.mark.parametrize("value", ["[1.0, true]", "true"])
    def test_theta_rejects_booleans(self, value):
        with pytest.raises(ConfigError, match="bad value for 'theta'"):
            scenario_from_config(f"scenario = custom\nm = 2\ntheta = {value}")

    def test_floats_accept_integers(self):
        cfg = scenario_from_config("scenario = custom\nlambda_scale = 2\ntol = 1e-5\n"
                                   "scales = [1, 2.5]\nm = 2\ntheta = [3, -1]")
        assert cfg.lambda_scale == 2.0 and cfg.tol == 1e-5
        assert cfg.scales == (1.0, 2.5)
        assert list(cfg.plr.theta) == [3.0, -1.0]

    @pytest.mark.parametrize("key", ["standardize_noise", "tie_ab"])
    @pytest.mark.parametrize("value", ["no", "off", "yes", "1", "True"])
    def test_flags_accept_only_true_false(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            scenario_from_config(f"scenario = custom\n{key} = {value}")

    def test_flag_words_parse(self):
        cfg = scenario_from_config("scenario = custom\nstandardize_noise = false")
        assert cfg.plr.standardize_noise is False
        cfg = scenario_from_config("scenario = appF_robustness")
        assert cfg.plr.tie_ab is True
        assert cfg.cells()
