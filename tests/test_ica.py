import numpy as np
import pytest

from plrica import (
    CONTRASTS,
    CanonicalizationError,
    IcaError,
    NoiseSpec,
    PlrSpec,
    RankDeficientError,
    assemble_unmixing,
    build_linear_mixing,
    canonicalize,
    estimate_ica,
    extract_effects,
    extract_effects_from_mixing,
    fastica,
    get_contrast,
    resolve,
    scenario_from_config,
    simulate,
    stationarity_residual,
    whiten,
)
from plrica.harness import cell_seed, spec_for_cell
from plrica.ica import _sym_decorrelation


def laplace_spec(p=2, m=1, theta=(3.0,)):
    lap = NoiseSpec.laplace()
    return PlrSpec(p=p, m=m, theta=list(theta), noise_x=lap, noise_t=lap, noise_y=lap)


class TestWhiten:
    def test_output_identity_covariance(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        z, k, means = whiten(data)
        cov = z.T @ z / 500
        assert np.max(np.abs(cov - np.eye(4))) <= 1e-10
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-12
        assert k.shape == (4, 4)
        assert means == pytest.approx(data.mean(axis=0))

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(100)
        data = np.column_stack([col, 2 * col, rng.standard_normal(100)])
        with pytest.raises(RankDeficientError):
            whiten(data)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, bad):
        data = np.random.default_rng(2).standard_normal((50, 3))
        data[7, 1] = bad
        with pytest.raises(IcaError, match="data contain non-finite values"):
            whiten(data)

    @pytest.mark.parametrize("text", [
        "scenario = fig2_linear_homl\nsample_sizes = [500]\ncovariate_dims = [10]",
        "scenario = appE_locscale\nsample_sizes = [2000]\ncovariate_dims = [10]\n"
        "locations = [4.0]\nscales = [2.0]",
        "scenario = appE_contrast\nsample_sizes = [500]\ncontrasts = [cube]",
    ])
    def test_bitwise_equal_to_symmetrized_eigh(self, text):
        """whiten skips symmetrizing the covariance; on builtin cells that
        changes no bit of its outputs."""
        config = scenario_from_config(text)
        cell = config.cells()[0]
        data = simulate(spec_for_cell(config, cell), cell["n"],
                        cell_seed(config.scenario, cell, 0)).columns
        means = data.mean(axis=0)
        xc = data - means
        cov = xc.T @ xc / data.shape[0]
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
        k = vecs.T / np.sqrt(vals)[:, None]
        want = (xc @ k.T, k, means)
        got = whiten(data)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        assert [a.flags.c_contiguous for a in got] == [b.flags.c_contiguous for b in want]


class TestContrasts:
    def test_names(self):
        assert set(CONTRASTS) == {"logcosh", "exp", "cube"}

    def test_logcosh_derivative_pair(self):
        u = np.linspace(-3, 3, 11)
        g, gp = get_contrast("logcosh").evaluate(u)
        assert np.allclose(g, np.tanh(u))
        assert gp == pytest.approx(np.mean(1 - np.tanh(u) ** 2), rel=1e-14)

    def test_cube(self):
        g, gp = get_contrast("cube").evaluate(np.array([2.0]))
        assert g[0] == 8.0
        assert gp == 12.0

    def test_exp_at_zero(self):
        g, gp = get_contrast("exp").evaluate(np.zeros(1))
        assert g[0] == 0.0
        assert gp == 1.0

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_means_per_column_and_scalar_for_1d(self, name):
        con = get_contrast(name)
        s = np.random.default_rng(7).standard_normal((200, 3))
        g, gp = con.evaluate(s)
        assert g.shape == s.shape and gp.shape == (3,)
        for j in range(3):
            gj, gpj = con.evaluate(s[:, j])
            assert np.ndim(gpj) == 0
            assert np.array_equal(gj, g[:, j])
            assert gpj == pytest.approx(gp[j], rel=1e-13)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_mean_gprime_matches_finite_difference(self, name):
        con = get_contrast(name)
        u = np.linspace(-3, 3, 61)
        h = 1e-5
        fd = (con.evaluate(u + h)[0] - con.evaluate(u - h)[0]) / (2 * h)
        pointwise = np.array([con.evaluate(np.array([x]))[1] for x in u])
        assert np.allclose(pointwise, fd, rtol=1e-7, atol=1e-8)
        assert con.evaluate(u)[1] == pytest.approx(fd.mean(), rel=1e-7)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_input_unchanged(self, name):
        s = np.random.default_rng(8).standard_normal((50, 4))
        before = s.copy()
        s.flags.writeable = False
        get_contrast(name).evaluate(s)
        assert np.array_equal(s, before)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_out_buffer_gives_identical_values(self, name):
        con = get_contrast(name)
        s = np.random.default_rng(9).standard_normal((50, 4))
        g, gp = con.evaluate(s)
        buf = np.full_like(s, np.nan)
        g_out, gp_out = con.evaluate(s, out=buf)
        assert g_out is buf
        assert np.array_equal(g_out, g) and np.array_equal(gp_out, gp)

    def test_unknown(self):
        with pytest.raises(IcaError):
            get_contrast("quartic")

    def test_takes_names_only(self):
        with pytest.raises(IcaError, match="unknown contrast"):
            get_contrast(get_contrast("cube"))


def _two_pass_parallel(z, contrast, tol, max_iter, w):
    """Reference parallel iteration with separate t and t' calls per step
    and decorrelation through np.linalg.eigh; the fused loop in fastica
    must follow it up to rounding."""
    t, tprime = {
        "logcosh": (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2),
        "exp": (lambda u: u * np.exp(-0.5 * u * u), lambda u: (1.0 - u * u) * np.exp(-0.5 * u * u)),
        "cube": (lambda u: u**3, lambda u: 3.0 * u * u),
    }[contrast]

    def decorrelate(m):
        vals, vecs = np.linalg.eigh(m @ m.T)
        return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ m

    n = z.shape[0]
    w = decorrelate(w)
    for it in range(1, max_iter + 1):
        s = z @ w.T
        w1 = decorrelate((t(s).T @ z) / n - tprime(s).mean(axis=0)[:, None] * w)
        lim = np.max(np.abs(np.abs(np.sum(w1 * w, axis=1)) - 1.0))
        w = w1
        if lim < tol:
            return w, it
    return w, it


class TestFastIca:
    def test_rotation_orthonormal(self):
        ds = simulate(laplace_spec(), 3000, seed=0)
        z, _, _ = whiten(ds.columns)
        res = fastica(z, seed=0)
        w = res.w_rotation
        assert np.max(np.abs(w @ w.T - np.eye(w.shape[0]))) <= 1e-8
        assert res.converged

    def test_seed_determinism(self):
        ds = simulate(laplace_spec(), 2000, seed=1)
        z, _, _ = whiten(ds.columns)
        a = fastica(z, seed=5)
        b = fastica(z, seed=5)
        assert np.array_equal(a.w_rotation, b.w_rotation)

    def test_unknown_mode(self):
        # the iteration is symmetric only
        ds = simulate(laplace_spec(), 500, seed=2)
        z, _, _ = whiten(ds.columns)
        for mode in ("sequential", "deflation"):
            with pytest.raises(IcaError, match="unknown mode"):
                fastica(z, mode=mode)
            with pytest.raises(IcaError, match="unknown mode"):
                estimate_ica(ds, mode=mode)

    @pytest.mark.parametrize("contrast", sorted(CONTRASTS))
    def test_fused_loop_matches_two_pass_reference(self, contrast):
        ds = simulate(laplace_spec(p=3), 2000, seed=11)
        z, _, _ = whiten(ds.columns)
        res = fastica(z, contrast=contrast, tol=1e-8, seed=4)
        w0 = np.random.default_rng(4).standard_normal((z.shape[1], z.shape[1]))
        w_ref, iters_ref = _two_pass_parallel(z, contrast, 1e-8, 1000, w0)
        assert res.converged
        assert res.iterations == iters_ref
        assert np.max(np.abs(res.w_rotation - w_ref)) <= 1e-10

    def test_rank_one_candidate_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(IcaError, match="rank deficient"):
            _sym_decorrelation(np.outer(rng.standard_normal(5), rng.standard_normal(5)))

    def test_stationarity_at_fixed_point(self):
        ds = simulate(laplace_spec(), 5000, seed=3)
        z, k, means = whiten(ds.columns)
        res = fastica(z, contrast="logcosh", tol=1e-6, seed=3)
        fitted = stationarity_residual(z, res.w_rotation[0], "logcosh")
        rng = np.random.default_rng(0)
        w_rand = rng.standard_normal(z.shape[1])
        w_rand /= np.linalg.norm(w_rand)
        random_row = stationarity_residual(z, w_rand, "logcosh")
        assert fitted < 0.02
        assert fitted < random_row / 5


class TestCanonicalize:
    def test_exact_unmixing_recovered_under_scaling_and_permutation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-2, 2, m)), rng)
            _, unmix = build_linear_mixing(spec)
            d = p + m + 1
            perm = rng.permutation(d)
            scales = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
            scrambled = (unmix * scales[:, None])[perm]
            canon = canonicalize(scrambled)
            assert np.max(np.abs(canon - unmix)) <= 1e-12

    def test_tiny_pivot_raises(self):
        bad = np.array([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(CanonicalizationError):
            canonicalize(bad)

    def test_accepts_unmixing_estimate_object(self):
        ds = simulate(laplace_spec(), 4000, seed=5)
        z, k, means = whiten(ds.columns)
        res = fastica(z, seed=5)
        est = assemble_unmixing(res, k, means, "logcosh")
        canon = canonicalize(est)
        assert np.allclose(np.diag(canon), 1.0)
        # w_total must compose rotation and whitening
        assert np.max(np.abs(est.w_total - res.w_rotation @ k)) <= 1e-12


class TestEffectExtraction:
    def test_read_off_negated_entries(self):
        canon = np.array([
            [1.0, 0.0, 0.0],
            [-0.7, 1.0, 0.0],
            [-0.3, -2.5, 1.0],
        ])
        est = extract_effects(canon, p=1, m=1)
        assert est.theta_hat == pytest.approx([2.5])
        assert est.method == "ica"

    def test_mixing_read_matches_on_exact_input(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-2, 2, m)), rng)
            _, unmix = build_linear_mixing(spec)
            canon = canonicalize(unmix)
            a = extract_effects(canon, p, m).theta_hat
            b = extract_effects_from_mixing(canon, p, m).theta_hat
            assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(a - spec.theta)) <= 1e-12

    def test_mixing_read_method_label(self):
        canon = np.eye(3)
        est = extract_effects_from_mixing(canon, 1, 1)
        assert est.method == "ica_mixing"

    def test_shape_and_diagonal_validation(self):
        with pytest.raises(IcaError):
            extract_effects(np.eye(4), p=1, m=1)
        bad = np.eye(3)
        bad[1, 1] = 2.0
        with pytest.raises(IcaError):
            extract_effects(bad, p=1, m=1)
            extract_effects_from_mixing(bad, p=1, m=1)


class TestEndToEnd:
    def test_scalar_recovery(self):
        ds = simulate(laplace_spec(p=2, theta=(3.0,)), 20_000, seed=7)
        est = estimate_ica(ds, seed=7)
        assert est.theta_hat[0] == pytest.approx(3.0, abs=0.05)
        assert est.diagnostics.converged
        assert est.diagnostics.condition_value > 0

    def test_multi_treatment_recovery_up_to_order(self):
        ds = simulate(laplace_spec(p=2, m=2, theta=(1.5, -0.5)), 20_000, seed=8)
        est = estimate_ica(ds, seed=8)
        got = np.sort(est.theta_hat)
        assert np.allclose(got, [-0.5, 1.5], atol=0.06)

    @pytest.mark.parametrize("contrast", ["logcosh", "exp", "cube"])
    def test_all_contrasts_recover(self, contrast):
        ds = simulate(laplace_spec(p=1, theta=(2.0,)), 10_000, seed=9)
        est = estimate_ica(ds, contrast=contrast, seed=9)
        assert est.theta_hat[0] == pytest.approx(2.0, abs=0.1)

    def test_gaussian_covariate_still_works(self):
        # only the covariate may be gaussian; treatment and outcome noise carry
        # the non-gaussian signal the rotation needs
        lap = NoiseSpec.laplace()
        spec = PlrSpec(p=1, m=1, theta=[1.0], noise_x=NoiseSpec.gaussian(),
                       noise_t=lap, noise_y=lap)
        ds = simulate(spec, 10_000, seed=11)
        est = estimate_ica(ds, seed=11)
        assert est.theta_hat[0] == pytest.approx(1.0, abs=0.1)
