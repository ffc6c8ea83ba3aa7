import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrica import (
    CONTRASTS,
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
    hungarian,
    ols_joint,
    regression_start,
    resolve,
    scenario_from_config,
    simulate,
    stationarity_residual,
    whiten,
)
from plrica.harness import cell_seed, spec_for_cell
from plrica.ica import (
    F32_SWITCH,
    LOG_CLIP,
    PIVOT_DEGENERACY_TOL,
    _WHITEN_BLOCK_BYTES,
    _sym_decorrelation,
    _whitened,
    _whitening_factor,
)


def laplace_spec(p=2, m=1, theta=(3.0,)):
    lap = NoiseSpec.laplace()
    return PlrSpec(p=p, m=m, theta=list(theta), noise_x=lap, noise_t=lap, noise_y=lap)


# builtin cells at reduced size: the location-scale one leaves the noise unstandardized
BUILTIN_CELLS = [
    "scenario = fig2_linear_homl\nsample_sizes = [500]\ncovariate_dims = [10]",
    "scenario = appE_locscale\nsample_sizes = [2000]\ncovariate_dims = [10]\n"
    "locations = [4.0]\nscales = [2.0]",
    "scenario = appE_contrast\nsample_sizes = [500]\ncontrasts = [cube]",
]


def builtin_cell_dataset(text, index=0):
    """Replication index of the first cell of a builtin config, as the harness draws it."""
    config = scenario_from_config(text)
    cell = config.cells()[0]
    return simulate(spec_for_cell(config, cell), cell["n"], cell_seed(config.scenario, cell, index))


def fit_from_start(ds, contrast="logcosh", tol=1e-4):
    """estimate_ica's whitening, regression start and contrast iteration,
    unread, with whiten's float64 output as fastica's input."""
    z, k, means = whiten(ds.columns)
    w0 = regression_start(k, ds.p, ds.m)
    res = fastica(z, contrast=contrast, tol=tol, w_init=w0, anchor=ds.p + ds.m)
    return res, k, means, w0


def assignment_read(ds, contrast="logcosh"):
    """theta read from the row a minimum-cost assignment matches to Y."""
    res, k, means, _ = fit_from_start(ds, contrast)
    q = ds.p + ds.m
    return -canonicalize(assemble_unmixing(res, k, means))[q, ds.p:q]


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

    @pytest.mark.parametrize("text", BUILTIN_CELLS)
    def test_cholesky_whitening_contract(self, text):
        """K is lower triangular, so its outcome row holds the least-squares
        slopes of Y, and the whitened array does not depend on column units."""
        ds = builtin_cell_dataset(text)
        z, k, _ = whiten(ds.columns)
        q = ds.p + ds.m
        assert not np.triu(k, 1).any()
        assert np.max(np.abs(z.T @ z / ds.n - np.eye(q + 1))) <= 1e-10
        assert np.allclose(-k[q, ds.p:q] / k[q, q], ols_joint(ds).theta_hat, rtol=0, atol=1e-10)
        rng = np.random.default_rng(q)
        for scales in (np.full(q + 1, 1e-8), np.full(q + 1, 1e8),
                       10.0 ** rng.uniform(-8, 8, q + 1)):
            assert np.allclose(whiten(ds.columns * scales)[0], z, rtol=0, atol=1e-12)

    def test_constant_column_raises(self):
        data = np.random.default_rng(3).standard_normal((100, 3))
        data[:, 1] = 2.5
        with pytest.raises(RankDeficientError, match="a column is constant"):
            whiten(data)

    @pytest.mark.parametrize("d", [4, 52])
    def test_row_blocks_give_the_one_shot_product(self, d):
        # n = 10^4 + 7 spans 2 (d = 4) or 16 (d = 52) row blocks, the last
        # one a few rows shorter than the others
        n = 10_007
        rng = np.random.default_rng(d)
        data = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.uniform(-5, 5, d)
        xc, k, _ = _whitening_factor(data)
        blocks = -(-n * d * 8 // _WHITEN_BLOCK_BYTES)
        assert blocks > 1 and n % -(-n // blocks)
        one_shot = xc @ k.T
        z = whiten(data)[0]
        assert z.dtype == np.float64 and z.tobytes() == one_shot.tobytes()
        z32 = _whitened(xc, k, np.float32)
        assert z32.dtype == np.float32 and z32.tobytes() == one_shot.astype(np.float32).tobytes()


class TestContrasts:
    def test_names(self):
        assert set(CONTRASTS) == {"logcosh", "exp", "cube"}

    def test_logcosh_derivative_pair(self):
        u = np.linspace(-3, 3, 11)
        g, gp = get_contrast("logcosh")(u)
        assert np.allclose(g, np.tanh(u))
        assert gp == pytest.approx(np.mean(1 - np.tanh(u) ** 2), rel=1e-14)

    def test_cube(self):
        g, gp = get_contrast("cube")(np.array([2.0]))
        assert g[0] == 8.0
        assert gp == 12.0

    def test_exp_at_zero(self):
        g, gp = get_contrast("exp")(np.zeros(1))
        assert g[0] == 0.0
        assert gp == 1.0

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_means_per_column_and_scalar_for_1d(self, name):
        con = get_contrast(name)
        s = np.random.default_rng(7).standard_normal((200, 3))
        g, gp = con(s)
        assert g.shape == s.shape and gp.shape == (3,)
        for j in range(3):
            gj, gpj = con(s[:, j])
            assert np.ndim(gpj) == 0
            assert np.array_equal(gj, g[:, j])
            assert gpj == pytest.approx(gp[j], rel=1e-13)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_mean_gprime_matches_finite_difference(self, name):
        con = get_contrast(name)
        u = np.linspace(-3, 3, 61)
        h = 1e-5
        fd = (con(u + h)[0] - con(u - h)[0]) / (2 * h)
        pointwise = np.array([con(np.array([x]))[1] for x in u])
        assert np.allclose(pointwise, fd, rtol=1e-7, atol=1e-8)
        assert con(u)[1] == pytest.approx(fd.mean(), rel=1e-7)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_input_unchanged(self, name):
        s = np.random.default_rng(8).standard_normal((50, 4))
        before = s.copy()
        s.flags.writeable = False
        get_contrast(name)(s)
        assert np.array_equal(s, before)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_out_buffer_gives_identical_values(self, name):
        con = get_contrast(name)
        s = np.random.default_rng(9).standard_normal((50, 4))
        g, gp = con(s)
        buf = np.full_like(s, np.nan)
        g_out, gp_out = con(s, out=buf)
        assert g_out is buf
        assert np.array_equal(g_out, g) and np.array_equal(gp_out, gp)

    @pytest.mark.parametrize("name", sorted(CONTRASTS))
    def test_float32_input_stays_float32(self, name):
        # an upcast would undo fastica's float32 sweeps without changing a result
        s = np.random.default_rng(10).standard_normal((4000, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            g, gp = get_contrast(name)(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.dtype == np.float32 and gp.dtype == np.float32
        assert peak < 2 * s.nbytes  # t(s) itself, and no float64 n x d temporary

    def test_unknown(self):
        with pytest.raises(IcaError):
            get_contrast("quartic")

    def test_takes_names_only(self):
        with pytest.raises(IcaError, match="unknown contrast"):
            get_contrast(get_contrast("cube"))


def _reference_sweep(z, contrast, w, dtype=np.float64, anchor=None):
    """One parallel sweep with separate t and t' calls, the sources and the
    contrast in dtype, and decorrelation in float64 through np.linalg.eigh.
    Returns the new rotation and its 1 - |cos| stop statistic: the largest
    over all rows, or, given an anchor column, that of the new rotation's
    row with the largest |entry| in it."""
    t, tprime = {
        "logcosh": (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2),
        "exp": (lambda u: u * np.exp(-0.5 * u * u), lambda u: (1.0 - u * u) * np.exp(-0.5 * u * u)),
        "cube": (lambda u: u**3, lambda u: 3.0 * u * u),
    }[contrast]
    zt = z.astype(dtype)
    s = zt @ w.T.astype(dtype)
    w1 = _reference_decorrelation((t(s).T @ zt).astype(float) / z.shape[0]
                                  - tprime(s).mean(axis=0)[:, None] * w)
    changes = [abs(abs(float(np.dot(a, b))) - 1.0) for a, b in zip(w1, w)]
    if anchor is None:
        return w1, max(changes)
    return w1, changes[int(np.argmax(np.abs(w1[:, anchor])))]


def _reference_decorrelation(m):
    vals, vecs = np.linalg.eigh(m @ m.T)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ m


def _two_pass_parallel(z, contrast, dtype, stop, max_iter, w, anchor=None):
    """Reference parallel iteration: sweeps in dtype until the stop statistic
    is below stop on two sweeps running. The fused loop in fastica must
    follow it up to rounding. Returns the rotation, whether the test
    passed, and the sweeps."""
    w = _reference_decorrelation(w)
    last_two = [np.inf, np.inf]
    sweeps = 0
    while max(last_two) >= stop:
        if sweeps == max_iter:
            return w, False, sweeps
        w, lim = _reference_sweep(z, contrast, w, dtype, anchor)
        last_two = [last_two[1], lim]
        sweeps += 1
    return w, True, sweeps


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
    @pytest.mark.parametrize("tol, dtype, stop", [
        (1e-4, np.float32, 1 / 2000),  # float32 sweeps to max(tol, 1/n)
        (1e-10, np.float64, 1e-10),  # below F32_SWITCH: float64 sweeps to tol
    ])
    @pytest.mark.parametrize("anchor", [None, 4])
    def test_fused_loop_matches_two_pass_reference(self, contrast, tol, dtype, stop, anchor):
        ds = simulate(laplace_spec(p=3), 2000, seed=11)
        z, _, _ = whiten(ds.columns)
        res = fastica(z, contrast=contrast, tol=tol, seed=4, anchor=anchor)
        w0 = np.random.default_rng(4).standard_normal((z.shape[1], z.shape[1]))
        w_ref, converged_ref, sweeps = _two_pass_parallel(z, contrast, dtype, stop, 1000, w0,
                                                          anchor)
        assert res.converged and converged_ref
        assert res.iterations == sweeps
        # float32 sweeps of fastica and of the reference round differently,
        # so the rotations agree to float32 rounding
        assert np.max(np.abs(res.w_rotation - w_ref)) <= 10 * np.finfo(np.float32).eps
        # float64 certificate: one more float64 sweep moves no watched row past the stop level
        assert _reference_sweep(z, contrast, res.w_rotation, anchor=anchor)[1] < stop

    @pytest.mark.parametrize("contrast", sorted(CONTRASTS))
    def test_float32_sweeps_alone_at_float32_stop_levels(self, contrast):
        ds = simulate(laplace_spec(p=3), 4000, seed=15)
        z, _, _ = whiten(ds.columns)
        tracemalloc.start()
        try:
            res = fastica(z, contrast=contrast, tol=F32_SWITCH, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float32 copy of z, the float32 sources and t(sources), and no float64 n x d array
        assert peak < 2 * z.nbytes
        assert res.converged
        # the stop level is max(tol, 1/n)
        assert _reference_sweep(z, contrast, res.w_rotation)[1] < 1 / 4000
        # float32 input is read as is: the sources and t(sources) alone, and the same fit
        z32 = z.astype(np.float32)
        tracemalloc.start()
        try:
            res32 = fastica(z32, contrast=contrast, tol=F32_SWITCH, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * z32.nbytes
        assert res32.iterations == res.iterations
        assert res32.w_rotation.tobytes() == res.w_rotation.tobytes()

    @pytest.mark.parametrize("contrast", sorted(CONTRASTS))
    def test_every_sweep_float64_below_f32_switch(self, monkeypatch, contrast):
        ds = simulate(laplace_spec(p=3), 4000, seed=15)
        z, _, _ = whiten(ds.columns)
        dtypes = []

        def recorded(s, out=None):
            dtypes.append(s.dtype)
            return CONTRASTS[contrast](s, out=out)
        monkeypatch.setattr("plrica.ica.get_contrast", lambda name: recorded)
        res = fastica(z, contrast=contrast, tol=1e-10, seed=5)
        w0 = np.random.default_rng(5).standard_normal((z.shape[1], z.shape[1]))
        _, _, sweeps = _two_pass_parallel(z, contrast, np.float64, 1e-10, 1000, w0)
        assert res.converged and res.iterations == sweeps
        assert dtypes == [np.float64] * sweeps
        # float64 certificate: one more float64 sweep moves no row past tol
        assert _reference_sweep(z, contrast, res.w_rotation)[1] < 1e-10
        # float32 input is upcast: float64 sweeps, the fit of its float64 copy
        z32 = z.astype(np.float32)
        dtypes.clear()
        res32 = fastica(z32, contrast=contrast, tol=1e-10, seed=5)
        assert dtypes == [np.float64] * res32.iterations
        upcast = fastica(z32.astype(np.float64), contrast=contrast, tol=1e-10, seed=5)
        assert res32.iterations == upcast.iterations
        assert res32.w_rotation.tobytes() == upcast.w_rotation.tobytes()

    def test_max_iter_inside_float32_sweeps(self):
        ds = simulate(laplace_spec(p=3), 2000, seed=13)
        z, _, _ = whiten(ds.columns)
        w0 = np.random.default_rng(2).standard_normal((z.shape[1], z.shape[1]))
        _, _, sweeps = _two_pass_parallel(z, "logcosh", np.float32, 1 / 2000, 1000, w0)
        assert sweeps > 3  # so max_iter = 3 ends the fit before it converges
        res = fastica(z, tol=1e-6, max_iter=3, seed=2)
        w = res.w_rotation
        assert not res.converged and res.iterations == 3
        assert w.dtype == np.float64
        assert np.max(np.abs(w @ w.T - np.eye(w.shape[0]))) <= 1e-12

    def test_input_not_written(self):
        ds = simulate(laplace_spec(), 2000, seed=14)
        z, _, _ = whiten(ds.columns)
        before = z.copy()
        z.flags.writeable = False
        fastica(z, seed=3)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    def test_non_finite_whitened_data_refused(self, value, dtype, tol):
        # checked on the d x d update candidate, outside the restart: a
        # restart would meet the same entry, up to max_iter times; the
        # IcaError is the only report, with no numpy warning before it
        z = np.random.default_rng(0).standard_normal((2000, 5)).astype(dtype)
        z[3, 1] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IcaError, match="whitened data contain non-finite values"):
                fastica(z, tol=tol)
            with pytest.raises(IcaError, match="whitened data contain non-finite values"):
                fastica(z, tol=tol, w_init=np.eye(5), anchor=4)
        assert [str(w.message) for w in caught] == []

    def test_rank_one_candidate_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(IcaError, match="rank deficient"):
            _sym_decorrelation(np.outer(rng.standard_normal(5), rng.standard_normal(5)))

    @pytest.mark.parametrize("key", ["tol", "max_iter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "x", True])
    def test_bad_settings_refused(self, key, value):
        # fastica compares tol with F32_SWITCH and 1/n; that must not turn a
        # bad tol into a TypeError
        ds = simulate(laplace_spec(), 500, seed=2)
        z, _, _ = whiten(ds.columns)
        with pytest.raises(IcaError, match=f"bad value for '{key}'"):
            fastica(z, **{key: value})
        with pytest.raises(IcaError, match=f"bad value for '{key}'"):
            estimate_ica(ds, **{key: value})

    @staticmethod
    def failing_decorrelation(monkeypatch, fails):
        """Patch fastica's decorrelation to raise on the calls numbered in fails
        (call 1 decorrelates the start, call k + 1 the candidate of sweep k
        when no restart came before)."""
        calls = []

        def decorrelate(w):
            calls.append(w)
            if fails(len(calls)):
                raise IcaError("rotation candidate is rank deficient; cannot decorrelate")
            return _sym_decorrelation(w)
        monkeypatch.setattr("plrica.ica._sym_decorrelation", decorrelate)

    def test_rank_deficient_candidate_restarts(self, monkeypatch):
        # each fit fails at the candidate of its own last sweep, a call it reaches
        ds = simulate(laplace_spec(), 5000, seed=3)
        z, _, _ = whiten(ds.columns)
        last_rotate = fastica(z, tol=1e-6, seed=3).iterations + 1
        last_estimate = estimate_ica(ds, seed=3).diagnostics.iterations + 1
        self.failing_decorrelation(monkeypatch, lambda call: call == last_rotate)
        res = fastica(z, tol=1e-6, seed=3)
        assert res.converged and res.restarts == 1
        for row in res.w_rotation:
            assert stationarity_residual(z, row, "logcosh") < 0.02
        self.failing_decorrelation(monkeypatch, lambda call: call == last_estimate)
        diag = estimate_ica(ds, seed=3).diagnostics
        assert diag.converged and diag.restarts == 1

    def test_restarts_count_toward_max_iter(self, monkeypatch):
        ds = simulate(laplace_spec(), 500, seed=4)
        z, _, _ = whiten(ds.columns)
        self.failing_decorrelation(monkeypatch, lambda call: call % 2 == 0)  # every candidate
        res = fastica(z, max_iter=5, seed=4)
        assert (res.converged, res.iterations, res.restarts) == (False, 5, 5)

    @staticmethod
    def scripted_rotations(monkeypatch, script):
        """Patch fastica's decorrelation to return script[k - 1] on call k, or to
        raise where that entry is None (call 1 decorrelates the start)."""
        calls = iter(script)

        def decorrelate(w):
            out = next(calls)
            if out is None:
                raise IcaError("rotation candidate is rank deficient; cannot decorrelate")
            return out
        monkeypatch.setattr("plrica.ica._sym_decorrelation", decorrelate)

    @pytest.mark.parametrize("anchor, sweeps", [(None, 4), (2, 2)])
    def test_one_passing_sweep_does_not_stop(self, monkeypatch, anchor, sweeps):
        # rows e2, e1, e0; sweep 1 passes, sweep 2 turns rows 1 and 2 by 0.5 rad
        # in their own plane and leaves row 0, sweeps 3 and 4 pass: the all-rows
        # test stops after sweep 4, the test anchored on column 2 watches row 0,
        # its largest entry, and stops after sweep 2
        z, _, _ = whiten(simulate(laplace_spec(p=1), 500, seed=4).columns)
        start, turned = np.eye(3)[::-1], np.eye(3)[::-1]
        turned[1:] = [[math.cos(0.5), -math.sin(0.5)], [math.sin(0.5), math.cos(0.5)]] @ turned[1:]
        self.scripted_rotations(monkeypatch, [start, start] + [turned] * 3)
        res = fastica(z, anchor=anchor)
        assert (res.converged, res.iterations, res.restarts) == (True, sweeps, 0)
        assert res.w_rotation is turned

    def test_restart_resets_the_pass_count(self, monkeypatch):
        # the start, a passing sweep, a rank-deficient candidate, then two passes
        z, _, _ = whiten(simulate(laplace_spec(p=1), 500, seed=4).columns)
        eye = np.eye(3)
        self.scripted_rotations(monkeypatch, [eye, eye, None, eye, eye, eye])
        res = fastica(z)
        assert (res.converged, res.iterations, res.restarts) == (True, 4, 1)

    @pytest.mark.parametrize("anchor", [-1, 3, True, 1.0, "0"])
    def test_anchor_outside_the_columns_raises(self, anchor):
        z, _, _ = whiten(simulate(laplace_spec(p=1), 500, seed=4).columns)
        with pytest.raises(IcaError, match="anchor"):
            fastica(z, anchor=anchor)

    @pytest.mark.parametrize("index", range(4))
    def test_anchored_stop_saves_sweeps_and_keeps_the_read(self, index):
        # fig2 at n = 500, p = 50, the ica_hard cell: 8/6/10/7 sweeps anchored
        # against 14/10/16/19 for the all-rows test, both at the stop level
        # 1/n and from the same start; the two reads differ by
        # 0.024/0.010/0.017/0.048, against a sampling error of about 0.08
        ds = builtin_cell_dataset("scenario = fig2_linear_homl\nsample_sizes = [500]\n"
                                  "covariate_dims = [50]", index)
        z, k, _ = whiten(ds.columns)
        est = estimate_ica(ds)
        every_row = fastica(z, w_init=regression_start(k, ds.p, ds.m))
        assert est.diagnostics.converged and every_row.converged
        assert est.diagnostics.iterations < every_row.iterations
        read = extract_effects(every_row.w_rotation @ k, ds.p, ds.m).theta_hat
        assert np.max(np.abs(est.theta_hat - read)) < 0.15

    def test_rank_deficient_start_raises(self):
        ds = simulate(laplace_spec(), 500, seed=4)
        z, _, _ = whiten(ds.columns)
        d = z.shape[1]
        with pytest.raises(IcaError, match="rank deficient"):
            fastica(z, w_init=np.ones((d, d)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_raises(self, value):
        ds = simulate(laplace_spec(), 500, seed=4)
        z, _, _ = whiten(ds.columns)
        d = z.shape[1]
        w_init = np.eye(d)
        w_init[0, -1] = value
        with pytest.raises(IcaError, match="w_init"):
            fastica(z, w_init=w_init)
        with pytest.raises(IcaError, match="w_init"):
            fastica(z, w_init=np.full((d, d), value))

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

    @pytest.mark.parametrize("text, tol, level", [
        # the ica_hard cell: 1/n is above tol
        ("scenario = fig2_linear_homl\nsample_sizes = [500]\ncovariate_dims = [50]", 1e-4, 1 / 500),
        # the ica_bulk cell: 1/n equals tol
        ("scenario = appE_contrast\nsample_sizes = [10000]\ncontrasts = [logcosh]", 1e-4, 1e-4),
        # below F32_SWITCH tol asks for the float64 fixed point and is kept
        ("scenario = fig2_linear_homl\nsample_sizes = [500]\ncovariate_dims = [50]", 1e-10, 1e-10),
    ])
    @pytest.mark.parametrize("anchored", [True, False])
    def test_stops_at_the_larger_of_tol_and_one_over_n(self, text, tol, level, anchored):
        ds = builtin_cell_dataset(text)
        z, k, _ = whiten(ds.columns)
        w0 = regression_start(k, ds.p, ds.m)
        anchor = ds.p + ds.m if anchored else None
        res = fastica(z, tol=tol, w_init=w0, anchor=anchor)
        at_level = fastica(z, tol=level, w_init=w0, anchor=anchor)
        assert (res.converged, res.iterations) == (at_level.converged, at_level.iterations)
        assert res.w_rotation.tobytes() == at_level.w_rotation.tobytes()
        dtype = np.float32 if tol >= F32_SWITCH else np.float64
        assert res.iterations == _two_pass_parallel(z, "logcosh", dtype, level, 1000, w0, anchor)[2]
        if level > tol:
            unfloored = _two_pass_parallel(z, "logcosh", dtype, tol, 1000, w0, anchor)
            assert res.iterations < unfloored[2]
        if anchored:  # estimate_ica passes tol as given
            est = estimate_ica(ds, tol=tol)
            assert est.diagnostics.iterations == res.iterations
            read = extract_effects(res.w_rotation @ k, ds.p, ds.m).theta_hat
            assert est.theta_hat.tobytes() == read.tobytes()

class TestRegressionStart:
    @pytest.mark.parametrize("m, theta", [(1, (3.0,)), (2, (1.5, -0.5))])
    def test_rows_are_the_least_squares_slopes(self, m, theta):
        p = 3
        ds = simulate(laplace_spec(p=p, m=m, theta=theta), 2000, seed=20 + m)
        xc = ds.columns - ds.columns.mean(axis=0)
        cov = xc.T @ xc / ds.n
        _, k, _ = whiten(ds.columns)
        start = regression_start(k, p, m)
        assert start[p + m].tolist() == np.eye(p + m + 1)[p + m].tolist()
        w0 = start @ k
        assert np.allclose(np.diag(w0 @ cov @ w0.T), 1.0, rtol=0, atol=1e-12)
        assert not np.triu(w0, 1).any()
        canonical = canonicalize(w0)
        assert np.allclose(canonical, w0 / np.diag(w0)[:, None], rtol=0, atol=1e-12)
        assert np.allclose(-canonical[p + m, p:p + m], ols_joint(ds).theta_hat, rtol=0, atol=1e-10)
        design = np.column_stack([ds.x, np.ones(ds.n)])
        for j in range(m):
            slopes = np.linalg.lstsq(design, ds.t[:, j], rcond=None)[0][:p]
            assert np.allclose(-canonical[p + j, :p], slopes, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("contrast", sorted(CONTRASTS))
    def test_few_sweeps_from_the_start(self, contrast):
        # the ica_bulk cell, whose three contrasts fit one dataset per
        # replication: 11 to 16 sweeps from a random rotation on its first
        # five replications, 3 or 4 from the regression start
        ds = builtin_cell_dataset("scenario = appE_contrast\nsample_sizes = [10000]\n"
                                  f"contrasts = [{contrast}]")
        diag = estimate_ica(ds, contrast=contrast, seed=0).diagnostics
        assert diag.converged and diag.iterations <= 6

    @pytest.mark.parametrize("p, m, side, message", [
        (1, 5, 3, r"K must have shape \(7, 7\), got \(3, 3\)"),
        (1, 1, 4, r"K must have shape \(3, 3\), got \(4, 4\)"),
        (-1, 3, 3, "need p >= 0 and m >= 1, got p=-1, m=3"),
        (2, 0, 3, "need p >= 0 and m >= 1, got p=2, m=0"),
    ])
    def test_sizes_outside_the_dataset_rule_raise(self, p, m, side, message):
        with pytest.raises(IcaError, match=message):
            regression_start(np.eye(side), p, m)

    def test_seed_feeds_only_the_restarts(self):
        ds = simulate(laplace_spec(p=3), 2000, seed=22)
        a, b = estimate_ica(ds, seed=0), estimate_ica(ds, seed=1)
        assert a.diagnostics.restarts == b.diagnostics.restarts == 0
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.diagnostics.iterations == b.diagnostics.iterations


class TestAnchoredRead:
    """estimate_ica reads the final row nearest the start's outcome row."""

    def test_small_n_fit_the_assignment_misreads(self):
        # fig2 at n = 100, p = 2: the iteration converges in 3 sweeps to a row
        # at |cos| 0.97 from the start's outcome row, but the assignment
        # matches another row to Y
        ds = builtin_cell_dataset("scenario = fig2_linear_homl\nsample_sizes = [100]\n"
                                  "covariate_dims = [2]", index=10)
        theta = ds.ground_truth.theta
        assert np.linalg.norm(assignment_read(ds) - theta) > 1.5
        assert np.linalg.norm(estimate_ica(ds).theta_hat - theta) < 0.1

    @pytest.mark.parametrize("text", [
        "scenario = appE_contrast\nsample_sizes = [10000]\ncontrasts = [logcosh]",
        "scenario = appE_contrast\nsample_sizes = [10000]\ncontrasts = [exp]",
        "scenario = appE_contrast\nsample_sizes = [10000]\ncontrasts = [cube]",
        "scenario = fig2_linear_homl\nsample_sizes = [1000]\ncovariate_dims = [50]",
    ])
    def test_bitwise_equal_to_assignment_read_where_rows_agree(self, text):
        contrast = scenario_from_config(text).contrasts[0]
        ds = builtin_cell_dataset(text)
        got = estimate_ica(ds, contrast=contrast).theta_hat
        assert got.tobytes() == assignment_read(ds, contrast).tobytes()

    def test_reads_the_nearest_row_not_the_start_index(self):
        # fig2 at n = 200, p = 20, replication 74: the outcome row ends at index
        # 19 after 87 sweeps (|cos| 0.83, runner-up 0.25), and the row left at
        # the start's index reads theta badly
        ds = builtin_cell_dataset("scenario = fig2_linear_homl\nsample_sizes = [200]\n"
                                  "covariate_dims = [20]", index=74)
        res, k, _, w0 = fit_from_start(ds)
        q = ds.p + ds.m
        assert np.argmax(np.abs(res.w_rotation @ w0[q])) != q
        u = res.w_rotation @ k
        theta = ds.ground_truth.theta
        assert np.linalg.norm(-u[q, ds.p:q] / u[q, q] - theta) > 1.5
        assert np.linalg.norm(extract_effects(u, ds.p, ds.m).theta_hat - theta) < 0.1
        assert np.linalg.norm(estimate_ica(ds).theta_hat - theta) < 0.1

    @pytest.mark.parametrize("dim_x, index", [(2, 10), (20, 8)])
    def test_condition_value_is_the_anchored_cos(self, dim_x, index):
        ds = builtin_cell_dataset("scenario = fig2_linear_homl\nsample_sizes = [100]\n"
                                  f"covariate_dims = [{dim_x}]", index=index)
        res, _, _, w0 = fit_from_start(ds)
        cos = np.abs(res.w_rotation @ (w0[-1] / np.linalg.norm(w0[-1])))
        value = estimate_ica(ds).diagnostics.condition_value
        assert 0.0 < value <= 1.0
        assert value == cos.max()

    def test_condition_value_at_least_one_over_sqrt_d(self):
        # column q of the orthonormal rotation has unit norm, so its largest
        # entry is at least 1/sqrt(d); at n = 100, p = 50 the iteration moves far
        text = "scenario = fig2_linear_homl\nsample_sizes = [100]\ncovariate_dims = [50]"
        values = [estimate_ica(builtin_cell_dataset(text, index)).diagnostics.condition_value
                  for index in range(4)]
        assert min(values) >= 1 / math.sqrt(52)
        assert min(values) < 0.9

    def test_scale_equivariant(self):
        # every column times 1e8 and Y times 1e5 more: theta_hat times 1e5
        ds = simulate(laplace_spec(p=2), 2000, seed=3)
        theta_hat = estimate_ica(ds).theta_hat
        ds.columns *= 1e8
        ds.columns[:, -1] *= 1e5
        assert np.allclose(estimate_ica(ds).theta_hat, theta_hat * 1e5, rtol=1e-12, atol=0)


def _loop_canonicalize(w):
    """Reference canonicalization, one matched row at a time."""
    row_of_col = [0] * w.shape[0]
    for row, col in enumerate(hungarian(-np.log(np.maximum(np.abs(w), LOG_CLIP)))):
        row_of_col[col] = row
    canonical = np.empty_like(w)
    for col, row in enumerate(row_of_col):
        if abs(w[row, col]) <= PIVOT_DEGENERACY_TOL * max(abs(w[:, col])):
            raise IcaError(f"pivot for source {col} is below tolerance")
        canonical[col] = w[row] / w[row, col]
    return canonical


class TestCanonicalize:
    @pytest.mark.parametrize("text", BUILTIN_CELLS)
    def test_bitwise_equal_to_loop_on_fitted_unmixings(self, text):
        config = scenario_from_config(text)
        z, k, means = whiten(builtin_cell_dataset(text).columns)
        res = fastica(z, contrast=config.contrasts[0], seed=6)
        w = assemble_unmixing(res, k, means)
        assert canonicalize(w).tobytes() == _loop_canonicalize(w).tobytes()

    def test_bitwise_equal_to_loop_on_scrambled_exact_unmixings(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, m = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            _, unmix = build_linear_mixing(resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-2, 2, m)), rng))
            d = p + m + 1
            scales = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
            w = (unmix * scales[:, None])[rng.permutation(d)]
            assert canonicalize(w).tobytes() == _loop_canonicalize(w).tobytes()

    def test_two_tiny_pivots_name_the_lower_column(self):
        # rows 1 and 3 have one nonzero entry each, so the assignment takes them
        # as the pivots of columns 1 and 3, 1e-12 and 1e-11 of each column's
        # largest entry; the row order puts column 3 first
        w = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1e-12, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1e-11]])[[3, 2, 1, 0]]
        with pytest.raises(IcaError, match="for source 1 "):
            _loop_canonicalize(w)
        with pytest.raises(IcaError, match=r"pivot \|1\.000e-12\| for source 1 "):
            canonicalize(w)

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
        bad = np.array([[1.0, 1.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IcaError, match="is at most 1e-08 times"):
            canonicalize(bad)
        with pytest.raises(IcaError, match="is at most 1e-08 times"):
            canonicalize(np.array([[1.0, 0.0], [1.0, 0.0]]))  # a zero column

    def test_pivot_test_ignores_column_units(self):
        # a column in tiny units is no degeneracy: dividing the pivot rows
        # turns column scales s into the similarity s_c / s_r
        w = np.array([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0], [0.0, 0.0, 1.0]])
        s = np.array([1.0, 1e12, 1.0])
        assert np.allclose(canonicalize(w), canonicalize(w * s) * s[:, None] / s,
                           rtol=1e-12, atol=0)
        # a fitted unmixing with every column times 1e8: its pivots fall near
        # 1e-8 (9.3e-9 for source 0), and the read stays
        ds = simulate(laplace_spec(p=2), 2000, seed=3)
        res, k, means, _ = fit_from_start(ds)
        canonical = canonicalize(assemble_unmixing(res, k, means))
        ds.columns *= 1e8
        scaled = fit_from_start(ds)
        assert np.allclose(canonicalize(assemble_unmixing(*scaled[:3])), canonical,
                           rtol=1e-12, atol=0)
        assert np.allclose(extract_effects(canonical, 2, 1).theta_hat,
                           estimate_ica(ds).theta_hat, rtol=1e-12, atol=0)

    def test_assemble_unmixing_is_rotation_times_whitening(self):
        ds = simulate(laplace_spec(), 4000, seed=5)
        z, k, means = whiten(ds.columns)
        res = fastica(z, seed=5)
        w = assemble_unmixing(res, k, means, "logcosh")
        assert w.tobytes() == (res.w_rotation @ k).tobytes()
        assert np.allclose(np.diag(canonicalize(w)), 1.0)


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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_row_order_and_scale(self, data):
        # the exact outcome row is the only one with a nonzero Y entry, and the
        # row of treatment i the only other one with a nonzero T_i entry
        p, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-2, 2, m)), rng)
        _, unmix = build_linear_mixing(spec)
        order = data.draw(st.permutations(range(p + m + 1)))
        scale = np.array(data.draw(st.lists(
            st.floats(1e-6, 1e6).flatmap(lambda v: st.sampled_from([v, -v])),
            min_size=p + m + 1, max_size=p + m + 1)))
        for read in (extract_effects, extract_effects_from_mixing):
            got = read(scale[:, None] * unmix[order], p, m).theta_hat
            assert np.max(np.abs(got - spec.theta)) <= 1e-12

    def test_mixing_read_of_a_canonical_fit_is_its_mixing_entry(self):
        # rows in source order with a unit diagonal: r_i = p + i, so the read
        # is M[q, p:q] times 1.0, bit for bit
        ds = simulate(laplace_spec(p=2, m=2, theta=(1.5, -0.5)), 4000, seed=8)
        res, k, _, _ = fit_from_start(ds)
        canonical = canonicalize(res.w_rotation @ k)
        got = extract_effects_from_mixing(canonical, 2, 2).theta_hat
        assert got.tobytes() == np.linalg.inv(canonical)[4, 2:4].tobytes()

    @pytest.mark.parametrize("read", [extract_effects, extract_effects_from_mixing])
    def test_shape_validation(self, read):
        with pytest.raises(IcaError, match="shape"):
            read(np.eye(4), p=1, m=1)

    @pytest.mark.parametrize("read", [extract_effects, extract_effects_from_mixing])
    @pytest.mark.parametrize("p, m", [(2, 0), (-1, 3)])
    def test_sizes_outside_the_dataset_rule_raise(self, read, p, m):
        # p + m + 1 = 3 is the side of W, so only the size rule refuses
        with pytest.raises(IcaError, match=f"need p >= 0 and m >= 1, got p={p}, m={m}"):
            read(np.eye(3), p=p, m=m)

    @pytest.mark.parametrize("read", [extract_effects, extract_effects_from_mixing])
    @pytest.mark.parametrize("entry", [(0, 1), (0, 0)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_unmixing_raises(self, value, entry, read):
        # (0, 0) with nan is a diagonal entry the mixing read used to let through
        w = np.eye(3)
        w[entry] = value
        with pytest.raises(IcaError, match="non-finite"):
            read(w, p=1, m=1)

    @pytest.mark.parametrize("read", [extract_effects, extract_effects_from_mixing])
    def test_zero_outcome_column_raises(self, read):
        w = np.eye(3)
        w[2, 2] = 0.0
        with pytest.raises(IcaError, match="column 2"):
            read(w, p=1, m=1)

    def test_two_treatments_on_one_row_raise(self):
        # row 2 holds Y; row 0 has the largest entry in both T columns
        w = np.array([[1.0, 1.0, 0.0], [0.5, 0.1, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IcaError, match="same row"):
            extract_effects_from_mixing(w, p=0, m=2)

    def test_singular_unmixing_raises(self):
        singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IcaError, match="singular"):
            extract_effects_from_mixing(singular, p=1, m=1)


class TestEndToEnd:
    def test_scalar_recovery(self):
        ds = simulate(laplace_spec(p=2, theta=(3.0,)), 20_000, seed=7)
        est = estimate_ica(ds, seed=7)
        assert est.theta_hat[0] == pytest.approx(3.0, abs=0.05)
        assert est.diagnostics.converged
        assert est.diagnostics.condition_value > 0

    def test_multi_treatment_recovery_in_column_order(self):
        ds = simulate(laplace_spec(p=2, m=2, theta=(1.5, -0.5)), 20_000, seed=8)
        est = estimate_ica(ds, seed=8)
        assert np.allclose(est.theta_hat, [1.5, -0.5], atol=0.06)

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

    @pytest.mark.parametrize("contrast, tol", [
        ("logcosh", 1e-4), ("exp", 1e-4), ("cube", 1e-4), ("logcosh", 1e-10),
    ])
    def test_equals_the_stage_fit_on_whiten_output(self, contrast, tol):
        # the ica_bulk cell, whose 52 whitened columns span 16 row blocks:
        # estimate_ica whitens straight into the sweep precision, the stages
        # whiten in float64 and leave the cast to fastica
        ds = builtin_cell_dataset("scenario = appE_contrast\nsample_sizes = [10000]\n"
                                  f"contrasts = [{contrast}]")
        res, k, _, _ = fit_from_start(ds, contrast, tol)
        est = estimate_ica(ds, contrast=contrast, tol=tol)
        assert (est.diagnostics.converged, est.diagnostics.iterations) == (res.converged,
                                                                          res.iterations)
        read = extract_effects(res.w_rotation @ k, ds.p, ds.m).theta_hat
        assert est.theta_hat.tobytes() == read.tobytes()

    def test_traced_peak_below_one_and_three_quarter_datasets(self):
        # a centered copy, the float32 whitened copy and one float64 row
        # block, then that copy and fastica's two float32 sweep buffers;
        # a float64 whitened copy beside them would read about 2.5
        ds = builtin_cell_dataset("scenario = fig2_linear_homl\nsample_sizes = [20000]\n"
                                  "covariate_dims = [10]")
        tracemalloc.start()
        try:
            estimate_ica(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * ds.columns.nbytes
