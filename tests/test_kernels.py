import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrica import (
    KernelError,
    assemble_unmixing,
    fastica,
    hungarian,
    lasso_fit,
    scenario_from_config,
    simulate,
    soft_threshold,
    whiten,
)
from plrica.harness import cell_seed, spec_for_cell
from plrica.ica import LOG_CLIP
from plrica.kernels import active_set_start, gram_lasso


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    @given(st.floats(-100, 100), st.floats(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_shrinks_toward_zero(self, value, threshold):
        out = soft_threshold(value, threshold)
        assert abs(out) <= abs(value) + 1e-12
        if value > threshold:
            assert out == pytest.approx(value - threshold)
        elif value < -threshold:
            assert out == pytest.approx(value + threshold)
        else:
            assert out == 0.0


def _residual_update_lasso(design, target, lam, tol=1e-4, max_iter=1000):
    """Reference cyclic coordinate descent from zero that keeps the full
    residual and takes each step from an O(n) product with a design column.
    Run to a tight tol it gives the lasso solution; at lasso_fit's tol it
    takes the steps the Gram-matrix loop takes from a refused start, up to
    rounding. Returns (weights, intercept, converged, sweeps)."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    n, p = x.shape
    means, scales = x.mean(axis=0), x.std(axis=0)
    alive = scales > 1e-12
    safe = np.where(alive, scales, 1.0)
    xs = (x - means) / safe
    resid = y - y.mean()
    w = np.zeros(p)
    converged, sweeps = False, 0
    while sweeps < max_iter and not converged:
        sweeps += 1
        max_delta = 0.0
        for j in np.flatnonzero(alive):
            w_new = soft_threshold(float(xs[:, j] @ resid) / n + w[j], lam)
            if w_new != w[j]:
                resid += xs[:, j] * (w[j] - w_new)
                max_delta = max(max_delta, abs(w_new - w[j]))
                w[j] = w_new
        converged = max_delta < tol
    weights = np.where(alive, w / safe, 0.0)
    return weights, y.mean() - means @ weights, converged, sweeps


def _lasso_design(kind, rng):
    """(design, target, lam) for the reference comparisons."""
    if kind == "constant column":
        x = rng.standard_normal((80, 4))
        x[:, 1] = 4.2
        return x, x[:, 0] - x[:, 2] + rng.standard_normal(80), 0.01
    if kind == "p close to n":
        x = rng.standard_normal((40, 36))
        return x, x[:, :3] @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(40), 0.05
    if kind == "p close to n, zero penalty":
        x = rng.standard_normal((40, 36))
        return x, x[:, :3] @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(40), 0.0
    if kind == "correlated, zero penalty":
        x = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 5))
        return x, x @ rng.standard_normal(5) + rng.standard_normal(200), 0.0
    x = rng.standard_normal((100, 6))  # large penalty: every weight stays 0
    return x, x @ rng.standard_normal(6) + rng.standard_normal(100), 50.0


LASSO_DESIGNS = ("constant column", "p close to n", "p close to n, zero penalty",
                 "correlated, zero penalty", "large penalty")


def _numpy_loop_lasso_fits(design, targets, lam, tol=1e-4, max_iter=1000, warm=True):
    """Reference lasso_fit of each target on numpy scalars: standardization
    from the centered second moments of [design | target], and a loop over
    the live columns that indexes float arrays for w and q, started from
    active_set_start (warm) or from zero. Returns (weights, intercept,
    n_sweeps, converged) per target; lasso_fit must match the warm loop bit
    for bit."""
    x = np.asarray(design, dtype=float)
    n, p = x.shape
    out = []
    for target in targets:
        data = np.column_stack([x, np.asarray(target, dtype=float)])
        means = data.mean(axis=0)
        centered = data - means
        moments = centered.T @ centered / n
        scales = np.sqrt(np.maximum(moments.diagonal()[:p], 0.0))
        alive = scales > 1e-12
        safe_scales = np.where(alive, scales, 1.0)
        live = np.flatnonzero(alive)
        gram = (moments[:p, :p] / np.outer(safe_scales, safe_scales))[np.ix_(live, live)]
        cov = (moments[:p, p] / safe_scales)[live]
        w = active_set_start(gram, cov, lam) if warm else np.zeros(len(live))
        q = cov - gram @ w
        converged = False
        sweeps = 0
        for _ in range(max_iter):
            sweeps += 1
            max_delta = 0.0
            for j in range(len(live)):
                w_old = w[j]
                w_new = soft_threshold(q[j] + w_old, lam)
                if w_new != w_old:
                    q -= gram[j] * (w_new - w_old)
                    w[j] = w_new
                    max_delta = max(max_delta, abs(w_new - w_old))
            if max_delta < tol:
                converged = True
                break
        weights = np.zeros(p)
        weights[live] = w
        weights /= safe_scales
        out.append((weights, float(means[p] - means[:p] @ weights), sweeps, converged))
    return out


def _wide_design(rng):
    """p > n with a zero-variance column and a shifted, scaled one."""
    x = rng.standard_normal((30, 60))
    x[:, 5] = -2.5
    x[:, 7] = 100.0 + 1e-3 * x[:, 7]
    return x, x[:, :4] @ np.array([1.0, -1.0, 2.0, 0.5]) + 0.1 * rng.standard_normal(30), 0.02


class TestLasso:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 4))
        w_true = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ w_true + 0.01 * rng.standard_normal(200)
        fit = lasso_fit(x, y, lam=0.0)
        design = np.column_stack([x, np.ones(200)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.max(np.abs(fit.weights - coef[:4])) <= 1e-10
        assert fit.intercept == pytest.approx(coef[4], abs=1e-10)
        assert fit.converged

    def test_single_standardized_column_closed_form(self):
        # unit-variance column, exact target 2*x: solution is 2 - lam
        rng = np.random.default_rng(8)
        x = rng.standard_normal(500)
        x = (x - x.mean()) / x.std()
        y = 2.0 * x
        fit = lasso_fit(x[:, None], y, lam=0.5)
        assert fit.weights[0] == pytest.approx(1.5, abs=1e-8)

    def test_large_penalty_zeroes_everything(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 3))
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(100)
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        yc = y - y.mean()
        lam_max = np.max(np.abs(xs.T @ yc)) / 100
        fit = lasso_fit(x, y, lam=lam_max * 1.01)
        assert np.all(fit.weights == 0.0)
        assert fit.intercept == pytest.approx(y.mean())

    def test_kkt_conditions_in_standardized_coordinates(self):
        # at the optimum x_j' r / n = lam * sign(w_j) on the support and
        # |x_j' r / n| <= lam off it, for standardized columns x_j
        rng = np.random.default_rng(10)
        x = rng.standard_normal((150, 6))
        y = x[:, 0] - 2 * x[:, 3] + 0.1 * rng.standard_normal(150)
        lam = 0.05
        fit = lasso_fit(x, y, lam=lam)
        assert fit.converged
        means, scales = x.mean(axis=0), x.std(axis=0)
        xs = (x - means) / scales
        w = fit.weights * scales
        resid = (y - y.mean()) - xs @ w
        grad = xs.T @ resid / 150
        active = w != 0.0
        assert active.any() and not active.all()
        assert np.max(np.abs(grad[active] - lam * np.sign(w[active]))) <= 1e-10
        assert np.max(np.abs(grad[~active])) <= lam + 1e-10

    def test_constant_column_gets_zero_weight(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((80, 3))
        x[:, 1] = 4.2
        y = x[:, 0] + rng.standard_normal(80)
        fit = lasso_fit(x, y, lam=0.01)
        assert fit.weights[1] == 0.0

    def test_predict_consistency(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 2))
        y = x[:, 0] + 1.0
        fit = lasso_fit(x, y, lam=0.0)
        assert np.max(np.abs(fit.predict(x) - y)) <= 1e-6

    def test_rejects_bad_penalty(self):
        with pytest.raises(KernelError):
            lasso_fit(np.ones((4, 1)), np.ones(4), lam=-0.1)

    @pytest.mark.parametrize("key", ["lam", "tol", "max_iter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_refused(self, key, value):
        settings = dict(lam=0.1, tol=1e-4, max_iter=1000) | {key: value}
        with pytest.raises(KernelError, match=f"bad value for '{key}'"):
            lasso_fit(np.ones((4, 1)), np.ones(4), **settings)

    @pytest.mark.parametrize("kind", [k for k in LASSO_DESIGNS if k != "p close to n"])
    def test_matches_residual_update_reference(self, kind):
        # the active-set start is the solution, so at the default tol the
        # weights are those of the zero-start reference run to tol = 1e-13
        x, y, lam = _lasso_design(kind, np.random.default_rng(0))
        w_ref, b_ref, converged_ref, _ = _residual_update_lasso(x, y, lam, tol=1e-13,
                                                                 max_iter=20_000)
        fit = lasso_fit(x, y, lam)
        assert converged_ref and fit.converged
        scale = max(1.0, np.max(np.abs(w_ref)))
        assert np.max(np.abs(fit.weights - w_ref)) <= 1e-10 * scale
        assert fit.intercept == pytest.approx(b_ref, abs=1e-10 * scale * np.max(np.abs(x)))

    def test_refused_start_takes_residual_update_steps(self):
        # on "p close to n" the active sets cycle and the last one's
        # objective is above the objective at 0, so descent starts from zero
        # and takes the reference's steps
        x, y, lam = _lasso_design("p close to n", np.random.default_rng(0))
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        start = active_set_start(xs.T @ xs / len(y), xs.T @ (y - y.mean()) / len(y), lam)
        assert not start.any()
        w_ref, b_ref, converged_ref, sweeps_ref = _residual_update_lasso(x, y, lam)
        fit = lasso_fit(x, y, lam)
        assert (fit.n_sweeps, fit.converged) == (sweeps_ref, converged_ref)
        scale = max(1.0, np.max(np.abs(w_ref)))
        assert np.max(np.abs(fit.weights - w_ref)) <= 1e-12 * scale
        assert fit.intercept == pytest.approx(b_ref, abs=1e-12 * scale * np.max(np.abs(x)))

    def test_correlated_zero_penalty_reaches_least_squares(self):
        # coordinate descent from zero stops here at max_iter, 8e-2 away
        x, y, lam = _lasso_design("correlated, zero penalty", np.random.default_rng(0))
        fit = lasso_fit(x, y, lam)
        coef, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(len(y))]), y, rcond=None)
        assert fit.converged
        assert np.max(np.abs(fit.weights - coef[:-1])) <= 1e-9
        assert fit.intercept == pytest.approx(coef[-1], abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_wide_design_starts_from_zero(self, lam):
        # p > n: the active-set Gram blocks are singular, so the start is
        # refused and the fit is the zero-start loop's; a start taken
        # anyway lands on another minimizer, far from this one
        x, y, _ = _wide_design(np.random.default_rng(3))
        targets = [y, x[:, 0] - 3.0 * y]
        want = _numpy_loop_lasso_fits(x, targets, lam, warm=False)
        fits = [lasso_fit(x, target, lam) for target in targets]
        for fit, (weights, intercept, sweeps, converged) in zip(fits, want, strict=True):
            assert fit.weights.tobytes() == weights.tobytes()
            assert fit.intercept == intercept
            assert (fit.n_sweeps, fit.converged) == (sweeps, converged)

    @pytest.mark.parametrize("kind", LASSO_DESIGNS + ("p > n", "p > n, zero penalty"))
    def test_bitwise_equal_to_numpy_scalar_loop(self, kind):
        rng = np.random.default_rng(2)
        if kind.startswith("p > n"):
            x, y, lam = _wide_design(rng)
            lam = 0.0 if kind.endswith("zero penalty") else lam
        else:
            x, y, lam = _lasso_design(kind, rng)
        targets = [y, rng.standard_normal(len(y)), x[:, 0] - 3.0 * y]
        fits = [lasso_fit(x, target, lam, max_iter=400) for target in targets]
        want = _numpy_loop_lasso_fits(x, targets, lam, max_iter=400)
        for fit, (weights, intercept, sweeps, converged) in zip(fits, want, strict=True):
            assert fit.weights.tobytes() == weights.tobytes()
            assert fit.intercept == intercept
            assert (fit.n_sweeps, fit.converged) == (sweeps, converged)

    def test_near_collinear_block_starts_from_zero(self):
        # two columns that agree to 1e-6: the active block factors, but its
        # last Cholesky pivot is about 1e-12 of the first, below
        # PIVOT_FLOOR, so the start is refused and the fit is the
        # zero-start loop's
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 3))
        x[:, 2] = x[:, 1] + 1e-6 * rng.standard_normal(100)
        y = x @ np.array([1.0, 0.5, 0.5]) + 0.1 * rng.standard_normal(100)
        want = _numpy_loop_lasso_fits(x, [y], 0.0, warm=False)[0]
        fit = lasso_fit(x, y, 0.0)
        assert fit.weights.tobytes() == want[0].tobytes()
        assert (fit.intercept, fit.n_sweeps, fit.converged) == want[1:]

    @pytest.mark.parametrize("variance", [None, 0.0, -1e-30])
    def test_dead_column_of_the_moments_is_an_absent_column(self, variance):
        # a covariate whose standard deviation is at or below ZERO_SCALE
        # (here 1e-14 times an informative column's), is zero, or was
        # rounded below zero is dead: weight exactly 0, and every target's
        # other weights bit for bit those of the moments without it
        rng = np.random.default_rng(5)
        data = rng.standard_normal((60, 6))
        data[:, 4:] += data[:, :2] @ np.array([[1.0, -0.5], [2.0, 0.3]])
        data[:, 1] *= 1e-14
        centered = data - data.mean(axis=0)
        moments = centered.T @ centered / 60
        if variance is not None:
            moments[1, 1] = variance
        fits = gram_lasso(moments, 4, 0.05, 1e-4, 1000)
        kept = [0, 2, 3, 4, 5]
        want = gram_lasso(moments[np.ix_(kept, kept)], 3, 0.05, 1e-4, 1000)
        for (weights, converged, sweeps), (w_want, c_want, s_want) in zip(fits, want, strict=True):
            assert weights[1] == 0.0
            assert np.delete(weights, 1).tobytes() == w_want.tobytes()
            assert (converged, sweeps) == (c_want, s_want)

    def test_target_shape_checked(self):
        x = np.ones((5, 2))
        for target in (np.ones(4), np.ones((5, 1))):
            with pytest.raises(KernelError, match="target shape"):
                lasso_fit(x, target, lam=0.1)


def brute_force_assignment(cost):
    d = cost.shape[0]
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(d)):
        c = sum(cost[i, perm[i]] for i in range(d))
        if c < best_cost:
            best, best_cost = perm, c
    return best, best_cost


class TestHungarian:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4, 5):
            for _ in range(5):
                cost = rng.random((d, d))
                got = hungarian(cost)
                _, want_cost = brute_force_assignment(cost)
                got_cost = sum(cost[i, j] for i, j in enumerate(got))
                assert got_cost == pytest.approx(want_cost, abs=1e-12)
                assert sorted(got) == list(range(d))

    def test_identity_on_diagonal_advantage(self):
        cost = np.ones((3, 3)) - np.eye(3)
        got = hungarian(cost)
        assert got == (0, 1, 2)


def assignment_cost(cost, mapping):
    return cost[np.arange(len(mapping)), list(mapping)].sum()


def brute_force_min_cost(cost):
    d = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(d))))
    return cost[np.arange(d), perms].sum(axis=1).min()


class TestAssignmentExact:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_minimal_cost_permutation(self, d):
        rng = np.random.default_rng(40 + d)
        costs = [rng.standard_normal((d, d)) for _ in range(3)]
        costs += [-np.log(np.abs(rng.standard_normal((d, d))))]
        for cost in costs:
            mapping = hungarian(cost)
            assert sorted(mapping) == list(range(d))
            assert assignment_cost(cost, mapping) == pytest.approx(brute_force_min_cost(cost),
                                                                   abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_integer_costs_with_ties(self, d):
        rng = np.random.default_rng(70 + d)
        costs = [rng.integers(0, 3, (d, d)).astype(float) for _ in range(4)]
        costs += [np.ones((d, d)), np.tile(np.arange(d, dtype=float), (d, 1))]
        for cost in costs:
            mapping = hungarian(cost)
            assert sorted(mapping) == list(range(d))
            # integer sums are exact, so the cost must equal the minimum
            assert assignment_cost(cost, mapping) == brute_force_min_cost(cost)

    def test_empty_and_scalar(self):
        assert hungarian(np.zeros((0, 0))) == ()
        assert hungarian([[-2.5]]) == (0,)

    def test_constant_cost_gives_identity(self):
        assert hungarian(np.zeros((6, 6))) == tuple(range(6))

    def test_rejects_bad_input(self):
        with pytest.raises(KernelError):
            hungarian(np.ones((2, 3)))
        with pytest.raises(KernelError):
            hungarian([[0.0, np.inf], [1.0, 0.0]])


class TestAssignmentMatchesScipy:
    @pytest.fixture(scope="class")
    def linear_sum_assignment(self):
        return pytest.importorskip("scipy.optimize").linear_sum_assignment

    @pytest.mark.parametrize("d", [10, 52, 100])
    def test_random_costs(self, linear_sum_assignment, d):
        rng = np.random.default_rng(d)
        for cost in (rng.random((d, d)), -np.log(np.abs(rng.standard_normal((d, d))))):
            _, cols = linear_sum_assignment(cost)
            assert hungarian(cost) == tuple(int(c) for c in cols)

    def test_fastica_unmixing_costs(self, linear_sum_assignment):
        # the cost canonicalize builds, on fits from the p = 20 and p = 50 cells of fig2
        config = scenario_from_config("scenario = fig2_linear_homl\n"
                                      "sample_sizes = [500, 1000]\ncovariate_dims = [20, 50]")
        for cell in config.cells():
            seed = cell_seed(config.scenario, cell, 0)
            data = simulate(spec_for_cell(config, cell), cell["n"], seed)
            whitened, k, means = whiten(data.columns)
            w = assemble_unmixing(fastica(whitened, max_iter=200, seed=seed), k, means)
            cost = -np.log(np.maximum(np.abs(w), LOG_CLIP))
            _, cols = linear_sum_assignment(cost)
            assert hungarian(cost) == tuple(int(c) for c in cols)
