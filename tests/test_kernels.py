import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrica import (
    Assignment,
    KernelError,
    assemble_unmixing,
    fastica,
    hungarian,
    lasso_fit,
    lasso_fits,
    scenario_from_config,
    simulate,
    soft_threshold,
    whiten,
)
from plrica.harness import cell_seed, spec_for_cell
from plrica.ica import LOG_CLIP


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
    """Reference cyclic coordinate descent that keeps the full residual and
    takes each step from an O(n) product with a design column; the
    Gram-matrix loop in lasso_fit must take the same steps up to rounding.
    Returns (weights, intercept, converged, sweeps)."""
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


def _numpy_loop_lasso_fits(design, targets, lam, tol=1e-4, max_iter=1000):
    """Reference lasso_fits on numpy scalars: standardization through
    x.std and (x - mean) / scale, and a loop that indexes float arrays for
    w and q. Returns (weights, intercept, n_sweeps, converged) per target;
    lasso_fits must match it bit for bit."""
    x = np.asarray(design, dtype=float)
    n, p = x.shape
    ys = [np.asarray(target, dtype=float) for target in targets]
    col_means = x.mean(axis=0)
    col_scales = x.std(axis=0)
    alive = col_scales > 1e-12
    safe_scales = np.where(alive, col_scales, 1.0)
    xs = (x - col_means) / safe_scales
    gram = xs.T @ xs / n
    live = np.flatnonzero(alive).tolist()
    out = []
    for y in ys:
        y_mean = float(y.mean())
        q = xs.T @ (y - y_mean) / n
        w = np.zeros(p)
        converged = False
        sweeps = 0
        for _ in range(max_iter):
            sweeps += 1
            max_delta = 0.0
            for j in live:
                w_old = w[j]
                w_new = soft_threshold(q[j] + w_old, lam)
                if w_new != w_old:
                    q -= gram[j] * (w_new - w_old)
                    w[j] = w_new
                    max_delta = max(max_delta, abs(w_new - w_old))
            if max_delta < tol:
                converged = True
                break
        weights = np.where(alive, w / safe_scales, 0.0)
        out.append((weights, y_mean - float(col_means @ weights), sweeps, converged))
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
        assert np.max(np.abs(fit.weights - coef[:4])) <= 1e-6
        assert fit.intercept == pytest.approx(coef[4], abs=1e-6)
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
        fit = lasso_fit(x, y, lam=lam, tol=1e-12, max_iter=10_000)
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

    @pytest.mark.parametrize("kind", LASSO_DESIGNS)
    def test_matches_residual_update_reference(self, kind):
        x, y, lam = _lasso_design(kind, np.random.default_rng(0))
        w_ref, b_ref, converged_ref, sweeps_ref = _residual_update_lasso(x, y, lam)
        fit = lasso_fit(x, y, lam)
        assert fit.n_sweeps == sweeps_ref
        assert fit.converged == converged_ref
        scale = max(1.0, np.max(np.abs(w_ref)))
        assert np.max(np.abs(fit.weights - w_ref)) <= 1e-12 * scale
        assert fit.intercept == pytest.approx(b_ref, abs=1e-12 * scale * np.max(np.abs(x)))

    @pytest.mark.parametrize("kind", LASSO_DESIGNS)
    def test_shared_gram_equals_single_target_calls(self, kind):
        rng = np.random.default_rng(1)
        x, y, lam = _lasso_design(kind, rng)
        targets = [y, rng.standard_normal(len(y)), x[:, 0] + 0.5 * y]
        fits = lasso_fits(x, targets, lam)
        assert len(fits) == len(targets)
        for fit, target in zip(fits, targets):
            single = lasso_fit(x, target, lam)
            assert np.array_equal(fit.weights, single.weights)
            assert fit.intercept == single.intercept
            assert (fit.n_sweeps, fit.converged, fit.lam) == (single.n_sweeps, single.converged,
                                                              single.lam)

    @pytest.mark.parametrize("kind", LASSO_DESIGNS + ("p > n", "p > n, zero penalty"))
    def test_bitwise_equal_to_numpy_scalar_loop(self, kind):
        rng = np.random.default_rng(2)
        if kind.startswith("p > n"):
            x, y, lam = _wide_design(rng)
            lam = 0.0 if kind.endswith("zero penalty") else lam
        else:
            x, y, lam = _lasso_design(kind, rng)
        targets = [y, rng.standard_normal(len(y)), x[:, 0] - 3.0 * y]
        fits = lasso_fits(x, targets, lam, max_iter=400)
        want = _numpy_loop_lasso_fits(x, targets, lam, max_iter=400)
        for fit, (weights, intercept, sweeps, converged) in zip(fits, want, strict=True):
            assert fit.weights.tobytes() == weights.tobytes()
            assert fit.intercept == intercept
            assert (fit.n_sweeps, fit.converged) == (sweeps, converged)

    def test_shared_gram_checks_every_target(self):
        x = np.ones((5, 2))
        with pytest.raises(KernelError, match="target shape"):
            lasso_fits(x, [np.ones(5), np.ones(4)], lam=0.1)
        assert lasso_fits(x, [], lam=0.1) == []


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
                got_cost = sum(cost[i, j] for i, j in enumerate(got.mapping))
                assert got_cost == pytest.approx(want_cost, abs=1e-12)
                assert sorted(got.mapping) == list(range(d))

    def test_identity_on_diagonal_advantage(self):
        cost = np.ones((3, 3)) - np.eye(3)
        got = hungarian(cost)
        assert got.mapping == (0, 1, 2)

    def test_inverse_round_trip(self):
        cost = np.array([[3.0, 1.0], [1.0, 3.0]])
        fwd = hungarian(cost)
        assert isinstance(fwd, Assignment)
        inv = fwd.inverse()
        recomposed = tuple(fwd.mapping[inv[i]] for i in range(2))
        assert recomposed == (0, 1)


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
            mapping = hungarian(cost).mapping
            assert sorted(mapping) == list(range(d))
            assert assignment_cost(cost, mapping) == pytest.approx(brute_force_min_cost(cost),
                                                                   abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_integer_costs_with_ties(self, d):
        rng = np.random.default_rng(70 + d)
        costs = [rng.integers(0, 3, (d, d)).astype(float) for _ in range(4)]
        costs += [np.ones((d, d)), np.tile(np.arange(d, dtype=float), (d, 1))]
        for cost in costs:
            mapping = hungarian(cost).mapping
            assert sorted(mapping) == list(range(d))
            # integer sums are exact, so the cost must equal the minimum
            assert assignment_cost(cost, mapping) == brute_force_min_cost(cost)

    def test_empty_and_scalar(self):
        empty = hungarian(np.zeros((0, 0)))
        assert empty.mapping == () and empty.inverse() == ()
        assert hungarian([[-2.5]]).mapping == (0,)

    def test_constant_cost_gives_identity(self):
        assert hungarian(np.zeros((6, 6))).mapping == tuple(range(6))

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
            assert hungarian(cost).mapping == tuple(int(c) for c in cols)

    def test_fastica_unmixing_costs(self, linear_sum_assignment):
        # the cost canonicalize builds, on fits from the p = 20 and p = 50 cells of fig2
        config = scenario_from_config("scenario = fig2_linear_homl\n"
                                      "sample_sizes = [500, 1000]\ncovariate_dims = [20, 50]")
        for cell in config.cells():
            seed = cell_seed(config.scenario, cell, 0)
            data = simulate(spec_for_cell(config, cell), cell["n"], seed)
            whitened, k, means = whiten(data.columns)
            w = assemble_unmixing(fastica(whitened, max_iter=200, seed=seed), k, means).w_total
            cost = -np.log(np.maximum(np.abs(w), LOG_CLIP))
            _, cols = linear_sum_assignment(cost)
            assert hungarian(cost).mapping == tuple(int(c) for c in cols)
