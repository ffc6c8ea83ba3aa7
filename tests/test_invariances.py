"""Invariances of the estimators, checked without a reference implementation.

The regression start is affine-equivariant and the contrast iteration is
rotation-equivariant, so ica's theta_hat should not move when X -> X M for
an invertible M or Y -> Y + X v + 7, and should scale by 1/c_j when
T_j -> c_j T_j; least squares is exactly equivariant. The lasso baselines
standardize their columns, so oml and homl do not depend on the units of X.
They do depend on a mixing of X, whose nuisance coefficients become dense.
"""
import numpy as np
import pytest

from plrica import (Dataset, NoiseSpec, PlrSpec, estimate_homl, estimate_ica, estimate_oml,
                    ols_joint, simulate)

LAPLACE = NoiseSpec.laplace()


def design(index):
    """A random Laplace design (n = 3000, p in [2, 11], m in {1, 2}) and its rng."""
    rng = np.random.default_rng(1500 + index)
    p, m = int(rng.integers(2, 12)), int(rng.integers(1, 3))
    spec = PlrSpec(p=p, m=m, theta=list(rng.uniform(-2, 2, m)),
                   noise_x=LAPLACE, noise_t=LAPLACE, noise_y=LAPLACE)
    return simulate(spec, 3000, seed=1500 + index), rng


def reparametrized(ds, rng):
    """(X M, T diag(c), Y + X v + 7) and c, with M = N(0, 1) + 3 I."""
    mix = rng.standard_normal((ds.p, ds.p)) + 3.0 * np.eye(ds.p)
    c = rng.uniform(0.5, 3.0, ds.m) * rng.choice([-1.0, 1.0], ds.m)
    y = ds.y + ds.x @ rng.standard_normal(ds.p) + 7.0
    return Dataset(np.column_stack([ds.x @ mix, ds.t * c, y]), ds.p, ds.m), c


@pytest.mark.parametrize("index", range(6))
def test_ica_affine_equivariant(index):
    # the iterations from the two starts stop at different sweeps, so theta_hat
    # agrees to the stop tolerance, not to rounding
    ds, rng = design(index)
    moved, c = reparametrized(ds, rng)
    before, after = estimate_ica(ds, tol=1e-10), estimate_ica(moved, tol=1e-10)
    assert before.diagnostics.converged and after.diagnostics.converged
    assert np.max(np.abs(after.theta_hat * c - before.theta_hat)) <= 1e-5


@pytest.mark.parametrize("index", range(6))
def test_ols_affine_equivariant(index):
    ds, rng = design(index)
    moved, c = reparametrized(ds, rng)
    assert np.max(np.abs(ols_joint(moved).theta_hat * c - ols_joint(ds).theta_hat)) <= 1e-12


@pytest.mark.parametrize("shift", [1e4, 1e6, 1e8])
def test_ols_ignores_a_shift_of_every_column(shift):
    # shifting every column by 1e8 rounds each entry by up to 7.5e-9, which
    # leaves 5e-10 on theta_hat
    spec = PlrSpec(p=2, theta=[3.0], noise_x=LAPLACE, noise_t=LAPLACE, noise_y=LAPLACE)
    ds = simulate(spec, 2000, seed=3)
    moved = ols_joint(Dataset(ds.columns + shift, ds.p, ds.m))
    assert moved.diagnostics.notes == ""
    assert abs(moved.theta_hat[0] - ols_joint(ds).theta_hat[0]) <= 1e-9


@pytest.mark.parametrize("index", range(3))
def test_lasso_baselines_ignore_the_units_of_x(index):
    ds, rng = design(index)
    columns = ds.columns.copy()
    columns[:, :ds.p] *= 10.0 ** rng.uniform(-3, 3, ds.p)
    scaled = Dataset(columns, ds.p, ds.m)
    assert np.max(np.abs(estimate_oml(scaled).theta_hat - estimate_oml(ds).theta_hat)) <= 1e-12
    assert np.max(np.abs(estimate_homl(scaled)[0].theta_hat
                         - estimate_homl(ds)[0].theta_hat)) <= 1e-12
