"""From raw columns to a treatment effect, one stage at a time.

estimate_ica() wraps three steps: whiten by the Cholesky factor, rotate
(FastICA, started from the unmixing least squares implies), read the
effects off the row nearest the start's outcome row. Here each stage runs
separately so the intermediate objects can be inspected, then the one-call
path confirms it gives the same estimate bit for bit. The read off the
implied mixing matrix also uses the treatment's row, so it runs on a fit
that waits for every row; both reads take W K as the fit returns it.

Run: python demos/02_source_separation_pipeline.py
"""
import numpy as np

from plrica import (
    NoiseSpec,
    PlrSpec,
    estimate_ica,
    extract_effects,
    extract_effects_from_mixing,
    fastica,
    regression_start,
    simulate,
    stationarity_residual,
    whiten,
)

lap = NoiseSpec.laplace()
spec = PlrSpec(p=2, m=1, theta=[3.0], noise_x=lap, noise_t=lap, noise_y=lap)
data = simulate(spec, n=10_000, seed=11)

# stage 1: whitening. output has identity sample covariance, and the
# whitening matrix K is lower triangular: whitened column j is the
# standardized residual of column j on the columns before it
z, k_matrix, means = whiten(data.columns)
print("whitened cov err:", np.max(np.abs(z.T @ z / len(z) - np.eye(4))))

# stage 2: orthogonal rotation by fixed-point iteration, started from the
# unmixing that regressing T on X and Y on (X, T) implies. In whitened
# coordinates that start is the block diagonal of K^-1, and its outcome row
# is the last unit vector. It is a root-n consistent estimate of the exact
# unmixing, so few sweeps remain. anchor=3 makes the stop test watch only
# the row read below, the one with the largest |entry| in column 3, as
# estimate_ica does
w0 = regression_start(k_matrix, p=2, m=1)
print("regression-implied start in whitened coordinates:")
print(np.round(w0, 3))
raw_start = w0 @ k_matrix
print("the same start on the raw columns (rows: xi, eta, eps):")
print(np.round(raw_start / np.diag(raw_start)[:, None], 3))
result = fastica(z, contrast="logcosh", seed=0, w_init=w0, anchor=3)
print("converged:", result.converged, "in", result.iterations, "sweeps from that start")
print("rotation orthonormality err:",
      np.max(np.abs(result.w_rotation @ result.w_rotation.T - np.eye(4))))
cos = np.abs(result.w_rotation[:, 3])
print("|cos| of each final row with the start's outcome row:", np.round(cos, 3))
print("read row stationarity residual:",
      f"{stationarity_residual(z, result.w_rotation[np.argmax(cos)], 'logcosh'):.2e}")

# stage 3: the rows come back in any order and scale, but the start names
# the outcome row e_3. extract_effects folds the whitening back in, takes
# the row with the largest |entry| in the Y column, the one nearest e_3, and
# scales it to a unit Y entry; its X and T entries are then -b and -theta
theta = extract_effects(result.w_rotation @ k_matrix, p=2, m=1).theta_hat
print("theta via the anchored outcome row:", theta)

# the mixing read below also uses the row of the treatment, which the
# anchored stop does not watch, so its fit waits for every row to settle
every_row = fastica(z, contrast="logcosh", seed=0, w_init=w0)
print("\nall-rows fit: converged:", every_row.converged, "in", every_row.iterations, "sweeps")
unmixing = every_row.w_rotation @ k_matrix
print("theta via the outcome row:", extract_effects(unmixing, p=2, m=1).theta_hat)

# same number read from the implied mixing matrix W^-1: its outcome-row
# entry in the treatment's row (the other row with the largest |entry| in
# the T column), times that row's T entry, in any row order and scale.
# identical up to sampling noise reweighting, and exactly equal on
# noiseless input
effect_mix = extract_effects_from_mixing(unmixing, p=2, m=1)
print("theta via mixing entry:", effect_mix.theta_hat)

one_call = estimate_ica(data, seed=0)
print("\none-call estimate:", one_call.theta_hat,
      "| converged:", one_call.diagnostics.converged,
      "| sweeps:", one_call.diagnostics.iterations,
      "| anchored |cos|:", f"{one_call.diagnostics.condition_value:.3f}")
assert np.array_equal(one_call.theta_hat, theta), "stages and one call disagree"

# multiple treatments come back as a vector in column order, read off the
# same anchored row
multi = simulate(PlrSpec(p=2, m=2, theta=[1.5, -0.5],
                         noise_x=lap, noise_t=lap, noise_y=lap), 10_000, seed=12)
print("\nm=2 estimate:", np.round(estimate_ica(multi, seed=0).theta_hat, 3))
