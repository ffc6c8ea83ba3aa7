"""From raw columns to a treatment effect, one stage at a time.

estimate_ica() wraps three steps: whiten by the Cholesky factor, rotate
(FastICA, started from the unmixing least squares implies), read the
effects off the row nearest the start's outcome row. Here each stage runs
separately so the intermediate objects can be inspected, then the one-call
path confirms it gives the same estimate bit for bit. canonicalize()
resolves every row without a start.

Run: python demos/02_source_separation_pipeline.py
"""
import numpy as np

from plrica import (
    NoiseSpec,
    PlrSpec,
    assemble_unmixing,
    canonicalize,
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
# unmixing, so few sweeps remain. The stop test here waits for every row,
# as canonicalize below reads them all; estimate_ica passes anchor=3 and
# waits only for the row it reads, which on this dataset stops at the
# same sweep
w0 = regression_start(k_matrix, p=2, m=1)
print("regression-implied start in whitened coordinates:")
print(np.round(w0, 3))
raw_start = w0 @ k_matrix
print("the same start on the raw columns (rows: xi, eta, eps):")
print(np.round(raw_start / np.diag(raw_start)[:, None], 3))
result = fastica(z, contrast="logcosh", seed=0, w_init=w0)
print("converged:", result.converged, "in", result.iterations, "sweeps from that start")
print("rotation orthonormality err:",
      np.max(np.abs(result.w_rotation @ result.w_rotation.T - np.eye(4))))
print("row 0 stationarity residual:",
      f"{stationarity_residual(z, result.w_rotation[0], 'logcosh'):.2e}")

# stage 3: the rows come back in any order and scale, but the start names
# the outcome row e_3: take the final row nearest it, the one with the
# largest |entry| in column 3, fold the whitening back in and scale it to a
# unit Y entry. Its X and T entries are then -b and -theta
cos = np.abs(result.w_rotation[:, 3])
print("\n|cos| of each final row with the start's outcome row:", np.round(cos, 3))
outcome_row = (result.w_rotation @ k_matrix)[np.argmax(cos)]
theta = -(outcome_row[2:3] / outcome_row[3])
print("theta via the anchored outcome row:", theta)

# canonicalize resolves every row without a start, by a minimum-cost
# assignment of rows to sources; here it matches the same outcome row
canonical = canonicalize(assemble_unmixing(result, k_matrix, means, "logcosh"))
print("\ncanonical unmixing (rows: xi, eta, eps):")
print(np.round(canonical, 3))
print("theta via canonical unmixing row:", extract_effects(canonical, p=2, m=1).theta_hat)

# same number read from the implied mixing matrix; identical up to
# sampling noise reweighting, and exactly equal on noiseless input
effect_mix = extract_effects_from_mixing(canonical, p=2, m=1)
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
