"""Large-sample variance formulas and what they predict.

variance_report() bundles three numbers for a process spec:

  var_homl            higher-moment orthogonal score
  var_ica_hyvarinen   fixed-point source separation, unmixing read
  var_ica_auddy       the paper's prefactor form for the mixing-matrix read

plus the numerator gap between the first two (they share a denominator
when treatment and outcome noise coincide) and a regime label saying
which route is asymptotically tighter.

Run: python demos/05_asymptotic_variances.py
"""
import numpy as np

from plrica import (
    NoiseSpec,
    PlrSpec,
    compare_numerators,
    estimate_homl,
    estimate_ica,
    resolve,
    score_cross_derivative,
    simulate,
    var_ica_mixing,
    variance_report,
)

lap = NoiseSpec.laplace()
spec = PlrSpec(p=3, m=1, theta=[3.0], noise_x=lap, noise_t=lap, noise_y=lap,
               a_block=[[0.5, -0.2, 0.1]], b_block=[1.0, 0.3, -0.4])

rep = variance_report(spec)
print("all-laplace spec:")
print(f"  var_homl          = {rep.var_homl:.4f}")
print(f"  var_ica_hyvarinen = {rep.var_ica_hyvarinen:.4f}")
print(f"  var_ica_auddy     = {rep.var_ica_auddy:.4f}")
print(f"  numerator gap     = {rep.numerator_gap:.4f}")
print(f"  regime            = {rep.regime}")

# var_ica_auddy is not a bound: the exact limit of the mixing read after
# symmetric cube-contrast iteration comes from the pair variances of the
# gain matrix and the sample-whitening constraint.
noise_reps = [noise.moments() for noise in spec.effective_noises()]
exact = var_ica_mixing(spec.a_block, spec.b_block, spec.theta, *noise_reps)[0]
print(f"  var_ica_mixing    = {exact:.4f}  (exact, cube contrast, parallel mode)")

# The gap has a closed form: (E[t'(z)] - E[z t(z)])^2 - E[t(z)]^2 under
# the cubic contrast. A Monte Carlo evaluation of those expectations
# lands within sampling error of the same number, which is how the
# formula was pinned down before being frozen into the tests.
z = lap.standardized().sample(1_000_000, np.random.default_rng(0))
tz = z**3
mc_gap = (3.0 * (z**2).mean() - (z * tz).mean()) ** 2 - tz.mean() ** 2
print(f"\nnumerator gap, formula vs 1e6-draw MC: "
      f"{compare_numerators(lap.moments()):.4f} vs {mc_gap:.4f}")

# Regime flips when the outcome noise shrinks: var_homl is proportional
# to Var(eps) while the unmixing-read variance is scale-free, so a quiet
# outcome makes the moment score the tighter route.
quiet = PlrSpec(p=3, m=1, theta=[3.0], noise_x=lap, noise_t=lap,
                noise_y=NoiseSpec.laplace(scale=0.1), standardize_noise=False,
                a_block=[[0.5, -0.2, 0.1]], b_block=[1.0, 0.3, -0.4])
print(f"outcome noise at scale 0.1: regime = {variance_report(quiet).regime}")

# Do the formulas describe real sampling error? Estimate theta on many
# replications and compare n * Var against the prediction. The moment
# score tracks its formula closely. var_ica_hyvarinen is a cube-contrast
# formula, while estimate_ica defaults to the logcosh contrast and the
# unmixing read, so the two numbers below describe different estimators.
# No exact limit for the logcosh unmixing read exists yet.
n, reps = 4000, 60
ica_hat, homl_hat = [], []
for s in range(reps):
    data = simulate(spec, n, seed=5000 + s)
    ica_hat.append(estimate_ica(data, seed=s).theta_hat[0])
    est, _ = estimate_homl(data)
    homl_hat.append(est.theta_hat[0])
print(f"\nn * Var over {reps} replications at n = {n}:")
print(f"  ica : {n * np.var(ica_hat):.2f}  (cube-contrast formula {rep.var_ica_hyvarinen:.2f}; "
      "the logcosh unmixing read has no exact formula yet)")
print(f"  homl: {n * np.var(homl_hat):.2f}  (formula {rep.var_homl:.2f})")

# score_cross_derivative probes the joint log density directly. With
# Gaussian outcome noise the cross term d^2/(dt dy) log p is exactly
# theta, independent of the evaluation point.
gspec = resolve(PlrSpec(p=2, m=2, theta=[1.55, 0.65], noise_x=lap,
                        noise_t=lap, noise_y=NoiseSpec.gaussian()),
                np.random.default_rng(4))
val = score_cross_derivative(gspec, x=[0.3, -1.1], t=[0.5, 2.0], y=-0.7)
print(f"\ncross-derivative of log density at an arbitrary point: {np.round(val, 6)}")
print(f"theta used to generate the data:                        {gspec.theta}")
