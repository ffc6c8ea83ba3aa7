"""When each route breaks, and how to see it coming.

Both identification routes lean on one fourth-moment quantity of the
noise, ica_condition_value:

  source separation     needs E[z^4] - 3 != 0
  higher-moment score   needs E[z t(z)] - E[t'(z)] != 0

For the cubic contrast t(z) = z^3 the higher-moment condition is the
excess kurtosis E[z^4] - 3 itself, so one value serves both routes.
Gaussian noise is the canonical failure. The flip side is that looking
pathological does not mean being degenerate: the symmetric three-point
law on {-sqrt(2), 0, sqrt(2)} takes only three values, yet its excess
kurtosis is -1, so the condition holds and neither method objects.

ica_condition_value is exact for a known law. On data, the check is the
higher-moment estimator's degeneracy flag: it tests the sample moment
denominator against 3 standard errors.

Run: python demos/04_degeneracy_and_conditions.py
"""
from plrica import (
    NoiseSpec,
    PlrSpec,
    estimate_homl,
    ica_condition_value,
    simulate,
)

three_point = NoiseSpec.three_point()
families = {
    "laplace": NoiseSpec.laplace(),
    "uniform": NoiseSpec.uniform(),
    "gaussian": NoiseSpec.gaussian(),
    "three-point": three_point,
}

print(f"{'family':>12} {'condition':>10}")
for name, spec in families.items():
    print(f"{name:>12} {ica_condition_value(spec):>10.4f}")

# The numbers above are exact. Watch the higher-moment estimator notice its own degeneracy. With
# Gaussian treatment noise the moment denominator is indistinguishable
# from zero and the diagnostics say so; with the three-point noise the
# denominator sits at -1 and the flag stays quiet, discreteness aside.
lap = NoiseSpec.laplace()
print("\nhigher-moment estimator on 10 simulated datasets, n = 5000:")
cases = (("gaussian eta", NoiseSpec.gaussian()),
         ("three-point eta", three_point),
         ("laplace eta", lap))
for label, noise_t in cases:
    spec = PlrSpec(p=3, m=1, theta=[3.0], noise_x=lap, noise_t=noise_t, noise_y=lap)
    flagged = 0
    for seed in range(10):
        data = simulate(spec, 5000, seed=seed)
        _, diag = estimate_homl(data)
        flagged += bool(diag.degenerate[0])
    print(f"  {label}: degenerate flag raised on {flagged}/10 runs")

# Degeneracy is about one scalar functional, not about how strange the
# distribution looks. A Gaussian is as regular as distributions get and
# fails; the three-point law could not look less Gaussian and passes.
print(f"\nthree-point law: condition = {ica_condition_value(three_point):+.4f}; "
      "the condition asks about this one number and nothing else")
