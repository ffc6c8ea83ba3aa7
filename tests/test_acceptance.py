"""End-to-end acceptance checks.

One test per numbered criterion; the test name carries the number, so a
verbose pytest run shows exactly one PASS/FAIL line per criterion. Each
test also prints its measured quantities for inspection with -s (or in
the failure report). Tolerances are the contracted ones, not the tighter
values the implementation actually achieves.
"""
import math

import numpy as np
import pytest

from plrica import (
    CONTRASTS,
    NoiseSpec,
    PlrSpec,
    build_linear_mixing,
    csv_digest,
    emit_csv,
    estimate_homl,
    estimate_ica,
    extract_effects,
    extract_effects_from_mixing,
    fastica,
    ica_condition_value,
    metrics,
    multi_treatment_theta,
    ols_joint,
    resolve,
    run_scenario,
    scenario_from_config,
    score_cross_derivative,
    simulate,
    var_ica_mixing,
    whiten,
)
from plrica.ica import canonicalize

LAPLACE = NoiseSpec.laplace()


def _report(number: int, ok: bool, detail: str):
    line = f"acceptance {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mixing_unmixing_inverse_pairs():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-3, 3, m)), rng)
        mixing, unmixing = build_linear_mixing(spec)
        err = float(np.max(np.abs(mixing @ unmixing - np.eye(p + m + 1))))
        worst = max(worst, err)
    _report(1, worst <= 1e-10, f"max |A W - I| = {worst:.2e} over 100 specs")


def test_criterion_02_exact_extraction_under_scaling_and_permutation():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(1, 8))
        m = 2 if trial % 3 == 0 else int(rng.integers(1, 4))
        spec = resolve(PlrSpec(p=p, m=m, theta=rng.uniform(-3, 3, m)), rng)
        _, unmixing = build_linear_mixing(spec)
        d = p + m + 1
        scales = rng.uniform(0.2, 5.0, d) * rng.choice([-1.0, 1.0], d)
        perm = rng.permutation(d)
        scrambled = (unmixing * scales[:, None])[perm]
        want = np.asarray(spec.theta)
        # through canonicalize, and by both reads on the scrambled rows directly
        for got in (extract_effects(canonicalize(scrambled), p, m).theta_hat,
                    extract_effects(scrambled, p, m).theta_hat,
                    extract_effects_from_mixing(scrambled, p, m).theta_hat):
            if m > 1:
                err = float(np.max(np.abs(np.sort(got) - np.sort(want))))
            else:
                err = float(np.max(np.abs(got - want)))
            worst = max(worst, err)
    _report(2, worst <= 1e-12, f"max extraction error = {worst:.2e} over 100 scrambles, three reads")


def test_criterion_03_scalar_laplace_recovery_improves_with_n():
    medians = []
    for n in (500, 1000, 5000):
        errs = []
        for s in range(20):
            spec = PlrSpec(p=1, m=1, theta=[3.0],
                           noise_x=LAPLACE, noise_t=LAPLACE, noise_y=LAPLACE)
            ds = simulate(spec, n, seed=n + s)
            est = estimate_ica(ds, seed=s)
            errs.append(abs(est.theta_hat[0] - 3.0))
        medians.append(float(np.median(errs)))
    ok = medians[-1] <= 0.1 and all(a >= b for a, b in zip(medians, medians[1:]))
    ok = ok and all(m <= 0.1 for m in medians[-1:])
    _report(3, ok and medians[2] <= 0.1,
            "median |err| = " + ", ".join(f"{m:.3f}" for m in medians)
            + " at n = 500, 1000, 5000 (bound 0.1 at n=5000, non-increasing)")


def test_criterion_04_gaussian_covariates_still_identified():
    errs = []
    for s in range(20):
        spec = PlrSpec(p=3, m=1, theta=[3.0], noise_x=NoiseSpec.gaussian(),
                       noise_t=LAPLACE, noise_y=LAPLACE)
        ds = simulate(spec, 5000, seed=400 + s)
        est = estimate_ica(ds, seed=s)
        errs.append(abs(est.theta_hat[0] - 3.0))
    med = float(np.median(errs))
    _report(4, med <= 0.1, f"median |err| = {med:.3f} with gaussian covariates, p=3 (bound 0.1)")


def test_criterion_05_multi_treatment_accuracy_and_ols_parity():
    details, ok = [], True
    for m in (2, 5):
        theta = multi_treatment_theta(m)
        e_ica, e_ols = [], []
        for s in range(20):
            spec = PlrSpec(p=10, m=m, theta=theta,
                           noise_x=LAPLACE, noise_t=LAPLACE, noise_y=LAPLACE)
            ds = simulate(spec, 5000, seed=500 + s)
            est = estimate_ica(ds, seed=s)
            e_ica.append(metrics(theta, np.asarray(est.theta_hat)).mse)
            e_ols.append(metrics(theta, np.asarray(ols_joint(ds).theta_hat)).mse)
        mi, si = float(np.mean(e_ica)), float(np.std(e_ica, ddof=1))
        mo, so = float(np.mean(e_ols)), float(np.std(e_ols, ddof=1))
        bands_overlap = (mi - si) <= (mo + so) and (mo - so) <= (mi + si)
        ok = ok and mi <= 0.15 and bands_overlap
        details.append(f"m={m}: ica {mi:.3f}+-{si:.3f}, ols {mo:.3f}+-{so:.3f}")
    _report(5, ok, "; ".join(details) + " (bound 0.15, bands must overlap)")


def test_criterion_06_nonlinear_nuisance_recovery():
    details, ok = [], True
    for nl in ("tanh", "sigmoid"):
        for p in (2, 10):
            errs = []
            for s in range(20):
                spec = PlrSpec(p=p, m=1, theta=[1.55], nuisance=nl,
                               noise_x=LAPLACE, noise_t=LAPLACE, noise_y=LAPLACE)
                ds = simulate(spec, 5000, seed=600 + s)
                est = estimate_ica(ds, seed=s)
                errs.append(abs(est.theta_hat[0] - 1.55))
            med = float(np.median(errs))
            ok = ok and med <= 0.2
            details.append(f"{nl}/p={p}: {med:.3f}")
    _report(6, ok, "medians " + ", ".join(details) + " (bound 0.2)")


def test_criterion_07_degeneracy_flag_sensitivity_and_specificity():
    def flag_rate(noise):
        hits = 0
        for s in range(20):
            spec = PlrSpec(p=5, m=1, theta=[1.55],
                           noise_x=LAPLACE, noise_t=noise, noise_y=LAPLACE)
            ds = simulate(spec, 10_000, seed=700 + s)
            _, diag = estimate_homl(ds)
            hits += bool(diag.degenerate)
        return hits

    gauss = flag_rate(NoiseSpec.gaussian())
    threept = flag_rate(NoiseSpec.three_point())
    ok = gauss >= 18 and threept == 0
    _report(7, ok, f"gaussian flagged {gauss}/20 (need >= 18), three-point {threept}/20 (need 0)")


def test_criterion_08_condition_values_coincide_exactly():
    rng = np.random.default_rng(808)
    specs = [
        NoiseSpec.gaussian(), NoiseSpec.laplace(), NoiseSpec.uniform(),
        NoiseSpec.three_point(), NoiseSpec.generalized_normal(0.8),
        NoiseSpec.generalized_normal(1.4), NoiseSpec.generalized_normal(3.0),
        NoiseSpec.laplace(scale=float(rng.uniform(0.5, 2))).standardized(),
        NoiseSpec.uniform(scale=float(rng.uniform(0.5, 2))).standardized(),
        NoiseSpec.generalized_normal(float(rng.uniform(0.6, 4))).standardized(),
    ]
    ok, worst = True, 0.0
    for i, spec in enumerate(specs):
        value = ica_condition_value(spec)
        kurt = spec.standardized().moments().fourth_moment - 3.0
        # the higher-moment score's condition: the mean of z t(z) - t'(z) under
        # the cube contrast; one row, so the derivative mean is t'(z) per draw
        z = spec.standardized().sample(200_000, np.random.default_rng(880 + i))[None, :]
        t, tprime = CONTRASTS["cube"](z)
        score = z[0] * t[0] - tprime
        se = float(score.std(ddof=1)) / math.sqrt(score.size)
        worst = max(worst, abs(float(score.mean()) - value) / se)
        ok = ok and abs(value - kurt) <= 1e-12
    ok = ok and worst <= 4.0
    _report(8, ok, "10 noise specs: the condition value is the excess fourth moment "
                   f"(1e-12) and the mean cube score (worst {worst:.2f} se, bound 4)")


def test_criterion_09_variance_formula_calibration():
    # scalar design a = b = c, theta = 1, multiplier (b + a*theta)^2 in {0, 1, 4};
    # the exact mixing-read limit here is 1 + multiplier * 1090/343
    noise_t = NoiseSpec.uniform()
    n, seeds = 10_000, 120
    measured, predicted = [], []
    for c in (0.0, 0.5, 1.0):
        spec = PlrSpec(p=1, m=1, theta=[1.0], a_block=[[c]], b_block=[c],
                       noise_x=LAPLACE, noise_t=noise_t, noise_y=LAPLACE)
        reps = [noise.moments() for noise in spec.effective_noises()]
        predicted.append(float(var_ica_mixing([[c]], [c], [1.0], *reps)[0]))
        theta_hats = []
        for s in range(seeds):
            ds = simulate(spec, n, seed=90_000 + s)
            z, k, _ = whiten(ds.columns)
            res = fastica(z, contrast="cube", mode="parallel", seed=s)
            theta_hats.append(extract_effects_from_mixing(res.w_rotation @ k, 1, 1).theta_hat[0])
        measured.append(n * float(np.var(theta_hats, ddof=1)))
    ratios = [mv / pv for mv, pv in zip(measured, predicted)]
    monotone = measured[0] < measured[1] < measured[2]
    in_band = all(0.7 <= r <= 1.3 for r in ratios)
    detail = ("n*Var = " + ", ".join(f"{v:.2f}" for v in measured)
              + " vs predicted " + ", ".join(f"{v:.2f}" for v in predicted)
              + f"; ratios {', '.join(f'{r:.2f}' for r in ratios)}"
              + f"; monotone={monotone}")
    _report(9, monotone and in_band, detail)


def test_criterion_10_numerator_gap_matches_monte_carlo():
    rng = np.random.default_rng(1010)
    ok, details = True, []
    for noise in (NoiseSpec.laplace().standardized(), NoiseSpec.uniform(),
                  NoiseSpec.three_point()):
        rep = noise.moments()
        closed = (3.0 - rep.fourth_moment) ** 2
        draws = noise.sample(1_000_000, rng)
        t = draws**3
        a = 3.0 * draws**2 - draws * t
        mu_a, mu_t = float(a.mean()), float(t.mean())
        gap_mc = mu_a**2 - mu_t**2
        nvar = (4 * mu_a**2 * a.var(ddof=1) + 4 * mu_t**2 * t.var(ddof=1)
                - 8 * mu_a * mu_t * float(np.cov(a, t, ddof=1)[0, 1]))
        se = math.sqrt(max(nvar, 1e-30) / draws.size)
        ok = ok and abs(gap_mc - closed) <= 3 * se
        details.append(f"{noise.family}: |{gap_mc:.4f} - {closed:.4f}| vs 3SE={3 * se:.4f}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_score_cross_derivative_returns_theta():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for trial in range(10):
        p = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        theta = rng.uniform(-2, 2, m)
        nuisance = "linear" if trial < 5 else "tanh"
        spec = resolve(PlrSpec(p=p, m=m, theta=theta, nuisance=nuisance,
                               noise_x=LAPLACE, noise_t=LAPLACE,
                               noise_y=NoiseSpec.gaussian()), rng)
        got = score_cross_derivative(spec, rng.uniform(-1, 1, p),
                                     rng.uniform(-1, 1, m), float(rng.uniform(-1, 1)))
        worst = max(worst, float(np.max(np.abs(got - theta))))
    _report(11, worst <= 1e-3,
            f"max |cross-derivative - theta| = {worst:.2e} over 10 specs (bound 1e-3)")


def test_criterion_12_experiment_results_deterministic(tmp_path):
    config = scenario_from_config("scenario = default_test")
    digests = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        records = run_scenario(config, workers=workers)
        path = tmp_path / f"run_{tag}.csv"
        emit_csv(records, path)
        digests.append(csv_digest(path))
    ok = len(set(digests)) == 1
    _report(12, ok, f"digests across two runs and workers {{1,4}}: "
                    f"{digests[0][:16]}..., all equal={ok}")
