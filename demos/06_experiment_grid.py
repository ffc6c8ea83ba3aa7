"""Batch experiments: config text to CSV to aggregated comparison.

A scenario is a grid of cells (sample sizes x dimensions x any swept
axes), each replicated over independent seeds. Seeds derive from cell
content, not execution order, so a run is reproducible at any worker
count and any subset of the grid. The contrast is left out of that
content, so every contrast of a replication fits the same dataset.

Run: python demos/06_experiment_grid.py
"""
import tempfile
from pathlib import Path

from plrica import (
    BUILTIN_SCENARIOS,
    aggregate,
    band_verdict,
    cell_seed,
    csv_digest,
    emit_csv,
    parse_noise,
    read_records,
    run_scenario,
    scenario_from_config,
)
from plrica.harness import record_key

print("registered scenario templates:")
for name in BUILTIN_SCENARIOS:
    print(f"  {name}")

# Configs are flat key = value text. Any key overrides the chosen
# template; noises use a compact call syntax.
CONFIG = """
scenario = default_test
label = demo_grid
sample_sizes = [300, 1200]
seeds = 4
methods = [ica, ols]
noise_y = laplace          # same family as the template, stated explicitly
"""
config = scenario_from_config(CONFIG)
print(f"\nparsed scenario '{config.scenario}': "
      f"{len(config.cells())} cells x {config.seeds} seeds x {len(config.methods)} methods")
print("noise syntax examples:", parse_noise("gennorm(1.5)"), "|",
      parse_noise("uniform(loc=1, scale=2)"))

# Seeds are a pure function of (scenario, cell content but the contrast,
# replication index).
cell = config.cells()[0]
print(f"\ncell {cell} -> seed {cell_seed(config.scenario, cell, 0)} "
      "(stable across runs and machines)")

records = run_scenario(config, workers=2)
print(f"\nran {len(records)} replications")

out = Path(tempfile.gettempdir()) / "plrica_demo_results.csv"
emit_csv(records, out)
digest = csv_digest(out)
again = run_scenario(config, workers=1)
emit_csv(again, out)
assert csv_digest(out) == digest, "determinism broke"
print(f"csv digest (stable across worker counts): {digest[:16]}...")

# Round-trip and summarize. mse is the 2-norm distance to the true
# effect vector; aggregate() averages it per cell.
stats = aggregate(read_records(out))
print(f"\n{'n':>6} {'method':>6} {'mean err':>9} {'std':>7}")
for key in sorted(stats, key=lambda k: (k[1], k[7])):
    st = stats[key]
    print(f"{key[1]:>6} {key[7]:>6} {st.mean_mse:>9.4f} {st.std_mse:>7.4f}")

# Is either method clearly ahead at the larger sample size? Compare
# one-standard-deviation bands.
by_method = {key[7]: stats[key] for key in stats if key[1] == 1200}
verdict = band_verdict(by_method["ica"], by_method["ols"])
print(f"\nica vs ols at n = 1200: {verdict}")
print("record key fields:", record_key(records[0]))
