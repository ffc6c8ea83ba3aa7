"""Fast self-test of the benchmark on a default_test-sized grid.

Run from the repository root:

    python3 bench/selftest.py

It runs both modes of bench/run.py on a tiny workload and checks that every
metric named in BENCHMARK.json appears with its unit, then corrupts a
results CSV and checks that the correctness checks fire. Exits 0 on success.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {"config": ["scenario = default_test", "seeds = 1"], "batches_per_second": 1.0,
        "why": "self-test only"}


def fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def check_metrics(trace: int, expected: list) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "selftest", "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 0 or result["correct"] is not True or result["failed"] != 0:
        fail(f"trace {trace}: run was not correct: exit {code}, {result}")
    if result["attempted"] < 1:
        fail(f"trace {trace}: nothing attempted")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"trace {trace}: metric {metric['name']} missing")
        if got["unit"] != metric["unit"]:
            fail(f"trace {trace}: {metric['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        if not isinstance(got["value"], (int, float)) or math.isnan(got["value"]):
            fail(f"trace {trace}: {metric['name']} is not a number: {got['value']}")


def expect_check_failure(action, what: str) -> None:
    try:
        action()
    except run.CheckFailed:
        return
    fail(f"corrupted {what} was not detected")


def check_corruption() -> None:
    """Alter one estimate and one true effect in a written CSV."""
    config = run.harness.scenario_from_config(run.config_text("selftest", 7, 0))
    path = run.OUT_DIR / "selftest-corrupt.csv"
    records, digest, _ = run.run_grid(config, path)
    run.check_roundtrip(records, path)
    run.check_truth(config, records)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for column in ("theta_hat", "theta_true"):
        idx = header.index(column)
        row = lines[1].split(",")
        row[idx] = repr(float(row[idx]) + 1.0)
        corrupt = [lines[0], ",".join(row)] + lines[2:]
        path.write_text("\n".join(corrupt) + "\n", encoding="utf-8")
        if run.harness.csv_digest(path) == digest:
            fail(f"corrupting {column} left the digest unchanged")
        expect_check_failure(lambda: run.check_roundtrip(records, path), f"{column} round trip")
        if column == "theta_true":
            expect_check_failure(lambda: run.check_truth(config, run.harness.read_records(path)),
                                 "theta_true against the cell spec")
    path.unlink()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.PLAN["workloads"]["selftest"] = TINY
    run.OUT_DIR.mkdir(exist_ok=True)
    check_metrics(0, spec["end_to_end"])
    check_metrics(1, spec["per_layer"])
    check_corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
