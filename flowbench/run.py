"""Benchmark of the aging-aware floorplanner: one workload per run.

    python3 flowbench/run.py --workload table1-default --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric instead.  Rows above it
show each design or job.  The metric names and units are those of
BENCHMARK.json.  The exit code is 0 only when every output passed its
checks.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, ROOT, SRC, environment, peak_rss_mb  # noqa: E402

WORKLOADS = ("table1-default", "eq3-feasibility", "service-replay")

#: Metrics printed on every untraced run but left out of the result.  In a
#: closed loop with a fixed number of clients the first three follow from
#: a listed metric: cold_jobs_per_s is jobs / suite_s, warm_jobs_per_s is
#: clients / mean hit latency, and miss_p50_s is the middle job of the
#: cold phase, whose total is suite_s.  hit_p50_ms jumps between a fast
#: and a slow mode of the host from run to run; README.md has the figures.
INFO_UNITS = {
    "cold_jobs_per_s": "1/s",
    "miss_p50_s": "s",
    "warm_jobs_per_s": "1/s",
    "hit_p50_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_FAULTS"):
        print("error: REPRO_FAULTS is set; fault injection would make the "
              "measurements meaningless. Unset it and run again.",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(work)
    print(f"# flowbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.workload == "service-replay":
        import serve as workload
    else:
        import flows as workload
    began = time.perf_counter()
    try:
        attempted, failures, values = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()
    # Metric names and units come from BENCHMARK.json, so the two agree.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    unknown = set(values) - set(units) - set(INFO_UNITS)
    if unknown:
        raise RuntimeError(f"unlisted metrics: {sorted(unknown)}")
    missing = set(units) - set(values)
    if missing and not args.trace:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    for failure in failures:
        print(f"FAIL {failure}")
    failed = len(failures)
    print(f"# attempted {attempted}, failed {failed}; "
          f"run took {time.perf_counter() - began:.1f} s")
    metrics = {}
    for name, unit in units.items():
        # A layer the workload does not exercise reads 0.
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value:.6g} {unit}")
    if not args.trace:
        # Printed for reading, not in the result: each one is fixed by a
        # listed metric or by attempted/failed.  See README.md.
        info = {
            "failed_share": (failed / max(1, attempted), "fraction"),
            "degraded_share": (1.0 - values["clean_share"], "fraction"),
            **{name: (values[name], unit)
               for name, unit in INFO_UNITS.items() if name in values},
        }
        for name, (value, unit) in info.items():
            print(f"info {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
