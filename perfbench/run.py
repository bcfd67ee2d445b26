"""Campaign benchmark: paper-size cold and warm CLI runs (``paper``)
and an API service mix (``service-mix``).

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, and
reports its timings in reference seconds: scaled by the host speed
probed while they were measured (see ``calib.py``; the measured values
and the run's scale go to the results file).  ``--trace 1``
makes one untraced and one traced pass and reports the per-layer
metrics from the spans, as measured.  Every run checks the program's
outputs against the references in ``refs/`` (recorded by
``record.py`` from cache-free runs) and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, the environment and (traced) the Chrome trace and self-time
table go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (HERE.parent / "src" / "repro" / "cli.py").is_file():
        print("error: run from a checkout of the repository: "
              "src/repro/cli.py is missing", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, tally, detail = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = workloads.environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems}
    record.update({k: v for k, v in detail.items() if k != "layer_table"})
    workloads.OUT.mkdir(exist_ok=True)
    with open(workloads.OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"environment: {json.dumps(env)}")
    if "host_scale" in detail:
        print(f"host speed: timings are in reference seconds, about "
              f"measured x {detail['host_scale']:.4f} "
              f"({detail['probe_samples']} probe samples)")
    if "samples" in detail:
        s = detail["samples"]
        print(f"samples: {s['n']} ops ({s['cold']} cold, {s['warm']} "
              f"warm); op_tail_s is p{s['tail_pct']:.0f}")
    if "layer_table" in detail:
        print(detail["layer_table"])
        for phase, counters in detail["phases"].items():
            print(f"{phase} phase: {json.dumps(counters)}")
        for change in detail["counter_changes"]:
            print(f"COUNTER CHANGE: {change}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
