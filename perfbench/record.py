"""Record the benchmark's references from cache-free runs.

    python3 perfbench/record.py references   # refs/paper.json, refs/mix.json
    python3 perfbench/record.py counters --seeds 1 2

``references`` runs the paper-size campaign through the CLI with
``--no-cache`` (DC/SFF strings and outcome table) and every campaign
of the benchmark without a store through the public campaign API
(per-fault outcomes).  ``counters`` makes traced runs and records the
exact simulator counters that a speed-only change must leave
identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import mix  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def cache_free(variant: str, banks: int = 1, bank_flags=None,
               full: bool = False, workers: int = 1) -> dict:
    """Outcomes of one campaign fully simulated, without a store."""
    from repro.faultinjection import build_environment
    from repro.faultinjection.manager import CampaignConfig
    from repro.faultinjection.parallel import CampaignSpec
    from repro.faultinjection.supervisor import CampaignSupervisor
    from repro.service.core import make_subsystem

    sub = make_subsystem(variant, banks=banks, bank_flags=bank_flags)
    env = build_environment(sub, quick=not full)
    spec = CampaignSpec.from_environment(env, config=CampaignConfig())
    result = CampaignSupervisor(spec, workers=workers).run(
        env.candidates())
    faults = {reference.fault_key(seq, r.fault.zone, r.fault.name):
              result.outcome_of(r)
              for seq, r in enumerate(result.results)}
    return {"design": sub.cfg.name, "faults": len(result.results),
            "exit_code": 0, "measured_dc": result.measured_dc(),
            "safe_fraction": result.measured_safe_fraction(),
            "outcomes": reference.outcome_counts(faults),
            "fault_outcomes": faults}


def record_references() -> None:
    work = HERE / ".work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        r = workloads.run_program(
            ["-m", "repro.cli", *workloads.PAPER_ARGS, "--no-cache"],
            work / "paper.txt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r["code"] != 0:
        raise SystemExit(f"cache-free paper campaign failed:\n{r['out']}")
    parsed = reference.parse_campaign_output(r["out"])
    paper = cache_free("improved", full=True, workers=2)
    table = {k: v for k, v in parsed["outcomes"].items() if v}
    if table != paper["outcomes"] or parsed["faults"] != paper["faults"]:
        raise SystemExit(f"CLI table {table} disagrees with the "
                         f"per-fault outcomes {paper['outcomes']}")
    paper.update(design=parsed["design"], dc=parsed["dc"],
                 sff=parsed["sff"])
    (reference.REFS / "paper.json").write_text(
        json.dumps(paper, indent=1, sort_keys=True) + "\n")
    refs = {mix.spec_key(spec): cache_free(**spec)
            for spec in mix.spec_pool()}
    (reference.REFS / "mix.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")


def record_counters(seeds: list[int]) -> None:
    """Counters of one traced run per workload and seed; they must not
    depend on the seed (a traced service-mix pass runs every spec of
    the pool once, in seeded order)."""
    from layers import EXACT_COUNTERS
    counters = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            work = HERE / ".work" / "record-counters"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                metrics, tally, _ = workloads.run(workload, seed, 1, True,
                                                  work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if tally.failed:
                raise SystemExit(f"{workload}: {tally.problems}")
            got = {name: metrics[name][0] for name in EXACT_COUNTERS}
            print(workload, seed, got, flush=True)
            if counters.setdefault(workload, got) != got:
                raise SystemExit(f"{workload}: counters depend on the "
                                 f"seed: {counters[workload]} vs {got}")
    (reference.REFS / "counters.json").write_text(
        json.dumps(counters, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    p = sub.add_parser("counters")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    if args.what == "references":
        record_references()
    else:
        record_counters(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
