"""Reference outputs and the comparisons every timed run is checked by.

References are recorded once from cache-free runs (``record.py``) and
stored under ``refs/``.  A timed run is correct only when its DC and
safe-fraction strings, its outcome table, its per-fault outcomes and
its store counters all match.
"""

from __future__ import annotations

import json
import re
import sqlite3
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

_HEADER = re.compile(r"^=== campaign: (\S+), (\d+) faults ===$")
_ROW = re.compile(r"^\|\s*([a-z_]+)\s*\|\s*(\d+)\s*\|")
_DC = re.compile(r"^measured DC:\s+(\S+)$")
_SFF = re.compile(r"^measured safe fraction:\s+(\S+)$")
_STORE = re.compile(r"^store: (\d+) hits, (\d+) misses .*?, "
                    r"(\d+) faults simulated$")


def load(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


def parse_campaign_output(text: str) -> dict:
    """The checkable fields of ``soc-fmea campaign`` stdout."""
    out: dict = {"design": None, "faults": None, "outcomes": {},
                 "dc": None, "sff": None, "store": None}
    in_table = False
    for line in text.splitlines():
        line = line.rstrip()
        if m := _HEADER.match(line):
            out["design"], out["faults"] = m.group(1), int(m.group(2))
            in_table = True
        elif in_table and (m := _ROW.match(line)):
            if m.group(1) != "outcome":
                out["outcomes"][m.group(1)] = int(m.group(2))
        elif m := _DC.match(line):
            out["dc"], in_table = m.group(1), False
        elif m := _SFF.match(line):
            out["sff"] = m.group(1)
        elif m := _STORE.match(line):
            out["store"] = {"hits": int(m.group(1)),
                            "misses": int(m.group(2)),
                            "simulated": int(m.group(3))}
    return out


def run_fault_outcomes(store: str | Path, run_id: int | None = None
                       ) -> tuple[int, dict[str, str]]:
    """``(run_id, {fault key: outcome})`` of one run in a store (the
    latest run when ``run_id`` is None), read from its index."""
    conn = sqlite3.connect(f"file:{Path(store) / 'store.db'}?mode=ro",
                           uri=True, timeout=30.0)
    try:
        if run_id is None:
            run_id = conn.execute("SELECT MAX(run_id) FROM runs"
                                  ).fetchone()[0]
        rows = conn.execute(
            "SELECT seq, zone, fault_name, outcome FROM run_faults"
            " WHERE run_id=?", (run_id,)).fetchall()
    finally:
        conn.close()
    return run_id, {fault_key(seq, zone, name): outcome
                    for seq, zone, name, outcome in rows}


def fault_key(seq: int, zone: str, name: str) -> str:
    """A fault's identity: its candidate-list position and name (one
    target can be injected at several offsets under one name)."""
    return f"{seq}:{zone}/{name}"


def outcome_counts(fault_outcomes: dict[str, str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for outcome in fault_outcomes.values():
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def compare_outcomes(ref: dict[str, str], got: dict[str, str]
                     ) -> list[str]:
    """Per-fault differences, one line each (empty = identical)."""
    problems = []
    for key in sorted(set(ref) | set(got)):
        want, have = ref.get(key), got.get(key)
        if want != have:
            problems.append(f"fault {key}: expected {want}, got {have}")
    return problems


def check_cli_run(ref: dict, parsed: dict, fault_outcomes: dict,
                  expect_store: dict) -> list[str]:
    """Every mismatch of one CLI campaign against its reference."""
    problems = []
    for key in ("design", "faults", "dc", "sff"):
        if parsed[key] != ref[key]:
            problems.append(f"{key}: expected {ref[key]!r}, "
                            f"got {parsed[key]!r}")
    # the CLI prints every outcome class, zero rows included
    want = {k: ref["outcomes"].get(k, 0) for k in parsed["outcomes"]}
    if parsed["outcomes"] != want or not parsed["outcomes"]:
        problems.append(f"outcome table: expected {ref['outcomes']}, "
                        f"got {parsed['outcomes']}")
    if parsed["store"] != expect_store:
        problems.append(f"store counters: expected {expect_store}, "
                        f"got {parsed['store']}")
    problems += compare_outcomes(ref["fault_outcomes"], fault_outcomes)
    return problems


def check_job(ref: dict, job: dict, fault_outcomes: dict,
              repeat: bool) -> list[str]:
    """Every mismatch of one finished service job against the
    reference for its spec; ``repeat`` = the spec had completed
    before this job was submitted, so it must be served from the
    store without simulation."""
    if job.get("status") != "done":
        return [f"job #{job.get('job')}: ended {job.get('status')}"]
    result = job.get("result") or {}
    problems = []
    for key in ("exit_code", "faults", "measured_dc", "safe_fraction"):
        if result.get(key) != ref[key]:
            problems.append(f"{key}: expected {ref[key]!r}, "
                            f"got {result.get(key)!r}")
    hits, misses = result.get("hits", -1), result.get("misses", -1)
    if hits + misses != ref["faults"] \
            or result.get("simulated") != misses:
        problems.append(f"store counters inconsistent: {hits} hits, "
                        f"{misses} misses, {result.get('simulated')} "
                        f"simulated of {ref['faults']}")
    if repeat and misses != 0:
        problems.append(f"repeat job simulated {misses} faults")
    problems += compare_outcomes(ref["fault_outcomes"], fault_outcomes)
    return [f"job #{job.get('job')}: {p}" for p in problems]
