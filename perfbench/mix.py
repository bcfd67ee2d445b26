"""The ``service-mix`` traffic: a seeded job sequence and closed-loop
clients that drive a campaign API server with it.

The pool is the small single-bank improved design, the 2-bank small
baseline, and thirteen one-mitigation edits of one bank of that 2-bank
design: every protection flag on bank 0, and every flag but the
netlist-neutral start-up tests on bank 1.  A sequence is a series of rounds, each a seeded permutation of
the whole pool, so every seed submits the same multiset of specs in
the first rounds and only the order changes.  The server receives
nothing but these generated specs.
"""

from __future__ import annotations

import json
import random
import threading

from spans import clock

#: protection flags a one-bank edit switches on
EDIT_FLAGS = ("address_in_ecc", "write_buffer_parity", "coder_checker",
              "redundant_pipe_checker", "distributed_syndrome",
              "sw_startup_tests", "scrub_parity")

BASE_SPECS = [{"variant": "small-improved"},
              {"variant": "small-baseline", "banks": 2}]


def spec_pool() -> list[dict]:
    edits = [{"variant": "small-baseline", "banks": 2,
              "bank_flags": [{flag: True}, {}]} for flag in EDIT_FLAGS]
    edits += [{"variant": "small-baseline", "banks": 2,
               "bank_flags": [{}, {flag: True}]}
              for flag in EDIT_FLAGS if flag != "sw_startup_tests"]
    return BASE_SPECS + edits


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


class JobSequence:
    """Seeded, unbounded: rounds of permutations of the pool."""

    def __init__(self, seed: int, pool: list[dict]):
        self.pool = pool
        self._rng = random.Random(seed)
        self._order: list[int] = []

    def __getitem__(self, index: int) -> int:
        while len(self._order) <= index:
            perm = list(range(len(self.pool)))
            self._rng.shuffle(perm)
            self._order += perm
        return self._order[index]


class Once:
    """A sequence that submits each spec of ``pool`` once, in order."""

    def __init__(self, pool: list[dict]):
        self.pool = pool

    def __getitem__(self, index: int) -> int:
        return index


def drive(client_factory, sequence: JobSequence, clients: int = 2,
          deadline: float | None = None, count: int | None = None,
          min_jobs: int = 0, poll: float = 0.1,
          tag: str = "mix") -> list[dict]:
    """Run ``clients`` closed-loop clients until ``deadline`` (clock
    time) passes, once ``min_jobs`` were submitted, or until ``count``
    jobs were submitted; jobs in flight then finish.  Submissions are serialized, so the server's queue order
    (and, with one daemon worker, its execution order) is the
    sequence order.  Returns one record per job, in sequence order."""
    lock = threading.Lock()
    state = {"next": 0}
    completed: set[int] = set()
    records: list[dict] = []
    errors: list[BaseException] = []

    def client_loop(index: int) -> None:
        client = client_factory(index)
        try:
            while True:
                with lock:
                    i = state["next"]
                    if (count is not None and i >= count) or (
                            deadline is not None and i >= min_jobs
                            and clock() >= deadline):
                        return
                    state["next"] = i + 1
                    pick = sequence[i]
                    repeat = pick in completed
                    start = clock()
                    job_id = client.submit(
                        sequence.pool[pick],
                        idempotency_key=f"{tag}-{i}")["job"]
                final = client.wait(job_id, timeout=150.0, poll=poll)
                end = clock()
                with lock:
                    if final.get("status") == "done":
                        completed.add(pick)
                    records.append({"index": i, "spec": pick,
                                    "job": job_id, "repeat": repeat,
                                    "start": start, "end": end,
                                    "latency": end - start,
                                    "state": final})
        except Exception as exc:     # re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(k,),
                                name=f"mix-client-{k}")
               for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sorted(records, key=lambda r: r["index"])
