"""The campaign cache façade over the content-addressed store.

:class:`CampaignCache` is what the campaign pipeline
(:class:`~repro.faultinjection.supervisor.CampaignSupervisor`, also
behind ``FaultInjectionManager.run(..., cache=)``) talks to: it plans
a candidate list into stored hits and misses (:meth:`plan`), opens the
run row (:meth:`_begin`), persists fresh outcomes (:meth:`_persist`)
and loads or records the golden record (:meth:`_golden`,
:meth:`_golden_trace`).  Cached campaigns stay bit-identical to an
uncached cold run over the same candidates.

The pipeline persists fresh outcomes incrementally (after every
simulated shard), so a killed campaign resumes exactly where it
stopped: re-running the same command turns the completed work into
cache hits and simulates only the remainder.  Campaigns whose inputs
cannot be content-addressed (toggle collection, un-snapshottable
setups) bypass the store and are counted in ``stats.uncacheable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faultinjection.manager import FaultResult
from ..faultinjection.profiler import (
    GoldenRecord,
    GoldenTrace,
    record_golden,
)
from .blobs import BlobStore, CorruptBlobError
from .db import OutcomeRow, StoreDB
from .fingerprint import FingerprintContext


@dataclass
class CacheStats:
    """Hit/miss ledger of one :class:`CampaignCache` instance."""

    hits: int = 0            # outcomes served from the store
    misses: int = 0          # outcomes that had to be simulated
    writes: int = 0          # new outcome rows appended
    simulated: int = 0       # faults actually run through a simulator
    uncacheable: int = 0     # faults that bypassed the store entirely
    corrupt: int = 0         # corrupt/unreadable entries re-derived
    poisoned: int = 0        # known-poison faults quarantined up front
    golden_hits: int = 0
    golden_misses: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        return (f"store: {self.hits} hits, {self.misses} misses "
                f"({self.hit_rate() * 100:.1f}% hit rate), "
                f"{self.writes} new outcomes, "
                f"{self.simulated} faults simulated")

    def golden_summary(self) -> str:
        """Whether the golden record was loaded or recorded, on its own
        line so the :meth:`summary` line keeps its parsed format."""
        state = "miss (recorded once)" if self.golden_misses \
            else "hit" if self.golden_hits else "not used"
        return f"golden record: {state}"


@dataclass
class CampaignPlan:
    """The cache's partition of one candidate list."""

    fingerprints: list[str]
    cached: dict[int, OutcomeRow] = field(default_factory=dict)
    misses: list[int] = field(default_factory=list)


class CampaignCache:
    """Content-addressed campaign store under one root directory."""

    def __init__(self, path, flush_passes: int = 1):
        from pathlib import Path
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.root)
        self.db = StoreDB(self.root / "store.db")
        #: simulated passes per persistence flush — 1 gives the finest
        #: crash-safe resume granularity
        self.flush_passes = max(1, flush_passes)
        self.stats = CacheStats()
        self.last_run_id: int | None = None

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "CampaignCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, ctx: FingerprintContext,
             faults: list) -> CampaignPlan:
        fps = [ctx.fault_fingerprint(f) for f in faults]
        rows = self.db.get_outcomes(sorted(set(fps)))
        plan = CampaignPlan(fingerprints=fps)
        for i, fp in enumerate(fps):
            row = rows.get(fp)
            if row is not None:
                plan.cached[i] = row
            else:
                plan.misses.append(i)
        self.stats.hits += len(plan.cached)
        self.stats.misses += len(plan.misses)
        return plan

    # ------------------------------------------------------------------
    # run bookkeeping
    # ------------------------------------------------------------------
    def _begin(self, ctx, manager, faults, workers: int) -> int:
        cfg = manager.config
        run_id = self.db.begin_run(
            design=manager.circuit.name,
            env_fp=ctx.environment_fingerprint(),
            faults=len(faults), workers=workers,
            window=cfg.detection_window,
            test_windows=cfg.test_windows)
        self.last_run_id = run_id
        return run_id

    def _persist(self, fresh: list[tuple[str, FaultResult]]) -> None:
        rows = [OutcomeRow(
            fault_fp=fp, fault_name=res.fault.name,
            zone=res.fault.zone, kind=res.fault.kind,
            sens_cycle=res.sens_cycle, obse_cycle=res.obse_cycle,
            diag_cycle=res.diag_cycle, first_alarm=res.first_alarm,
            effects=dict(res.effects)) for fp, res in fresh]
        self.stats.writes += self.db.put_outcomes(rows)

    # ------------------------------------------------------------------
    # golden records
    # ------------------------------------------------------------------
    def _golden(self, key: str, record) -> GoldenRecord:
        """The golden record stored under ``key``; on a miss, or when
        its blob is missing or corrupt, ``record()`` is called once and
        its result stored."""
        digest = self.db.get_golden(key)
        if digest is not None:
            try:
                found = GoldenRecord.from_bytes(self.blobs.get(digest),
                                                blob=digest)
                self.stats.golden_hits += 1
                return found
            except (KeyError, CorruptBlobError, ValueError,
                    TypeError):
                # missing or corrupt blob: re-record, never crash; a
                # damaged object must go, or the put below keeps it
                self.blobs.delete(digest)
                self.stats.corrupt += 1
        fresh = record()
        fresh.blob = self.blobs.put(fresh.to_bytes())
        self.db.put_golden(key, fresh.blob)
        self.stats.golden_misses += 1
        return fresh

    def _golden_trace(self, ctx, manager) -> GoldenTrace:
        """Golden bits for a campaign whose spec carries none."""
        stimuli = manager.stimuli[:ctx.cycles]
        return self._golden(ctx.golden_key(), lambda: record_golden(
            manager.circuit, stimuli, setup=manager.setup,
            observation_points=manager.functional + manager.diagnostic)
        ).golden_trace()


def _rebuild(fault, row: OutcomeRow) -> FaultResult:
    """Reconstruct the raw per-fault record from its stored form."""
    return FaultResult(
        fault=fault, sens_cycle=row.sens_cycle,
        obse_cycle=row.obse_cycle, diag_cycle=row.diag_cycle,
        first_alarm=row.first_alarm, effects=dict(row.effects))
