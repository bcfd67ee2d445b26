"""Fault Injection Manager (paper §5, Figure 4).

"this function runs all the injection campaign based on automatically
generated fault lists and collects all the results."

The manager packs faults onto the parallel machines of the bit-parallel
simulator (machine 0 stays golden), replays the workload once per pass,
and records for every fault:

* **SENS** — the first cycle its zone's state deviated from golden;
* **OBSE** — the first cycle a functional observation point deviated,
  plus the per-point effects table (for main/secondary validation);
* **DIAG** — the first cycle a diagnostic alarm asserted in the faulty
  machine while the golden machine was quiet.

Outcomes are then classified into the IEC classes: safe, detected-safe
(alarm without corruption), dangerous-detected (corruption with a
timely alarm) and dangerous-undetected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..hdl.netlist import Circuit
from ..hdl.simulator import Simulator
from ..zones.extractor import ZoneSet
from ..zones.model import ObservationPoint, SensibleZone, ZoneKind, \
    observation_groups
from .faultlist import CandidateList
from .faults import Fault
from .monitors import CoverageCollection

OUTCOME_SAFE = "safe"
OUTCOME_DETECTED_SAFE = "detected_safe"
OUTCOME_DD = "dangerous_detected"
OUTCOME_DU = "dangerous_undetected"

ENGINE_COMPILED = "compiled"
ENGINE_INTERPRETED = "interpreted"

#: engine-specific defaults for faulty machines per pass: the
#: interpreted big-int simulator stops gaining past a few dozen lanes,
#: while the compiled kernel amortizes its fixed per-cycle cost best
#: when a full fault shard rides in one pass
DEFAULT_MACHINES_INTERPRETED = 48
DEFAULT_MACHINES_COMPILED = 1023


@dataclass
class CampaignConfig:
    #: faulty machines per simulator pass; ``None`` picks the engine
    #: default (48 interpreted, 1023 compiled)
    machines_per_pass: int | None = None
    detection_window: int = 12     # cycles an alarm may trail corruption
    max_cycles: int | None = None  # optionally trim the workload
    collect_toggles: bool = False  # any-machine toggles (step b credit)
    #: runaway watchdog: a pass simulating more than this many cycles
    #: raises :class:`~repro.hdl.simulator.CycleBudgetExceeded` (the
    #: supervisor quarantines the offending faults as hangs)
    cycle_budget: int | None = None
    #: cycle ranges of software/hardware test phases: a mismatch
    #: observed inside one counts as detected (the test's compare step
    #: flags it) — the detection model of the SW start-up test claims
    test_windows: tuple[tuple[int, int], ...] = ()
    #: simulation engine: :data:`ENGINE_COMPILED` (numpy kernel with
    #: automatic per-pass fallback) or :data:`ENGINE_INTERPRETED`
    #: (the big-int oracle).  Outcomes are bit-identical either way;
    #: store fingerprints never include this knob.
    engine: str = ENGINE_COMPILED

    def resolved_machines_per_pass(self) -> int:
        """The effective pass width, applying the engine default."""
        if self.machines_per_pass is not None:
            return max(1, self.machines_per_pass)
        return DEFAULT_MACHINES_COMPILED \
            if self.engine == ENGINE_COMPILED \
            else DEFAULT_MACHINES_INTERPRETED


@dataclass
class FaultResult:
    """Everything measured for one injected fault."""

    fault: Fault
    sens_cycle: int | None = None
    obse_cycle: int | None = None
    diag_cycle: int | None = None
    first_alarm: str | None = None
    effects: dict[str, int] = field(default_factory=dict)

    def outcome(self, window: int,
                test_windows: tuple[tuple[int, int], ...] = ()) -> str:
        if self.obse_cycle is None:
            return OUTCOME_DETECTED_SAFE if self.diag_cycle is not None \
                else OUTCOME_SAFE
        if self.diag_cycle is not None and \
                self.diag_cycle <= self.obse_cycle + window:
            return OUTCOME_DD
        for lo, hi in test_windows:
            if lo <= self.obse_cycle < hi:
                return OUTCOME_DD   # the test's compare flags it
        return OUTCOME_DU


@dataclass
class CampaignResult:
    """All fault results plus coverage and bookkeeping."""

    results: list[FaultResult] = field(default_factory=list)
    coverage: CoverageCollection = field(
        default_factory=CoverageCollection)
    window: int = 12
    test_windows: tuple[tuple[int, int], ...] = ()
    passes: int = 0
    cycles_simulated: int = 0
    wall_seconds: float = 0.0
    seen0: bytearray | None = None
    seen1: bytearray | None = None

    def toggled_nets(self) -> set[int]:
        """Nets seen at both values in any machine of any pass."""
        if self.seen0 is None or self.seen1 is None:
            return set()
        return {net for net in range(len(self.seen0))
                if self.seen0[net] and self.seen1[net]}

    def outcome_of(self, res: FaultResult) -> str:
        return res.outcome(self.window, self.test_windows)

    def outcomes(self) -> dict[str, int]:
        counts = {OUTCOME_SAFE: 0, OUTCOME_DETECTED_SAFE: 0,
                  OUTCOME_DD: 0, OUTCOME_DU: 0}
        for res in self.results:
            counts[self.outcome_of(res)] += 1
        return counts

    def by_zone(self) -> dict[str, list[FaultResult]]:
        groups: dict[str, list[FaultResult]] = {}
        for res in self.results:
            groups.setdefault(res.fault.zone or "?", []).append(res)
        return groups

    def measured_dc(self) -> float:
        """Campaign-wide diagnostic coverage of dangerous failures.

        An empty campaign claims no coverage (0.0): with zero
        injections there is no evidence for the optimistic reading.
        """
        if not self.results:
            return 0.0
        counts = self.outcomes()
        dangerous = counts[OUTCOME_DD] + counts[OUTCOME_DU]
        return counts[OUTCOME_DD] / dangerous if dangerous else 1.0

    def measured_safe_fraction(self) -> float:
        if not self.results:
            return 0.0
        counts = self.outcomes()
        safe = counts[OUTCOME_SAFE] + counts[OUTCOME_DETECTED_SAFE]
        return safe / len(self.results)

    def merge_counters(self, other: "CampaignResult") -> None:
        """Add another run's pass/cycle counts and toggle bits.

        The campaign pipeline calls this once per completed shard; the
        pipeline itself places the shard's per-fault results by
        candidate index and recomputes the coverage over all of them.
        """
        self.passes += other.passes
        self.cycles_simulated += other.cycles_simulated
        if other.seen0 is not None and other.seen1 is not None:
            if self.seen0 is None:
                self.seen0 = bytearray(len(other.seen0))
                self.seen1 = bytearray(len(other.seen1))
            for net, seen in enumerate(other.seen0):
                if seen:
                    self.seen0[net] = 1
            for net, seen in enumerate(other.seen1):
                if seen:
                    self.seen1[net] = 1


class FaultInjectionManager:
    """Runs campaigns for one circuit + workload + observation set."""

    def __init__(self, circuit: Circuit, stimuli,
                 zone_set: ZoneSet | None = None,
                 observation_points: list[ObservationPoint] | None = None,
                 setup=None, config: CampaignConfig | None = None):
        self.circuit = circuit
        self.stimuli = list(stimuli)
        self.setup = setup
        self.config = config or CampaignConfig()
        if observation_points is None:
            if zone_set is None:
                raise ValueError("need zone_set or observation_points")
            observation_points = zone_set.observation_points
        self.functional, self.status, self.diagnostic = \
            observation_groups(observation_points)
        self.zone_set = zone_set
        self._zones_by_name: dict[str, SensibleZone] = {}
        if zone_set is not None:
            self._zones_by_name = {z.name: z for z in zone_set.zones}
        self._flop_index = {f.name: i
                            for i, f in enumerate(circuit.flops)}
        self._compiled = None
        self._compile_failed = False

    # ------------------------------------------------------------------
    def new_result(self) -> CampaignResult:
        """An empty result carrying this campaign's outcome rules."""
        cfg = self.config
        return CampaignResult(window=cfg.detection_window,
                              test_windows=tuple(cfg.test_windows))

    def run(self, candidates: CandidateList,
            cache=None) -> CampaignResult:
        """Run the campaign; with ``cache`` (a
        :class:`repro.store.CampaignCache`) previously stored outcomes
        are served from the content-addressed store and only cache
        misses are simulated — bit-identical either way.

        Without a cache this is the cache-free reference every
        differential test compares against; with one, the campaign
        runs through the campaign pipeline's in-process executor
        (:class:`~repro.faultinjection.supervisor.CampaignSupervisor`).
        """
        if cache is not None:
            from .parallel import CampaignSpec
            from .supervisor import CampaignSupervisor
            return CampaignSupervisor(
                CampaignSpec.from_manager(self), workers=1,
                cache=cache).run(candidates, in_process=True)
        start = time.perf_counter()
        result = self.new_result()
        self._init_coverage(result.coverage, candidates)
        self.run_batches(list(candidates.faults), into=result)
        self.fill_coverage(result)
        result.wall_seconds = time.perf_counter() - start
        return result

    def run_batches(self, faults: list[Fault],
                    into: CampaignResult | None = None,
                    track_golden: bool = True) -> CampaignResult:
        """The raw pass loop: simulate ``faults`` in per-pass batches.

        This is the per-shard core shared by :meth:`run` and both
        executors of the campaign pipeline.  It performs no coverage
        initialisation or post-processing; when ``track_golden`` is
        false the golden-activity bookkeeping is skipped too (the
        pipeline reads the fault-free bits off one golden record
        instead of recomputing them per batch).
        """
        result = into if into is not None else self.new_result()
        per_pass = self.config.resolved_machines_per_pass()
        for lo in range(0, len(faults), per_pass):
            batch = faults[lo:lo + per_pass]
            self._run_pass(batch, result, track_golden=track_golden)
            result.passes += 1
        return result

    def fill_coverage(self, result: CampaignResult) -> None:
        """Derive the coverage ledger from the per-fault results."""
        result.coverage.injections = len(result.results)
        for res in result.results:
            if res.sens_cycle is not None and res.fault.zone:
                result.coverage.sens[res.fault.zone] = True
            if res.obse_cycle is not None:
                result.coverage.mismatches += 1
            for point in res.effects:
                if point in result.coverage.obse:
                    result.coverage.obse[point] = True
                if point in result.coverage.diag:
                    result.coverage.diag[point] = True

    def _init_coverage(self, cov: CoverageCollection,
                       candidates: CandidateList) -> None:
        # SENS completeness items are the injectable state zones; wide
        # faults attributed to structural (sub-block / net) zones are
        # tracked in the results but carry no 100 %-SENS obligation.
        for fault in candidates.faults:
            if not fault.zone:
                continue
            zone = self._zones_by_name.get(fault.zone)
            if zone is not None and zone.kind not in (
                    ZoneKind.REGISTER, ZoneKind.MEMORY):
                continue
            cov.sens.setdefault(fault.zone, False)
        for point in self.functional:
            cov.obse.setdefault(point.name, False)
        for point in self.diagnostic:
            cov.diag.setdefault(point.name, False)

    # ------------------------------------------------------------------
    def compiled_circuit(self):
        """The compiled program for this circuit, or ``None`` when the
        circuit has no compiled representation (then every pass runs
        interpreted).  Compiled once per manager and shared by all
        passes; a :class:`~repro.hdl.compiled.CompileError` (e.g. a
        combinational loop) propagates — it would break the
        interpreted levelizer just the same."""
        if self._compile_failed:
            return None
        if self._compiled is None:
            from ..hdl.compiled import CompiledUnsupported, \
                compile_circuit
            try:
                self._compiled = compile_circuit(self.circuit)
            except CompiledUnsupported:
                self._compile_failed = True
                return None
        return self._compiled

    def _run_pass(self, batch: list[Fault], result: CampaignResult,
                  track_golden: bool = True) -> None:
        if self.config.engine == ENGINE_COMPILED:
            from .compiled_pass import run_pass_compiled
            if run_pass_compiled(self, batch, result,
                                 track_golden=track_golden):
                return
        self._run_pass_interpreted(batch, result,
                                   track_golden=track_golden)

    def _run_pass_interpreted(self, batch: list[Fault],
                              result: CampaignResult,
                              track_golden: bool = True) -> None:
        machines = len(batch) + 1
        sim = Simulator(self.circuit, machines=machines,
                        collect_toggles=self.config.collect_toggles,
                        toggle_any_machine=True,
                        cycle_budget=self.config.cycle_budget)
        if self.setup is not None:
            self.setup(sim)

        results = [FaultResult(fault=f) for f in batch]
        for k, fault in enumerate(batch, start=1):
            fault.arm(sim, machine=k, t0=0)

        # group SENS probes (one state compare per distinct probe/cycle);
        # memory probes are per-word, register probes per-zone
        probe_members: dict[tuple, list[int]] = {}
        for idx, fault in enumerate(batch):
            zone = self._zones_by_name.get(fault.zone or "")
            if zone is None:
                continue
            probe = self._zone_probe(zone, fault)
            if probe is None:
                continue
            probe_members.setdefault(probe, []).append(idx)

        func_nets = {p.name: list(p.nets) for p in self.functional}
        status_nets = {p.name: list(p.nets) for p in self.status}
        diag_nets = {p.name: list(p.nets) for p in self.diagnostic}
        full = sim.full_mask

        stimuli = self.stimuli
        if self.config.max_cycles is not None:
            stimuli = stimuli[:self.config.max_cycles]

        golden_prev: dict[str, int] = {}
        for cycle, inputs in enumerate(stimuli):
            sim.step_eval(inputs)

            for name, nets in func_nets.items():
                mask = sim.mismatch_mask(nets)
                if mask:
                    for idx, res in enumerate(results):
                        if mask >> (idx + 1) & 1:
                            res.effects.setdefault(name, cycle)
                            if res.obse_cycle is None:
                                res.obse_cycle = cycle
                # golden activity covers the OBSE item by itself
                if track_golden:
                    value = sim.value_of(nets)
                    if name in golden_prev and \
                            golden_prev[name] != value:
                        result.coverage.obse[name] = True
                    golden_prev[name] = value

            for name, nets in status_nets.items():
                # status points: recorded in the effects table only
                mask = sim.mismatch_mask(nets)
                if mask:
                    for idx, res in enumerate(results):
                        if mask >> (idx + 1) & 1:
                            res.effects.setdefault(name, cycle)

            for name, nets in diag_nets.items():
                raised = 0
                golden_raised = False
                for net in nets:
                    v = sim.peek(net)
                    golden = full if v & 1 else 0
                    golden_raised = golden_raised or bool(v & 1)
                    raised |= v & ~golden
                if golden_raised and track_golden:
                    # the workload itself exercises the diagnostic
                    result.coverage.diag[name] = True
                if raised:
                    for idx, res in enumerate(results):
                        if raised >> (idx + 1) & 1:
                            res.effects.setdefault(name, cycle)
                            if res.diag_cycle is None:
                                res.diag_cycle = cycle
                                res.first_alarm = name

            # SENS: sample zone state while the injected deviation is
            # still live (a flipped flop may be overwritten at the edge)
            for probe, members in probe_members.items():
                mask = self._probe_mismatch(sim, probe)
                if mask:
                    for idx in members:
                        if mask >> (idx + 1) & 1 and \
                                results[idx].sens_cycle is None:
                            results[idx].sens_cycle = cycle

            sim.step_commit()
            result.cycles_simulated += 1

        if self.config.collect_toggles:
            if result.seen0 is None:
                result.seen0 = bytearray(self.circuit.num_nets)
                result.seen1 = bytearray(self.circuit.num_nets)
            for net in range(self.circuit.num_nets):
                if sim._seen0[net]:
                    result.seen0[net] = 1
                if sim._seen1[net]:
                    result.seen1[net] = 1

        result.results.extend(results)

    # ------------------------------------------------------------------
    def _zone_probe(self, zone: SensibleZone, fault: Fault):
        if zone.kind is ZoneKind.REGISTER:
            idxs = tuple(self._flop_index[name] for name in zone.flops
                         if name in self._flop_index)
            return ("flops", idxs)
        if zone.kind is ZoneKind.MEMORY:
            word = getattr(fault, "word", None)
            if word is None:
                return None
            return ("mem", zone.memory, word)
        return ("nets", tuple(zone.nets))

    @staticmethod
    def _probe_mismatch(sim: Simulator, probe) -> int:
        if probe[0] == "flops":
            return sim.flop_state_mismatch(probe[1])
        if probe[0] == "mem":
            return sim.mem_word_mismatch(probe[1], probe[2])
        return sim.mismatch_mask(probe[1])
