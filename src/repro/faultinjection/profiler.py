"""Operational Profiler (paper §5, Figure 4).

"An Operational Profile (OP) is a collection of information about all
relevant fault-free system activities: traced information items are
read/write activity associated with processor registers, address bus,
data bus, and memory locations in the system under test ...  The
purpose of the OP is to better understand the situation in which the
system or the application will be used, and then analyze this
information to ensure that only faults which will produce an error are
selected during the fault list generation process."

The profiler replays the workload on a fault-free simulator and records
per-cycle flip-flop toggles and memory-port traffic; fault-list
generation then places transient injections in cycles where the target
zone actually holds live data.

That fault-free replay is also the campaign's golden run: the cycles in
which the workload itself toggles a functional observation point or
raises an alarm.  :func:`record_golden` records both in one pass as a
:class:`GoldenRecord`, which the campaign store keeps under a content
address so a rerun of an unchanged design simulates nothing fault-free.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..hdl.netlist import Circuit
from ..hdl.simulator import Simulator
from ..zones.extractor import ZoneSet
from ..zones.model import ObservationPoint, SensibleZone, ZoneKind, \
    observation_groups

#: Bump when the recorded content or the :meth:`GoldenRecord.to_bytes`
#: encoding changes — the store key embeds it, so stored records of an
#: older format simply miss.
RECORD_FORMAT = 1


class MemAccess(NamedTuple):
    cycle: int
    addr: int
    write: bool


@dataclass
class OperationalProfile:
    """The recorded fault-free activity of one workload."""

    length: int
    flop_toggles: dict[str, list[int]] = field(default_factory=dict)
    mem_accesses: dict[str, list[MemAccess]] = field(default_factory=dict)
    output_toggles: dict[str, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def zone_activity(self, zone: SensibleZone) -> list[int]:
        """Cycles in which the zone's state was (re)written or read."""
        if zone.kind is ZoneKind.REGISTER:
            cycles: set[int] = set()
            for flop in zone.flops:
                cycles.update(self.flop_toggles.get(flop, ()))
            return sorted(cycles)
        if zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            lo, hi = zone.mem_words or (0, 1 << 30)
            return sorted({a.cycle for a in
                           self.mem_accesses.get(zone.memory, ())
                           if lo <= a.addr <= hi})
        return []

    def zone_triggered(self, zone: SensibleZone) -> bool:
        """Can the workload exercise this zone at all?"""
        if zone.kind in (ZoneKind.REGISTER, ZoneKind.MEMORY):
            return bool(self.zone_activity(zone))
        return True  # nets/ports are structurally always exercised

    def reads_in_region(self, mem: str, lo: int,
                        hi: int) -> list[MemAccess]:
        return [a for a in self.mem_accesses.get(mem, ())
                if not a.write and lo <= a.addr <= hi]

    # ------------------------------------------------------------------
    def injection_cycles(self, zone: SensibleZone, rng: random.Random,
                         count: int) -> list[int]:
        """OP-guided injection instants for transient faults.

        Register zones: just after a live write (the corrupted value is
        resident).  Memory zones: the cycle of a read request (the flip
        lands before the array output latches).  Fallback: uniform over
        the run.
        """
        activity = self.zone_activity(zone)
        if zone.kind is ZoneKind.REGISTER and activity:
            pool = [min(c + 1, self.length - 1) for c in activity]
        elif zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            reads = self.reads_in_region(zone.memory,
                                         *(zone.mem_words or (0, 1 << 30)))
            pool = [a.cycle for a in reads]
        else:
            pool = []
        if not pool:
            pool = list(range(2, max(3, self.length - 2)))
        return [rng.choice(pool) for _ in range(count)]

    def completeness(self, zone_set: ZoneSet) -> tuple[int, int]:
        """(triggerable zones, total injectable zones) for SENS items."""
        injectable = [z for z in zone_set.zones
                      if z.kind in (ZoneKind.REGISTER, ZoneKind.MEMORY)]
        triggered = sum(1 for z in injectable if self.zone_triggered(z))
        return triggered, len(injectable)


@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free reference activity of one campaign workload.

    ``obse_active`` are the functional points the workload itself
    toggles (they self-cover their OBSE items); ``diag_active`` are the
    diagnostics the workload exercises without any fault present.
    Workers run with golden bookkeeping disabled and these bits are
    merged into the final coverage ledger exactly once.  ``blob`` is
    the store address of the :class:`GoldenRecord` they came from.
    """

    cycles: int
    obse_active: tuple[str, ...]
    diag_active: tuple[str, ...]
    wall_seconds: float = 0.0
    blob: str | None = None


@dataclass
class GoldenRecord:
    """One recorded fault-free run: the OP plus golden activity.

    ``obse_first`` maps each functional observation point the workload
    toggles to the first cycle its value differed from the previous
    cycle's; ``diag_first`` maps each diagnostic point the workload
    raises to the first cycle it was raised.  Keeping first cycles
    rather than flags gives the golden bits of every ``max_cycles``
    prefix of the workload without replaying it.
    """

    profile: OperationalProfile
    obse_first: dict[str, int] = field(default_factory=dict)
    diag_first: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: content address of the stored encoding, set by the store
    blob: str | None = None

    def golden_trace(self, max_cycles: int | None = None) -> GoldenTrace:
        """The golden bits of the first ``max_cycles`` cycles."""
        cycles = self.profile.length if max_cycles is None \
            else min(self.profile.length, max(0, max_cycles))
        return GoldenTrace(
            cycles=cycles,
            obse_active=tuple(sorted(
                name for name, c in self.obse_first.items()
                if c < cycles)),
            diag_active=tuple(sorted(
                name for name, c in self.diag_first.items()
                if c < cycles)),
            wall_seconds=self.wall_seconds, blob=self.blob)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical compact JSON; a memory access is ``[cycle, addr,
        write]``."""
        return json.dumps({"format": RECORD_FORMAT, **vars(self.profile),
                           "obse_first": self.obse_first,
                           "diag_first": self.diag_first},
                          sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def from_bytes(cls, data: bytes,
                   blob: str | None = None) -> "GoldenRecord":
        """Decode :meth:`to_bytes` output; ``ValueError``/``KeyError``/
        ``TypeError`` on anything else (callers re-record)."""
        # one int object per distinct value, as in a replay, where one
        # cycle number is shared by every flop that toggled in it
        raw = json.loads(data, parse_int=_SharedInts().__getitem__)
        if raw["format"] != RECORD_FORMAT:
            raise ValueError(f"golden record format {raw['format']!r}")
        profile = OperationalProfile(
            length=raw["length"], flop_toggles=raw["flop_toggles"],
            output_toggles=raw["output_toggles"],
            mem_accesses={name: [MemAccess(*a) for a in accesses]
                          for name, accesses
                          in raw["mem_accesses"].items()})
        return cls(profile, raw["obse_first"], raw["diag_first"],
                   blob=blob)


class _SharedInts(dict):
    """Decimal string -> one shared ``int``, parsed on first sight."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def record_golden(circuit: Circuit, stimuli, setup=None,
                  read_strobes: dict[str, str] | None = None,
                  observation_points: list[ObservationPoint] = ()
                  ) -> GoldenRecord:
    """Replay ``stimuli`` fault-free once and record the OP and the
    golden activity of ``observation_points``.

    ``read_strobes`` maps memory names to a 1-bit net asserting "the
    array is actively read this cycle" (e.g. the subsystem's
    ``memctrl/port/read_any``); without it every non-write cycle is
    conservatively treated as a potential read.
    """
    start = time.perf_counter()
    sim = Simulator(circuit, machines=1)
    if setup is not None:
        setup(sim)
    value_of = sim.value_of
    peek = sim.peek

    profile = OperationalProfile(length=len(stimuli))
    mem_ports = []
    for mem in circuit.memories:
        net_name = (read_strobes or {}).get(mem.name)
        strobe = circuit.find_net(net_name) \
            if net_name is not None else None
        mem_ports.append((mem.name, mem.addr, mem.we, strobe))
    out_names = list(circuit.outputs)
    out_nets = list(circuit.outputs.values())
    flop_names = [flop.name for flop in circuit.flops]
    prev_outs = prev_flops = None
    # points drop out of these once their first cycle is known
    functional, _, diagnostic = observation_groups(observation_points)
    func_open = {p.name: list(p.nets) for p in functional}
    diag_open = {p.name: list(p.nets) for p in diagnostic}
    func_prev: dict[str, int] = {}
    obse_first: dict[str, int] = {}
    diag_first: dict[str, int] = {}

    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)
        # memory port traffic (during evaluation, pre-edge)
        for name, addr_nets, we, strobe in mem_ports:
            write = bool(peek(we) & 1)
            reading = bool(peek(strobe) & 1) if strobe is not None \
                else not write
            if write or reading:
                profile.mem_accesses.setdefault(name, []).append(
                    MemAccess(cycle=cycle, addr=value_of(addr_nets),
                              write=write))
        outs = [value_of(nets) for nets in out_nets]
        if prev_outs is not None and outs != prev_outs:
            _record_toggles(profile.output_toggles, out_names, cycle,
                            outs, prev_outs)
        prev_outs = outs
        for name, nets in list(func_open.items()):
            value = value_of(nets)
            if name in func_prev and func_prev[name] != value:
                obse_first[name] = cycle
                del func_open[name]
            func_prev[name] = value
        for name, nets in list(diag_open.items()):
            if any(peek(net) & 1 for net in nets):
                diag_first[name] = cycle
                del diag_open[name]
        sim.step_commit()
        # flop toggles become visible in the committed state
        bits = sim.flop_values()
        if prev_flops is not None and bits != prev_flops:
            _record_toggles(profile.flop_toggles, flop_names, cycle,
                            bits, prev_flops)
        prev_flops = bits
    return GoldenRecord(profile=profile, obse_first=obse_first,
                        diag_first=diag_first,
                        wall_seconds=time.perf_counter() - start)


def _record_toggles(toggles: dict[str, list[int]], names: list[str],
                    cycle: int, values: list[int],
                    prev: list[int]) -> None:
    for name, value, before in zip(names, values, prev):
        if value != before:
            toggles.setdefault(name, []).append(cycle)


def profile_workload(circuit: Circuit, stimuli, setup=None,
                     read_strobes: dict[str, str] | None = None
                     ) -> OperationalProfile:
    """Replay ``stimuli`` fault-free and record the OP (the
    :func:`record_golden` run without observation points)."""
    return record_golden(circuit, stimuli, setup=setup,
                         read_strobes=read_strobes).profile
