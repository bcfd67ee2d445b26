"""Stable canonical fingerprints for campaign inputs.

A cached fault outcome may be served instead of re-simulated only if
*everything that can influence it* is unchanged.  For one fault that
influence set is smaller than the whole campaign environment:

* the raw :class:`~repro.faultinjection.manager.FaultResult` record
  (SENS/OBSE/DIAG cycles, first alarm, effects table) depends on the
  fault descriptor, the zone definition it is attributed to, the
  stimuli, the simulator setup, the observation-point list — and only
  the part of the netlist inside the fault's **support cone**: the
  fan-in closure of the fan-out closure of the fault site.  Gates
  outside that cone can change neither the faulty machine (the fault
  cannot reach them) nor any comparison against the golden machine
  (observation points outside the fan-out closure never mismatch).
* classification-time parameters — ``detection_window``,
  ``test_windows``, ``machines_per_pass`` — do **not** enter the
  fingerprint: the store holds raw records and the outcome classes are
  recomputed per run, so changing the detection window never
  invalidates the cache.
* the observation-point list enters **per fault, restricted to the
  points the fault can reach**: a point none of whose nets lie in the
  fault's fan-out closure compares faulty-vs-golden values that are
  equal by construction, so it can neither mismatch, nor raise, nor
  steal ``first_alarm`` from a reachable point (the within-group order
  of the reachable subsequence is preserved).  Adding an alarm output
  to one logic island therefore re-fingerprints only the faults that
  can observe it — the property design-space exploration leans on when
  a mitigation touches one bank of a multi-bank design.
* the simulator setup (preloaded memory images, initial flop values)
  enters per fault restricted to the memories and flops **inside the
  support cone**: state outside the cone cannot influence any net the
  record depends on, so re-encoding one bank's preload image leaves
  every other bank's fault addresses intact.

Mutating one gate therefore re-fingerprints (and re-simulates) only
the faults whose support cone contains it; faults in disjoint logic
islands keep their content address and are served from the store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from ..faultinjection.faults import Fault
from ..faultinjection.profiler import RECORD_FORMAT
from ..hdl.netlist import OP_NAMES, Circuit
from ..zones.model import ObservationPoint, SensibleZone

#: Bump when the fingerprint semantics change — every digest embeds it,
#: so stores written by older layouts simply miss instead of colliding.
#: v2: per-fault observation canon restricted to reachable points.
FP_VERSION = 2


def digest(obj) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``obj``."""
    blob = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def fault_descriptor(fault: Fault) -> dict:
    """Every behavioural field of a fault, as plain JSON data."""
    desc = {"class": type(fault).__name__, "kind": fault.kind}
    for f in fields(fault):
        value = getattr(fault, f.name)
        if isinstance(value, tuple):
            value = list(value)
        desc[f.name] = value
    return desc


# ----------------------------------------------------------------------
# support cones
# ----------------------------------------------------------------------
class SupportIndex:
    """Per-seed support cones of a circuit, with cached fingerprints.

    The support of a seed set is the fan-in closure of its fan-out
    closure, both taken *through* flip-flops and memory macros: a
    flipped flop perturbs everything downstream of its ``q``; the value
    observed anywhere in that downstream region depends on the full
    fan-in of the region (including golden write streams into any
    memory the fault can touch).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._fanout = circuit.fanout_map()
        self._drivers = circuit.driver_map()
        self._mem_index = {m.name: i
                           for i, m in enumerate(circuit.memories)}
        self._flop_q = {f.name: f.q for f in circuit.flops}
        self._net_index: dict[str, int] = {}
        for i, name in enumerate(circuit.net_names):
            self._net_index.setdefault(name, i)
        self._fp_cache: dict[tuple, str] = {}
        self._full_fp: str | None = None

    # ------------------------------------------------------------------
    def resolve_seed(self, name: str) -> tuple[int | None, int | None]:
        """Map a fault target name to ``(net, memory_index)``.

        Memory names win over net names (fault targets name the macro);
        flop names resolve to the flop's ``q`` net.
        """
        if name in self._mem_index:
            return None, self._mem_index[name]
        if name in self._flop_q:
            return self._flop_q[name], None
        if name in self._net_index:
            return self._net_index[name], None
        return None, None

    def forward_closure(self, nets: set[int], mems: set[int]
                        ) -> tuple[set[int], set[int]]:
        circuit = self.circuit
        out_nets = set(nets)
        out_mems = set(mems)
        queue = list(nets)
        for mi in mems:
            for net in circuit.memories[mi].rdata:
                if net not in out_nets:
                    out_nets.add(net)
                    queue.append(net)
        while queue:
            net = queue.pop()
            for desc in self._fanout.get(net, ()):
                if desc[0] == "gate":
                    new = (circuit.gates[desc[1]].out,)
                elif desc[0] == "flop":
                    new = (circuit.flops[desc[1]].q,)
                elif desc[0] == "mem":
                    mi = desc[1]
                    if mi in out_mems:
                        continue
                    out_mems.add(mi)
                    new = circuit.memories[mi].rdata
                else:           # primary output: nothing downstream
                    continue
                for n in new:
                    if n not in out_nets:
                        out_nets.add(n)
                        queue.append(n)
        return out_nets, out_mems

    def backward_closure(self, nets: set[int], mems: set[int]
                         ) -> tuple[set[int], set[int]]:
        circuit = self.circuit
        out_nets = set(nets)
        out_mems = set(mems)
        queue = list(nets)

        def pull(new_nets):
            for n in new_nets:
                if n is not None and n not in out_nets:
                    out_nets.add(n)
                    queue.append(n)

        def pull_mem(mi):
            if mi in out_mems:
                return
            out_mems.add(mi)
            mem = circuit.memories[mi]
            pull((*mem.addr, *mem.wdata, mem.we))

        for mi in list(mems):
            out_mems.discard(mi)
            pull_mem(mi)
        while queue:
            net = queue.pop()
            desc = self._drivers.get(net)
            if desc is None:
                continue
            if desc[0] == "gate":
                pull(circuit.gates[desc[1]].inputs)
            elif desc[0] == "flop":
                flop = circuit.flops[desc[1]]
                pull((flop.d, flop.en, flop.rst))
            elif desc[0] == "mem":
                pull_mem(desc[1])
        return out_nets, out_mems

    def support(self, nets: set[int], mems: set[int]
                ) -> tuple[frozenset[int], frozenset[int]]:
        fwd_nets, fwd_mems = self.forward_closure(nets, mems)
        sup_nets, sup_mems = self.backward_closure(fwd_nets, fwd_mems)
        return frozenset(sup_nets), frozenset(sup_mems)

    # ------------------------------------------------------------------
    def fingerprint(self, nets: set[int], mems: set[int]) -> str:
        """Content address of the sub-circuit supporting the seeds."""
        key = (frozenset(nets), frozenset(mems))
        cached = self._fp_cache.get(key)
        if cached is None:
            cached = digest(self._canonical(*self.support(*key)))
            self._fp_cache[key] = cached
        return cached

    def full_fingerprint(self) -> str:
        """Whole-circuit fallback (unresolvable or zone-less faults)."""
        if self._full_fp is None:
            self._full_fp = hashlib.sha256(
                self.circuit.canonical_bytes()).hexdigest()
        return self._full_fp

    def _canonical(self, nets: frozenset[int],
                   mems: frozenset[int]) -> dict:
        circuit = self.circuit
        name_of = circuit.net_names

        def names(seq):
            return [name_of[n] for n in seq]

        return {
            "gates": sorted(
                (name_of[g.out], OP_NAMES[g.op], names(g.inputs))
                for g in circuit.gates if g.out in nets),
            "flops": sorted(
                (f.name, name_of[f.d], name_of[f.q],
                 None if f.en is None else name_of[f.en],
                 None if f.rst is None else name_of[f.rst], f.init)
                for f in circuit.flops if f.q in nets),
            "memories": sorted(
                (m.name, m.depth, m.width, names(m.addr),
                 names(m.wdata), name_of[m.we], names(m.rdata))
                for i, m in enumerate(circuit.memories) if i in mems),
            "inputs": {
                port: [[bit, name_of[n]]
                       for bit, n in enumerate(port_nets) if n in nets]
                for port, port_nets in sorted(circuit.inputs.items())
                if any(n in nets for n in port_nets)},
        }


# ----------------------------------------------------------------------
# the campaign-wide context
# ----------------------------------------------------------------------
class FingerprintContext:
    """Fingerprints for one campaign environment.

    Bundles the canonical hashes shared by every fault of a campaign
    (stimuli, setup, observation points) with the
    :class:`SupportIndex` producing per-fault netlist cones, and hands
    out :meth:`fault_fingerprint` — the content address under which a
    fault's raw outcome record is stored.
    """

    def __init__(self, circuit: Circuit, stimuli,
                 zones: list[SensibleZone],
                 observation_points: list[ObservationPoint],
                 setup=None, max_cycles: int | None = None):
        self.circuit = circuit
        effective = list(stimuli)
        if max_cycles is not None:
            effective = effective[:max_cycles]
        self.stimuli_fp = digest(
            [sorted(cycle.items()) for cycle in effective])
        self.cycles = len(effective)
        self.setup_fp = _setup_canonical(setup)
        # only reachable after _setup_canonical accepted it: None or a
        # MemoryImageSetup snapshot (restricted per fault below)
        self._setup = setup
        # The manager partitions points into functional / status /
        # diagnostic groups; only the order *within* each group is
        # behavioural (``first_alarm`` ties break on the earlier
        # diagnostic entry).  Canonicalising the same stable partition
        # makes every entry point that interleaves the groups
        # differently produce the same address.
        from ..zones.model import ObservationKind

        def canon(point):
            return [point.name, point.kind.value,
                    [circuit.net_names[n] for n in point.nets]]

        # Per group: canonical entries paired with their net sets, in
        # group order, so :meth:`_zone_support` can take the reachable
        # subsequence per fault without re-deriving either.
        self._obs_groups = [
            (group, [(canon(p), frozenset(p.nets)) for p in points])
            for group, points in (
                ("functional", [p for p in observation_points
                                if p.kind is ObservationKind.OUTPUT]),
                ("status", [p for p in observation_points
                            if p.kind is ObservationKind.FUNCTION]),
                ("diagnostic", [p for p in observation_points
                                if p.is_diagnostic]),
            )]
        self.obs_fp = digest({group: [entry for entry, _ in entries]
                              for group, entries in self._obs_groups})
        self.support = SupportIndex(circuit)
        self._zones = {z.name: z for z in zones}
        self._zone_fp: dict[tuple, tuple[str, dict | None, str,
                                         str | None]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "FingerprintContext":
        """Context for a picklable :class:`CampaignSpec`."""
        return cls(spec.circuit, spec.stimuli, list(spec.zones),
                   list(spec.observation_points), setup=spec.setup,
                   max_cycles=spec.config.max_cycles)

    @classmethod
    def from_manager(cls, manager) -> "FingerprintContext":
        """Context for an in-process ``FaultInjectionManager``.

        Raises ``ValueError`` when the manager's setup callable cannot
        be snapshotted (it programs fault overlays) — such a campaign
        is not content-addressable and must bypass the cache.
        """
        from ..faultinjection.parallel import CampaignSpec
        return cls.from_spec(CampaignSpec.from_manager(manager))

    # ------------------------------------------------------------------
    def environment_fingerprint(self) -> str:
        """One digest for the whole environment (run bookkeeping)."""
        return digest({
            "v": FP_VERSION,
            "circuit": self.support.full_fingerprint(),
            "stimuli": self.stimuli_fp,
            "setup": self.setup_fp,
            "obs": self.obs_fp,
            "zones": sorted(self._zones),
        })

    def golden_key(self, read_strobes: dict[str, str] | None = None
                   ) -> str:
        """Content address of the
        :class:`~repro.faultinjection.profiler.GoldenRecord` of this
        environment's fault-free run: everything the replay reads.
        ``read_strobes`` shape the recorded memory traffic, so they
        enter too."""
        return digest({
            "v": FP_VERSION,
            "kind": "golden_record",
            "format": RECORD_FORMAT,
            "circuit": self.support.full_fingerprint(),
            "stimuli": self.stimuli_fp,
            "setup": self.setup_fp,
            "obs": self.obs_fp,
            "strobes": sorted((read_strobes or {}).items()),
        })

    def fault_fingerprint(self, fault: Fault) -> str:
        support_fp, zone_canon, obs_fp, setup_fp = \
            self._zone_support(fault)
        return digest({
            "v": FP_VERSION,
            "fault": fault_descriptor(fault),
            "zone": zone_canon,
            "support": support_fp,
            "stimuli": self.stimuli_fp,
            "setup": setup_fp,
            "obs": obs_fp,
        })

    # ------------------------------------------------------------------
    def _reachable_obs_fp(self, fwd_nets: set[int]) -> str:
        """Digest of the observation points the fault can reach.

        Points with no net in the fan-out closure see faulty values
        equal to golden on every cycle, so they contribute nothing to
        the cached record; dropping them keeps a fault's address stable
        when unreachable logic gains or loses alarm outputs.  The
        reachable points stay in group order because ``first_alarm``
        tie-breaks on it (a subsequence preserves relative order).
        """
        return digest({
            group: [entry for entry, nets in entries
                    if nets & fwd_nets]
            for group, entries in self._obs_groups})

    def _restricted_setup_fp(self, sup_nets: set[int],
                             sup_mems: set[int]) -> str | None:
        """Digest of the setup state inside the support cone.

        A preload image or initial flop value outside the cone drives
        no net the fault's record depends on (anything that could is in
        the backward closure by construction).
        """
        if self._setup is None:
            return self.setup_fp
        mem_names = {self.circuit.memories[i].name for i in sup_mems}
        flop_names = {f.name for f in self.circuit.flops
                      if f.q in sup_nets}
        return digest({
            "mem_images": {name: list(image) for name, image
                           in sorted(self._setup.mem_images.items())
                           if name in mem_names},
            "flop_values": {name: value for name, value
                            in sorted(self._setup.flop_values.items())
                            if name in flop_names},
        })

    def _zone_support(self, fault: Fault
                      ) -> tuple[str, dict | None, str, str | None]:
        zone = self._zones.get(fault.zone) \
            if fault.zone is not None else None
        seeds_key = (fault.zone, _fault_targets(fault))
        cached = self._zone_fp.get(seeds_key)
        if cached is not None:
            return cached
        nets: set[int] = set()
        mems: set[int] = set()
        resolved = True
        for name in _fault_targets(fault):
            net, mem = self.support.resolve_seed(name)
            if net is not None:
                nets.add(net)
            elif mem is not None:
                mems.add(mem)
            else:
                resolved = False
        zone_canon = None
        if zone is not None:
            zone_canon = _zone_canonical(zone, self.circuit)
            nets.update(zone.nets)
            for flop in zone.flops:
                net, _ = self.support.resolve_seed(flop)
                if net is not None:
                    nets.add(net)
            if zone.memory is not None:
                _, mem = self.support.resolve_seed(zone.memory)
                if mem is not None:
                    mems.add(mem)
                else:
                    resolved = False
        if resolved and (nets or mems):
            fwd_nets, fwd_mems = self.support.forward_closure(nets,
                                                              mems)
            sup_nets, sup_mems = self.support.backward_closure(
                fwd_nets, fwd_mems)
            support_fp = digest(self.support._canonical(
                frozenset(sup_nets), frozenset(sup_mems)))
            obs_fp = self._reachable_obs_fp(fwd_nets)
            setup_fp = self._restricted_setup_fp(sup_nets, sup_mems)
        else:
            # unknown target or empty seed set: the only sound cone is
            # the whole circuit, observed everywhere with full state
            support_fp = self.support.full_fingerprint()
            obs_fp = self.obs_fp
            setup_fp = self.setup_fp
        out = (support_fp, zone_canon, obs_fp, setup_fp)
        self._zone_fp[seeds_key] = out
        return out


def _fault_targets(fault: Fault) -> tuple[str, ...]:
    targets = [fault.target]
    victim = getattr(fault, "victim", None)
    if isinstance(victim, str) and victim:
        targets.append(victim)
    targets.extend(getattr(fault, "nets", ()))
    return tuple(targets)


def _zone_canonical(zone: SensibleZone, circuit: Circuit) -> dict:
    return {
        "name": zone.name,
        "kind": zone.kind.value,
        "nets": sorted(circuit.net_names[n] for n in zone.nets),
        "flops": list(zone.flops),
        "memory": zone.memory,
        "mem_words": list(zone.mem_words)
        if zone.mem_words is not None else None,
    }


def _setup_canonical(setup) -> str | None:
    """Canonical digest of a (snapshotted) simulator setup."""
    if setup is None:
        return None
    from ..faultinjection.parallel import MemoryImageSetup
    if isinstance(setup, MemoryImageSetup):
        return digest({
            "mem_images": {name: list(image) for name, image
                           in sorted(setup.mem_images.items())},
            "flop_values": dict(sorted(setup.flop_values.items())),
        })
    raise ValueError(
        f"cannot fingerprint setup {setup!r}: snapshot it with "
        f"snapshot_setup() first")
