"""Differential proof for the one recorded fault-free run.

:func:`~repro.faultinjection.profiler.record_golden` replaces two
separate fault-free replays — the Operational Profiler and the golden
trace — with one pass, and the campaign store serves its encoding to
warm runs instead of replaying at all.  Both shortcuts are checked here
against a plain per-cycle :class:`~repro.hdl.Simulator` reference
written in this file, on the fmem subsystem, the mini CPU, the 2-bank
design and fuzzed netlists:

* the OP matches field for field, before and after a store round trip;
* the golden ``obse_active``/``diag_active`` bits match a reference
  replay of every tested ``max_cycles`` prefix;
* the fault lists generated from the recorded OP are byte-identical to
  the reference OP's, and so is every fault fingerprint.
"""

import json
import random

import pytest

from repro.faultinjection import (
    CampaignConfig,
    FaultInjectionManager,
    GoldenRecord,
    MemAccess,
    OperationalProfile,
    build_environment,
    compute_golden_trace,
    generate_zone_faults,
    record_golden,
)
from repro.faultinjection.parallel import snapshot_setup
from repro.hdl import Simulator
from repro.service.core import make_subsystem
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.store import FingerprintContext
from repro.store.fingerprint import fault_descriptor
from repro.zones.extractor import ZoneSet, extract_zones
from repro.zones.model import ObservationKind, ObservationPoint

from .test_compiled_differential import _fuzz_campaign_pieces


def reference_run(circuit, stimuli, setup=None, read_strobes=None,
                  points=()):
    """The OP and golden bits, one plain simulator cycle at a time."""
    sim = Simulator(circuit, machines=1)
    if setup is not None:
        setup(sim)
    strobes = {mem: circuit.find_net(net)
               for mem, net in (read_strobes or {}).items()}
    profile = OperationalProfile(length=len(stimuli))
    prev_outs, prev_flops, prev_func = {}, {}, {}
    obse, diag = set(), set()
    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)
        for mem in circuit.memories:
            write = bool(sim.peek_bit(mem.we))
            strobe = strobes.get(mem.name)
            reading = bool(sim.peek_bit(strobe)) \
                if strobe is not None else not write
            if write or reading:
                profile.mem_accesses.setdefault(mem.name, []).append(
                    MemAccess(cycle=cycle, addr=sim.value_of(mem.addr),
                              write=write))
        for name, nets in circuit.outputs.items():
            value = sim.value_of(nets)
            if name in prev_outs and prev_outs[name] != value:
                profile.output_toggles.setdefault(name, []).append(
                    cycle)
            prev_outs[name] = value
        for point in points:
            if point.kind is ObservationKind.OUTPUT:
                value = sim.value_of(point.nets)
                if point.name in prev_func and \
                        prev_func[point.name] != value:
                    obse.add(point.name)
                prev_func[point.name] = value
            elif point.is_diagnostic and \
                    any(sim.peek(net) & 1 for net in point.nets):
                diag.add(point.name)
        sim.step_commit()
        for i, flop in enumerate(circuit.flops):
            bit = sim.flop_value(i)
            if flop.name in prev_flops and prev_flops[flop.name] != bit:
                profile.flop_toggles.setdefault(flop.name, []).append(
                    cycle)
            prev_flops[flop.name] = bit
    return profile, tuple(sorted(obse)), tuple(sorted(diag))


def _accesses(profile):
    return {mem: [(a.cycle, a.addr, a.write) for a in accesses]
            for mem, accesses in profile.mem_accesses.items()}


def assert_same_profile(got, want):
    assert got.length == want.length
    assert got.flop_toggles == want.flop_toggles
    assert got.output_toggles == want.output_toggles
    assert _accesses(got) == _accesses(want)


def _fault_list_bytes(candidates):
    return json.dumps(
        {"faults": [fault_descriptor(f) for f in candidates.faults],
         "skipped": candidates.skipped_zones},
        sort_keys=True).encode()


def check_design(circuit, stimuli, zone_set, setup=None,
                 read_strobes=None, prefixes=None):
    """Every differential obligation on one design + workload."""
    points = zone_set.observation_points
    record = record_golden(circuit, stimuli, setup=setup,
                           read_strobes=read_strobes,
                           observation_points=points)
    stored = GoldenRecord.from_bytes(record.to_bytes())
    ref_profile, ref_obse, ref_diag = reference_run(
        circuit, stimuli, setup, read_strobes, points)
    assert_same_profile(record.profile, ref_profile)
    assert_same_profile(stored.profile, ref_profile)

    n = len(stimuli)
    for cycles in prefixes or sorted({0, 1, n // 3, n - 1, n}):
        if cycles == n:
            want = (ref_obse, ref_diag)
        else:
            _, *want = reference_run(circuit, stimuli[:cycles], setup,
                                     read_strobes, points)
            want = tuple(want)
        for source in (record, stored):
            trace = source.golden_trace(cycles)
            assert trace.cycles == cycles
            assert (trace.obse_active, trace.diag_active) == want, \
                cycles
        manager = FaultInjectionManager(
            circuit, stimuli, zone_set=zone_set, setup=setup,
            config=CampaignConfig(max_cycles=cycles))
        trace = compute_golden_trace(manager)
        assert (trace.obse_active, trace.diag_active) == want, cycles

    ref_faults = generate_zone_faults(zone_set, circuit,
                                      profile=ref_profile)
    for source in (record, stored):
        faults = generate_zone_faults(zone_set, circuit,
                                      profile=source.profile)
        assert _fault_list_bytes(faults) == _fault_list_bytes(ref_faults)
    ctx = FingerprintContext(circuit, stimuli, list(zone_set.zones),
                             points, setup=snapshot_setup(circuit, setup))
    assert [ctx.fault_fingerprint(f) for f in faults.faults] == \
        [ctx.fault_fingerprint(f) for f in ref_faults.faults]
    return record


# ----------------------------------------------------------------------
# real designs
# ----------------------------------------------------------------------
def test_fmem_record_matches_reference():
    env = build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)
    record = check_design(env.circuit, env.stimuli, env.zone_set,
                          setup=env.setup,
                          read_strobes=env.read_strobes)
    # the workload reads data back and exercises memory traffic
    assert record.obse_first and record.profile.mem_accesses


def test_banked_record_matches_reference():
    env = build_environment(make_subsystem("small-baseline", banks=2),
                            quick=True)
    assert len(env.read_strobes) == 2
    check_design(env.circuit, env.stimuli, env.zone_set,
                 setup=env.setup, read_strobes=env.read_strobes)


def test_minicpu_record_matches_reference():
    cpu = MiniCpu(CpuConfig.lockstep_pair())
    circuit = cpu.circuit
    prog = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
            ("ldi", 0), ("jnz", 0), ("out",)]
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 40

    def setup(sim):
        sim.load_mem("imem/rom", assemble(prog))

    record = check_design(circuit, stimuli, extract_zones(circuit),
                          setup=setup, prefixes=range(0, 43, 3))
    assert record.profile.flop_toggles


# ----------------------------------------------------------------------
# fuzzed netlists
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_record_matches_reference(seed):
    circuit, stimuli, points, _ = _fuzz_campaign_pieces(seed)
    rng = random.Random(seed)
    zones = extract_zones(circuit, analyze_cones=False).zones
    zone_set = ZoneSet(circuit, zones, points)
    strobes = None
    if circuit.memories and rng.random() < 0.5:
        # a random net as the read strobe of the fuzzed memory
        strobes = {circuit.memories[0].name:
                   circuit.net_names[rng.randrange(circuit.num_nets)]}
    image = [rng.getrandbits(4) for _ in range(8)]

    def setup(sim):
        for mem in circuit.memories:
            sim.load_mem(mem.name, image)

    check_design(circuit, stimuli, zone_set,
                 setup=setup if circuit.memories else None,
                 read_strobes=strobes, prefixes=range(len(stimuli) + 1))


def test_alarm_raised_in_first_cycle():
    """A diagnostic raised in cycle 0 is active in every non-empty
    prefix and in the empty one not at all."""
    circuit, stimuli, _, _ = _fuzz_campaign_pieces(3)
    sim = Simulator(circuit, machines=1)
    sim.step_eval(stimuli[0])
    high = next(n for n in range(circuit.num_nets) if sim.peek(n) & 1)
    point = ObservationPoint(name="alarm", kind=ObservationKind.ALARM,
                             nets=(high,))
    record = record_golden(circuit, stimuli, observation_points=[point])
    assert record.diag_first == {"alarm": 0}
    assert record.golden_trace(0).diag_active == ()
    assert record.golden_trace(1).diag_active == ("alarm",)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def test_record_encoding_is_canonical():
    circuit, stimuli, points, _ = _fuzz_campaign_pieces(5)
    a = record_golden(circuit, stimuli, observation_points=points)
    b = record_golden(circuit, stimuli, observation_points=points)
    assert a.to_bytes() == b.to_bytes()
    assert GoldenRecord.from_bytes(a.to_bytes()).to_bytes() == \
        a.to_bytes()


@pytest.mark.parametrize("junk", [b"junk", b"[]", b'{"format": 99}',
                                  b'{"format": 1}'])
def test_record_decode_rejects_foreign_bytes(junk):
    with pytest.raises((ValueError, KeyError, TypeError)):
        GoldenRecord.from_bytes(junk)
