"""Support cones from one sweep over the netlist, against a plain BFS.

:class:`SupportIndex` computes every fan-out closure and every support
cone (the fan-in closure of a fan-out closure) from one condensation
of the net graph into strongly connected components, with big-int
bitsets per component.  The oracle here is the direct definition: a
breadth-first fan-out closure through gates, flops (``d``/``en``/``rst``
-> ``q``) and memories (``addr``/``wdata``/``we`` -> ``rdata``),
followed by a breadth-first fan-in closure.  Both must give the same
nets and memories for every seed set: the netlist part of every store
address is the canonical form of that cone.

Coverage: every single net and memory of the 200 fuzz netlists of
``test_compiled_differential`` (memory seeds, ``rdata`` seeds and flops
without ``en``/``rst`` among them), seed sets drawn by hypothesis over
the same netlists, and the zone seed sets of the three designs whose
digests ``test_fingerprint_pins`` pins.
"""

from collections import deque
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import CampaignConfig, build_environment
from repro.service.core import make_subsystem
from repro.store import FingerprintContext
from repro.store.fingerprint import SupportIndex, _condense

from .test_compiled_differential import _fuzz_campaign_pieces, \
    fuzz_circuit

FUZZ_SEEDS = range(200)
#: (variant, banks, full workload) of the pinned designs
DESIGNS = (("small-improved", 1, False), ("small-baseline", 2, False),
           ("improved", 1, True))


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class BfsOracle:
    """Plain breadth-first closures over one circuit."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.fanout = circuit.fanout_map()
        self.drivers = circuit.driver_map()

    def cones(self, nets, mems):
        """``(fwd_nets, fwd_mems, sup_nets, sup_mems)``."""
        circuit = self.circuit
        fwd_nets, fwd_mems = set(), set(mems)
        queue = deque()

        def reach(new, seen):
            for n in new:
                if n not in seen:
                    seen.add(n)
                    queue.append(n)

        reach(nets, fwd_nets)
        for mi in mems:
            reach(circuit.memories[mi].rdata, fwd_nets)
        while queue:
            for desc in self.fanout.get(queue.popleft(), ()):
                if desc[0] == "gate":
                    reach([circuit.gates[desc[1]].out], fwd_nets)
                elif desc[0] == "flop":
                    reach([circuit.flops[desc[1]].q], fwd_nets)
                elif desc[0] == "mem":
                    fwd_mems.add(desc[1])
                    reach(circuit.memories[desc[1]].rdata, fwd_nets)

        sup_nets, sup_mems = set(), set(fwd_mems)
        reach(fwd_nets, sup_nets)
        for mi in fwd_mems:
            mem = circuit.memories[mi]
            reach((*mem.addr, *mem.wdata, mem.we), sup_nets)
        while queue:
            desc = self.drivers.get(queue.popleft())
            if desc is None:
                continue
            if desc[0] == "gate":
                reach(circuit.gates[desc[1]].inputs, sup_nets)
            elif desc[0] == "flop":
                flop = circuit.flops[desc[1]]
                reach([n for n in (flop.d, flop.en, flop.rst)
                       if n is not None], sup_nets)
            elif desc[0] == "mem":
                sup_mems.add(desc[1])
                mem = circuit.memories[desc[1]]
                reach((*mem.addr, *mem.wdata, mem.we), sup_nets)
        return fwd_nets, fwd_mems, sup_nets, sup_mems


def sweep_cones(index, nets, mems):
    """The same four sets, read off the sweep's bitsets."""
    fwd, support = index.cones(set(nets), set(mems))
    fwd_nets, fwd_mems = index.cone_sets(fwd)
    sup_nets, sup_mems = index.cone_sets(support)
    return set(fwd_nets), set(fwd_mems), set(sup_nets), set(sup_mems)


@lru_cache(maxsize=None)
def fuzz_index(seed):
    circuit = fuzz_circuit(seed)
    return SupportIndex(circuit), BfsOracle(circuit)


@lru_cache(maxsize=None)
def design(variant, banks, full):
    env = build_environment(make_subsystem(variant, banks=banks),
                            quick=not full)
    return env, SupportIndex(env.circuit), BfsOracle(env.circuit)


def zone_seeds(index, zone):
    """The seed set a zone contributes to each of its faults."""
    nets = set(zone.nets)
    mems = set()
    for flop in zone.flops:
        net, _ = index.resolve_seed(flop)
        if net is not None:
            nets.add(net)
    if zone.memory is not None:
        _, mem = index.resolve_seed(zone.memory)
        if mem is not None:
            mems.add(mem)
    return nets, mems


# ----------------------------------------------------------------------
# sweep == oracle
# ----------------------------------------------------------------------
def test_fuzz_netlists_cover_the_corner_cases():
    """The corpus holds what the single-node test must exercise."""
    circuits = [fuzz_index(seed)[0].circuit for seed in FUZZ_SEEDS]
    flops = [f for c in circuits for f in c.flops]
    assert any(f.en is None for f in flops)
    assert any(f.rst is None for f in flops)
    assert any(f.en is not None and f.rst is not None for f in flops)
    assert sum(1 for c in circuits if c.memories) > 50


def test_every_single_node_of_the_fuzz_netlists():
    for seed in FUZZ_SEEDS:
        index, oracle = fuzz_index(seed)
        circuit = index.circuit
        for net in range(circuit.num_nets):
            assert sweep_cones(index, {net}, ()) == \
                oracle.cones({net}, ()), (seed, net)
        for mi, mem in enumerate(circuit.memories):
            assert sweep_cones(index, (), {mi}) == \
                oracle.cones((), {mi}), (seed, mem.name)
            rdata = set(mem.rdata)
            assert sweep_cones(index, rdata, ()) == \
                oracle.cones(rdata, ()), (seed, mem.name)


@st.composite
def fuzz_seed_sets(draw):
    seed = draw(st.sampled_from(FUZZ_SEEDS))
    circuit = fuzz_index(seed)[0].circuit
    nets = draw(st.sets(st.integers(0, circuit.num_nets - 1),
                        max_size=6))
    mems = draw(st.sets(st.integers(0, len(circuit.memories) - 1),
                        max_size=1)) if circuit.memories else set()
    return seed, nets, mems


@settings(max_examples=300, deadline=None)
@given(fuzz_seed_sets())
def test_fuzz_seed_sets_match_bfs(case):
    seed, nets, mems = case
    index, oracle = fuzz_index(seed)
    assert sweep_cones(index, nets, mems) == oracle.cones(nets, mems)


@pytest.mark.parametrize("variant,banks,full", DESIGNS)
def test_zone_seed_sets_of_pinned_designs_match_bfs(variant, banks,
                                                    full):
    env, index, oracle = design(variant, banks, full)
    seen = set()
    for zone in env.zone_set.zones:
        nets, mems = zone_seeds(index, zone)
        key = (frozenset(nets), frozenset(mems))
        if not (nets or mems) or key in seen:
            continue
        seen.add(key)
        assert sweep_cones(index, nets, mems) == \
            oracle.cones(nets, mems), zone.name


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DESIGNS), st.randoms(use_true_random=False))
def test_random_seed_sets_of_pinned_designs_match_bfs(which, rng):
    env, index, oracle = design(*which)
    circuit = env.circuit
    nets = set(rng.sample(range(circuit.num_nets), rng.randrange(1, 4)))
    flop = rng.choice(circuit.flops)
    nets.add(flop.q)
    mems = set()
    if circuit.memories and rng.random() < 0.5:
        mi = rng.randrange(len(circuit.memories))
        if rng.random() < 0.5:
            mems.add(mi)
        else:
            nets.add(rng.choice(circuit.memories[mi].rdata))
    assert sweep_cones(index, nets, mems) == oracle.cones(nets, mems)


# ----------------------------------------------------------------------
# cost: one sweep per circuit
# ----------------------------------------------------------------------
def _count_sweeps(monkeypatch) -> list:
    calls = []
    original = SupportIndex._sweep

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SupportIndex, "_sweep", counted)
    return calls


def test_one_sweep_per_index(monkeypatch):
    env, _, _ = design("small-improved", 1, False)
    faults = env.candidates().faults
    calls = _count_sweeps(monkeypatch)
    ctx = FingerprintContext.from_spec(env.spec())
    assert calls == []                  # lazy: no query yet
    for fault in faults:
        ctx.fault_fingerprint(fault)
    assert len(faults) > 100
    assert calls == [ctx.support]


def test_one_sweep_per_fuzz_index(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    for seed in range(20):
        circuit, stimuli, points, faults = _fuzz_campaign_pieces(seed)
        ctx = FingerprintContext(circuit, stimuli, [], points)
        for fault in faults:
            ctx.fault_fingerprint(fault)
        assert calls.count(ctx.support) <= 1, seed
    assert calls


def test_condensation_is_iterative():
    """A netlist-deep chain and a netlist-wide cycle: no recursion."""
    n = 20000
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    comp_of, comps = _condense(chain)
    assert len(comps) == n
    # every component comes after the ones it reaches
    assert all(comp_of[i] > comp_of[i + 1] for i in range(n - 1))
    ring = [[(i + 1) % n] for i in range(n)]
    comp_of, comps = _condense(ring)
    assert len(comps) == 1 and sorted(comps[0]) == list(range(n))


# ----------------------------------------------------------------------
# one stimuli encoding per campaign
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_cycles", [None, 37])
def test_shared_stimuli_digest_is_byte_identical(max_cycles):
    env = build_environment(make_subsystem("small-improved"))
    faults = env.candidates().faults[:40]
    golden_key = env._golden_key()
    spec = env.spec(CampaignConfig(max_cycles=max_cycles))
    shared = FingerprintContext.from_spec(spec)
    # a context that encodes the stimuli itself, as before sharing
    fresh = FingerprintContext(
        spec.circuit, list(spec.stimuli), list(spec.zones),
        list(spec.observation_points), setup=spec.setup,
        max_cycles=max_cycles)
    alone = FingerprintContext(
        env.circuit, list(env.stimuli), [],
        env.zone_set.observation_points, setup=spec.setup)
    assert spec.stimuli_digest is env.stimuli_digest()
    assert golden_key == alone.golden_key(env.read_strobes)
    assert (shared.stimuli_fp, shared.cycles) == \
        (fresh.stimuli_fp, fresh.cycles)
    assert [shared.fault_fingerprint(f) for f in faults] == \
        [fresh.fault_fingerprint(f) for f in faults]
    # one encoding per distinct prefix: the golden key's full run,
    # plus the campaign's own when max_cycles truncates it
    expected = 1 if max_cycles is None else 2
    assert len(env.stimuli_digest()._fps) == expected


def test_replaced_stimuli_are_encoded_again():
    env, _, _ = design("small-improved", 1, False)
    spec = env.spec()
    spec.stimuli = spec.stimuli[:-1]
    ctx = FingerprintContext.from_spec(spec)
    fresh = FingerprintContext(spec.circuit, list(spec.stimuli), [],
                               list(spec.observation_points))
    assert (ctx.stimuli_fp, ctx.cycles) == \
        (fresh.stimuli_fp, len(env.stimuli) - 1)
