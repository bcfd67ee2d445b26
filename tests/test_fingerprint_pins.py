"""Pinned store addresses: every digest a campaign store is keyed by.

A store serves a cached fault record only when the fault's
fingerprint is byte-identical to the one it was written under, so any
change to the fingerprint encoding silently turns every existing store
into a 0 % hit rate.  ``tests/data/fingerprints.json`` pins, for the
designs below, every ``fault_fingerprint`` plus the ``golden_key`` and
``environment_fingerprint`` of the campaign:

* ``small-improved`` and the 2-bank ``small-baseline``;
* the paper-size ``improved`` design on the full workload;
* the seeded fuzz netlists of ``test_compiled_differential`` (seeds
  0-199), each with a seeded random memory/flop preload, so the
  per-fault restricted setup digest is exercised.

A deliberate change of the encoding bumps ``FP_VERSION`` and re-records
the file with ``PYTHONPATH=src python -m tests.test_fingerprint_pins``.

The file also checks the cost side of the support cones: the canonical
form of a cone (a scan over the whole netlist) is built once per
distinct cone of a context, however many zones share it.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.faultinjection import build_environment
from repro.faultinjection.parallel import CampaignSpec, MemoryImageSetup
from repro.service.core import make_subsystem
from repro.store import FingerprintContext
from repro.store.fingerprint import SupportIndex

from .test_compiled_differential import _fuzz_campaign_pieces

PINS = Path(__file__).parent / "data" / "fingerprints.json"

#: (name, variant, banks, full workload)
SMALL_DESIGNS = (
    ("small-improved", "small-improved", 1, False),
    ("small-baseline-2bank", "small-baseline", 2, False),
)
DESIGNS = SMALL_DESIGNS + (("improved-full", "improved", 1, True),)
FUZZ_SEEDS = range(200)


def _campaign(variant, banks, full):
    """(spec, faults, read strobes) of one built-in campaign."""
    env = build_environment(make_subsystem(variant, banks=banks),
                            quick=not full)
    return (CampaignSpec.from_environment(env), env.candidates().faults,
            env.read_strobes)


def _campaign_pins(spec, faults, read_strobes):
    return _pins(FingerprintContext.from_spec(spec), faults, read_strobes)


def _fuzz_campaign(seed):
    """(context, faults) of one fuzzed netlist with a random preload."""
    circuit, stimuli, points, faults = _fuzz_campaign_pieces(seed)
    rng = random.Random(seed + 4711)
    setup = MemoryImageSetup(
        mem_images={m.name: [rng.getrandbits(m.width)
                             for _ in range(m.depth)]
                    for m in circuit.memories},
        flop_values={f.name: rng.getrandbits(1) for f in circuit.flops
                     if rng.random() < 0.5})
    return FingerprintContext(circuit, stimuli, [], points,
                              setup=setup), faults


def _pins(ctx, faults, read_strobes=None):
    return {
        "environment": ctx.environment_fingerprint(),
        "golden_key": ctx.golden_key(read_strobes),
        "faults": [[f.name, ctx.fault_fingerprint(f)] for f in faults],
    }


def record_all() -> dict:
    """Every pinned digest, computed by the code under test."""
    data = {name: _campaign_pins(*_campaign(variant, banks, full))
            for name, variant, banks, full in DESIGNS}
    for seed in FUZZ_SEEDS:
        data[f"fuzz-{seed}"] = _pins(*_fuzz_campaign(seed))
    return data


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def paper_campaign():
    return _campaign("improved", 1, True)


@pytest.mark.parametrize("name,variant,banks,full", SMALL_DESIGNS)
def test_design_digests_pinned(pins, name, variant, banks, full):
    assert _campaign_pins(*_campaign(variant, banks, full)) == pins[name]


def test_paper_design_digests_pinned(pins, paper_campaign):
    assert _campaign_pins(*paper_campaign) == pins["improved-full"]


def test_fuzz_digests_pinned(pins):
    for seed in FUZZ_SEEDS:
        assert _pins(*_fuzz_campaign(seed)) == pins[f"fuzz-{seed}"], seed


def _count_canonical(monkeypatch) -> list:
    """Record the arguments of every ``SupportIndex._canonical`` call."""
    calls = []
    original = SupportIndex._canonical

    def counted(self, nets, mems):
        calls.append((frozenset(nets), frozenset(mems)))
        return original(self, nets, mems)

    monkeypatch.setattr(SupportIndex, "_canonical", counted)
    return calls


def test_canonical_once_per_distinct_cone(monkeypatch, paper_campaign):
    """155 zones seed 194 distinct sets at paper size, which close to
    only 4 support cones: the netlist scan runs 4 times, not 194."""
    spec, faults, _ = paper_campaign
    ctx = FingerprintContext.from_spec(spec)
    calls = _count_canonical(monkeypatch)
    for fault in faults:
        ctx.fault_fingerprint(fault)
    assert len(calls) == len(set(calls))
    assert len(calls) == 4


def test_fuzz_canonical_once_per_distinct_cone(monkeypatch):
    calls = _count_canonical(monkeypatch)
    for seed in range(20):
        ctx, faults = _fuzz_campaign(seed)
        before = len(calls)
        for fault in faults:
            ctx.fault_fingerprint(fault)
        mine = calls[before:]
        assert len(mine) == len(set(mine)), seed


if __name__ == "__main__":
    PINS.write_text(json.dumps(record_all(), indent=1) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
