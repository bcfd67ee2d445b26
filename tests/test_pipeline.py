"""One campaign pipeline: every entry point runs the same campaign.

``CampaignSupervisor.run`` plans, executes, merges and finalizes every
campaign, with a supervised (process-per-shard) executor and an
in-process one.  Whichever entry point a user picks — the manager with
a store, the runner name, the supervisor, the service with or without
supervision — the fault rows, coverage, DC/SFF and store rows must be
those of the cache-free ``FaultInjectionManager.run`` reference.
"""

import json

import pytest

from repro.faultinjection import (
    CampaignConfig,
    CampaignSupervisor,
    ParallelCampaignRunner,
    build_environment,
    randomize,
)
from repro.service.core import CampaignRequest, CampaignService
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.store import CampaignCache, FingerprintContext

SAMPLE = 60


@pytest.fixture(scope="module")
def env():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return build_environment(sub, quick=True)


@pytest.fixture(scope="module")
def candidates(env):
    # the same seeded sample the service draws for ``sample=SAMPLE``
    return randomize(env.candidates(), SAMPLE)


@pytest.fixture(scope="module")
def reference(env, candidates):
    return env.manager(CampaignConfig()).run(candidates)


def _view(campaign):
    """Everything a campaign reports, in comparable form."""
    cov = campaign.coverage
    return {
        "rows": [(res.fault.name, res.sens_cycle, res.obse_cycle,
                  res.diag_cycle, res.first_alarm, res.effects)
                 for res in campaign.results],
        "coverage": (cov.sens, cov.obse, cov.diag, cov.mismatches,
                     cov.injections),
        "dc": campaign.measured_dc(),
        "sff": campaign.measured_safe_fraction(),
        "outcomes": campaign.outcomes(),
    }


def _expected_row(env, candidates, reference, hits):
    """The ``runs`` row every store-backed entry point must write."""
    ctx = FingerprintContext.from_spec(env.spec())
    total = len(candidates.faults)
    return {
        "hits": hits,
        "misses": total - hits,
        "outcome_counts": reference.outcomes(),
        "membership": [
            (ctx.fault_fingerprint(res.fault), res.fault.name,
             res.fault.zone, reference.outcome_of(res))
            for res in reference.results],
    }


def _last_row(root):
    with CampaignCache(root) as cache:
        run = cache.db.runs(limit=1)[0]
        assert run["status"] == "done"
        return {
            "hits": run["hits"],
            "misses": run["misses"],
            "outcome_counts": json.loads(run["outcome_counts"]),
            "membership": [(f["fault_fp"], f["fault_name"], f["zone"],
                            f["outcome"])
                           for f in cache.db.run_faults(run["run_id"])],
        }


ENTRY_POINTS = {
    "manager": lambda env, faults, cache: env.manager(
        CampaignConfig()).run(faults, cache=cache),
    "runner-w1": lambda env, faults, cache: ParallelCampaignRunner(
        env.spec(), workers=1, cache=cache).run(faults),
    "runner-w2": lambda env, faults, cache: ParallelCampaignRunner(
        env.spec(), workers=2, cache=cache).run(faults),
    "supervisor-w1": lambda env, faults, cache: CampaignSupervisor(
        env.spec(), workers=1, cache=cache).run(faults),
    "supervisor-w2": lambda env, faults, cache: CampaignSupervisor(
        env.spec(), workers=2, cache=cache).run(faults),
    "in-process": lambda env, faults, cache: CampaignSupervisor(
        env.spec(), workers=2, cache=cache).run(faults,
                                                in_process=True),
}


@pytest.mark.parametrize(
    "name", [n for n in ENTRY_POINTS if n != "manager"])
def test_storeless_entry_point_equals_reference(env, candidates,
                                                reference, name):
    campaign = ENTRY_POINTS[name](env, candidates, None)
    assert _view(campaign) == _view(reference)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_store_backed_entry_point_equals_reference(env, candidates,
                                                   reference, name,
                                                   tmp_path):
    root = tmp_path / "store"
    total = len(candidates.faults)
    for hits in (0, total):          # cold, then warm
        with CampaignCache(root) as cache:
            campaign = ENTRY_POINTS[name](env, candidates, cache)
            assert cache.stats.hits == hits
            assert cache.stats.simulated == total - hits
        assert _view(campaign) == _view(reference)
        assert _last_row(root) == \
            _expected_row(env, candidates, reference, hits)


@pytest.mark.parametrize("supervise", [True, False])
def test_service_entry_point_equals_reference(env, candidates,
                                              reference, supervise,
                                              tmp_path):
    root = tmp_path / "store"
    total = len(candidates.faults)
    for hits in (0, total):
        outcome = CampaignService(root).run_campaign(
            CampaignRequest(variant="small-improved", sample=SAMPLE,
                            workers=2, supervise=supervise),
            cache=CampaignCache(root))
        assert outcome.exit_code == 0, outcome.err
        assert (outcome.faults, outcome.measured_dc,
                outcome.safe_fraction, outcome.hits,
                outcome.simulated) == \
            (total, reference.measured_dc(),
             reference.measured_safe_fraction(), hits, total - hits)
        assert _last_row(root) == \
            _expected_row(env, candidates, reference, hits)


def test_deliberate_in_process_run_is_not_degraded(env, candidates):
    supervisor = CampaignSupervisor(env.spec(), workers=2)
    supervisor.run(candidates, in_process=True)
    stats = supervisor.last_stats
    assert stats.health.degraded is False
    assert stats.health.clean
    assert stats.workers == 1
    assert {s.worker for s in stats.shards} == {stats.shards[0].worker}
    assert "DEGRADED" not in stats.summary()


def test_toggle_coverage_survives_every_executor(env, candidates):
    """Toggle bits are merged per shard like passes and cycles are, so
    every executor reports the reference's toggled nets."""
    config = CampaignConfig(collect_toggles=True)
    expected = env.manager(config).run(candidates).toggled_nets()
    assert expected
    for workers in (1, 2):
        supervised = CampaignSupervisor(env.spec(config),
                                        workers=workers)
        assert supervised.run(candidates).toggled_nets() == expected
    in_process = CampaignSupervisor(env.spec(config), workers=2)
    assert in_process.run(candidates, in_process=True) \
        .toggled_nets() == expected
