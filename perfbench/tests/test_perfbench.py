"""Tests of the benchmark's own logic (no campaign is run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, load_spool, self_times  # noqa: E402
from stats import tail  # noqa: E402


# ----------------------------------------------------------------------
# the tail-percentile rule
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    samples = [float(v) for v in range(1, 26)]        # 25 samples
    pct, value, n = tail(samples[::-1])
    assert (pct, value, n) == (60.0, 15.0, 25)
    assert sum(s > value for s in samples) == 10


def test_tail_at_twenty_samples_is_the_median_rank():
    pct, value, _ = tail([float(v) for v in range(20)])
    assert (pct, value) == (50.0, 9.0)


def test_tail_with_too_few_samples_is_the_slowest():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail([5.0] * 10) == (100.0, 5.0, 10)
    # 19 samples: rank 9 would sit below the median
    assert tail([float(v) for v in range(19)]) == (100.0, 18.0, 19)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(sid, parent, start, end, name="x", pid=1, tid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "tid": tid, "corr": None,
            "attrs": attrs}


def test_self_time_of_nested_spans():
    spans = [_span("a", None, 0.0, 10.0),
             _span("b", "a", 2.0, 5.0),
             _span("c", "b", 3.0, 4.0),
             _span("d", "a", 4.0, 6.0)]     # overlaps b: union counts
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 4.0)   # b ∪ d = [2, 6]
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(2.0)


def test_worker_process_children_do_not_reduce_parent_self_time():
    spans = [_span("p", None, 0.0, 10.0, name="supervisor.run"),
             _span("w", "p", 1.0, 9.0, name="worker.shard", pid=2),
             _span("s", "w", 1.5, 8.5, name="manager.simulate", pid=2),
             _span("t", "p", 2.0, 3.0, name="supervisor.wait", tid=7)]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10.0)   # other pid / other thread
    assert own["w"] == pytest.approx(1.0)
    assert own["s"] == pytest.approx(7.0)


def _forked_worker(tracer: Tracer, spool: str) -> None:
    tracer.adopt_fork()
    with tracer.span("worker.shard"):
        with tracer.span("manager.simulate"):
            pass
    tracer.dump(spool)


def test_spans_are_collected_from_a_forked_worker(tmp_path):
    tracer = Tracer()
    with tracer.span("supervisor.run", corr="campaign-1") as parent:
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_forked_worker,
                           args=(tracer, str(tmp_path)))
        proc.start()
        proc.join(timeout=30)
    assert proc.exitcode == 0
    tracer.dump(tmp_path)
    spans = load_spool(tmp_path)
    names = sorted(s["name"] for s in spans)
    assert names == ["manager.simulate", "supervisor.run",
                     "worker.shard"]
    worker = next(s for s in spans if s["name"] == "worker.shard")
    assert worker["pid"] != parent["pid"]
    assert worker["parent"] == parent["id"]
    assert worker["corr"] == "campaign-1"
    own = self_times(spans)
    assert own[parent["id"]] == pytest.approx(
        parent["end"] - parent["start"])


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span("r", None, 0.0, 20.0, name="supervisor.run"),
        _span("g", "r", 12.0, 16.0, name="cache.golden"),
        _span("gt", "g", 12.0, 15.0, name="golden.trace"),
        _span("w", "r", 1.0, 13.0, name="worker.shard", pid=2),
        _span("m", "w", 1.0, 13.0, name="manager.simulate", pid=2,
              passes=1, fault_cycles=1000),
        _span("p", "r", 0.0, 1.0, name="cache.plan", hits=3, misses=1),
    ]
    m = layers.layer_metrics(spans, import_s=0.5, overhead_s=0.1,
                             unattributed_s=0.0)
    assert m["golden.trace_s"] == pytest.approx(3.0)
    assert m["golden.serial_s"] == pytest.approx(2.0)   # after worker
    assert m["golden.hits"] == 0
    assert m["manager.ns_per_fault_cycle"] == pytest.approx(12e6)
    assert m["cache.hit_ratio"] == pytest.approx(0.75)
    assert m["supervisor.self_s"] == pytest.approx(20.0 - 1.0 - 4.0)
    assert set(m) == set(layers.LAYER_METRICS)
    assert layers.unattributed(spans, wall_s=25.0, pid=1) \
        == pytest.approx(25.0 - 20.0)


def test_api_retries_and_sheds_counted_per_call():
    spans = [_span("a", None, 0.0, 1.0, name="api.submit",
                   http=[429, 503, 201]),
             _span("b", None, 1.0, 2.0, name="api.read", http=[200])]
    m = layers.layer_metrics(spans, import_s=0.0, overhead_s=0.0,
                             unattributed_s=0.0)
    assert (m["api.retries"], m["api.sheds"]) == (2, 2)


# ----------------------------------------------------------------------
# reference comparison
# ----------------------------------------------------------------------
def _paper_run():
    ref = reference.load("paper")
    parsed = {"design": ref["design"], "faults": ref["faults"],
              "dc": ref["dc"], "sff": ref["sff"],
              "outcomes": dict(ref["outcomes"]),
              "store": {"hits": 0, "misses": 380, "simulated": 380}}
    return ref, parsed, dict(ref["fault_outcomes"])


def test_reference_accepts_identical_run():
    ref, parsed, faults = _paper_run()
    assert reference.check_cli_run(ref, parsed, faults,
                                   parsed["store"]) == []


def test_reference_catches_one_fault_outcome_flip():
    ref, parsed, faults = _paper_run()
    key = next(k for k, v in faults.items() if v == "safe")
    faults[key] = "detected_safe"
    problems = reference.check_cli_run(ref, parsed, faults,
                                       parsed["store"])
    assert problems == [f"fault {key}: expected safe, "
                        f"got detected_safe"]


def test_reference_catches_a_count_neutral_swap():
    ref, parsed, faults = _paper_run()
    a = next(k for k, v in faults.items() if v == "safe")
    b = next(k for k, v in faults.items() if v == "detected_safe")
    faults[a], faults[b] = faults[b], faults[a]
    assert len(reference.check_cli_run(ref, parsed, faults,
                                       parsed["store"])) == 2


def test_reference_catches_table_and_counter_drift():
    ref, parsed, faults = _paper_run()
    parsed["outcomes"]["safe"] -= 1
    parsed["store"] = {"hits": 1, "misses": 379, "simulated": 379}
    problems = reference.check_cli_run(
        ref, parsed, faults, {"hits": 0, "misses": 380, "simulated": 380})
    assert len(problems) == 2


def test_job_check_against_spec_reference():
    refs = reference.load("mix")
    key, ref = next(iter(refs.items()))
    job = {"job": 7, "status": "done", "result": {
        "exit_code": 0, "faults": ref["faults"],
        "measured_dc": ref["measured_dc"],
        "safe_fraction": ref["safe_fraction"],
        "hits": ref["faults"], "misses": 0, "simulated": 0}}
    faults = dict(ref["fault_outcomes"])
    assert reference.check_job(ref, job, faults, repeat=True) == []
    job["result"].update(hits=0, misses=ref["faults"],
                         simulated=ref["faults"])
    assert reference.check_job(ref, job, faults, repeat=True) \
        == [f"job #7: repeat job simulated {ref['faults']} faults"]
    flipped = next(iter(faults))
    faults[flipped] = "dangerous_undetected"
    assert len(reference.check_job(ref, job, faults, repeat=False)) == 1
    assert reference.check_job(ref, {"job": 8, "status": "dead"}, {},
                               repeat=False) == ["job #8: ended dead"]


def test_parse_campaign_output():
    text = "\n".join([
        "=== campaign: memss_improved, 380 faults ===",
        "+----------------------+--------+----------+",
        "| outcome              | faults | fraction |",
        "+----------------------+--------+----------+",
        "| safe                 | 112    | 29.47%   |",
        "| dangerous_undetected | 0      | 0.00%    |",
        "+----------------------+--------+----------+",
        "measured DC:            100.00%",
        "measured safe fraction: 75.00%",
        "store: 380 hits, 0 misses (100.0% hit rate), 0 new outcomes, "
        "0 faults simulated"])
    parsed = reference.parse_campaign_output(text)
    assert parsed == {"design": "memss_improved", "faults": 380,
                      "outcomes": {"safe": 112,
                                   "dangerous_undetected": 0},
                      "dc": "100.00%", "sff": "75.00%",
                      "store": {"hits": 380, "misses": 0,
                                "simulated": 0}}


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better, _)
            in layers.LAYER_METRICS.items()]


# ----------------------------------------------------------------------
# reference seconds
# ----------------------------------------------------------------------
def test_weighted_trimmed_mean():
    # the extremes are dropped; the busy CPU's samples set the mean
    pairs = [(1.0, 3)] * 9 + [(2.0, 1)] * 9 + [(0.0, 5), (100.0, 5)]
    assert calib.weighted_trimmed_mean(pairs) == pytest.approx(1.25)
    assert calib.weighted_trimmed_mean([(1.0, 0), (3.0, 0)]) == 2.0


def test_probe_scale_uses_the_window_or_the_whole_run():
    probe = calib.SpeedProbe()
    nominal = calib.NOMINAL_UNIT_S
    probe.samples = [(float(t), 0, nominal, 1) for t in range(10)] \
        + [(float(t), 1, 2 * nominal, 1) for t in range(10, 20)]
    power = calib.SENSITIVITY
    assert probe.scale(0.0, 9.0) == pytest.approx(1.0)
    assert probe.scale(10.0, 19.0) == pytest.approx(0.5 ** power)
    # two samples in the window: too few, the whole run's mean is used
    assert probe.scale(9.0, 10.0) == pytest.approx((1 / 1.5) ** power)


def test_probe_samples_every_cpu_and_stops():
    with calib.SpeedProbe(period=0.01) as probe:
        time.sleep(0.3)
    assert not probe._thread.is_alive()
    assert {cpu for _, cpu, _, _ in probe.samples} \
        == os.sched_getaffinity(0)
    assert all(busy >= 0 for *_, busy in probe.samples)


def test_op_metrics_scale_each_window():
    def window(start, wall, **extra):
        return dict(start=start, end=start + wall, wall=wall, **extra)
    ops = [window(0.0, 2.0, cold=True, cpu=3.0),
           window(2.0, 1.0, cold=False, cpu=1.0)]
    m = {"ops": ops, "busy": ops, "setup": [[window(-1.0, 0.5)]],
         "cli_starts": [window(3.0, 0.25)], "rss_mb": 80.0}

    def slow_then_fast(start, end):
        return 0.5 if start >= 2.0 else 1.0
    metrics, summary = workloads.op_metrics(m, slow_then_fast)
    values = {k: v for k, (v, _) in metrics.items()}
    assert values == {"cold_p50_s": 2.0, "warm_p50_s": 0.5,
                      "op_tail_s": 2.0, "ops_per_s": 2 / 2.5,
                      "cpu_per_op_s": (3.0 + 0.5) / 2,
                      "peak_rss_mb": 80.0, "cli_start_s": 0.125,
                      "setup_s": 0.5}
    assert (summary["cold"], summary["warm"]) == (1, 1)
