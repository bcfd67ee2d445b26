"""Span wrappers around each layer's public calls, and the per-layer
metrics computed from the spans they record.

:func:`install` replaces each function or method in :data:`TARGETS` by
a wrapper that records one span per call (and, for some, counts taken
from the call's arguments or result).  Functions are replaced in their
defining module and in every loaded ``repro`` module that imported
them by name.  Nothing under ``src/`` is edited: the wrappers live only
in the traced process and in the shard workers it forks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from spans import Tracer, self_times


def _len_arg(index):
    return lambda args, kw, result: {"rows": len(args[index])}


def _one_row(args, kw, result):
    return {"rows": 1}


def _finish_rows(args, kw, result):
    return {"rows": 1 + len(kw.get("membership") or ())}


def _blob_bytes(args, kw, result):
    return {"bytes": len(args[1])}


def _candidates(args, kw, result):
    return {"faults": len(result.faults)}


def _plan(args, kw, result):
    return {"hits": len(result.cached), "misses": len(result.misses)}


def _batches(args, kw, result):
    passes = result.passes
    per_pass = result.cycles_simulated / passes if passes else 0
    return {"faults": len(args[1]), "passes": passes,
            "fault_cycles": int(len(args[1]) * per_pass)}


def _claim(args, kw, result):
    if result is None:
        return {}
    return {"wait_s": time.time() - result.created_at,
            "corr": f"job-{result.job_id}"}


def _submitted(args, kw, result):
    return {"corr": f"job-{result['job']}"}


def _job_corr(args, kw):
    return f"job-{args[2].job_id}"


def _api_corr(args, kw):
    return f"job-{args[1]}"


#: (span name, module, qualified name, attrs(args, kw, result),
#:  corr(args, kw)) — the layer boundaries the benchmark times
TARGETS = [
    ("soc.elaborate", "repro.service.core", "make_subsystem",
     None, None),
    ("zones.extract", "repro.soc.subsystem",
     "MemorySubsystem.extract_zones", None, None),
    ("zones.extract", "repro.soc.banked",
     "BankedMemorySubsystem.extract_zones", None, None),
    ("fmea.worksheet", "repro.soc.subsystem",
     "MemorySubsystem.worksheet", None, None),
    ("fmea.worksheet", "repro.soc.banked",
     "BankedMemorySubsystem.worksheet", None, None),
    ("profiler.profile", "repro.faultinjection.profiler",
     "profile_workload", None, None),
    ("faultlist.candidates", "repro.faultinjection.faultlist",
     "generate_zone_faults", _candidates, None),
    ("fingerprint.context", "repro.store.fingerprint",
     "FingerprintContext.from_spec", None, None),
    ("fingerprint.context", "repro.store.fingerprint",
     "FingerprintContext.from_manager", None, None),
    ("fingerprint.fault", "repro.store.fingerprint",
     "FingerprintContext.fault_fingerprint", None, None),
    ("cache.plan", "repro.store.cache", "CampaignCache.plan",
     _plan, None),
    ("cache.golden", "repro.store.cache", "CampaignCache._golden",
     None, None),
    ("db.read", "repro.store.db", "StoreDB.get_outcomes", None, None),
    ("db.read", "repro.store.db", "StoreDB.get_anomalies", None, None),
    ("db.read", "repro.store.db", "StoreDB.get_golden", None, None),
    ("db.write", "repro.store.db", "StoreDB.put_outcomes",
     _len_arg(1), None),
    ("db.write", "repro.store.db", "StoreDB.put_anomalies",
     _len_arg(1), None),
    ("db.write", "repro.store.db", "StoreDB.put_shard_attempts",
     _len_arg(2), None),
    ("db.write", "repro.store.db", "StoreDB.put_golden",
     _one_row, None),
    ("db.write", "repro.store.db", "StoreDB.begin_run",
     _one_row, None),
    ("db.write", "repro.store.db", "StoreDB.finish_run",
     _finish_rows, None),
    ("blobs.put", "repro.store.blobs", "BlobStore.put",
     _blob_bytes, None),
    ("blobs.get", "repro.store.blobs", "BlobStore.get", None, None),
    ("golden.trace", "repro.faultinjection.parallel",
     "compute_golden_trace", None, None),
    ("compiled.compile", "repro.faultinjection.manager",
     "FaultInjectionManager.compiled_circuit", None, None),
    ("manager.simulate", "repro.faultinjection.manager",
     "FaultInjectionManager.run_batches", _batches, None),
    ("manager.merge", "repro.faultinjection.manager",
     "FaultInjectionManager.fill_coverage", None, None),
    ("supervisor.run", "repro.faultinjection.supervisor",
     "CampaignSupervisor.run", None, None),
    ("supervisor.wait", "repro.faultinjection.supervisor",
     "_connection_wait", None, None),
    ("supervisor.spawn", "repro.faultinjection.supervisor",
     "CampaignSupervisor._spawn", None, None),
    ("service.run_campaign", "repro.service.core",
     "CampaignService.run_campaign", None, None),
    ("queue.submit", "repro.service.queue",
     "JobQueue.submit_idempotent", None, None),
    ("queue.claim", "repro.service.queue", "JobQueue.claim",
     _claim, None),
    ("queue.complete", "repro.service.queue", "JobQueue.complete",
     None, None),
    ("daemon.job", "repro.service.daemon", "ServiceDaemon._execute",
     None, _job_corr),
    ("api.submit", "repro.api.client", "ApiClient.submit",
     _submitted, None),
    ("api.read", "repro.api.client", "ApiClient.job", None, _api_corr),
    ("api.wait", "repro.api.client", "ApiClient.wait", None, _api_corr),
]

#: the shard-worker entry point: its wrapper runs in the forked child
WORKER = ("repro.faultinjection.supervisor", "_supervised_worker")


def _wrap(tracer: Tracer, name: str, fn, attrs=None, corr=None):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        span = tracer.start(name, corr(args, kw) if corr else None)
        try:
            result = fn(*args, **kw)
            if attrs is not None:
                extra = attrs(args, kw, result)
                span["corr"] = extra.pop("corr", span["corr"])
                span["attrs"].update(extra)
            return result
        finally:
            tracer.finish(span)
    return wrapper


def _worker_wrapper(tracer: Tracer, spool: str, fn):
    @functools.wraps(fn)
    def worker(conn, spec, faults):
        tracer.adopt_fork()
        try:
            with tracer.span("worker.shard") as span:
                span["attrs"]["faults"] = len(faults)
                fn(conn, spec, faults)
        finally:
            tracer.dump(spool)
    return worker


def _attempt_wrapper(tracer: Tracer, fn):
    """One HTTP attempt of the API client: its status (or ``"error"``)
    is added to the enclosing ``api.*`` span, so sheds and retries are
    counted per call."""
    @functools.wraps(fn)
    def attempt(*args, **kw):
        status = "error"
        try:
            result = fn(*args, **kw)
            status = result[0]
            return result
        finally:
            span = tracer.current()
            if span is not None:
                span["attrs"].setdefault("http", []).append(status)
    return attempt


def _replace_function(module, attr: str, new) -> None:
    """Replace a function in every loaded ``repro`` module bound to it."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro"
                               or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, new)


def install(tracer: Tracer, spool: str) -> None:
    """Wrap every target for the rest of this process's life."""
    for name, modname, qualname, attrs, corr in TARGETS:
        module = importlib.import_module(modname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__,
                                        attrs, corr))
            else:
                new = _wrap(tracer, name, raw, attrs, corr)
            setattr(owner, attr, new)
        else:
            _replace_function(module, qualname,
                              _wrap(tracer, name,
                                    getattr(module, qualname),
                                    attrs, corr))
    from repro.api.client import ApiClient
    ApiClient._once = _attempt_wrapper(tracer, ApiClient.__dict__["_once"])
    module = importlib.import_module(WORKER[0])
    _replace_function(module, WORKER[1],
                      _worker_wrapper(tracer, spool,
                                      getattr(module, WORKER[1])))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: metric name -> (unit, better, the end-to-end metric it should move
#: on which workload), in report order.  ``_s`` metrics are self times
#: summed over the run: span duration minus same-thread child spans.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower",
                     "cli_start_s; warm_p50_s on paper; "
                     "not service-mix (no CLI per job)"),
    "soc.elaborate_s": ("s", "lower", "small share of every *_p50_s"),
    "zones.extract_s": ("s", "lower", "small share of every *_p50_s"),
    "fmea.worksheet_s": ("s", "lower", "small share of every *_p50_s"),
    "profiler.profile_s": ("s", "lower",
                           "cold_p50_s and warm_p50_s on paper; "
                           "about 0 on service-mix"),
    "faultlist.candidates_s": ("s", "lower",
                               "small share of every *_p50_s"),
    "faultlist.faults": ("count", "lower",
                         "small share of every *_p50_s"),
    "fingerprint.context_s": ("s", "lower",
                              "warm_p50_s on paper; cold_p50_s and "
                              "warm_p50_s on service-mix"),
    "fingerprint.fault_s": ("s", "lower",
                            "warm_p50_s on paper; cold_p50_s and "
                            "warm_p50_s on service-mix"),
    "fingerprint.per_fault_ms": ("ms", "lower",
                                 "warm_p50_s on paper; cold_p50_s and "
                                 "warm_p50_s on service-mix"),
    "cache.plan_s": ("s", "lower", "ops_per_s on service-mix"),
    "cache.hits": ("count", "higher", "ops_per_s on service-mix"),
    "cache.misses": ("count", "lower", "ops_per_s on service-mix"),
    "cache.hit_ratio": ("ratio", "higher", "ops_per_s on service-mix"),
    "db.read_s": ("s", "lower", "cold_p50_s on paper; service-mix"),
    "db.write_s": ("s", "lower", "cold_p50_s on paper; service-mix"),
    "db.rows_written": ("count", "lower",
                        "cold_p50_s on paper; service-mix"),
    "blobs.put_s": ("s", "lower", "cold_p50_s on paper; service-mix"),
    "blobs.get_s": ("s", "lower", "warm_p50_s on paper; service-mix"),
    "blobs.bytes_written": ("bytes", "lower",
                            "cold_p50_s on paper; service-mix"),
    "golden.trace_s": ("s", "lower",
                       "cold_p50_s only (the trace is cached for warm "
                       "runs)"),
    "golden.serial_s": ("s", "lower",
                        "cold_p50_s on paper: golden trace time not "
                        "overlapped by shard workers"),
    "golden.hits": ("count", "higher", "warm_p50_s"),
    "compiled.compile_s": ("s", "lower", "cold_p50_s (small)"),
    "manager.simulate_s": ("s", "lower",
                           "cold_p50_s only; 0 in warm runs"),
    "manager.passes": ("count", "lower", "cold_p50_s"),
    "manager.fault_cycles": ("count", "lower",
                             "cold_p50_s; 0 in warm runs"),
    "manager.ns_per_fault_cycle": ("ns", "lower", "cold_p50_s"),
    "manager.merge_s": ("s", "lower", "small share of every *_p50_s"),
    "supervisor.self_s": ("s", "lower", "cold_p50_s on paper"),
    "supervisor.wait_s": ("s", "lower", "cold_p50_s on paper"),
    "supervisor.shard_attempts": ("count", "lower",
                                  "cold_p50_s on paper"),
    "service.self_s": ("s", "lower", "every *_p50_s"),
    "queue.submit_s": ("s", "lower", "*_p50_s on service-mix"),
    "queue.claim_s": ("s", "lower", "*_p50_s on service-mix"),
    "queue.wait_s": ("s", "lower",
                     "*_p50_s and op_tail_s on service-mix (submit to "
                     "claim)"),
    "queue.complete_s": ("s", "lower", "*_p50_s on service-mix"),
    "api.submit_s": ("s", "lower",
                     "*_p50_s and op_tail_s on service-mix"),
    "api.read_s": ("s", "lower",
                   "*_p50_s and op_tail_s on service-mix"),
    "api.sheds": ("count", "lower", "op_tail_s on service-mix"),
    "api.retries": ("count", "lower", "op_tail_s on service-mix"),
    "trace.overhead_s": ("s", "lower",
                         "none: traced minus untraced wall"),
    "unattributed_s": ("s", "lower",
                       "none: end-to-end wall minus layer self times"),
}

#: the counters a speed-only change must leave identical
EXACT_COUNTERS = ("manager.fault_cycles", "manager.passes",
                  "cache.hits", "cache.misses", "golden.hits")


def _uncovered(intervals, covers) -> float:
    """Length of ``intervals`` outside the union of ``covers``."""
    from spans import _covered
    total = 0.0
    for lo, hi in intervals:
        clipped = [(max(a, lo), min(b, hi)) for a, b in covers
                   if b > lo and a < hi]
        total += (hi - lo) - _covered(clipped)
    return total


def layer_metrics(spans: list[dict], *, import_s: float,
                  overhead_s: float, unattributed_s: float) -> dict:
    """Every :data:`LAYER_METRICS` value from one traced run."""
    own = self_times(spans)
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def busy(name):
        return sum(own[s["id"]] for s in named.get(name, ()))

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in named.get(name, ()))

    def calls(name):
        return len(named.get(name, ()))

    hits, misses = total("cache.plan", "hits"), total("cache.plan",
                                                      "misses")
    traced_children = {s["parent"] for s in named.get("golden.trace", ())}
    golden_hits = sum(1 for s in named.get("cache.golden", ())
                      if s["id"] not in traced_children)
    simulate_s = busy("manager.simulate")
    fault_cycles = total("manager.simulate", "fault_cycles")
    fingerprints = calls("fingerprint.fault")
    workers = [(s["start"], s["end"])
               for s in named.get("worker.shard", ())]
    golden_serial = _uncovered(
        [(s["start"], s["end"]) for s in named.get("golden.trace", ())],
        workers)
    statuses = [s["attrs"].get("http", [])
                for s in named.get("api.submit", []) + named.get("api.read",
                                                                 [])]
    retries = sum(max(len(codes) - 1, 0) for codes in statuses)
    sheds = sum(code in (429, 503) for codes in statuses for code in codes)
    return {
        "cli.import_s": import_s,
        "soc.elaborate_s": busy("soc.elaborate"),
        "zones.extract_s": busy("zones.extract"),
        "fmea.worksheet_s": busy("fmea.worksheet"),
        "profiler.profile_s": busy("profiler.profile"),
        "faultlist.candidates_s": busy("faultlist.candidates"),
        "faultlist.faults": total("faultlist.candidates", "faults"),
        "fingerprint.context_s": busy("fingerprint.context"),
        "fingerprint.fault_s": busy("fingerprint.fault"),
        "fingerprint.per_fault_ms": (busy("fingerprint.fault")
                                     / fingerprints * 1e3
                                     if fingerprints else 0.0),
        "cache.plan_s": busy("cache.plan"),
        "cache.hits": hits, "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "db.read_s": busy("db.read"), "db.write_s": busy("db.write"),
        "db.rows_written": total("db.write", "rows"),
        "blobs.put_s": busy("blobs.put"), "blobs.get_s": busy("blobs.get"),
        "blobs.bytes_written": total("blobs.put", "bytes"),
        "golden.trace_s": busy("golden.trace"),
        "golden.serial_s": golden_serial,
        "golden.hits": golden_hits,
        "compiled.compile_s": busy("compiled.compile"),
        "manager.simulate_s": simulate_s,
        "manager.passes": total("manager.simulate", "passes"),
        "manager.fault_cycles": fault_cycles,
        "manager.ns_per_fault_cycle": (simulate_s / fault_cycles * 1e9
                                       if fault_cycles else 0.0),
        "manager.merge_s": busy("manager.merge"),
        "supervisor.self_s": busy("supervisor.run"),
        "supervisor.wait_s": busy("supervisor.wait"),
        "supervisor.shard_attempts": calls("supervisor.spawn"),
        "service.self_s": busy("service.run_campaign"),
        "queue.submit_s": busy("queue.submit"),
        "queue.claim_s": busy("queue.claim"),
        "queue.wait_s": total("queue.claim", "wait_s"),
        "queue.complete_s": busy("queue.complete"),
        "api.submit_s": busy("api.submit"),
        "api.read_s": busy("api.read"),
        "api.sheds": sheds, "api.retries": retries,
        "trace.overhead_s": overhead_s,
        "unattributed_s": unattributed_s,
    }


def unattributed(spans: list[dict], *, wall_s: float | None = None,
                 pid: int | None = None, root: str | None = None
                 ) -> float:
    """End-to-end time no layer span covers.

    With ``wall_s`` and ``pid``: the wall time of that traced process
    minus the self time of every span it recorded.  With ``root``: the
    self time of the ``root`` spans (e.g. each daemon job), i.e. the
    part of each job no layer inside it accounts for.
    """
    own = self_times(spans)
    if root is not None:
        return sum(own[s["id"]] for s in spans if s["name"] == root)
    return wall_s - sum(own[s["id"]] for s in spans if s["pid"] == pid)
