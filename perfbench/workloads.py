"""The two workloads, timed (end-to-end metrics) and traced
(per-layer metrics).

Every program process is started from the checkout root with
``PYTHONPATH=src``; its wall time, CPU time (its own plus its waited-for
children's) and peak resident set are taken from ``wait4``.  The
benchmark process itself never runs campaign code in a timed run: it
spawns ``soc-fmea`` or talks to a ``soc-fmea serve --http`` process.
While a timed run measures, the host-speed probe (:mod:`calib`) runs
in the benchmark process, and every timing is reported in reference
seconds: scaled by the host speed probed while it was measured.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import layers
import mix
import reference
from calib import SpeedProbe
from spans import chrome_trace, clock, layer_table, load_spool, \
    render_table
from stats import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PAPER_ARGS = ["campaign", "--variant", "improved", "--full",
              "--workers", "2"]
COLD_STORE = {"hits": 0, "misses": 380, "simulated": 380}
WARM_STORE = {"hits": 380, "misses": 0, "simulated": 0}
#: jobs per traced service-mix pass: one round, every spec of the pool
#: once (the seed only orders them)
TRACE_JOBS = len(mix.spec_pool())
PREFLIGHTS = 3
CLI_STARTS = 11


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("SOCFMEA_STORE", "SOCFMEA_FAILPOINTS", "SOCFMEA_DEBUG"):
        env.pop(key, None)
    return env


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:20]]


def run_program(argv: list[str], log: Path) -> dict:
    """Run ``python3 ARGV`` to completion; wall, CPU and peak RSS."""
    with open(log, "wb") as out:
        start = clock()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=program_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": end - start, "start": start, "end": end,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "pid": proc.pid,
            "out": log.read_text(errors="replace")}


class Workload:
    """Shared plumbing: work directories, tally, CLI helpers."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tally = Tally()
        #: windows ``{"wall", "start", "end"}`` of ``--version`` runs
        self.cli_starts: list[dict] = []
        self._logs = 0

    def log(self) -> Path:
        self._logs += 1
        return self.work / f"log-{self._logs}.txt"

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def preflight(self) -> list[dict]:
        """Fresh-interpreter imports of the CLI (the first compiles
        bytecode in a new checkout); one window each."""
        runs = []
        for _ in range(PREFLIGHTS):
            r = run_program(["-c", "import repro.cli"], self.log())
            if r["code"] != 0:
                raise RuntimeError(f"repro.cli does not import:\n"
                                   f"{r['out'][-2000:]}")
            runs.append(r)
        return runs

    def cli_start(self, samples: int = 1) -> None:
        """Time ``soc-fmea --version``.  Samples are taken at several
        points of a run, so their median spans the run like the
        campaign timings do."""
        for _ in range(samples):
            r = run_program(["-m", "repro.cli", "--version"], self.log())
            self.tally.record("soc-fmea --version",
                              [] if r["code"] == 0
                              else [f"exit {r['code']}"])
            self.cli_starts.append(r)

    def import_seconds(self) -> float:
        """``import repro.cli`` timed inside a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import repro.cli;"
                " print(time.perf_counter() - t)")
        values = []
        for _ in range(PREFLIGHTS):
            r = run_program(["-c", code], self.log())
            values.append(float(r["out"].split()[-1]))
        return median(values)

    def campaign(self, store: Path, expect_store: dict, label: str,
                 host: list[str] | None = None) -> dict:
        """One paper-size CLI campaign, checked against the reference.
        ``host`` runs it under ``tracehost.py`` instead of ``-m``."""
        argv = (host or ["-m", "repro.cli"]) \
            + ["--store", str(store), *PAPER_ARGS]
        r = run_program(argv, self.log())
        problems = [] if r["code"] == 0 else \
            [f"exit {r['code']}: {r['out'][-500:]}"]
        if not problems:
            parsed = reference.parse_campaign_output(r["out"])
            _, faults = reference.run_fault_outcomes(store)
            problems = reference.check_cli_run(
                reference.load("paper"), parsed, faults, expect_store)
        self.tally.record(label, problems)
        return r


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def _scaled(window: dict, scale) -> float:
    return window["wall"] * scale(window["start"], window["end"])


def op_metrics(m: dict, scale) -> tuple[dict, dict]:
    """The end-to-end metrics every workload reports, plus the sample
    summary they came from, from the measurements ``m`` of a timed run:

    * ``ops``: one window (``wall``, ``start``, ``end``) per operation,
      with ``cold`` set when it simulated faults (an op is warm when
      the store served every outcome);
    * ``busy``: windows covering the program's working time, each with
      the program's CPU seconds in it;
    * ``setup``: lists of windows; set-up time sums each list's median;
    * ``cli_starts``: windows of ``soc-fmea --version``; ``rss_mb``.

    ``scale(start, end)`` turns seconds measured between those clock
    times into the seconds reported."""
    walls = [_scaled(op, scale) for op in m["ops"]]
    cold = [v for v, op in zip(walls, m["ops"]) if op["cold"]]
    warm = [v for v, op in zip(walls, m["ops"]) if not op["cold"]]
    summary = summarize(walls)
    summary.update(cold=len(cold), warm=len(warm))
    busy = sum(_scaled(b, scale) for b in m["busy"])
    cpu = sum(b["cpu"] * scale(b["start"], b["end"]) for b in m["busy"])
    metrics = {
        "cold_p50_s": (median(cold), "s"),
        "warm_p50_s": (median(warm), "s"),
        "op_tail_s": (summary["tail"], "s"),
        "ops_per_s": (len(walls) / busy, "1/s"),
        "cpu_per_op_s": (cpu / len(walls), "s"),
        "peak_rss_mb": (m["rss_mb"], "MB"),
        "cli_start_s": (median(_scaled(r, scale)
                               for r in m["cli_starts"]), "s"),
        "setup_s": (sum(median(_scaled(r, scale) for r in part)
                        for part in m["setup"]), "s"),
    }
    return metrics, summary


def paper_timed(w: Workload) -> dict:
    """Pairs of (cold run on an empty store, warm run on the store the
    cold run filled) until the measuring time is used."""
    setup = w.preflight()
    deadline = clock() + w.seconds
    runs = []
    while not runs or clock() < deadline:
        store = w.fresh("store")
        pair = len(runs) // 2 + 1
        runs.append(dict(w.campaign(store, COLD_STORE, f"cold {pair}"),
                         cold=True))
        w.cli_start()
        runs.append(dict(w.campaign(store, WARM_STORE, f"warm {pair}"),
                         cold=False))
        w.cli_start()
        shutil.rmtree(store, ignore_errors=True)
    w.cli_start(CLI_STARTS - len(w.cli_starts))
    return {"ops": runs, "busy": runs, "setup": [setup],
            "cli_starts": w.cli_starts,
            "rss_mb": max(r["rss_mb"] for r in runs)}


def paper_traced(w: Workload) -> tuple[dict, dict]:
    """One untraced and one traced (cold, warm) pair, each on its own
    store.  The per-layer metrics sum the traced pair; the split by
    phase goes to the results file."""
    walls = {}
    spans = []
    phases = {}
    for traced in (False, True):
        store = w.fresh(f"store-{traced}")
        for phase, expect in (("cold", COLD_STORE), ("warm", WARM_STORE)):
            label = f"{'traced' if traced else 'untraced'} {phase}"
            if not traced:
                walls[label] = w.campaign(store, expect, label)["wall"]
                continue
            spool = w.fresh(f"spool-{phase}")
            spool.mkdir()
            host = [str(HERE / "tracehost.py"), "cli", "--spool",
                    str(spool), "--trace", "--"]
            r = w.campaign(store, expect, label, host=host)
            walls[label] = r["wall"]
            own = load_spool(spool)
            spans += own
            phases[phase] = layers.layer_metrics(
                own, import_s=0.0, overhead_s=0.0,
                unattributed_s=layers.unattributed(
                    own, wall_s=r["wall"], pid=r["pid"]))
    metrics = layers.layer_metrics(
        spans, import_s=w.import_seconds(),
        overhead_s=sum(v for k, v in walls.items()
                       if k.startswith("traced"))
        - sum(v for k, v in walls.items() if k.startswith("untraced")),
        unattributed_s=sum(p["unattributed_s"] for p in phases.values()))
    return metrics, {"spans": spans, "phases": phases}


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def _proc_cpu(pid: int) -> float:
    """User + system seconds of ``pid`` and its reaped children."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    ticks = [int(v) for v in fields.split()[11:15]]
    return sum(ticks) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """A ``soc-fmea serve --http`` process on an ephemeral port."""

    def __init__(self, store: Path, log: Path):
        self.log = log
        self._out = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--store", str(store),
             "serve", "--http", "127.0.0.1:0", "--workers", "1",
             "--poll-interval", "0.05"],
            cwd=ROOT, env=program_env(), stdout=self._out,
            stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = clock() + timeout
        while clock() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log.read_text(errors="replace").splitlines():
                if "listening on http://" in line:
                    self.port = int(line.split("http://", 1)[1]
                                    .split()[0].rsplit(":", 1)[1])
                    return self.port
            time.sleep(0.02)
        raise RuntimeError("campaign API server did not start:\n"
                           + self.log.read_text(errors="replace")[-2000:])

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        return self.proc.returncode


def _client_factory(port: int):
    from repro.api.client import ApiClient
    return lambda index: ApiClient("127.0.0.1", port)


def check_jobs(w: Workload, store: Path, records: list[dict],
               pool: list[dict], label: str) -> None:
    refs = reference.load("mix")
    for rec in records:
        job = rec["state"]
        ref = refs[mix.spec_key(pool[rec["spec"]])]
        run_id = (job.get("result") or {}).get("run_id")
        faults = reference.run_fault_outcomes(store, run_id)[1] \
            if run_id is not None else {}
        w.tally.record(f"{label} job {rec['index']}",
                       reference.check_job(ref, job, faults,
                                           rec["repeat"]))


def mix_timed(w: Workload) -> dict:
    setup = w.preflight()
    store = w.fresh("store")
    start = clock()
    server = Server(store, w.log())
    try:
        factory = _client_factory(server.wait_ready())
        warm = mix.drive(factory, mix.Once(mix.BASE_SPECS), clients=1,
                         count=len(mix.BASE_SPECS), tag="base")
        end = clock()
        w.cli_start(CLI_STARTS // 2)
        pool = mix.spec_pool()
        cpu0 = _proc_cpu(server.proc.pid)
        t0 = clock()
        # at least one round, so both cold and warm jobs are seen
        records = mix.drive(factory, mix.JobSequence(w.seed, pool),
                            clients=2, deadline=t0 + w.seconds,
                            min_jobs=len(pool))
        t1 = max(r["end"] for r in records)
        busy = {"wall": t1 - t0, "start": t0, "end": t1,
                "cpu": _proc_cpu(server.proc.pid) - cpu0}
        rss = _proc_hwm_mb(server.proc.pid)
        ops = [{"wall": r["latency"], "start": r["start"], "end": r["end"],
                "cold": ((r["state"].get("result") or {})
                         .get("misses", 0)) > 0} for r in records]
    finally:
        code = server.stop()
    w.tally.record("serve --http drain",
                   [] if code == 0 else [f"exit {code}"])
    check_jobs(w, store, warm, mix.BASE_SPECS, "set-up")
    check_jobs(w, store, records, pool, "mix")
    w.cli_start(CLI_STARTS - len(w.cli_starts))
    return {"ops": ops, "busy": [busy],
            "setup": [setup, [{"wall": end - start, "start": start,
                               "end": end}]],
            "cli_starts": w.cli_starts, "rss_mb": rss}


def mix_traced(w: Workload) -> tuple[dict, dict]:
    walls = {}
    spans = []
    for traced in (False, True):
        name = "traced" if traced else "untraced"
        store, spool = w.fresh(f"store-{name}"), w.fresh(f"spool-{name}")
        spool.mkdir()
        out = w.work / f"mix-{name}.json"
        argv = [str(HERE / "tracehost.py"), "mix", "--spool", str(spool),
                "--store", str(store), "--seed", str(w.seed),
                "--jobs", str(TRACE_JOBS), "--out", str(out)]
        r = run_program(argv + (["--trace"] if traced else []), w.log())
        w.tally.record(f"{name} service pass",
                       [] if r["code"] == 0
                       else [f"exit {r['code']}: {r['out'][-500:]}"])
        if r["code"] != 0:
            raise RuntimeError(f"{name} service pass failed")
        data = json.loads(out.read_text())
        check_jobs(w, store, data["warm"], mix.BASE_SPECS,
                   f"{name} set-up")
        check_jobs(w, store, data["jobs"], data["pool"], name)
        walls[name] = max(j["end"] for j in data["jobs"]) \
            - min(j["start"] for j in data["jobs"])
        if traced:
            spans = load_spool(spool)
    metrics = layers.layer_metrics(
        spans, import_s=w.import_seconds(),
        overhead_s=walls["traced"] - walls["untraced"],
        unattributed_s=layers.unattributed(spans, root="daemon.job"))
    return metrics, {"spans": spans}


# ----------------------------------------------------------------------
# entry point used by run.py
# ----------------------------------------------------------------------
WORKLOADS = {
    "paper": (paper_timed, paper_traced),
    "service-mix": (mix_timed, mix_traced),
}


def check_counters(workload: str, metrics: dict) -> list[str]:
    """Differences of the exact simulator counters from the recorded
    ones (they do not depend on the seed)."""
    if not (reference.REFS / "counters.json").is_file():
        return ["no recorded counters"]
    want = reference.load("counters").get(workload)
    if want is None:
        return [f"no recorded counters for {workload}"]
    return [f"{name}: recorded {want[name]}, now {metrics[name]}"
            for name in layers.EXACT_COUNTERS
            if want.get(name) != metrics[name]]


def run(workload: str, seed: int, seconds: int, trace: bool,
        work: Path) -> tuple[dict, Tally, dict]:
    w = Workload(seed, seconds, work)
    timed, traced = WORKLOADS[workload]
    if not trace:
        with SpeedProbe() as probe:
            measurements = timed(w)
        metrics, summary = op_metrics(measurements, probe.scale)
        measured, _ = op_metrics(measurements, lambda start, end: 1.0)
        return metrics, w.tally, {
            "samples": summary, "host_scale": probe.scale(),
            "probe_samples": len(probe.samples),
            "measured": {k: v for k, (v, _) in measured.items()}}
    values, detail = traced(w)
    spans = detail["spans"]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    (OUT / f"trace-{stem}.json").write_text(
        json.dumps(chrome_trace(spans)))
    table = render_table(layer_table(spans))
    (OUT / f"layers-{stem}.txt").write_text(table + "\n")
    metrics = {name: (values[name], unit)
               for name, (unit, _, _) in layers.LAYER_METRICS.items()}
    phases = {phase: {k: v[k] for k in layers.EXACT_COUNTERS
                      + ("cache.hit_ratio",)}
              for phase, v in detail.get("phases", {}).items()}
    return metrics, w.tally, {
        "layer_table": table,
        "counter_changes": check_counters(workload, values),
        "counters": {k: values[k] for k in layers.EXACT_COUNTERS},
        "phases": phases}
