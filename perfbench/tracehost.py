"""Child-process host for the traced (and matching untraced) runs.

``tracehost.py cli --spool DIR [--trace] -- ARGS...`` runs
``soc-fmea ARGS...`` in this interpreter, after installing the span
wrappers when ``--trace`` is given; the import of ``repro.cli`` is
timed and recorded as a ``cli.import`` span.

``tracehost.py mix --spool DIR --store DIR --seed N --jobs K
[--trace] --out FILE`` hosts the campaign API server with one embedded
daemon worker on a thread of this process, fills the store with the
base designs, drives ``K`` jobs of the seeded sequence through two
closed-loop clients, and writes the job records to ``FILE``.

Spans are written to ``DIR`` at exit, one file per process (forked
shard workers write their own).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, clock  # noqa: E402


def _import_cli(tracer: Tracer | None):
    start = clock()
    import repro.cli
    if tracer is not None:
        span = tracer.start("cli.import")
        span["start"] = start
        tracer.finish(span)
    return repro.cli


def _install(tracer: Tracer | None, spool: str) -> None:
    if tracer is not None:
        import layers
        with tracer.span("trace.install"):
            layers.install(tracer, spool)


def host_cli(args, tracer: Tracer | None) -> int:
    cli = _import_cli(tracer)
    _install(tracer, args.spool)
    return cli.main(args.argv)


def host_mix(args, tracer: Tracer | None) -> int:
    _install(tracer, args.spool)
    from repro.api.client import ApiClient
    from repro.api.server import ApiConfig, ApiServer
    from repro.service.daemon import DaemonConfig, ServiceDaemon

    import mix
    daemon = ServiceDaemon(args.store, DaemonConfig(
        workers=1, poll_interval=0.05, verbose=False))
    server = ApiServer(args.store, ApiConfig(verbose=False),
                       daemon=daemon)
    thread = threading.Thread(target=server.run, name="api-server")
    thread.start()
    try:
        if not server.wait_started(30):
            raise RuntimeError("API server never bound")

        def factory(index):
            return ApiClient("127.0.0.1", server.port)
        warm = mix.drive(factory, mix.Once(mix.BASE_SPECS), clients=1,
                         count=len(mix.BASE_SPECS), tag="base")
        pool = mix.spec_pool()
        records = mix.drive(factory, mix.JobSequence(args.seed, pool),
                            clients=2, count=args.jobs, tag="mix")
    finally:
        server.stop()
        thread.join(timeout=60)
    Path(args.out).write_text(json.dumps(
        {"warm": warm, "jobs": records,
         "pool": pool}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tracehost")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spool", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("mix")
    p.add_argument("--spool", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--store", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    tracer = Tracer() if args.trace else None
    try:
        return host_cli(args, tracer) if args.mode == "cli" \
            else host_mix(args, tracer)
    finally:
        if tracer is not None:
            tracer.dump(args.spool)


if __name__ == "__main__":
    sys.exit(main())
