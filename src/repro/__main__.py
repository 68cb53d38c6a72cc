"""Entry point: ``python -m repro`` starts the interactive SQL shell;
``python -m repro serve`` starts the standing-query service.

Shell flags mirror the fields of :class:`~repro.config.ExecutionConfig`
and build the engine-layer config behind the shell::

    python -m repro --parallelism 4 --backend processes \\
                    --telemetry prometheus:metrics.prom \\
                    --max-restarts 3 --checkpoint-interval 50

``--telemetry`` takes the same spec strings as
``ExecutionConfig(telemetry=...)``: ``jsonl:PATH`` writes every trace
event as one JSON object per line; ``prometheus:PATH`` rewrites a text
exposition file after each query run.  ``--fault-plan`` injects
deterministic shard failures (testing/demo), e.g.
``crash-after-checkpoint:shard=1,at=2`` — see ``docs/RUNTIME.md``.

Serve mode adds live sources and multi-tenant admission::

    python -m repro serve --listen 127.0.0.1:7654 \\
                          --tail Bid=feeds/bids.jsonl \\
                          --policy tenants.json \\
                          --checkpoint-dir /var/lib/repro

Clients speak the line-JSON protocol of
:class:`~repro.service.server.ServiceServer`; see ``docs/SERVICE.md``.
"""

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional

from .config import FAULT_KINDS, ExecutionConfig, RetryPolicy


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags shared by shell and serve mode (ExecutionConfig fields)."""
    parser.add_argument(
        "--parallelism", type=int, default=None,
        help="number of shards for key-partitionable queries (default 1)",
    )
    parser.add_argument(
        "--backend", default=None,
        help="shard driver: sync (default, in the caller) or processes",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="SPEC",
        help="telemetry exporter: jsonl:PATH or prometheus:PATH",
    )
    parser.add_argument(
        "--allowed-lateness", type=int, default=None, metavar="MS",
        help="milliseconds of state retention past the watermark for "
             "late-row updates (default 0)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="row events delivered per micro-batch; output is "
             "byte-identical at any value (default 1: per-change)",
    )
    parser.add_argument(
        "--coalesce-updates", action="store_true", default=None,
        help="compact intra-instant insert/retract churn (snapshot-"
             "preserving; EMIT STREAM renders fewer rows)",
    )
    parser.add_argument(
        "--two-phase", choices=("auto", "off"), default=None,
        help="shard-local partial aggregation with a final combine stage "
             "for decomposable aggregates; auto (default) splits every "
             "eligible aggregate, off disables it",
    )
    parser.add_argument(
        "--columnar", choices=("auto", "off"), default=None,
        help="micro-batch encoding; auto (default) transposes every "
             "multi-row batch into columns, off keeps rows (the plan and "
             "the output are the same in either mode)",
    )
    parser.add_argument(
        "--share-plans", action=argparse.BooleanOptionalAction, default=None,
        help="serve mode: graft standing queries with matching subplan "
             "fingerprints onto one dataflow, computing shared prefixes "
             "once (default on; deltas are byte-identical either way)",
    )
    recovery = parser.add_argument_group(
        "fault tolerance (ExecutionConfig.retry / .fault_plan)"
    )
    recovery.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="restart budget per shard worker before the failure "
             "propagates (default 2)",
    )
    recovery.add_argument(
        "--backoff-base-ms", type=int, default=None, metavar="MS",
        help="base delay before the first restart, doubled per retry "
             "(default 0: restart immediately)",
    )
    recovery.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N",
        help="checkpoint each shard every N input events so restarts "
             "replay less; in serve mode, also the session checkpoint "
             "cadence (default 0: start-of-run state only)",
    )
    recovery.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="inject deterministic shard failures, e.g. "
             "'crash-after-checkpoint:shard=1,at=2;slow-shard:shard=0'; "
             f"kinds: {', '.join(FAULT_KINDS)}",
    )
    obs = parser.add_argument_group(
        "observability (ExecutionConfig slow-query fields)"
    )
    obs.add_argument(
        "--slow-query-p99-ms", type=int, default=None, metavar="MS",
        help="serve mode: log a standing query whose p99 emit latency "
             "crosses MS milliseconds (default 0: off)",
    )
    obs.add_argument(
        "--slow-query-depth", type=int, default=None, metavar="N",
        help="serve mode: log a standing query whose undrained "
             "subscriber depth crosses N deltas (default 0: off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Interactive streaming-SQL shell. Flags map one-to-one onto "
            "repro.ExecutionConfig fields (see docs/API.md). "
            "Run 'python -m repro serve --help' for service mode."
        ),
    )
    _add_config_arguments(parser)
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Standing-query service: keep admitted queries resident and "
            "push changelog deltas to subscribers as sources advance "
            "(see docs/SERVICE.md)."
        ),
    )
    _add_config_arguments(parser)
    service = parser.add_argument_group("service")
    service.add_argument(
        "--listen", default="127.0.0.1:7654", metavar="HOST:PORT",
        help="address for the line-JSON protocol (default 127.0.0.1:7654)",
    )
    service.add_argument(
        "--source", action="append", default=[], metavar="NAME=PATH",
        help="register a recorded relation from a script/JSONL file "
             "(repeatable); bounded recordings register as tables",
    )
    service.add_argument(
        "--tail", action="append", default=[], metavar="NAME=PATH",
        help="follow a growing feed file into source NAME (repeatable); "
             "the file must lead with its schema line",
    )
    service.add_argument(
        "--listen-source", action="append", default=[],
        metavar="NAME=HOST:PORT",
        help="accept line-oriented feed connections into source NAME "
             "(repeatable); the source must be registered via --source "
             "or --tail, or restored from a checkpoint",
    )
    service.add_argument(
        "--policy", default=None, metavar="PATH",
        help="tenant policy JSON: a list of policies or "
             '{"tenants": [...], "default": {...}|null}; a policy may '
             'carry a "token" shared secret, which switches the whole '
             "service into authenticated mode",
    )
    service.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="bounded depth of each live source's event queue "
             "(default 1024)",
    )
    service.add_argument(
        "--subscriber-capacity", type=int, default=None, metavar="N",
        help="undrained deltas a subscriber may buffer before "
             "slow-consumer eviction (default 256)",
    )
    service.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for session checkpoints; resumed from on start "
             "when a manifest exists (default: durability off)",
    )
    service.add_argument(
        "--metrics", default=None, metavar="HOST:PORT",
        help="serve GET /metrics (Prometheus exposition) and "
             "GET /healthz (JSON liveness) over plain HTTP at this "
             "address (default: HTTP plane off)",
    )
    service.add_argument(
        "--once", action="store_true",
        help="read each tail to end-of-file, drain, print the service "
             "metrics exposition, and exit (smoke-test mode)",
    )
    return parser


def build_config(args: argparse.Namespace) -> ExecutionConfig:
    """Translate parsed CLI flags into the engine-layer ExecutionConfig:
    each flag sets the field of its name (a serve-only field stays unset
    in shell mode), and the restart flags given build ``retry``."""
    values = {
        spec.name: getattr(args, spec.name, None) for spec in fields(ExecutionConfig)
    }
    restarts = {
        name: getattr(args, name)
        for name in ("max_restarts", "backoff_base_ms", "checkpoint_interval")
        if getattr(args, name) is not None
    }
    values["retry"] = RetryPolicy(**restarts) if restarts else None
    return ExecutionConfig(**values)


def _split_spec(spec: str, flag: str) -> tuple[str, str]:
    if "=" not in spec:
        raise SystemExit(f"{flag} expects NAME=PATH, got {spec!r}")
    name, path = spec.split("=", 1)
    return name, path


def _address(text: str, error: str) -> tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``, an empty host meaning
    127.0.0.1; a port that is not a number exits with ``error``."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(error)


def _split_listen_source(spec: str) -> tuple[str, str, int]:
    """Parse a ``--listen-source NAME=HOST:PORT`` spec."""
    error = f"--listen-source expects NAME=HOST:PORT, got {spec!r}"
    if "=" not in spec:
        raise SystemExit(error)
    name, address = spec.split("=", 1)
    return (name, *_address(address, error))


def _register_recorded(service, name: str, path: str) -> int:
    """Register a fully recorded relation from a script/JSONL file."""
    from .core.tvr import TimeVaryingRelation
    from .io import TailParser

    parser = TailParser()
    with open(path) as handle:
        events = parser.feed(handle.read())
    events += parser.close()
    if parser.schema is None:
        raise SystemExit(f"{path} declares no schema")
    tvr = TimeVaryingRelation(parser.schema)
    for event in events:
        tvr.apply(event)
    if tvr.is_bounded:
        service.register_table(name, tvr)
    else:
        service.register_stream(name, tvr)
    return len(events)


def _register_tail_schema(service, name: str, path: str) -> None:
    """Register an empty stream from a feed file's leading schema line."""
    from .core.schema import Schema
    from .core.tvr import TimeVaryingRelation
    from .io import ScriptError, parse_event_line

    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed = parse_event_line(line, None)
            except ScriptError:
                break
            if isinstance(parsed, Schema):
                service.register_stream(name, TimeVaryingRelation(parsed))
                return
            break
    raise SystemExit(
        f"--tail {name}={path}: the feed must lead with its schema line "
        f"(script 'schema:' or JSONL {{\"schema\": ...}})"
    )


def _load_policies(path: str):
    from .service.admission import TenantPolicy

    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        tenants, default = payload, {"name": "*"}
    else:
        tenants = payload.get("tenants", [])
        default = payload.get("default", {"name": "*"})
    policies = {
        policy["name"]: TenantPolicy.from_dict(policy) for policy in tenants
    }
    default_policy = (
        None if default is None else TenantPolicy.from_dict(default)
    )
    return policies, default_policy


def serve_main(argv=None) -> None:
    import asyncio

    from .service import StandingQueryService, run_service

    args = build_serve_parser().parse_args(argv)
    config = build_config(args).resolved()
    policies, default_policy = (
        _load_policies(args.policy) if args.policy else ({}, None)
    )
    if args.policy is None:
        from .service.admission import TenantPolicy

        default_policy = TenantPolicy(name="*")
    service = StandingQueryService(
        config=config, policies=policies, default_policy=default_policy
    )
    for spec in args.source:
        name, path = _split_spec(spec, "--source")
        count = _register_recorded(service, name, path)
        print(f"registered {name} ({count} recorded events)")
    tails: dict[str, str] = {}
    for spec in args.tail:
        name, path = _split_spec(spec, "--tail")
        if name.lower() not in service.engine._sources:
            _register_tail_schema(service, name, path)
            print(f"registered {name} (live tail)")
        tails[name] = path
    sockets: dict[str, tuple[str, int]] = {}
    for spec in args.listen_source:
        name, *address = _split_listen_source(spec)
        sockets[name] = tuple(address)
    restored = service.resume()
    if restored:
        print(f"resumed {restored} standing queries from checkpoint")
    for name in sockets:
        if name.lower() not in service.engine._sources:
            raise SystemExit(
                f"--listen-source {name}: source is not registered; "
                f"supply --source/--tail or a checkpoint that records it"
            )
    host, port = _address(
        args.listen, f"--listen expects HOST:PORT, got {args.listen!r}"
    )
    http: Optional[tuple[str, int]] = None
    if args.metrics is not None:
        http = _address(
            args.metrics, f"--metrics expects HOST:PORT, got {args.metrics!r}"
        )

    def announce(server) -> None:
        """Say where the server listens, once it does (a port of 0 is
        the one the system picked)."""
        print("listening on {}:{}".format(*server.address))
        if server.http is not None:
            http_host, http_port = server.http.address
            print(f"serving /metrics and /healthz on {http_host}:{http_port}")
        for name, (src_host, src_port) in sockets.items():
            print(f"accepting {name} events on {src_host}:{src_port}")
        sys.stdout.flush()

    async def drive():
        server = await run_service(
            service, host, port, tails,
            sockets=sockets,
            http=http,
            follow=not args.once,
            ready=announce,
        )
        if args.once:
            print(service.scrape(), end="")
            await server.stop()

    try:
        asyncio.run(drive())
    except KeyboardInterrupt:
        print("\nshutting down")


def main(argv=None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        serve_main(argv[1:])
        return
    args = build_parser().parse_args(argv)
    from .engine import StreamEngine
    from .shell import Shell

    Shell(StreamEngine(config=build_config(args))).run()


if __name__ == "__main__":
    main()
