"""Election-as-a-service CLI: serve, query, warm.

Usage::

    # boot the server (persistent cache in elections.db)
    python -m repro.serve serve --port 8421 --store elections.db --workers 4

    # query a running server...
    python -m repro.serve query --op classify --graph cycle --graph-args 6 \\
        --homes 0 3 --port 8421

    # ...or answer locally, no server involved (same bytes on stdout)
    python -m repro.serve query --op classify --graph cycle --graph-args 6 \\
        --homes 0 3 --local --store elections.db

    # pre-populate a store from a named battery, then ship the file
    python -m repro.serve warm --store elections.db --battery impossibility

``query`` prints exactly the canonical JSON the server would send as a
response body (plus a trailing newline), so ``--local`` output is
byte-comparable against an HTTP response — that equality is an acceptance
test.  ``warm`` runs every instance of the named batteries through an
:class:`~repro.serve.service.ElectionService` with write-through disabled
and then promotes the answers in one pass (the explicit promotion path).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List

from ..errors import ReproError
from ..perf.parallel import ParallelBatteryRunner, worker_count
from .client import ServeClient
from .http import ElectionServer
from .service import ElectionService
from .store import CanonicalStore
from .wire import OPS, canonical_json, parse_query, query_payload


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--op", choices=OPS, default="classify", help="query operation"
    )
    parser.add_argument(
        "--graph", default="cycle", help="named builder (see repro.trace)"
    )
    parser.add_argument(
        "--graph-args",
        type=int,
        nargs="*",
        default=None,
        help="builder arguments (default: 6 for the default cycle, else none)",
    )
    parser.add_argument(
        "--homes",
        type=int,
        nargs="+",
        default=[0],
        help="agent home-bases (node indices)",
    )


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421)


def _build_service(args: argparse.Namespace, write_through: bool = True) -> ElectionService:
    store = None
    if args.store:
        store = CanonicalStore(
            args.store, wipe_on_mismatch=getattr(args, "wipe_on_mismatch", False)
        )
    runner = ParallelBatteryRunner(
        workers=args.workers, executor=args.executor
    )
    # Deferred promotion (warm) needs the memory tier complete until
    # promote_to_store(); LRU eviction would silently drop answers.
    extra = {} if write_through else {"memory_limit": None}
    return ElectionService(
        store=store,
        runner=runner,
        verify_every=getattr(args, "verify_every", 0),
        write_through=write_through,
        ledger=getattr(args, "ledger", None),
        **extra,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    service = _build_service(args)
    server = ElectionServer(
        service,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
    )

    async def main() -> None:
        await server.start()
        print(
            f"repro.serve listening on http://{args.host}:{server.port} "
            f"(store={args.store or 'memory-only'})",
            file=sys.stderr,
        )
        assert server._server is not None
        await server._server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.graph_args is None:
        args.graph_args = [6] if args.graph == "cycle" else []
    payload = query_payload(
        args.op,
        {"graph": args.graph, "graph_args": list(args.graph_args)},
        args.homes,
    )
    if args.local:
        service = _build_service(args)
        try:
            op, network, placement = parse_query(payload)
            body = canonical_json(service.answer(op, network, placement))
        finally:
            service.close()
    else:
        with ServeClient(args.host, args.port) as client:
            client.query(args.op, payload["network"], args.homes)
            body = client.last_body
            if args.verbose and client.last_source:
                print(f"source: {client.last_source}", file=sys.stderr)
    sys.stdout.buffer.write(body + b"\n")
    return 0


def cmd_warm(args: argparse.Namespace) -> int:
    from ..analysis.instances import battery_by_name

    if not args.store:
        print("warm needs --store PATH", file=sys.stderr)
        return 2
    service = _build_service(args, write_through=False)
    try:
        queries = []
        for name in args.battery:
            for inst in battery_by_name(name):
                for op in args.ops:
                    queries.append((op, inst.network, inst.placement))
        service.answer_batch(queries)
        promoted = service.promote_to_store()
        report = {
            "batteries": list(args.battery),
            "ops": list(args.ops),
            "queries": len(queries),
            "promoted": promoted,
            "store": service.store.stats() if service.store else None,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    finally:
        service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP service")
    _add_endpoint_args(serve)
    serve.add_argument("--store", default=None, help="SQLite cache path")
    serve.add_argument("--workers", type=worker_count, default=1)
    serve.add_argument("--executor", choices=("process", "thread"), default="process")
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--deadline", type=float, default=30.0)
    serve.add_argument(
        "--verify-every",
        type=int,
        default=0,
        help="recompute every Nth persistent-store hit (0 = off)",
    )
    serve.add_argument(
        "--wipe-on-mismatch",
        action="store_true",
        help="rebuild the store if its version stamps mismatch",
    )
    serve.add_argument(
        "--ledger",
        default=None,
        help="append one run-ledger row per backend computation to this "
        "SQLite database (see python -m repro.obs ledger)",
    )
    serve.set_defaults(fn=cmd_serve)

    query = sub.add_parser("query", help="one query (HTTP or --local)")
    _add_endpoint_args(query)
    _add_instance_args(query)
    query.add_argument(
        "--local",
        action="store_true",
        help="answer in-process instead of contacting a server",
    )
    query.add_argument("--store", default=None, help="SQLite cache (with --local)")
    query.add_argument("--workers", type=worker_count, default=1)
    query.add_argument("--executor", choices=("process", "thread"), default="process")
    query.add_argument("--verbose", action="store_true")
    query.set_defaults(fn=cmd_query)

    warm = sub.add_parser("warm", help="pre-populate a store from batteries")
    warm.add_argument("--store", required=True, help="SQLite cache path")
    warm.add_argument(
        "--battery",
        nargs="+",
        default=["impossibility"],
        help="named batteries (see repro.analysis.instances.BATTERIES)",
    )
    warm.add_argument(
        "--ops", nargs="+", choices=OPS, default=["feasibility", "classify"]
    )
    warm.add_argument("--workers", type=worker_count, default=1)
    warm.add_argument("--executor", choices=("process", "thread"), default="process")
    warm.add_argument("--wipe-on-mismatch", action="store_true")
    warm.set_defaults(fn=cmd_warm)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
