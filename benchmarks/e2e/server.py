"""The replicated ingest service of ``svc_replicated``, in its own process.

Built from the public constructors only: ``build_service`` over four
directory shards with two replicas and batch durability, served by
``ServiceServer`` on a unix socket.  Prints ``ready`` once it accepts
connections, runs until SIGTERM, then closes the service and writes what it
knows about itself (peak RSS, replication debt, and -- in a traced run --
its spans) for the workload process to merge.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: keeps server span ids apart from the client's when the two are merged
SERVER_ID_BASE = 1 << 40


async def serve(args: argparse.Namespace) -> dict:
    from repro.config import ServiceConfig
    from repro.service import ServiceServer, TenantRegistry, TenantSpec
    from repro.service.ingest import build_service

    from workload import TENANTS

    tenants = TenantRegistry([TenantSpec(name) for name in TENANTS])
    service = build_service(
        args.root, tenants, ServiceConfig(shards=4, replication=2, durability="batch")
    )
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with service, ServiceServer(service, args.socket):
        print("ready", flush=True)
        await stop.wait()
    return {
        "commits": service.commits,
        "group_commits": service.group_commits,
        "buffer": service.buffer.stats.as_dict(),
        "degraded_writes": service.store.debt.stats()["units"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    rec = None
    if args.trace:
        from layers import install_shims, traced_generation
        from spans import Recorder

        rec = Recorder(SERVER_ID_BASE)
        install_shims(rec, select=traced_generation)
    stats = asyncio.run(serve(args))
    stats["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec is not None:
        from spans import write_jsonl

        write_jsonl(args.spans, rec.spans)
        stats["missing_shims"] = rec.missing
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
