"""The system-under-test host process.

Runs the deployment shape the benchmark measures, apart from the load
generator: a ``FusionCluster`` (AVOC spec, 2 shards x 2 replicas,
process-mode backends, the ``packed`` store) whose gateway is fronted
by an ``AsyncIngestServer`` in the same interpreter.

Protocol with the parent, over stdin/stdout:

* once serving, prints one JSON line: gateway and ingest addresses,
  this process's pid and each shard's pid;
* on a ``stop`` line (or EOF) on stdin, stops ingest and the cluster,
  writes its spans when tracing, prints ``stopped`` and exits.

Usage: ``python3 perfbench/host.py --workdir DIR [--trace DIR]
[--max-resident N]``
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--max-resident", type=int, default=None)
    args = parser.parse_args()

    if args.trace:
        import tracer

        tracer.install(args.trace)

    from repro.cluster.supervisor import FusionCluster
    from repro.ingest import AsyncIngestServer
    from repro.vdx.examples import AVOC_SPEC

    options = {}
    if args.max_resident is not None:
        options["max_resident_series"] = args.max_resident
    cluster = FusionCluster(
        AVOC_SPEC,
        n_shards=2,
        replicas=2,
        mode="process",
        store="packed",
        history_root=os.path.join(args.workdir, "history"),
        **options,
    )
    cluster.start()
    ingest = AsyncIngestServer(cluster.gateway)
    ingest.start()
    try:
        print(
            json.dumps(
                {
                    "gateway": list(cluster.address),
                    "ingest": list(ingest.address),
                    "pid": os.getpid(),
                    "shards": {
                        bid: b.pid for bid, b in sorted(cluster.backends.items())
                    },
                }
            ),
            flush=True,
        )
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        counters = cluster.registry.snapshot()
        ingest.stop()
        cluster.stop()
        if args.trace:
            disagreements = counters.get(
                "cluster_replica_disagreements_total", {}
            ).get("samples", {})
            tracer.dump_host(
                args.trace,
                {"disagreements": sum(disagreements.values())},
            )
    print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
