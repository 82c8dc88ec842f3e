"""One workload unit in a fresh interpreter (started by ``run.py``).

Prints one JSON line: set-up seconds (from the parent's spawn time to
ready), and unless ``--setup-only`` the unit's wall seconds (ready to
checked result), evaluation latencies, circuit count, peak RSS, outputs
and their check.  With ``--trace 1`` the unit runs inside a
``repro.telemetry`` trace with every layer in ``layers.LAYERS`` wrapped,
and the per-layer attribution is added.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import check
import layers
from workloads import WORKLOADS, Probe


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    probe = Probe()
    probe.install()
    caches = layers.install() if args.trace else []
    ctx = workload.setup(args.seed)
    ready = time.monotonic()
    out = {"setup_s": ready - args.spawned_at}
    if not args.setup_only:
        if args.trace:
            from repro.telemetry import collect_trace, span

            with collect_trace("perfbench") as trace:
                with span(layers.ROOT):
                    outputs = workload.run(ctx, probe)
                    verdict = check.verdict(args.workload, args.seed,
                                            outputs)
            out["attribution"] = layers.attribute(trace.as_dict()["roots"])
            out["attribution"]["counts"].update(layers.cache_counts(caches))
        else:
            outputs = workload.run(ctx, probe)
            verdict = check.verdict(args.workload, args.seed, outputs)
        out["wall_s"] = time.monotonic() - ready
        out.update(
            latencies_ms=probe.latencies_ms,
            attempted=probe.attempted,
            failed=probe.failed,
            circuits=probe.circuits,
            outputs=outputs,
            check=verdict,
        )
    workload.close(ctx)
    out["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    # pool workers have exited after close(); their high-water mark
    out["worker_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
