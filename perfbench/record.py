"""Record the reference outputs the output check compares against.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 1-10 [--workload NAME ...]

Runs one untraced unit per (workload, seed) and rewrites
``references.json`` with its outputs and their digest, keeping entries
for other workloads and seeds.  Re-record only for an intended change of
the library's seeded outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import time

import check
from run import spawn
from workloads import WORKLOADS


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    references = check.load_references()
    for name in args.workload:
        for seed in args.seeds:
            unit = spawn(name, seed, 0, False, time.monotonic() + 600)
            if not check.verdict(name, seed, unit["outputs"], {})["ok"]:
                raise SystemExit(f"{name} seed {seed}: invariants fail")
            references.setdefault(name, {})[str(seed)] = {
                "outputs": unit["outputs"],
                "digest": check.digest(unit["outputs"]),
            }
            print(f"{name} seed {seed}: {unit['wall_s']:.1f} s", flush=True)
            with open(check.REFERENCES, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
