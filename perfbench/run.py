"""End-to-end benchmark of the paper drivers and the sharded service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-quick --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Every unit of work runs in a fresh interpreter (``child.py``), so each
one pays the cold import, calibration and cache cost a CLI user pays.
Units repeat until ``--seconds`` have passed (at least one); extra
set-up-only interpreters are started until ``setup_s`` has
:data:`MIN_SETUPS` samples.  The benchmark sets no thread variables.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced units, reports per-layer metrics from the traced
ones and the tracing overhead from the pair, and fails the check unless
traced and untraced outputs are identical.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the whole run, children included, ends within this many seconds
BUDGET_S = 170.0
#: set-up samples per run (``setup_s`` is their median)
MIN_SETUPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "eval_p50_ms": "ms",
    "circuits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in layers.layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "pulsesim.pulse_unitary.hit_ratio": "ratio",
        "transpiler.prepare.gates_out": "count",
        "backends.engine.circuits": "count",
        "backends.engine.qubits_max": "count",
        "mitigation.m3.k_mean": "count",
        "vqa.optimizer.nfev": "count",
        "service.run_batch.shard_s_max": "s",
        "service.run_batch.shard_imbalance": "ratio",
        "service.run_batch.overhead_s": "s",
        "service.run_batch.worker_rss_mb": "MB",
        "utils.cache.lookups": "count",
        "utils.cache.hit_ratio": "ratio",
        "trace.coverage": "ratio",
        "trace.unattributed_s": "s",
        "trace.overhead_pct": "%",
        "eval.samples": "count",
        "eval.tail_pct": "%",
        "eval.tail_ms": "ms",
        "eval.error_rate": "ratio",
    })
    return units


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spawn(workload: str, seed: int, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Run ``child.py`` once; kill its process group at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} unit passed the run's time budget")
    finally:
        # pool workers share the child's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} unit exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run units until ``seconds`` have passed; returns raw samples."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    units, setups, error = [], [], None
    # trace runs alternate which side of each untraced/traced pair goes
    # first, so drift over the run does not bias the overhead
    pattern = [0, 1, 1, 0] if trace else [0]
    try:
        while True:
            mode = pattern[len(units) % len(pattern)]
            began = time.monotonic()
            unit = spawn(workload, seed, mode, False, deadline)
            unit["traced"] = mode
            units.append(unit)
            setups.append(unit["setup_s"])
            now = time.monotonic()
            done = now - start >= seconds and (
                not trace or len(units) % 2 == 0
            )
            if done or now + (now - began) > deadline - 10:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, 0, True, deadline)["setup_s"])
    except ChildFailed as exc:
        error = str(exc)
    return {"units": units, "setups": setups, "error": error}


def end_to_end(units, setups) -> dict:
    walls = [u["wall_s"] for u in units]
    latencies = [x for u in units for x in u["latencies_ms"]]
    return {
        "wall_s": stats.median(walls),
        "setup_s": stats.median(setups),
        "eval_p50_ms": stats.median(latencies),
        "circuits_per_s": sum(u["circuits"] for u in units) / sum(walls),
        "peak_rss_mb": stats.median([u["peak_rss_mb"] for u in units]),
    }


#: counts copied from a traced unit's span annotations and caches
COUNTED = (
    "pulsesim.pulse_unitary.hit_ratio",
    "transpiler.prepare.gates_out",
    "backends.engine.circuits",
    "backends.engine.qubits_max",
    "vqa.optimizer.nfev",
    "service.run_batch.shard_s_max",
    "service.run_batch.overhead_s",
    "utils.cache.lookups",
    "utils.cache.hit_ratio",
)


def traced_values(unit) -> dict:
    """Per-layer values of one traced unit."""
    att = unit["attribution"]
    counts = att["counts"]
    values = {f"{name}.{key}": entry[key]
              for name, entry in att["layers"].items()
              for key in ("calls", "self_s")}
    values.update({name: counts.get(name, 0) for name in COUNTED})
    applies = counts.get("mitigation.m3.applies", 0)
    if applies:
        values["mitigation.m3.k_mean"] = (
            counts["mitigation.m3.bitstrings"] / applies
        )
    batches = att["layers"]["service.run_batch"]["calls"]
    if batches:
        values["service.run_batch.shard_imbalance"] = (
            counts["service.run_batch.shard_imbalance"] / batches
        )
    values["service.run_batch.worker_rss_mb"] = unit["worker_rss_mb"]
    values["trace.coverage"] = att["coverage"]
    values["trace.unattributed_s"] = att["unattributed_s"]
    return values


def per_layer(units) -> dict:
    """Traced-unit means, plus overhead and tail from the pairing."""
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    each = [traced_values(u) for u in traced]
    values = {name: sum(v.get(name, 0.0) for v in each) / len(each)
              for name in per_layer_units()}
    plain_wall = stats.median([u["wall_s"] for u in plain])
    traced_wall = stats.median([u["wall_s"] for u in traced])
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    latencies = [x for u in plain for x in u["latencies_ms"]]
    values["eval.samples"] = len(latencies)
    tail = stats.tail(latencies)
    if tail is not None:
        values["eval.tail_pct"], values["eval.tail_ms"] = tail
    return values


def verdict(units, error) -> tuple[bool, list[str], set[int]]:
    """Overall output check: every unit passed and all outputs agree.

    Returns ``(correct, problems, rejected)``; ``rejected`` holds the
    ``id`` of every unit that failed its own check or whose outputs
    differ from the most common ones (traced and untraced units must be
    identical).
    """
    problems = [error] if error else []
    for unit in units:
        problems += unit["check"]["problems"]
    digests = collections.Counter(u["check"]["digest"] for u in units)
    if len(digests) > 1:
        problems.append(
            f"outputs differ between units of one seed ({len(digests)} "
            "digests; traced and untraced must be identical)"
        )
    usual = digests.most_common(1)[0][0] if digests else None
    rejected = {id(u) for u in units
                if not u["check"]["ok"] or u["check"]["digest"] != usual}
    return not problems, problems, rejected


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    raw = collect(workload, seed, seconds, trace)
    units = raw["units"]
    correct, problems, rejected = verdict(units, raw["error"])
    # a unit that crashed or ran out of time counts as one failed
    # evaluation, the one that raised; every evaluation of a unit whose
    # outputs fail the check counts as failed
    crashed = int(raw["error"] is not None)
    attempted = sum(u["attempted"] for u in units) + crashed
    failed = sum(
        u["attempted"] if id(u) in rejected else u["failed"] for u in units
    ) + crashed
    fatal = None
    if not units:
        fatal = "no unit finished"
    elif trace and len({u["traced"] for u in units}) < 2:
        fatal = ("the run's time ran out before a traced and an untraced "
                 "unit both finished")
    if fatal:
        return {"workload": workload, "correct": False,
                "problems": problems + [fatal], "metrics": None}
    if trace:
        values = per_layer(units)
        values["eval.error_rate"] = failed / attempted
        unit_of = per_layer_units()
    else:
        values = end_to_end(units, raw["setups"])
        values["ok_rate"] = (attempted - failed) / attempted
        unit_of = END_TO_END
    checks = [u["check"] for u in units]
    return {
        "workload": workload,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit_of[k]}
                    for k in unit_of},
        "detail": {
            "seed": seed,
            "units": len(units),
            "traced_units": sum(u["traced"] for u in units),
            "unit_wall_s": [u["wall_s"] for u in units],
            "setup_s": raw["setups"],
            "eval_samples": sum(len(u["latencies_ms"]) for u in units),
            "reference": sorted({c["reference"] for c in checks}),
            "digest_match": sorted({str(c["digest_match"]) for c in checks}),
            "digest": checks[0]["digest"],
        },
    }


def report(result: dict) -> str:
    lines = [f"== {result['workload']}"]
    detail = result.get("detail", {})
    for name, metric in (result["metrics"] or {}).items():
        note = ""
        if name == "eval_p50_ms":
            note = f"  (n={detail.get('eval_samples')})"
        elif name in ("wall_s", "circuits_per_s"):
            note = f"  ({detail.get('units')} units)"
        elif name == "setup_s":
            note = f"  (median of {len(detail.get('setup_s', []))})"
        lines.append(
            f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}{note}"
        )
    lines.append(
        f"  output check: {'PASS' if result['correct'] else 'FAIL'}"
        f"  reference={detail.get('reference')}"
        f"  digest_match={detail.get('digest_match')}"
    )
    lines += [f"    - {p}" for p in result["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace)
               for n in names]
    print(json.dumps({"environment": environment(),
                      "details": [r.get("detail") for r in results]}))
    for result in results:
        print(report(result))
    if any(r["metrics"] is None for r in results):
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
