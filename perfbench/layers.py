"""Per-layer attribution for the traced benchmark run.

The layers are timed from outside the library: :func:`install` replaces
each entry point in :data:`LAYERS` with a wrapper that opens a
``repro.telemetry`` span named after the layer and annotates it with a
few counts.  The library's own spans (``backend.run``, ``engine.*``,
``service.*``, ``scheduler.plan``, ``shard.dispatch``) land in the same
trace tree, so engine time splits into plan/compile/evolve without
touching ``src/``.  Pool workers forked after :func:`install` inherit
the wrappers, and the service ships their spans home, so worker-side
layers and counts appear too.

:func:`attribute` turns a trace tree into per-name ``calls`` and
``self_s``: a span's self time is its duration minus the part of its
interval that its children cover (children that ran in parallel, such as
shards on two pool workers, are merged, not summed).  The harness's root
span wraps exactly the timed unit, so its self time is the unattributed
time and ``coverage = 1 - unattributed / wall``.
"""

from __future__ import annotations

import functools
import importlib

#: name of the span the harness opens around one timed unit
ROOT = "perfbench.unit"

#: layer span the evaluation probe (``workloads.Probe``) opens itself
#: around ``ExecutionPipeline.evaluate_many``: one wrapper there serves
#: both the latency probe and the trace
EVALUATE = "core.training.evaluate"

#: clock slack when deciding that a span was recorded after the fact
LATE_TOLERANCE_S = 1e-3


def _count_prepare(args, result, seconds):
    return {"gates_out": result.size()}


def _count_engine(args, result, seconds):
    circuits = args[0]
    widest = max(
        (len({q for inst in c for q in inst.qubits}) for c in circuits),
        default=0,
    )
    return {"circuits": len(circuits), "qubits_max": widest}


def _count_m3_apply(args, result, seconds):
    return {"applies": 1, "bitstrings": len(args[1])}


def _count_optimizer(args, result, seconds):
    return {"nfev": result.nfev}


def _count_run_batch(args, result, seconds):
    scheduler = result[1].get("scheduler", {})
    slowest = max(scheduler.get("actual_shard_seconds") or [0.0])
    return {
        "shard_s_max": slowest,
        "shard_imbalance": float(scheduler.get("shard_imbalance", 1.0)),
        "overhead_s": max(0.0, seconds - slowest),
    }


#: (layer, module, owner class or None for a module function, attribute,
#: count hook).  ``execute_circuits`` is patched where the backend looks
#: it up; the rest are patched on their class, so every caller sees them.
LAYERS = (
    ("core.models.build_circuit", "repro.core.models", "GateLevelModel",
     "build_circuit", None),
    ("core.models.build_circuit", "repro.core.models",
     "HybridGatePulseModel", "build_circuit", None),
    ("core.models.build_circuit", "repro.core.models", "PulseLevelModel",
     "build_circuit", None),
    ("pulsesim.calibrate", "repro.backends.backend", "SimulatedBackend",
     "cr_calibration", None),
    ("pulsesim.calibrate", "repro.backends.backend", "SimulatedBackend",
     "x_calibration", None),
    ("pulsesim.cr_echo", "repro.pulsesim.calibration", "CRCalibration",
     "echoed_unitary", None),
    ("pulsesim.pulse_unitary", "repro.backends.backend",
     "SimulatedBackend", "pulse_unitary", None),
    ("transpiler.prepare", "repro.core.training", "ExecutionPipeline",
     "prepare", _count_prepare),
    ("backends.engine", "repro.backends.backend", None,
     "execute_circuits", _count_engine),
    ("mitigation.m3", "repro.mitigation.m3", "M3Mitigator",
     "from_backend", None),
    ("mitigation.m3", "repro.mitigation.m3", "M3Mitigator", "apply",
     _count_m3_apply),
    ("mitigation.m3", "repro.mitigation.m3", "QuasiDistribution",
     "nearest_probability_distribution", None),
    ("vqa.cost", "repro.vqa.cost", "CostFunction", "evaluate_many", None),
    ("vqa.optimizer", "repro.vqa.optimizers.base", "Optimizer",
     "minimize", _count_optimizer),
    ("service.run_batch", "repro.service.futures", "ExecutionService",
     "run_batch", _count_run_batch),
)

#: library span names reported under their own names; any other span
#: the library opens is summed into ``program.other``
PROGRAM_SPANS = (
    "backend.run",
    "engine.execute",
    "engine.plan",
    "engine.select_method",
    "engine.compile",
    "engine.kernel",
    "engine.evolve",
    "service.run_jobs",
    "shard.dispatch",
    "scheduler.plan",
    "worker.warm",
)


def layer_names() -> list[str]:
    """Every span name the per-layer report lists, in table order."""
    names = list(dict.fromkeys(layer for layer, *_ in LAYERS))
    names.insert(names.index("backends.engine"), EVALUATE)
    return names + list(PROGRAM_SPANS) + ["program.other"]


def _wrap(fn, layer, count, span, clock):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(layer) as opened:
            start = clock()
            result = fn(*args, **kwargs)
            if opened is not None and count is not None:
                opened.annotate(**count(args, result, clock() - start))
        return result

    return wrapper


def install() -> list:
    """Wrap every entry point in :data:`LAYERS`, for this process and any
    pool worker it forks afterwards.  Spans record only while a trace
    is being collected.

    Returns the list that collects every ``LRUCache`` built from now
    on: the library registers caches weakly, and a driver's backends
    (and their caches) are gone by the time the unit ends, so
    :func:`cache_counts` reads hit/miss totals from these references.
    """
    import time

    from repro.telemetry.spans import span
    from repro.utils.cache import LRUCache

    caches: list = []
    init = LRUCache.__init__

    @functools.wraps(init)
    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        caches.append(self)

    LRUCache.__init__ = keep

    for layer, module_name, owner_name, attr, count in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
        bound = isinstance(raw, classmethod)
        fn = raw.__func__ if bound else raw
        wrapper = _wrap(fn, layer, count, span, time.perf_counter)
        setattr(owner, attr, classmethod(wrapper) if bound else wrapper)
    return caches


def cache_counts(caches) -> dict:
    """Lookups and hit ratio of the pulse-unitary caches and of all."""
    stats = [c.stats() for c in caches]
    pulse = [s for s in stats if s["name"].startswith("pulse_unitary[")]
    out = {}
    for prefix, group in (("pulsesim.pulse_unitary", pulse),
                          ("utils.cache", stats)):
        hits = sum(s["hits"] for s in group)
        lookups = hits + sum(s["misses"] for s in group)
        out[f"{prefix}.lookups"] = lookups
        out[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


# ---------------------------------------------------------------------------
# self-time accounting over serialized span trees
# ---------------------------------------------------------------------------
def interval(node: dict) -> tuple[float, float]:
    """``(start, end)`` of a serialized span.

    A span recorded after the fact (``record_span``, e.g. a shard
    dispatch carrying a worker's spans) is stamped when it is recorded,
    after its children began; it is re-anchored at its first child.
    """
    start = node["started_at"]
    if node["children"]:
        first = min(c["started_at"] for c in node["children"])
        if first < start - LATE_TOLERANCE_S:
            start = first
    return start, start + node["wall_seconds"]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a = max(a, cursor)
        b = min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(node: dict) -> float:
    """``node``'s duration minus the part of it its children cover."""
    start, end = interval(node)
    covered = _covered([interval(c) for c in node["children"]], start, end)
    return max(0.0, node["wall_seconds"] - covered)


def attribute(roots) -> dict:
    """Split the harness root's wall into named layers + unattributed.

    ``roots`` are serialized trace roots, one of them the :data:`ROOT`
    span.  Library spans outside :data:`PROGRAM_SPANS` fold into
    ``program.other``.  Numeric annotations on layer spans are summed
    per ``<layer>.<key>`` (maximum for keys ending in ``_max``).
    Returns ``{"wall_s", "unattributed_s", "coverage", "layers":
    {name: {"calls", "self_s"}}, "counts": {...}}``.
    """
    unit = [r for r in roots if r["name"] == ROOT]
    if len(unit) != 1:
        raise ValueError(f"expected one {ROOT!r} root, got {len(unit)}")
    wall = unit[0]["wall_seconds"]
    wrapped = {layer for layer, *_ in LAYERS}
    layers = {name: {"calls": 0, "self_s": 0.0} for name in layer_names()}
    counts: dict[str, float] = {}
    stack = [r for r in roots if r is not unit[0]] + unit[0]["children"]
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        name = node["name"]
        slot = layers[name if name in layers else "program.other"]
        slot["calls"] += 1
        slot["self_s"] += self_time(node)
        if name not in wrapped:
            continue
        for key, value in node["attributes"].items():
            full = f"{name}.{key}"
            if key.endswith("_max"):
                counts[full] = max(counts.get(full, value), value)
            else:
                counts[full] = counts.get(full, 0) + value
    unattributed = self_time(unit[0])
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "coverage": 1.0 - unattributed / wall if wall > 0 else 0.0,
        "layers": layers,
        "counts": counts,
    }
