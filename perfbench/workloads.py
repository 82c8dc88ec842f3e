"""The benchmark's four workloads and the evaluation probe.

Each workload is a closed loop with one client: the driver (or the round
loop of the service workload) waits for every evaluation before it sends
the next.  A workload object has

* ``setup(seed)`` — everything up to "ready": building backends, models
  and (for the service) the worker pool, plus generating every input
  from ``seed``;
* ``run(ctx, probe)`` — one timed unit, returning the outputs the check
  in :mod:`check` inspects;
* ``close(ctx)`` — release what setup started.

Nothing here imports ``repro`` at module level: library imports happen
in the child process and count towards ``setup_s``.

Why these four (``BENCHMARK.json`` lists the first two; README.md says
why the other two are left out):

* ``fig5-quick`` is the only driver where the pulse-level model's
  cross-resonance propagators dominate (CR echo ~half of wall); M3 and
  the service are bypassed.
* ``table2-quick`` is the only driver where M3 mitigation and the
  transpiler do real work; no CR propagators.
* ``step1-task3-8q`` is the fig6 body for toronto, task 3: every circuit
  is an 8-qubit density-matrix evolution, so the engine is ~all of wall.
* ``service-mixed-jobs2`` is the only workload through the sharded
  service: each round is one ``jobs=2`` batch of eight 6-qubit hybrid
  circuits of two graphs, so the pool's shards run side by side.
"""

from __future__ import annotations

import hashlib
import json
import time

import layers


class Probe:
    """Times every evaluation and checks every scored result.

    An evaluation fails when it raises or when a result breaks an
    invariant: counts must sum to the shot count and the cost must lie
    between 0 and the problem's maximum cut.  Each driver evaluation
    also opens the :data:`layers.EVALUATE` layer span, which records only
    while a trace is being collected.
    """

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.circuits = 0
        self._maxcut: dict[int, float] = {}

    def record(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.latencies_ms.append(seconds * 1e3)

    def score_ok(self, problem, value: float, counts: dict,
                 shots: int) -> bool:
        key = id(problem)
        if key not in self._maxcut:
            self._maxcut[key] = float(problem.maximum_cut())
        ratio = value / self._maxcut[key]
        return sum(counts.values()) == shots and 0.0 <= ratio <= 1.0

    def install(self) -> None:
        """Wrap the pipeline's batch entry points (every driver
        evaluation goes through ``ExecutionPipeline.evaluate_many``)."""
        from repro.core.training import ExecutionPipeline
        from repro.telemetry.spans import span

        probe = self
        evaluate_many = ExecutionPipeline.evaluate_many
        execute_many = ExecutionPipeline.execute_many

        def timed_evaluate_many(pipeline, *args, **kwargs):
            start = time.perf_counter()
            try:
                with span(layers.EVALUATE):
                    scored = evaluate_many(pipeline, *args, **kwargs)
            except Exception:
                probe.record(time.perf_counter() - start, False)
                raise
            ok = all(
                probe.score_ok(pipeline.cost.problem, value,
                               info["raw_counts"], pipeline.shots)
                for value, info in scored
            )
            probe.record(time.perf_counter() - start, ok)
            return scored

        def counted_execute_many(pipeline, circuits, *args, **kwargs):
            probe.circuits += len(circuits)
            return execute_many(pipeline, circuits, *args, **kwargs)

        ExecutionPipeline.evaluate_many = timed_evaluate_many
        ExecutionPipeline.execute_many = counted_execute_many


class Fig5Quick:
    name = "fig5-quick"

    def setup(self, seed: int) -> dict:
        from repro.experiments import fig5
        from repro.experiments.config import ExperimentConfig

        return {"run": fig5.run,
                "config": ExperimentConfig(quick=True, seed=seed)}

    def run(self, ctx: dict, probe: Probe) -> dict:
        r = ctx["run"](ctx["config"])
        return {
            "ar": {"pulse": r.pulse_ar, "hybrid": r.hybrid_ar,
                   "hybrid_po": r.hybrid_po_ar},
            "po_duration": {"toronto.1": r.hybrid_po_duration},
            "raw_mixer": {"toronto.1": r.hybrid_duration},
            "extra": {
                "pulse_duration": r.pulse_duration,
                "pulse_iterations": r.pulse_iterations_to_converge,
                "hybrid_iterations": r.hybrid_iterations_to_converge,
            },
        }

    def close(self, ctx: dict) -> None:
        pass


class Table2Quick:
    name = "table2-quick"

    def setup(self, seed: int) -> dict:
        from repro.experiments import table2
        from repro.experiments.config import ExperimentConfig

        return {"run": table2.run,
                "config": ExperimentConfig(quick=True, seed=seed)}

    def run(self, ctx: dict, probe: Probe) -> dict:
        r = ctx["run"](ctx["config"])
        return {
            "ar": {".".join(key): ar for key, ar in r.ars.items()},
            "po_duration": dict(r.po_durations),
            "raw_mixer": {backend: r.mixer_durations[(backend, "hybrid")]
                          for backend in r.po_durations},
            "extra": {".".join(key): d
                      for key, d in r.circuit_durations.items()},
        }

    def close(self, ctx: dict) -> None:
        pass


class Step1Task3:
    """The fig6 hybrid body for toronto, task 3: raw stage + Step I."""

    name = "step1-task3-8q"
    backend = "toronto"
    task = 3
    #: 12 single-circuit training evaluations beside the 3 two-circuit
    #: Step-I ones, so the median evaluation is a middle training one
    #: (at COBYLA's floor of 6 it was the slowest but one, and
    #: eval_p50_ms spread 0.16-0.22 over ten seeds); a unit is ~25 s
    maxiter = 12

    def setup(self, seed: int) -> dict:
        from repro.core import HybridGatePulseModel, HybridWorkflow
        from repro.experiments.config import ExperimentConfig
        from repro.problems import MaxCutProblem, benchmark_graph
        from repro.utils.rng import derive_seed
        from repro.vqa.optimizers import COBYLA

        config = ExperimentConfig(quick=True, seed=seed)
        backend = config.backend(self.backend)
        problem = MaxCutProblem(benchmark_graph(self.task))
        maxiter = self.maxiter
        workflow = HybridWorkflow(
            problem,
            backend,
            HybridGatePulseModel(problem, backend.device),
            optimizer_factory=lambda: COBYLA(maxiter=maxiter),
            shots=config.shots,
            seed=derive_seed(seed, "fig6", self.backend, self.task),
        )
        return {"workflow": workflow, "problem": problem}

    def run(self, ctx: dict, probe: Probe) -> dict:
        workflow = ctx["workflow"]
        raw = workflow.run_stage("raw")
        search = workflow.pulse_optimization(raw.train)
        maximum = ctx["problem"].maximum_cut()
        key = f"{self.backend}.{self.task}"
        ar = {"raw": raw.approximation_ratio}
        ar.update({f"po.{d}": v / maximum
                   for d, v in search.evaluations.items()})
        return {
            "ar": ar,
            "po_duration": {key: search.duration},
            "raw_mixer": {key: search.reference_duration},
            "extra": {"evaluations": raw.train.evaluations},
        }

    def close(self, ctx: dict) -> None:
        pass


class ServiceMixed:
    """Rounds of one ``jobs=2`` batch of seeded, shuffled hybrid circuits."""

    name = "service-mixed-jobs2"
    backend = "toronto"
    jobs = 2
    rounds = 6
    shots = 256
    #: tasks per batch: four 6-qubit 3-regular (task 1) and four
    #: 6-qubit Erdos-Renyi (task 2) circuits.  8-qubit (task 3)
    #: circuits made two heavy shards collide on the 2 CPUs and rounds
    #: swung 4.5-11 s; all-6-qubit batches still run ~3x slower than
    #: with OPENBLAS_NUM_THREADS=1, so the oversubscription shows.
    mix = (1,) * 4 + (2,) * 4

    def setup(self, seed: int) -> dict:
        import numpy as np

        from repro.backends import fake_backend_by_name
        from repro.core import ExecutionPipeline, HybridGatePulseModel
        from repro.problems import MaxCutProblem, benchmark_graph
        from repro.vqa import ExpectedCutCost

        backend = fake_backend_by_name(self.backend)
        models, pipelines = {}, {}
        for task in sorted(set(self.mix)):
            problem = MaxCutProblem(benchmark_graph(task))
            models[task] = HybridGatePulseModel(problem, backend.device)
            pipelines[task] = ExecutionPipeline(
                backend=backend, cost=ExpectedCutCost(problem),
                shots=self.shots,
            )
        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(self.rounds):
            tasks = list(self.mix)
            rng.shuffle(tasks)
            points = []
            for task in tasks:
                lo, hi = np.array(models[task].bounds()).T
                points.append(rng.uniform(lo, hi))
            seeds = [int(s) for s in rng.integers(0, 2**31, len(tasks))]
            batches.append((tasks, points, seeds))
        backend.execution_service(self.jobs).start()
        return {"backend": backend, "models": models,
                "pipelines": pipelines, "batches": batches}

    def run(self, ctx: dict, probe: Probe) -> dict:
        backend, models = ctx["backend"], ctx["models"]
        pipelines = ctx["pipelines"]
        ar, counts_sha256 = {}, {}
        for index, (tasks, points, seeds) in enumerate(ctx["batches"]):
            start = time.perf_counter()
            circuits = [
                pipelines[t].prepare(models[t].build_circuit(p))
                for t, p in zip(tasks, points)
            ]
            try:
                result = backend.run(circuits, shots=self.shots,
                                     seeds=seeds, jobs=self.jobs)
            except Exception:
                probe.record(time.perf_counter() - start, False)
                raise
            ok, counts = True, []
            for slot, (task, experiment) in enumerate(
                zip(tasks, result.experiments)
            ):
                pipeline = pipelines[task]
                (value,) = pipeline.cost.evaluate_many([experiment.counts])
                ok &= probe.score_ok(pipeline.cost.problem, value,
                                     experiment.counts, self.shots)
                maximum = pipeline.cost.problem.maximum_cut()
                ar[f"r{index}.c{slot}.t{task}"] = value / maximum
                counts.append(sorted(experiment.counts.items()))
            counts_sha256[f"r{index}"] = hashlib.sha256(
                json.dumps(counts).encode()
            ).hexdigest()
            probe.circuits += len(circuits)
            probe.record(time.perf_counter() - start, ok)
        return {"ar": ar, "extra": {"counts_sha256": counts_sha256}}

    def close(self, ctx: dict) -> None:
        ctx["backend"].close_services()


WORKLOADS = {w.name: w for w in (Fig5Quick(), Table2Quick(), Step1Task3(),
                                 ServiceMixed())}
