"""The execution service: a futures API over the batched engine.

:class:`ExecutionService` turns one in-process backend into a shardable
service::

    service = ExecutionService(backend, jobs=4)
    futures = [service.submit(job) for job in jobs]
    for future in service.as_completed(futures):
        counts = future.result().counts
    service.shutdown()

* ``jobs=1`` (the default) executes in-process — no processes, no
  pickling; every deployment has this graceful single-process fallback.
* ``jobs=N`` fans shards out to a ``ProcessPoolExecutor`` whose workers
  build the backend once per process, pin their BLAS to an even share
  of the CPUs and warm the propagator / calibration caches (see
  ``scheduler.py``).
* Batches are planned into contiguous shards by **predicted
  wall-clock** by default (``shard_planner="cost"``): each job is
  priced through the registry work-unit models — scaled by a fitted
  :class:`~repro.telemetry.CostCalibration` when the record sink holds
  enough fresh samples — so a batch mixing cheap stabilizer jobs with
  expensive density sweeps balances by seconds, not by job count.
  ``shard_planner="count"`` keeps the legacy count-based split; either
  way shard composition never changes results.
* Results are **seed-identical** across worker counts: per-job seeds are
  resolved before sharding, and the engine derives every stochastic
  quantity from them.
* ``max_pending`` bounds in-flight jobs; :meth:`submit` blocks once the
  bound is reached (backpressure instead of unbounded queue growth).
* An optional :class:`~repro.service.store.ResultStore` serves repeated
  deterministic jobs from disk without touching a worker.

**One dispatcher** (SERVICE.md "Failure semantics"): every entry point
executes through :meth:`_run_units` — ``submit()`` by way of a
service-owned dispatcher thread, ``jobs=1`` on an in-process executor.
It retries transient failures with backoff, rebuilds dead pools, times
out hung shards, bisects and quarantines poison jobs and checkpoints
each finished job.  Retries re-run the same already-seeded
:class:`CircuitJob`, so ``jobs=1`` vs ``jobs=N`` byte-identity survives
every failure mode; the counters surface in
``result.metadata["service"]["faults"]``.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import pickle
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import replace

from repro.backends.engine import (
    classify_error,
    default_trajectory_count,
    merge_trajectory_results,
    method_qubit_budgets,
    select_method,
)
from repro.exceptions import BackendError, QuarantineError, TransientError
from repro.service.faults import FaultPolicy
from repro.service.jobs import (
    CircuitJob,
    JobFailure,
    SweepJob,
    backend_config_digest,
    job_fingerprint,
)
from repro.service.scheduler import (
    DEFAULT_SHARDS_PER_WORKER,
    ShardResult,
    _execute_indexed,
    _initialize_worker,
    _run_shard,
    estimate_job_seconds,
    plan_shards,
    plan_shards_weighted,
    worker_backend_spec,
)
from repro.service.store import ResultStore
from repro.telemetry.calibration import (
    CostCalibration,
    refresh_cost_calibration,
)
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import records as telemetry_records
from repro.telemetry import spans as telemetry_spans
from repro.utils.cache import cache_stats_totals
from repro.utils.rng import derive_seed

__all__ = ["ExecutionService"]

_LOG = logging.getLogger("repro.service")

#: ceiling on one backoff sleep — retries must never stall a batch for
#: longer than a worker would have taken to just run the job
_MAX_BACKOFF_SECONDS = 2.0

#: fault-counter schema reported in ``metadata["service"]["faults"]``
_FAULT_COUNTERS = (
    "retries",
    "transient_errors",
    "timeouts",
    "pool_rebuilds",
)


class ExecutionService:
    """Submit / map / as_completed / shutdown over a worker pool."""

    def __init__(
        self,
        backend,
        jobs: int = 1,
        *,
        max_pending: int | None = None,
        store: ResultStore | str | None = None,
        shards_per_worker: int = DEFAULT_SHARDS_PER_WORKER,
        shard_planner: str = "cost",
        warm: bool = True,
        mp_context=None,
        retries: int = 3,
        retry_backoff: float = 0.05,
        shard_timeout: float | None = None,
        max_pool_rebuilds: int = 2,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise BackendError("jobs must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise BackendError("max_pending must be >= 1")
        if retries < 0:
            raise BackendError("retries must be >= 0")
        if retry_backoff < 0:
            raise BackendError("retry_backoff must be >= 0")
        if shard_timeout is not None and shard_timeout <= 0:
            raise BackendError("shard_timeout must be positive")
        if max_pool_rebuilds < 0:
            raise BackendError("max_pool_rebuilds must be >= 0")
        if shard_planner not in ("cost", "count"):
            raise BackendError(
                "shard_planner must be 'cost' or 'count', got "
                f"{shard_planner!r}"
            )
        self.backend = backend
        self.workers = int(jobs)
        self.shards_per_worker = int(shards_per_worker)
        #: "cost" packs shards by predicted wall-clock, "count" by size
        self.shard_planner = shard_planner
        self.warm = warm
        self.store = (
            ResultStore(store) if isinstance(store, str) else store
        )
        #: fitted cost calibration (or None): refreshed fail-soft from
        #: the record sink at construction, used only to scale planner
        #: weights — it never installs registry cost overrides, so
        #: seeded "auto" dispatch stays byte-stable
        self.calibration = self._load_calibration()
        #: max transient retries per job beyond its first attempt
        self.retries = int(retries)
        #: base of the exponential retry backoff, seconds
        self.retry_backoff = float(retry_backoff)
        #: per-unit wall-clock allowance; a shard of k units times out
        #: after ``k * shard_timeout`` seconds (``None`` = never)
        self.shard_timeout = shard_timeout
        #: broken-pool events tolerated before degrading to inline
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        #: deterministic fault injection (chaos tests / recovery bench)
        self.fault_policy = fault_policy
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._max_pending = max_pending
        self._pending_slots = (
            threading.BoundedSemaphore(max_pending)
            if max_pending is not None
            else None
        )
        self._lock = threading.Lock()
        #: (job, future) pairs queued by submit() for the dispatcher,
        #: and the future submit() completes to wake its running loop
        self._submitted: list[tuple[CircuitJob, Future]] = []
        self._arrival: Future = Future()
        self._dispatcher: threading.Thread | None = None
        self._pending = 0
        self._closing = False  # submit() refuses work
        self._closed = False  # nothing may dispatch
        self._backend_key: str | None = None
        self._store_degraded = False
        self._stats = {
            "jobs_submitted": 0,
            "jobs_run": 0,
            "shards_dispatched": 0,
            "store_hits": 0,
            "store_misses": 0,
            "max_pending_seen": 0,
            "per_worker": {},
            "retries": 0,
            "transient_errors": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "quarantined": 0,
            "inline_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _load_calibration(self):
        """Fail-soft calibration auto-refresh at construction time.

        Prefers the active telemetry record sink; a service built over
        a :class:`ResultStore` whose directory holds accumulated
        records (the ``<store>/telemetry/records.jsonl`` convention)
        falls back to that file, so a long-lived deployment self-tunes
        from its own history without any explicit opt-in.  Returns
        ``None`` — never raises — when no usable records exist.
        """
        calibration = refresh_cost_calibration()
        if calibration is None and self.store is not None:
            root = getattr(self.store, "root", None)
            if root is not None:
                calibration = refresh_cost_calibration(
                    os.path.join(
                        os.fspath(root),
                        "telemetry",
                        telemetry_records.RECORDS_FILENAME,
                    )
                )
        return calibration

    def refresh_calibration(self) -> CostCalibration | None:
        """Re-fit the planner calibration from current records.

        Long-lived services call this between batches after more
        records have accumulated; it is the same fail-soft path the
        constructor runs.  Returns the new calibration (or ``None``).
        """
        self.calibration = self._load_calibration()
        return self.calibration

    def _ensure_executor(self, warm_job=None) -> ProcessPoolExecutor:
        if self._closed:
            raise BackendError("service is shut down")
        # locked: submit()'s dispatcher thread and a caller's run_jobs
        # may both need the pool
        with self._lock:
            if self._executor is None:
                warm_blob = (
                    pickle.dumps((warm_job.circuit, warm_job.method))
                    if (self.warm and warm_job is not None)
                    else None
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context,
                    initializer=_initialize_worker,
                    # the budget snapshot keeps worker-side "auto"
                    # resolution identical to the parent's even after
                    # set_method_qubit_budget calls or spawn start methods
                    initargs=(
                        worker_backend_spec(self.backend),
                        warm_blob,
                        method_qubit_budgets(),
                        self.fault_policy,
                        self.workers,
                    ),
                )
            return self._executor

    def _rebuild_pool(self, kill: bool = False) -> None:
        """Discard the worker pool; the next dispatch builds a fresh one.

        ``kill=True`` terminates the worker processes first — the only
        way to reclaim a worker hung inside a shard, since a plain
        shutdown would wait on a task that never finishes.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            for process in list(
                getattr(executor, "_processes", {}).values()
            ):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def start(self) -> "ExecutionService":
        """Eagerly start the worker pool and prove it can run a task.

        The pool is otherwise created lazily on first dispatch, so a
        broken multiprocessing environment would only surface mid-batch.
        This round-trips a no-op through a worker (running the pool
        initializer on the way) and raises here instead — the probe the
        examples use for their graceful single-process fallback.
        Inline services are a no-op.
        """
        if self.parallel:
            self._ensure_executor().submit(os.getpid).result()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool; the service cannot be reused after.

        New work is refused at once, but every job already submitted
        still runs, retries included: ``wait=True`` waits for them;
        ``wait=False`` returns and the dispatcher closes the pool last.
        """
        with self._lock:
            self._closing = True
            dispatcher = self._dispatcher
        if dispatcher not in (None, threading.current_thread()):
            if not wait:
                return
            dispatcher.join()
        self._closed = True
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:
        # backends cache services; when a backend is collected its pools
        # must not linger as idle worker processes
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _job_started(self, count: int = 1) -> None:
        """Take ``count`` backpressure slots (blocking) and count them."""
        if self._pending_slots is not None:
            for _ in range(count):
                self._pending_slots.acquire()
        with self._lock:
            self._pending += count
            self._stats["max_pending_seen"] = max(
                self._stats["max_pending_seen"], self._pending
            )

    def _job_finished(self, count: int = 1) -> None:
        with self._lock:
            self._pending -= count
        if self._pending_slots is not None:
            for _ in range(count):
                self._pending_slots.release()

    def _absorb_shard(self, shard: ShardResult, dispatched_at: float) -> None:
        with self._lock:
            self._stats["jobs_run"] += shard.jobs_run
            merged = dict(
                shard.cache_totals,
                wall_seconds=round(
                    shard.wall_seconds
                    + self._stats["per_worker"]
                    .get(shard.worker_pid, {})
                    .get("wall_seconds", 0.0),
                    6,
                ),
            )
            if shard.warm_error is not None:
                # the worker runs cold; say why instead of just "slow"
                merged["warm_error"] = shard.warm_error
            if shard.blas_threads is not None:
                merged["blas_threads"] = shard.blas_threads
            self._stats["per_worker"][shard.worker_pid] = merged
        self._absorb_shard_telemetry(shard, dispatched_at)

    def _absorb_shard_telemetry(
        self, shard: ShardResult, dispatched_at: float
    ) -> None:
        """Fold one shard's telemetry payloads into the parent process.

        Metrics deltas merge into the parent registry (like cache
        totals); buffered worker records persist here — the parent is
        the sink's only writer; worker span trees graft under a
        ``shard.dispatch`` span when a trace is being collected.  Queue
        wait is worker pick-up time minus dispatch time (same-machine
        wall clocks, so the difference is meaningful).
        """
        telemetry_metrics.merge_snapshot(shard.metrics)
        telemetry_records.write_records(shard.records)
        queue_wait = None
        if shard.started_at:  # 0.0 for in-process shards
            queue_wait = max(0.0, shard.started_at - dispatched_at)
            telemetry_metrics.observe(
                "service.queue_wait_seconds", queue_wait
            )
        if shard.trace_spans is None:
            return
        attrs = {
            "worker_pid": shard.worker_pid,
            "jobs": shard.jobs_run,
        }
        if queue_wait is not None:
            attrs["queue_wait_seconds"] = round(queue_wait, 6)
        dispatch_span = telemetry_spans.record_span(
            "shard.dispatch",
            wall_seconds=shard.wall_seconds,
            children=shard.trace_spans,
            **attrs,
        )
        if dispatch_span is not None and shard.warm_info is not None:
            # shipped with the worker's first shard only, so the warm-up
            # appears exactly once per worker in the trace
            warm = telemetry_spans.Span(
                "worker.warm",
                {
                    "worker_pid": shard.worker_pid,
                    "error": shard.warm_info.get("error"),
                },
            )
            warm.wall_seconds = float(
                shard.warm_info.get("wall_seconds", 0.0)
            )
            dispatch_span.children.insert(0, warm)

    def _note_fault(self, faults: dict, key: str, count: int = 1) -> None:
        """Count one fault event in the batch dict and service totals."""
        faults[key] += count
        with self._lock:
            self._stats[key] += count
        telemetry_metrics.inc("service.faults", count, kind=key)
        telemetry_spans.record_span("service.fault", kind=key)

    def _backoff_seconds(self, attempt: int, unit_index: int) -> float:
        """Exponential backoff with deterministic jitter.

        Jitter derives from the fault-policy seed and the (unit,
        attempt) pair — never from entropy — so chaos runs reproduce
        their timing envelope; it only shapes wall-clock, results are
        seed-determined regardless.
        """
        if self.retry_backoff <= 0:
            return 0.0
        base = self.retry_backoff * (2 ** max(0, attempt - 1))
        seed = self.fault_policy.seed if self.fault_policy else 0
        frac = derive_seed(seed, "backoff", unit_index, attempt) / 2**32
        return min(base * (1.0 + frac), _MAX_BACKOFF_SECONDS)

    def stats(self) -> dict:
        """Service counters plus store, cache and telemetry statistics.

        ``store_degraded`` is always present (``False`` when no store is
        attached or it is healthy) and ``metrics`` carries the telemetry
        registry snapshot — including worker-merged ``store.errors`` /
        ``service.faults`` counters — so store degradation and fault
        pressure are visible without grepping logs.
        """
        with self._lock:
            out = {
                "workers": self.workers,
                "pending": self._pending,
                **{
                    k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in self._stats.items()
                },
            }
        out["store_degraded"] = self._store_degraded
        out["shard_planner"] = self.shard_planner
        out["calibration"] = (
            None if self.calibration is None else self.calibration.as_dict()
        )
        if self.store is not None:
            out["store"] = self.store.stats()
        out["metrics"] = telemetry_metrics.metrics_snapshot()
        return out

    # ------------------------------------------------------------------
    # store access (degrades gracefully, never kills a batch)
    # ------------------------------------------------------------------
    def _degrade_store(self, operation: str, exc: BaseException) -> None:
        with self._lock:
            if self._store_degraded:
                return
            self._store_degraded = True
        self.store.note_error()
        telemetry_metrics.set_gauge("store.degraded", 1.0)
        telemetry_spans.record_span(
            "service.store_degraded", operation=operation
        )
        _LOG.warning(
            "result store %s failed (%s: %s); continuing without the "
            "store for this service",
            operation,
            type(exc).__name__,
            exc,
        )

    def _store_get(self, key: str | None):
        if key is None or self.store is None or self._store_degraded:
            return None
        with telemetry_spans.span("store.get") as store_span:
            try:
                experiment = self.store.get(key)
            except OSError as exc:
                self._degrade_store("read", exc)
                return None
            if store_span:
                store_span.annotate(hit=experiment is not None)
            return experiment

    def _store_put(self, key: str | None, experiment) -> None:
        if key is None or self.store is None or self._store_degraded:
            return
        with telemetry_spans.span("store.put"):
            try:
                self.store.put(key, experiment)
            except OSError as exc:
                self._degrade_store("write", exc)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _store_key(self, job: CircuitJob) -> str | None:
        if self.store is None:
            return None
        if self._backend_key is None:
            # name alone is ambiguous (two same-named backends may carry
            # different physics); the digest disambiguates them.  It is
            # snapshotted here — mutating the backend in place after the
            # first store access requires a fresh service.
            self._backend_key = (
                f"{getattr(self.backend, 'name', '')}:"
                f"{backend_config_digest(self.backend)}"
            )
        return job_fingerprint(
            job, self._backend_key, resolved_method=self._resolve_method(job)
        )

    def _resolve_method(self, job: CircuitJob) -> str:
        """The concrete method ``job`` will run under on this backend."""
        if job.method != "auto":
            return job.method
        try:
            return select_method(
                job.circuit,
                self.backend.target,
                self.backend.noise_model if job.with_noise else None,
                job.method,
            )
        except (BackendError, AttributeError):
            return job.method  # non-engine backend: keyed as-is

    def _store_lookup(self, job: CircuitJob):
        """(key, experiment|None): consult the store for one job."""
        key = self._store_key(job)
        if key is None:
            return None, None
        experiment = self._store_get(key)
        with self._lock:
            if experiment is not None:
                self._stats["store_hits"] += 1
            else:
                self._stats["store_misses"] += 1
        return key, experiment

    def _trajectory_subjobs(
        self, job: CircuitJob
    ) -> list[CircuitJob] | None:
        """Fan a trajectory-method job out as slice sub-jobs, or ``None``.

        Per-trajectory RNG derives from the job seed independently of
        the slicing, so the merged counts are byte-identical to running
        the whole range on one worker.  Adaptive jobs
        (``trajectories="auto"`` / ``target_error=``) never fan out:
        their total trajectory count is only known once the run
        converges, so they execute as one unit.  In-process services
        never fan out either: there is no second worker to share with.
        """
        if not self.parallel or job.trajectory_slice is not None:
            return None
        if isinstance(job.trajectories, str) or job.target_error is not None:
            return None
        if self._resolve_method(job) != "trajectory":
            return None
        total = (
            default_trajectory_count(job.shots)
            if job.trajectories is None
            else int(job.trajectories)
        )
        if total < 2:
            return None
        slices = plan_shards(
            total, self.workers, shards_per_worker=self.shards_per_worker
        )
        if len(slices) < 2:
            return None
        # sub-jobs pin the *resolved* method: a worker must never
        # re-resolve "auto" differently and run a slice down the exact
        # path (which would return full-shot counts per slice)
        return [
            replace(
                job,
                method="trajectory",
                trajectories=total,
                trajectory_slice=(chunk[0], chunk[-1] + 1),
            )
            for chunk in slices
        ]

    def submit(self, job: CircuitJob) -> Future:
        """Schedule one job; returns a future of its ExperimentResult.

        Blocks while ``max_pending`` jobs are already in flight (the
        backpressure contract), then queues the job for the dispatcher
        thread's :meth:`_run_units` loop.  The future resolves as soon
        as the job finishes, with the result or with the exception that
        quarantined it.
        """
        if not isinstance(job, CircuitJob):
            raise BackendError(f"submit expects a CircuitJob, got {job!r}")
        self._job_started()
        future: Future = Future()
        with self._lock:
            accepted = not self._closing
            if accepted:
                self._submitted.append((job, future))
                if self._dispatcher is None:
                    # started under the lock, so shutdown() never misses
                    # it; it exits once the queue drains
                    self._dispatcher = threading.Thread(
                        target=self._dispatch_submitted,
                        name="repro-service-dispatch",
                        daemon=True,
                    )
                    self._dispatcher.start()
                elif not self._arrival.done():
                    self._arrival.set_result(None)  # wake the loop
        if not accepted:
            self._job_finished()
            raise BackendError("service is shut down")
        return future

    def _dispatch_submitted(self) -> None:
        """Dispatcher thread: stream submit()'s jobs through the loop;
        each future resolves as soon as its job does."""
        futures: list[Future | None] = []

        def intake() -> tuple[list[CircuitJob], Future]:
            with self._lock:
                arrivals, self._submitted = self._submitted, []
                self._arrival = Future()
                wake = self._arrival
            taken = []
            for job, future in arrivals:
                # a running future can no longer be cancelled under us
                if future.set_running_or_notify_cancel():
                    futures.append(future)
                    taken.append(job)
                else:
                    self._job_finished()  # cancelled while queued
            return taken, wake

        def resolve(index: int, outcome) -> None:
            future, futures[index] = futures[index], None
            self._job_finished()
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

        try:
            while True:
                futures.clear()
                try:
                    self._run_jobs([], resolve, False, intake)
                except Exception as exc:  # e.g. pool closed under us
                    intake()
                    for index, future in enumerate(futures):
                        if future is not None:
                            resolve(index, exc)
                with self._lock:
                    if not self._submitted:
                        self._dispatcher = None
                        closing = self._closing
                        break
        finally:
            with self._lock:
                if self._dispatcher is threading.current_thread():
                    self._dispatcher = None
        if closing:  # shut down meanwhile: close the pool behind us
            self.shutdown()

    def map(
        self, jobs: SweepJob | Sequence[CircuitJob]
    ) -> list:
        """Run a batch of jobs; ExperimentResults in submission order.

        The batch is planned into contiguous shards
        (:func:`~repro.service.scheduler.plan_shards`) and dispatched to
        the pool; store hits are served without touching a worker.
        """
        if isinstance(jobs, SweepJob):
            jobs = jobs.jobs()
        experiments, _meta = self.run_jobs(jobs)
        return experiments

    def run_jobs(
        self,
        jobs: Sequence[CircuitJob],
        *,
        return_exceptions: bool = False,
    ) -> tuple[list, dict]:
        """Ordered results plus the batch's service metadata.

        A job that fails permanently (or exhausts its retry budget) is
        *quarantined*: the rest of the batch still completes — and,
        with a store attached, checkpoints — before the failure
        surfaces.  By default that surfacing is a
        :class:`~repro.exceptions.QuarantineError` carrying one
        :class:`~repro.service.jobs.JobFailure` per dead job (plus the
        batch metadata as ``exc.service_meta``); with
        ``return_exceptions=True`` the failed jobs' result slots hold
        their :class:`JobFailure` records instead and no error is
        raised.
        """
        if self._closing:
            raise BackendError("service is shut down")
        jobs = list(jobs)
        results: list = [None] * len(jobs)

        def keep(index: int, outcome) -> None:
            if not isinstance(outcome, BaseException):
                results[index] = outcome

        meta, failures = self._run_jobs(jobs, keep)
        ordered = [failures[index] for index in sorted(failures)]
        if not ordered:
            return results, meta
        if return_exceptions:
            for failure in ordered:
                results[failure.index] = failure
            return results, meta
        survivors = len(jobs) - len(ordered)
        checkpointed = self.store is not None and not self._store_degraded
        error = QuarantineError(
            f"{len(ordered)} of {len(jobs)} jobs quarantined after retries "
            f"({survivors} completed"
            + (" and checkpointed to the store" if checkpointed else "")
            + "): "
            + "; ".join(
                f"#{f.index} {f.description}: {f.error}" for f in ordered[:3]
            )
            + ("; ..." if len(ordered) > 3 else ""),
            failures=ordered,
        )
        error.service_meta = meta
        raise error

    def _run_jobs(
        self,
        jobs: list[CircuitJob],
        on_done,
        acquire_slots: bool = True,
        intake=None,
    ) -> tuple[dict, dict[int, JobFailure]]:
        """Run ``jobs`` through :meth:`_run_units`; ``(meta, failures)``.
        submit()'s dispatcher passes an ``intake`` and
        ``acquire_slots=False``: submit() already holds the slots."""
        with telemetry_spans.span(
            "service.run_jobs", jobs=len(jobs), workers=self.workers
        ):
            start = time.perf_counter()
            faults = dict.fromkeys(_FAULT_COUNTERS, 0)
            faults["inline_fallback"] = False
            failures: dict[int, JobFailure] = {}
            tally, scheduler_meta = self._run_units(
                jobs, faults, failures, acquire_slots, on_done, intake
            )
            fault_counts = {key: faults[key] for key in _FAULT_COUNTERS}
            meta = {
                "jobs": tally["jobs"],
                "workers": self.workers if tally["shards"] else 0,
                "shards": tally["shards"],
                "scheduler": scheduler_meta,
                "trajectory_subjobs": tally["trajectory_subjobs"],
                "store_hits": tally["store_hits"],
                "wall_seconds": round(time.perf_counter() - start, 6),
                "per_worker": self.stats()["per_worker"],
                "faults": {
                    **fault_counts,
                    "inline_fallback": faults["inline_fallback"],
                    "quarantined": [
                        failures[index].as_dict() for index in sorted(failures)
                    ],
                },
            }
            if self.store is not None:
                meta["store_degraded"] = self._store_degraded
            if telemetry_records.recording_enabled():
                telemetry_records.record(
                    "batch",
                    jobs=tally["jobs"],
                    workers=meta["workers"],
                    shards=tally["shards"],
                    trajectory_subjobs=tally["trajectory_subjobs"],
                    store_hits=tally["store_hits"],
                    quarantined=len(failures),
                    wall_seconds=meta["wall_seconds"],
                    faults=fault_counts,
                )
            return meta, failures

    def _plan_unit_shards(
        self, units: list[CircuitJob], first: int
    ) -> tuple[list[list[int]], dict, object]:
        """Plan ``units`` (numbered from ``first``) into contiguous shards.

        In-process, every unit is its own shard: no IPC to amortize, no
        worker to balance, and each job retries on its own.  With
        ``shard_planner="cost"`` every unit is priced through
        :func:`~repro.service.scheduler.estimate_job_seconds` and the
        cut points balance predicted work; the installed calibration is
        used only when it covers **every** distinct method in the batch
        — mixing fitted seconds for one method with unitless shipped
        weights for another would make the relative weights garbage.
        Any unpriceable unit (a plugin method without a work-unit
        model) drops the batch back to count-based planning.  No shard
        exceeds ``max_pending``.  Returns the shards, the plan metadata
        and its ``scheduler.plan`` span.
        """
        weights = None
        meta = {"planner": "count", "calibrated": False}
        if not self.parallel:
            queue = [[unit] for unit in range(len(units))]
            meta["planner"] = "inline"
        elif self.shard_planner == "cost":
            try:
                methods = [self._resolve_method(unit) for unit in units]
                calibration = self.calibration
                if calibration is not None and not all(
                    method in calibration.coefficients
                    for method in set(methods)
                ):
                    calibration = None
                weights = [
                    estimate_job_seconds(unit, method, calibration)
                    for unit, method in zip(units, methods)
                ]
            except Exception:
                weights = None
            if weights is not None and None in weights:
                weights = None
        if weights is not None:
            queue = plan_shards_weighted(
                weights,
                self.workers,
                shards_per_worker=self.shards_per_worker,
                min_shard_size=1,
            )
            meta = {"planner": "cost", "calibrated": calibration is not None}
        elif self.parallel:
            queue = plan_shards(
                len(units),
                self.workers,
                shards_per_worker=self.shards_per_worker,
                min_shard_size=1,
            )
        if self._max_pending is not None:
            queue = [
                shard[pos : pos + self._max_pending]
                for shard in queue
                for pos in range(0, len(shard), self._max_pending)
            ]
        predicted = None
        if weights is not None:
            # calibrated weights are seconds; uncalibrated ones are the
            # registry's unitless work scale — consistent either way
            predicted = [
                round(sum(weights[u] for u in shard), 6) for shard in queue
            ]
            meta["predicted_shard_seconds"] = predicted
        meta["shards_planned"] = len(queue)
        span = telemetry_spans.record_span(
            "scheduler.plan",
            planner=meta["planner"],
            calibrated=meta["calibrated"],
            shards=len(queue),
            units=len(units),
            predicted_seconds=predicted,
        )
        return [[first + u for u in shard] for shard in queue], meta, span

    def _run_units(
        self,
        jobs: list[CircuitJob],
        faults: dict,
        failures: dict[int, JobFailure],
        acquire_slots: bool,
        on_done,
        intake=None,
    ) -> tuple[dict, dict]:
        """Drive ``jobs`` to completion: the service's one recovery loop.

        Jobs not in the store become *units* (trajectory jobs fan out
        into slices), planned into shards and dispatched; outcomes are
        collected as shards finish, bounded by ``shard_timeout``.  A
        failed shard is requeued whole, then bisected, so a poison job
        is quarantined alone.  Once anything failed, the shards in
        flight finish, a broken pool is rebuilt (hung workers killed)
        and the failures rerun after a backoff; past
        ``max_pool_rebuilds`` the in-process executor of ``jobs=1``
        takes over.  ``on_done(index, outcome)`` gets each job's result
        or quarantining exception as soon as it is known (and
        checkpointed).  ``intake()`` returns ``(new_jobs, wake)``: new
        jobs join while no failure awaits recovery; ``wake`` completes
        when more arrive.  Returns the batch tally and the first plan's
        scheduler metadata.
        """
        admitted: list = []
        keys: list[str | None] = []
        units: list = []
        owner: list[int] = []
        attempts: list[int] = []
        unit_results: list = []
        owner_units: dict[int, list[int]] = {}
        tally = dict.fromkeys(
            ("jobs", "shards", "store_hits", "trajectory_subjobs"), 0
        )
        scheduler_meta = {"planner": "inline", "calibrated": False}
        plan_span = None
        shard_walls: list[float] = []
        broken_events = 0
        inline = not self.parallel

        def settle(own: int, outcome) -> None:
            on_done(own, outcome)
            admitted[own] = None  # drop what a long stream would pile up
            for unit in owner_units.get(own, ()):
                units[unit] = unit_results[unit] = None

        def admit(new_jobs) -> list[list[int]]:
            """Serve store hits; plan the other jobs' units into shards."""
            nonlocal scheduler_meta, plan_span
            with self._lock:
                self._stats["jobs_submitted"] += len(new_jobs)
            tally["jobs"] += len(new_jobs)
            first = len(units)
            for job in new_jobs:
                own = len(admitted)
                admitted.append(job)
                key, stored = self._store_lookup(job)
                keys.append(key)
                if stored is not None:
                    tally["store_hits"] += 1
                    settle(own, stored)
                    continue
                # trajectory jobs fan out into slice sub-jobs so a single
                # big trajectory circuit still saturates the pool; a
                # *unit* is whatever one worker executes in one piece
                parts = self._trajectory_subjobs(job)
                if parts is None:
                    parts = [job]
                else:
                    tally["trajectory_subjobs"] += len(parts)
                owner_units[own] = list(
                    range(len(units), len(units) + len(parts))
                )
                units.extend(parts)
                owner.extend([own] * len(parts))
            fresh = len(units) - first
            attempts.extend([0] * fresh)
            unit_results.extend([None] * fresh)
            if not fresh:
                return []
            queue, meta, span = self._plan_unit_shards(units[first:], first)
            if first == 0:
                scheduler_meta, plan_span = meta, span
            return queue

        def complete_unit(unit: int, experiment) -> None:
            unit_results[unit] = experiment
            own = owner[unit]
            parts = [unit_results[p] for p in owner_units[own]]
            if all(part is not None for part in parts):
                # stitch sub-job slices back into the whole-job result
                # and checkpoint it NOW — a later crash must not lose it
                merged = merge_trajectory_results(parts)
                self._store_put(keys[own], merged)
                settle(own, merged)

        def quarantine(unit: int, exc: BaseException) -> None:
            own = owner[unit]
            if own in failures:
                return
            failures[own] = JobFailure.from_exception(
                own, admitted[own], exc, attempts[unit]
            )
            with self._lock:
                self._stats["quarantined"] += 1
            telemetry_metrics.inc("service.quarantines")
            telemetry_spans.record_span("service.quarantine", index=own)
            settle(own, exc)

        def fail_shard(
            shard: list[int], exc: BaseException, permanent: bool
        ) -> None:
            for u in shard:
                attempts[u] += 1
            if len(shard) == 1 and (
                permanent or attempts[shard[0]] > self.retries
            ):
                quarantine(shard[0], exc)
                return
            self._note_fault(faults, "retries")
            if len(shard) > 1 and (
                permanent or max(attempts[u] for u in shard) >= 2
            ):
                # repeatedly-failing multi-job shard: bisect so the
                # blame narrows to the offending job, which will be
                # quarantined alone once isolated
                mid = len(shard) // 2
                retry_shards.extend([shard[:mid], shard[mid:]])
            else:
                retry_shards.append(list(shard))

        def pool_lost() -> None:
            nonlocal broken_events, inline
            broken_events += 1
            self._note_fault(faults, "pool_rebuilds")
            if broken_events > self.max_pool_rebuilds:
                # the pool is unrecoverable: graceful degradation to
                # in-process execution for whatever is still outstanding
                inline = True
                faults["inline_fallback"] = True
                with self._lock:
                    self._stats["inline_fallbacks"] += 1
                _LOG.warning(
                    "worker pool failed %d time(s); executing the rest "
                    "of the batch in-process",
                    broken_events,
                )

        def admitting() -> bool:
            # new work joins only while no failure awaits recovery
            return not (retry_shards or pool_broken or timeout_hit)

        queue = admit(jobs)
        retry_shards: list[list[int]] = []
        # shard future -> (its units, deadline or None, dispatch time)
        in_flight: dict[Future, tuple[list[int], float | None, float]] = {}
        pool_broken = timeout_hit = False
        wake = None
        while True:
            if intake is not None and admitting():
                arrivals, wake = intake()
                queue += admit(arrivals)
            # sibling slices of an already-quarantined job have nothing
            # left to contribute; drop them before dispatching
            queue = [[u for u in s if owner[u] not in failures] for s in queue]
            queue = [shard for shard in queue if shard]
            if queue and inline:
                # in-process, every unit is its own shard
                queue = [[u] for shard in queue for u in shard]
            elif queue:
                try:
                    executor = self._ensure_executor(
                        warm_job=units[queue[0][0]]
                    )
                except BackendError:
                    raise
                except Exception as exc:
                    # the pool itself cannot be built: count it against
                    # the rebuild budget and eventually degrade
                    _LOG.warning(
                        "worker pool construction failed (%s: %s)",
                        type(exc).__name__,
                        exc,
                    )
                    pool_lost()
                    continue
            for shard in queue:
                indexed = [(u, units[u], attempts[u]) for u in shard]
                if acquire_slots:
                    self._job_started(len(indexed))
                with self._lock:
                    self._stats["shards_dispatched"] += 1
                tally["shards"] += 1
                dispatched_at = time.time()
                try:
                    if inline:
                        shard_future = self._run_shard_inline(indexed)
                    else:
                        shard_future = executor.submit(
                            _run_shard,
                            indexed,
                            method_qubit_budgets(),
                            self.fault_policy,
                            # the worker mirrors our tracing/recording
                            (
                                telemetry_spans.tracing_enabled(),
                                telemetry_records.recording_enabled(),
                            ),
                        )
                except BrokenExecutor as exc:
                    # the pool died under us mid-dispatch: the shard
                    # fails through the collection path below
                    shard_future = Future()
                    shard_future.set_exception(exc)
                except BaseException:
                    # a failed dispatch must hand its backpressure
                    # slots back, or retries deadlock
                    if acquire_slots:
                        self._job_finished(len(indexed))
                    raise
                if acquire_slots:
                    shard_future.add_done_callback(
                        lambda done, n=len(indexed): self._job_finished(n)
                    )
                deadline = None if self.shard_timeout is None else (
                    time.monotonic() + self.shard_timeout * len(shard)
                )
                in_flight[shard_future] = (shard, deadline, dispatched_at)
            queue = []

            if in_flight:
                deadlines = [d for _, d, _ in in_flight.values() if d]
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                watched = set(in_flight)
                if wake is not None and admitting():
                    watched.add(wake)  # a submit() admits more work
                concurrent.futures.wait(
                    watched, timeout, concurrent.futures.FIRST_COMPLETED
                )
                now = time.monotonic()
                for shard_future, (shard, deadline, dispatched_at) in list(
                    in_flight.items()
                ):
                    if shard_future.done():
                        try:
                            shard_result, exc = shard_future.result(), None
                        except Exception as error:
                            exc = error
                    elif deadline is not None and now >= deadline:
                        # abandon the hung attempt; its worker is killed
                        # once the rest of the round is in
                        timeout_hit = True
                        self._note_fault(faults, "timeouts")
                        exc = TransientError(
                            f"shard of {len(shard)} unit(s) exceeded its "
                            f"{self.shard_timeout * len(shard):.3g}s timeout"
                        )
                    else:
                        continue
                    del in_flight[shard_future]
                    if exc is None:
                        self._absorb_shard(shard_result, dispatched_at)
                        shard_walls.append(shard_result.wall_seconds)
                        for unit, experiment in shard_result.experiments:
                            complete_unit(unit, experiment)
                        continue
                    # a dead pool fails every shard it held; it is
                    # rebuilt before the retries run
                    pool_broken |= isinstance(exc, BrokenExecutor)
                    permanent = classify_error(exc) == "permanent"
                    if not permanent:
                        self._note_fault(faults, "transient_errors")
                    fail_shard(shard, exc, permanent)
                continue

            if admitting():
                break  # nothing in flight, queued or failed
            if pool_broken:
                self._rebuild_pool(kill=False)
                pool_lost()
            elif timeout_hit:
                # hung workers hold their tasks forever; terminating
                # them is the only way to reclaim the pool
                self._note_fault(faults, "pool_rebuilds")
                self._rebuild_pool(kill=True)
            queue, retry_shards = retry_shards, []
            pool_broken = timeout_hit = False
            if queue:
                lowest = min(attempts[u] for shard in queue for u in shard)
                time.sleep(self._backoff_seconds(lowest, queue[0][0]))

        if shard_walls:
            scheduler_meta["actual_shard_seconds"] = [
                round(wall, 6) for wall in shard_walls
            ]
            mean_wall = sum(shard_walls) / len(shard_walls)
            if mean_wall > 0.0:
                # 1.0 = perfectly level; the slowest shard's wall over
                # the mean is how much tail one shard adds to the batch
                imbalance = max(shard_walls) / mean_wall
                scheduler_meta["shard_imbalance"] = round(imbalance, 6)
                telemetry_metrics.set_gauge("shard.imbalance", imbalance)
        if plan_span is not None:
            plan_span.annotate(
                actual_seconds=scheduler_meta.get("actual_shard_seconds"),
                imbalance=scheduler_meta.get("shard_imbalance"),
            )
        return tally, scheduler_meta

    def _run_shard_inline(self, indexed_jobs: list) -> Future:
        """Run a shard in this process; a done future, like a pool's.

        This is the in-process executor of ``jobs=1`` services and of
        pools lost more than ``max_pool_rebuilds`` times: the worker's
        job loop on ``self.backend``, with kill faults downgraded to
        transient errors — ending the caller's own process is never
        acceptable chaos.  The job cannot be preempted, so
        ``shard_timeout`` never fires in-process.
        """
        future: Future = Future()
        start = time.perf_counter()
        try:
            experiments = _execute_indexed(
                self.backend, indexed_jobs, self.fault_policy, allow_kill=False
            )
        except Exception as exc:
            future.set_exception(exc)
        else:
            future.set_result(
                ShardResult(
                    experiments=experiments,
                    worker_pid="inline",
                    cache_totals=cache_stats_totals(),
                    wall_seconds=time.perf_counter() - start,
                    jobs_run=len(experiments),
                )
            )
        return future

    def run_batch(
        self,
        circuits: Sequence,
        shots: int,
        seeds: Sequence[int | None],
        **options,
    ) -> tuple[list, dict]:
        """The backend integration point: pre-resolved seeds in, ordered
        ExperimentResults + service metadata out.  ``options`` are the
        other :class:`CircuitJob` fields (``method``, ``with_noise``...)."""
        jobs = [
            CircuitJob(circuit=circuit, shots=shots, seed=seed, **options)
            for circuit, seed in zip(circuits, seeds)
        ]
        return self.run_jobs(jobs)

    @staticmethod
    def as_completed(
        futures: Iterable[Future], timeout: float | None = None
    ) -> Iterator[Future]:
        """Yield futures as they finish."""
        return concurrent.futures.as_completed(futures, timeout=timeout)

    def __repr__(self) -> str:
        mode = f"{self.workers} workers" if self.parallel else "inline"
        return (
            f"ExecutionService({getattr(self.backend, 'name', '?')!r}, "
            f"{mode})"
        )
