"""``ParallelSamScan`` — SAM on real OS-level shared-memory parallelism.

The paper's persistent-block algorithm, executed by the worker pool of
:mod:`repro.parallel.pool` instead of the deterministic coroutine
scheduler: input and output live zero-copy in a shared segment, the
O(1) circular auxiliary buffers and generation-tagged ready flags live
beside them, and worker ``w`` claims every k-th chunk, resolving
carries with the decoupled write-then-independent-reads scheme (or the
§5.4 chained ablation).

The engine satisfies the repo-wide engine contract —
``run(values, order=..., tuple_size=..., op=..., inclusive=...)``
returning a result with ``.values`` — so it drops into ``repro.api``,
the differential fuzzer, and the benchmark harness unchanged, and it is
bit-identical to :mod:`repro.reference` for every operator, integer
dtype, order, and tuple size (wraparound included): the chunk-local
scans and the carry fold are the *same functions* the proven simulator
path uses, and the chunk partition is deterministic, so results do not
depend on timing or worker count.

Production shape:

* **Warm pool** — workers are spawned once and reused across calls
  (:func:`WorkerPool.shared` by default).
* **Watchdog** — a stall detector in the master mirrors the simulator's
  ``DeadlockError``: if no worker heartbeats within ``stall_timeout``,
  the launch is aborted instead of hanging the caller.
* **Graceful degradation** — small inputs, custom (unpicklable)
  operators, dead workers, stalls, and buffer overruns all degrade to
  the bit-identical host engine (``fallback="host"``); partial output
  is never returned.  ``fallback="raise"`` surfaces the typed error.
* **Counters** — every launch returns a
  :class:`~repro.parallel.counters.ParallelCounters` (chunks claimed
  per worker, carry polls, failed polls, per-phase wall-clock) so the
  perf layer can analyze real runs the way it analyzes simulated ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Optional

import numpy as np

from repro.core.host import host_prefix_sum
from repro.kernels import usable_cpus
from repro.ops import ADD, BUILTIN_OPS, get_op
from repro.parallel.counters import ParallelCounters, WorkerCounters
from repro.parallel.errors import (
    ParallelError,
    SharedBufferOverrunError,
    WorkerDeathError,
    WorkerStallError,
)
from repro.parallel.layout import (
    CTRL_PROGRESS,
    ScanLayout,
    SegmentViews,
    create_segment,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.protocol import CARRY_SCHEMES, aux_capacity

#: Below this size the dispatch/attach overhead dominates any possible
#: speedup and the engine runs the host path (see docs/API.md for the
#: crossover discussion).
DEFAULT_MIN_PARALLEL_ELEMENTS = 1 << 16

#: Watchdog budget: the longest quiet period (no chunk completed by any
#: worker) tolerated before the launch is declared stalled.
DEFAULT_STALL_TIMEOUT = 30.0

_WATCH_INTERVAL = 0.05
_DRAIN_GRACE = 5.0


@dataclass
class ParallelResult:
    """Output of one :class:`ParallelSamScan` launch."""

    values: np.ndarray
    counters: ParallelCounters
    num_chunks: int
    num_workers: int
    chunk_elements: int
    order: int
    tuple_size: int
    op_name: str
    inclusive: bool
    carry_scheme: str

    @property
    def engine_used(self) -> str:
        """``"parallel"`` or ``"host"`` (graceful degradation)."""
        return self.counters.engine_used


class ParallelSamScan:
    """Configured shared-memory SAM engine.

    Parameters
    ----------
    num_workers:
        Worker processes to use (default:
        :func:`repro.kernels.usable_cpus`).  The effective count is
        capped by the chunk count; oversubscribed launches (more workers
        than chunks) leave the excess idle.
    chunk_elements:
        Elements per chunk; ``None`` targets a few chunks per worker
        with a floor that keeps per-chunk numpy work vectorized.
    carry_scheme:
        ``"decoupled"`` (SAM) or ``"chained"`` (§5.4 ablation).
    min_parallel_elements:
        Inputs smaller than this run the host engine directly.
    stall_timeout:
        Watchdog budget in seconds (also each worker's per-wait poll
        deadline).
    fallback:
        ``"host"`` degrades to the host engine on any
        :class:`ParallelError`; ``"raise"`` propagates it.
    buffer_factor:
        Circular buffers hold ``next_pow2(buffer_factor * k + 1)``
        slots; the paper uses 3 (the minimum that is overrun-free for
        in-order workers).
    pool:
        A :class:`WorkerPool` to use; ``None`` = the shared pool.
    worker_threads:
        Opt-in slab threads *inside* each worker's chunk scans (the
        :mod:`repro.kernels.threaded` kernel).  Default 1: the process
        pool already owns the cores, so intra-worker threads only help
        when workers < cores (e.g. few huge chunks).  Results are
        bit-identical either way.
    failure_injection:
        Test hook forwarded to workers (see ``worker._maybe_inject``).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        chunk_elements: Optional[int] = None,
        carry_scheme: str = "decoupled",
        min_parallel_elements: int = DEFAULT_MIN_PARALLEL_ELEMENTS,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        fallback: str = "host",
        buffer_factor: int = 3,
        pool: Optional[WorkerPool] = None,
        worker_threads: int = 1,
        failure_injection: Optional[dict] = None,
    ):
        if carry_scheme not in CARRY_SCHEMES:
            raise KeyError(
                f"unknown carry scheme {carry_scheme!r}; "
                f"available: {sorted(CARRY_SCHEMES)}"
            )
        if fallback not in ("host", "raise"):
            raise ValueError(
                f"fallback must be 'host' or 'raise', got {fallback!r}"
            )
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if chunk_elements is not None and chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.num_workers = num_workers or usable_cpus()
        self.chunk_elements = chunk_elements
        self.carry_scheme = carry_scheme
        self.min_parallel_elements = min_parallel_elements
        self.stall_timeout = stall_timeout
        self.fallback = fallback
        if worker_threads < 1:
            raise ValueError(f"worker_threads must be >= 1, got {worker_threads}")
        self.buffer_factor = buffer_factor
        self._pool = pool
        self.worker_threads = int(worker_threads)
        self.failure_injection = failure_injection

    # -- public API ------------------------------------------------------

    def run(
        self,
        values,
        order: int = 1,
        tuple_size: int = 1,
        op=ADD,
        inclusive: bool = True,
    ) -> ParallelResult:
        """Compute the generalized prefix scan of ``values``."""
        op = get_op(op)
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"expected a 1-D input, got shape {array.shape}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if tuple_size < 1:
            raise ValueError(f"tuple_size must be >= 1, got {tuple_size}")
        dtype = op.check_dtype(array.dtype)
        array = array.astype(dtype, copy=False)
        n = len(array)

        chunk_elements = self.chunk_elements or _auto_chunk_elements(
            n, self.num_workers
        )
        num_chunks = math.ceil(n / chunk_elements) if n else 0

        reason = self._host_path_reason(n, num_chunks, op)
        if reason is not None:
            return self._run_host(
                array, order, tuple_size, op, inclusive,
                chunk_elements, num_chunks, reason,
            )
        try:
            return self._run_parallel(
                array, order, tuple_size, op, inclusive, chunk_elements, num_chunks
            )
        except ParallelError as exc:
            if self.fallback == "raise":
                raise
            return self._run_host(
                array, order, tuple_size, op, inclusive,
                chunk_elements, num_chunks,
                f"{type(exc).__name__}: {exc}",
            )

    # -- host degradation ------------------------------------------------

    def _host_path_reason(self, n: int, num_chunks: int, op) -> Optional[str]:
        if n == 0:
            return "empty input"
        if n < self.min_parallel_elements:
            return (
                f"n={n} below the parallel crossover "
                f"({self.min_parallel_elements})"
            )
        if num_chunks < 2:
            return "input fits in a single chunk"
        if BUILTIN_OPS.get(op.name) is not op:
            return f"operator {op.name!r} is not picklable across processes"
        return None

    def _run_host(
        self, array, order, tuple_size, op, inclusive,
        chunk_elements, num_chunks, reason,
    ) -> ParallelResult:
        t0 = time.perf_counter()
        out = host_prefix_sum(
            array, order=order, tuple_size=tuple_size, op=op, inclusive=inclusive
        )
        counters = ParallelCounters(
            num_workers=0,
            num_chunks=num_chunks,
            engine_used="host",
            fallback_reason=reason,
            seconds_compute=time.perf_counter() - t0,
        )
        return ParallelResult(
            values=out,
            counters=counters,
            num_chunks=num_chunks,
            num_workers=0,
            chunk_elements=chunk_elements,
            order=order,
            tuple_size=tuple_size,
            op_name=op.name,
            inclusive=inclusive,
            carry_scheme=self.carry_scheme,
        )

    # -- the parallel launch ---------------------------------------------

    def _run_parallel(
        self, array, order, tuple_size, op, inclusive, chunk_elements, num_chunks
    ) -> ParallelResult:
        active = min(self.num_workers, num_chunks)
        pool = self._pool or WorkerPool.shared()
        counters = ParallelCounters(num_workers=active, num_chunks=num_chunks)

        t0 = time.perf_counter()
        try:
            handles = pool.ensure(active)
        except RuntimeError as exc:
            raise WorkerDeathError(f"worker pool unavailable: {exc}") from exc
        layout = ScanLayout(
            n=len(array),
            dtype=np.dtype(array.dtype).name,
            order=order,
            tuple_size=tuple_size,
            num_workers=active,
            capacity=aux_capacity(active, self.buffer_factor),
            chunk_elements=chunk_elements,
            num_chunks=num_chunks,
        )
        shm = create_segment(layout)
        views = SegmentViews(shm, layout)
        try:
            views.input[:] = array
            counters.seconds_setup = time.perf_counter() - t0

            t1 = time.perf_counter()
            task = {
                "cmd": "scan",
                "shm_name": shm.name,
                "layout": layout.__dict__,
                "num_active": active,
                "op": op.name,
                "inclusive": inclusive,
                "carry_scheme": self.carry_scheme,
                "stall_timeout": self.stall_timeout,
                "threads": self.worker_threads,
                "inject": self.failure_injection,
            }
            dispatched = []
            for handle in handles:
                try:
                    handle.conn.send(task)
                except (BrokenPipeError, OSError) as exc:
                    self._abort_and_drain(
                        views, {h.worker_id: h for h in dispatched}
                    )
                    raise WorkerDeathError(
                        f"worker {handle.worker_id} died before dispatch"
                    ) from exc
                dispatched.append(handle)
            counters.seconds_dispatch = time.perf_counter() - t1

            t2 = time.perf_counter()
            failure, still_pending = self._supervise(views, dispatched, counters)
            counters.seconds_compute = time.perf_counter() - t2
            if failure is not None:
                self._abort_and_drain(views, still_pending)
                raise failure

            t3 = time.perf_counter()
            out = views.output.copy()
            counters.seconds_collect = time.perf_counter() - t3
        finally:
            views.close()
            shm.unlink()
        return ParallelResult(
            values=out,
            counters=counters,
            num_chunks=num_chunks,
            num_workers=active,
            chunk_elements=chunk_elements,
            order=order,
            tuple_size=tuple_size,
            op_name=op.name,
            inclusive=inclusive,
            carry_scheme=self.carry_scheme,
        )

    def _supervise(self, views, handles, counters):
        """Wait for every worker, watching heartbeats and sentinels.

        Returns ``(failure, still_pending)``: the failure to raise after
        draining (or None on success) plus the handles that have not yet
        sent a terminal message — the only ones the drain must wait on.
        The stall clock resets whenever any progress word advances or
        any message arrives — mirroring the simulator's deadlock rule "a
        full round with no block finishing and no global write can never
        change state".
        """
        pending = {handle.worker_id: handle for handle in handles}
        progress = views.control[
            CTRL_PROGRESS : CTRL_PROGRESS + len(handles)
        ].copy()
        last_change = time.monotonic()
        while pending:
            objects = [h.conn for h in pending.values()] + [
                h.sentinel for h in pending.values()
            ]
            ready = _wait_connections(objects, timeout=_WATCH_INTERVAL)
            now = time.monotonic()
            for handle in list(pending.values()):
                if handle.conn in ready:
                    try:
                        kind, payload = handle.conn.recv()
                    except (EOFError, OSError):
                        del pending[handle.worker_id]
                        return (
                            WorkerDeathError(
                                f"worker {handle.worker_id} died mid-scan "
                                f"(pipe closed)"
                            ),
                            pending,
                        )
                    last_change = now
                    del pending[handle.worker_id]
                    if kind == "done":
                        counters.workers.append(WorkerCounters.from_dict(payload))
                    elif kind == "stalled":
                        return WorkerStallError(payload), pending
                    elif kind == "aborted":
                        # Only possible after *we* set the abort flag;
                        # reaching here without a failure means a bug.
                        return (
                            ParallelError(
                                f"worker {handle.worker_id} aborted unexpectedly"
                            ),
                            pending,
                        )
                    else:
                        return _classify_worker_error(payload), pending
                elif handle.sentinel in ready and not handle.process.is_alive():
                    del pending[handle.worker_id]
                    return (
                        WorkerDeathError(
                            f"worker {handle.worker_id} died mid-scan "
                            f"(exit code {handle.process.exitcode})"
                        ),
                        pending,
                    )
            snapshot = views.control[
                CTRL_PROGRESS : CTRL_PROGRESS + len(handles)
            ]
            if not np.array_equal(snapshot, progress):
                progress = snapshot.copy()
                last_change = now
            elif pending and now - last_change > self.stall_timeout:
                return (
                    WorkerStallError(
                        f"no worker progress for {self.stall_timeout:.1f}s "
                        f"(waiting on workers {sorted(pending)})"
                    ),
                    pending,
                )
        return None, {}

    def _abort_and_drain(self, views, pending) -> None:
        """Set the abort flag and give still-mid-task workers a grace
        period to acknowledge, so the pool stays reusable next call.

        ``pending`` maps worker id to handle for exactly the workers
        that have not yet sent a terminal message; anyone else is
        already back in their receive loop and must not be waited on.
        """
        from repro.parallel.layout import CTRL_ABORT

        views.control[CTRL_ABORT] = 1
        deadline = time.monotonic() + _DRAIN_GRACE
        pending = {
            wid: handle for wid, handle in pending.items() if handle.alive()
        }
        while pending and time.monotonic() < deadline:
            objects = [h.conn for h in pending.values()] + [
                h.sentinel for h in pending.values()
            ]
            ready = _wait_connections(objects, timeout=_WATCH_INTERVAL)
            for handle in list(pending.values()):
                if handle.conn in ready:
                    try:
                        handle.conn.recv()
                    except (EOFError, OSError):
                        pass
                    del pending[handle.worker_id]
                elif handle.sentinel in ready and not handle.process.is_alive():
                    del pending[handle.worker_id]
        for handle in pending.values():  # unresponsive: cut it loose
            handle.process.terminate()
            # Settle the death now so the next ensure() sees it and
            # respawns instead of racing the signal delivery.
            handle.process.join(1.0)


def _auto_chunk_elements(n: int, num_workers: int) -> int:
    """Chunk sizing: a few chunks per worker, floor large enough that
    numpy's per-chunk vector work dominates the protocol overhead."""
    if n == 0:
        return 1
    target = math.ceil(n / (num_workers * 4))
    return max(16384, min(target, n))


def _classify_worker_error(message: str) -> ParallelError:
    if message.startswith("SharedBufferOverrunError"):
        return SharedBufferOverrunError(message)
    return ParallelError(f"worker failed: {message}")
