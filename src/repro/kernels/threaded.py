"""Threaded in-memory lane kernel: multicore intra-chunk scans.

The ``(m, s)`` lane-block matrix is split into ``P`` contiguous
row-slabs and scanned as **reduce → splice → scan** on a persistent
:class:`~concurrent.futures.ThreadPoolExecutor`:

1. *Reduce* (read-only): the per-lane totals of every slab but the
   last, each slab halved so all ``P`` workers share the read.
2. *Splice* (host): an exclusive scan of the tiny ``P × s`` totals
   matrix gives each slab the carry row it owes.
3. *Scan*: every slab is scanned carry-seeded from its own source rows
   straight into its own rows of the output, cache block by cache
   block, with the carry injected while the block is hot.

Traffic per element: the reduce reads ``(P-1)/P`` of the input and the
scan reads it once and writes it once — about ``3n`` words, the
reduce-then-scan (MGPU) row of the paper's Figs 3–6 instead of the
``4n`` scan-then-propagate design (a scan pass plus a read+write fold
pass).  Zhang, Wang & Ross ("Parallel Prefix Sum with SIMD") describe
the same cache-partitioned two-pass CPU scheme.  No pre-copy of the
input and no fold pass: each worker first-touches only its own slab of
a fresh output, so page-fault cost is split across cores too.  The
in-place form (``out is src``, as stream chunk scans use it) stays
exact because every reduce finishes before any slab is overwritten.

Threads — not processes — give real parallelism here because numpy's
ufunc inner loops release the GIL: slab reduces and scans run
concurrently with zero serialization or IPC cost.  Looped (non-ufunc)
operators hold the GIL, so they always take the serial kernel.

Determinism and exactness
-------------------------

The slab partition is a pure function of ``(n, s, threads)`` — never of
pool scheduling — so results are identical under oversubscription (more
slabs than cores, or a smaller pool than requested).  For fixed-width
integers the splice regroups a truly associative reduction and the
result is **bit-identical** to the serial kernel.  For floats,
regrouping changes rounding, so float inputs keep bit-exactness by
default: :class:`ThreadedLaneKernel` with ``float_mode="exact"`` (the
float default) scans through the serial prepend-carry kernel.
``float_mode="compensated"`` runs the error-free-carry segment
decomposition of :mod:`repro.kernels.compensated` — fully parallel,
bit-identical for *any* thread count.  ``float_mode="regrouped"``
(legacy ``exact=False``) opts into the regrouped slab splice
(deterministic for a fixed thread count, not bit-identical to serial).

Fused order-``q`` scans (:func:`repro.kernels.fused_lane_scan`) stay
serial: their read-only ``(q, s)`` binomial reduce costs about as much
as the fused scan itself, so reduce-then-scan cannot win at 2 threads.

Cutover
-------

Thread dispatch costs microseconds; accumulating a small chunk costs
less.  Chunks below the tuned per-dtype parallel cutover
(:func:`repro.core.tuning.kernel_tuning`, override with
``REPRO_PARALLEL_CUTOVER_BYTES``) run on the serial kernel.  Callers
that must force threading (tests, the fuzzer) pass ``cutover_bytes=0``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.kernels.compensated import resolve_float_mode
from repro.kernels.lane import (
    LaneKernel,
    exclusive_shift,
    fold_lanes,
    fused_supported,
    lane_scan,
    phase_perm,
    scan_into,
)
from repro.ops import ADD, AssociativeOp, get_op

#: Fallback parallel cutover (bytes) when the tuner is unavailable:
#: chunks smaller than this are scanned serially.
PARALLEL_CUTOVER_BYTES = 4 << 20

#: Auto thread resolution gives each worker at least this many bytes of
#: slab — below it, another thread adds dispatch cost, not bandwidth.
MIN_SLAB_BYTES = 1 << 20

#: Cache block of the carry-seeded slab scan: each block is read from
#: the source, written to the output and scanned while it is still in
#: the core's L2.
CARRY_BLOCK_BYTES = 1 << 20

#: Row width (elements) of the lane reduce for ``s > 1``: an axis-0
#: reduce over ``(m, s)`` walks ``s``-wide rows, so lanes are folded in
#: rows this wide instead and the per-lane partials combined after.
REDUCE_ROW_ELEMENTS = 2048

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def usable_cpus() -> int:
    """CPUs this process may run on.

    The scheduler affinity mask where the platform has one (``taskset``,
    cpusets and container CPU pinning all narrow it), else
    ``os.cpu_count()``.  Every CPU-count decision in the package goes
    through here, so a pinned process never plans threads it cannot
    run.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def get_pool(threads: int) -> ThreadPoolExecutor:
    """The module's persistent worker pool, grown to ``>= threads``.

    One pool is shared by every threaded kernel in the process (warm
    threads, no per-scan spawn cost).  Growing recreates the executor;
    the old one drains its queue in the background.  The pool size
    never influences results — the slab partition is fixed by the
    *requested* thread count, and queued slabs just wait for a worker.
    """
    global _POOL, _POOL_WORKERS
    threads = max(1, int(threads))
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < threads:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-lane"
            )
            _POOL_WORKERS = threads
        return _POOL


def resolve_threads(threads=None, n_bytes: Optional[int] = None) -> int:
    """Resolve a ``threads=`` parameter to a concrete worker count.

    ``None``/``0``/``"auto"`` means min(usable CPUs, slab-size heuristic):
    enough workers that each still gets :data:`MIN_SLAB_BYTES` of slab,
    never more than the machine has cores.  Explicit counts are taken
    as given (useful for tests and for the sharded driver's combined
    oversubscription budget).
    """
    if threads in (None, 0, "auto"):
        cpus = usable_cpus()
        if n_bytes is None:
            return cpus
        return max(1, min(cpus, int(n_bytes) // MIN_SLAB_BYTES))
    t = int(threads)
    if t < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return t


def _tuned_cutover(dtype: np.dtype) -> int:
    try:
        from repro.core.tuning import kernel_tuning

        return kernel_tuning(dtype).parallel_cutover_bytes
    except Exception:  # pragma: no cover - tuner must never break scans
        return PARALLEL_CUTOVER_BYTES


def _slab_bounds(m: int, parts: int):
    """Split ``m`` full rows into ``parts`` balanced row ranges.

    Pure function of its arguments — this is what makes threaded
    results deterministic regardless of pool scheduling.
    """
    p = max(1, min(int(parts), m))
    base, extra = divmod(m, p)
    bounds = []
    lo = 0
    for i in range(p):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _lane_reduce(rows: np.ndarray, op: AssociativeOp, s: int) -> np.ndarray:
    """Per-phase totals (length ``s``) of ``rows``: a 1-D, C-contiguous
    run of whole lane rows.  Read-only.

    ``s == 1`` is a plain 1-D reduce (an axis-0 reduce over the
    ``(m, 1)`` view is a slow path).  For ``s > 1`` a commutative
    operator folds ``k`` rows at a time as one wide row, so the reduce
    streams contiguous ``REDUCE_ROW_ELEMENTS``-wide rows instead of
    ``s``-wide ones, then combines the ``k`` per-lane partials.
    """
    if s == 1:
        return np.asarray(op.reduce(rows)).reshape(1)
    m = rows.size // s
    rows2 = rows.reshape(m, s)
    k = max(1, REDUCE_ROW_ELEMENTS // s)
    if not op.commutative or m < 2 * k:
        return op.reduce(rows2, axis=0)
    wide = (m // k) * k
    partial = op.reduce(rows2[:wide].reshape(wide // k, k * s), axis=0)
    total = op.reduce(partial.reshape(k, s), axis=0)
    if wide < m:
        total = op.apply(total, op.reduce(rows2[wide:], axis=0))
    return total


def _carry_scan(src, out, op: AssociativeOp, s: int, carry) -> None:
    """Inclusive lane scan of whole rows ``src`` into ``out`` (same
    length, both C-contiguous; may alias), continuing from the
    phase-order ``carry`` row (``None`` = a fresh start).

    One pass over memory, :data:`CARRY_BLOCK_BYTES` at a time, with the
    running carry applied while the block is cached: at ``s == 1`` the
    1-D accumulate reads ``src`` directly and the carry is folded in
    after; for ``s > 1`` the block is copied over, the carry is
    injected into its first row (``op(carry, x)``, the serial left
    fold's own order) and the block is accumulated in place.  numpy
    (2.4, measured) holds the GIL through an accumulate whose output
    overlaps its input and through any axis-0 accumulate, so an in-place
    scan stages each block through a cache-sized buffer: every step
    that touches memory then runs unlocked, and the locked accumulate
    only ever sees a cached block.
    """
    rows = src.size // s
    if s == 1 and carry is None and out is not src:
        op.accumulate(src, out=out)
        return
    step = max(1, CARRY_BLOCK_BYTES // (s * src.itemsize))
    shape = (rows,) if s == 1 else (rows, s)
    src2, out2 = src.reshape(shape), out.reshape(shape)
    stage = np.empty_like(src2[:step]) if out is src else None
    prev = carry
    for i in range(0, rows, step):
        blk = out2[i : i + step]
        work = blk if stage is None else stage[: len(blk)]
        if s == 1:
            op.accumulate(src2[i : i + step], out=work)
        else:
            work[...] = src2[i : i + step]
            if prev is not None:
                op.apply_into(prev, work[:1], out=work[:1])
            op.accumulate(work, axis=0, out=work)
        if s == 1 and prev is not None:
            op.apply_into(prev, work, out=blk)
        elif work is not blk:
            blk[...] = work
        prev = blk[-1]


def threaded_lane_scan(
    src: np.ndarray,
    op: AssociativeOp,
    tuple_size: int = 1,
    *,
    out: Optional[np.ndarray] = None,
    carry: Optional[np.ndarray] = None,
    threads=None,
    cutover_bytes: Optional[int] = None,
) -> np.ndarray:
    """One inclusive lane scan pass, slab-parallel reduce → splice → scan.

    Same contract as :func:`repro.kernels.lane_scan` (``out`` may alias
    ``src``; ``carry`` is a phase-order continuation row) plus
    ``threads`` and ``cutover_bytes``.  Small chunks, ``threads=1``,
    non-ufunc operators, and non-contiguous buffers fall back to the
    serial kernel.

    For integer dtypes the result is bit-identical to the serial kernel
    (integer regrouping is exact).  For floats the splice regroups the
    per-lane fold — deterministic for a fixed thread count, but not
    bit-identical to serial; exact float continuation lives in
    :func:`repro.kernels.lane_scan_exact` / :class:`ThreadedLaneKernel`.
    """
    src = np.asarray(src)
    s = int(tuple_size)
    if out is None:
        out = np.empty_like(src)
    n = src.size
    if n == 0:
        return out
    n_bytes = n * src.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = _tuned_cutover(src.dtype)
    m = n // s
    if (
        threads <= 1
        or op.ufunc is None
        or m < 2
        or n_bytes < cutover_bytes
        or not (src.flags.c_contiguous and out.flags.c_contiguous)
    ):
        return lane_scan(src, op, s, out=out, carry=carry)
    bounds = _slab_bounds(m, threads)
    pool = get_pool(threads)

    # Reduce: lane totals of every slab but the last, each slab halved
    # so the read is spread over all workers.  All of it completes
    # before any slab is written, which keeps ``out is src`` exact.
    pieces = []  # (lo, hi, ends a slab)
    for lo, hi in bounds[:-1]:
        mid = (lo + hi) // 2
        if mid > lo:
            pieces.append((lo, mid, False))
        pieces.append((mid, hi, True))
    totals = [
        f.result()
        for f in [
            pool.submit(_lane_reduce, src[lo * s : hi * s], op, s)
            for lo, hi, _ in pieces
        ]
    ]

    # Splice: the exclusive scan of the totals is each slab's carry.
    rows = [None if carry is None else np.asarray(carry)]
    running = rows[0]
    for (_, _, ends), total in zip(pieces, totals):
        running = total if running is None else op.apply(running, total)
        if ends:
            rows.append(running)

    # Scan: each worker writes only its own slab of the output.
    futures = []
    for (lo, hi), row in zip(bounds, rows):
        slab = src[lo * s : hi * s]
        dest = slab if out is src else out[lo * s : hi * s]
        futures.append(pool.submit(_carry_scan, slab, dest, op, s, row))
    for f in futures:
        f.result()

    body = m * s
    r = n - body
    if r:
        # Tail phases continue from the last full row.
        op.apply_into(out[body - s : body - s + r], src[body:], out=out[body:])
    return out


def threaded_fold_lanes(
    buf: np.ndarray,
    op: AssociativeOp,
    carry: np.ndarray,
    pos: int = 0,
    tuple_size: int = 1,
    seen: Optional[np.ndarray] = None,
    threads=None,
    cutover_bytes: Optional[int] = None,
) -> np.ndarray:
    """Slab-parallel :func:`repro.kernels.fold_lanes` (same contract).

    The all-lanes-seen broadcast fold is embarrassingly parallel over
    row slabs; mixed seen/unseen masks (only possible while ``pos < s``)
    and small buffers take the serial fold.
    """
    buf = np.asarray(buf)
    n = buf.size
    s = int(tuple_size)
    if n == 0:
        return buf
    n_bytes = n * buf.dtype.itemsize
    threads = resolve_threads(threads, n_bytes)
    if cutover_bytes is None:
        cutover_bytes = _tuned_cutover(buf.dtype)
    m = n // s
    if (
        threads <= 1
        or op.ufunc is None
        or m < 2
        or n_bytes < cutover_bytes
        or not buf.flags.c_contiguous
        or (seen is not None and not seen.all())
    ):
        return fold_lanes(buf, op, carry, pos, s, seen=seen)
    row = carry[phase_perm(pos, s)]  # fancy indexing: a contiguous copy
    body = m * s
    b2 = buf[:body].reshape(m, s)
    pool = get_pool(threads)

    def _fold(lo, hi):
        blk = b2[lo:hi]
        op.apply_into(row, blk, out=blk)

    for f in [pool.submit(_fold, lo, hi) for lo, hi in _slab_bounds(m, threads)]:
        f.result()
    r = n - body
    if r:
        op.apply_into(row[:r], buf[body:], out=buf[body:])
    return buf


def threaded_scan_into(
    src: np.ndarray,
    out: np.ndarray,
    op,
    order: int = 1,
    tuple_size: int = 1,
    inclusive: bool = True,
    threads=None,
    exact: Optional[bool] = None,
    cutover_bytes: Optional[int] = None,
    float_mode: Optional[str] = None,
) -> np.ndarray:
    """Order-``q`` threaded lane scan — ``q`` slab-parallel passes.

    The threaded sibling of :func:`repro.kernels.scan_into`: pass 1
    scans ``src`` into ``out``, later passes rescan ``out`` in place,
    the exclusive shift happens once at the end.  Float handling
    follows ``float_mode`` (falling back to the legacy ``exact``
    tri-state): ``"exact"`` (the default) runs the serial passes — a
    regrouped splice would change rounding; ``"compensated"`` runs the
    segment-parallel error-free passes (bit-identical for any thread
    count, more accurate than the naive fold); ``"regrouped"``
    (``exact=False``) lets floats regroup through the slab splice.
    Integers get slab-parallel passes, except inside the fused order-q
    gate, whose single pass runs serially.
    """
    op = get_op(op)
    src = np.asarray(src)
    mode = resolve_float_mode(src.dtype, float_mode, exact)
    if mode == "compensated":
        from repro.kernels.compensated import compensated_scan_into

        return compensated_scan_into(
            src, out, op, order, tuple_size, inclusive,
            threads=threads, cutover_bytes=cutover_bytes,
        )
    s = int(tuple_size)
    if mode == "exact" or fused_supported(op, out.dtype, order, s):
        # Exact floats need the serial left fold, and the fused single
        # pass stays serial (see the module notes).
        return scan_into(src, out, op, order, s, inclusive)
    current = src
    for _ in range(int(order)):
        threaded_lane_scan(
            current,
            op,
            tuple_size,
            out=out,
            threads=threads,
            cutover_bytes=cutover_bytes,
        )
        current = out
    if inclusive:
        return out
    heads = np.full(s, op.identity(out.dtype), dtype=out.dtype)
    return exclusive_shift(out, heads)


class ThreadedLaneKernel(LaneKernel):
    """:class:`~repro.kernels.LaneKernel` with slab-parallel hot paths.

    Same carry-continuation ``feed(chunk)`` contract and state machine
    (inherited — only the scan/fold hooks are overridden; fused order-q
    feeds keep the serial single pass), plus:

    ``threads``
        Worker count for the slab partition; ``None``/``"auto"``
        resolves per chunk via :func:`resolve_threads`.  The partition
        depends only on this number, so results are deterministic under
        any pool size.
    ``cutover_bytes``
        Serial/parallel crossover; ``None`` uses the tuned per-dtype
        value, ``0`` forces threading for any chunk with ≥ 2 full rows.

    Exactness matches the base class: ``exact=None`` picks the in-place
    threaded path for integers (bit-identical — integer regrouping is
    exact) and the bit-exact serial prepend mode for floats.  Float
    ``float_mode="compensated"`` runs the segment-parallel error-free
    path (bit-identical for any thread count);
    ``float_mode="regrouped"`` / ``exact=False`` opts into the threaded
    regrouped splice.
    """

    def __init__(
        self,
        op,
        dtype,
        tuple_size=1,
        start=0,
        prime=None,
        exact=None,
        threads=None,
        cutover_bytes=None,
        float_mode=None,
        order=1,
    ):
        super().__init__(
            op, dtype, tuple_size, start=start, prime=prime, exact=exact,
            float_mode=float_mode, order=order,
        )
        self.threads = None if threads in (None, 0, "auto") else int(threads)
        self.cutover_bytes = cutover_bytes

    def _scan(self, chunk, carry_row=None):
        return threaded_lane_scan(
            chunk,
            self.op,
            self.s,
            out=chunk,
            carry=carry_row,
            threads=self.threads,
            cutover_bytes=self.cutover_bytes,
        )

    # _scan_exact stays the serial prepend-carry kernel (inherited):
    # bit-exactness forbids regrouping the float fold, and a slab chain
    # is sequential in the carry, so threads would add dispatch cost
    # with nothing to overlap.

    def _scan_compensated(self, chunk):
        from repro.kernels.compensated import lane_scan_compensated

        return lane_scan_compensated(
            chunk,
            self.op,
            self.s,
            self._comp,
            self.pos,
            threads=self.threads or "auto",
            cutover_bytes=self.cutover_bytes,
        )

    def _fold(self, out):
        threaded_fold_lanes(
            out,
            self.op,
            self.carry,
            self.pos,
            self.s,
            seen=self.active,
            threads=self.threads,
            cutover_bytes=self.cutover_bytes,
        )


class ThreadedResult:
    """Result wrapper for :class:`ThreadedScan` (``.values`` contract)."""

    def __init__(self, values: np.ndarray, threads: int):
        self.values = values
        self.threads = threads


class ThreadedScan:
    """The ``engine="threaded"`` adapter: one-shot scans through
    :func:`threaded_scan_into`.

    Same ``run(values, order=, tuple_size=, op=, inclusive=)`` contract
    as every other engine; bit-identical to the host path for all
    dtypes by default (floats take the exact serial passes unless
    ``float_mode``/``exact`` says otherwise).
    """

    def __init__(self, threads=None, exact=None, cutover_bytes=None, float_mode=None):
        self.threads = threads
        self.exact = exact
        self.float_mode = float_mode
        self.cutover_bytes = cutover_bytes

    def run(
        self,
        values,
        order: int = 1,
        tuple_size: int = 1,
        op=ADD,
        inclusive: bool = True,
    ) -> ThreadedResult:
        op = get_op(op)
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"expected a 1-D input, got shape {array.shape}")
        if order < 1 or tuple_size < 1:
            raise ValueError("order and tuple_size must be >= 1")
        dtype = op.check_dtype(array.dtype)
        array = np.ascontiguousarray(array, dtype=dtype)
        if array.size == 0:
            return ThreadedResult(array.copy(), 0)
        threads = resolve_threads(self.threads, array.size * array.dtype.itemsize)
        out = threaded_scan_into(
            array,
            np.empty_like(array),
            op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            threads=threads,
            exact=self.exact,
            cutover_bytes=self.cutover_bytes,
            float_mode=self.float_mode,
        )
        return ThreadedResult(out, threads)
