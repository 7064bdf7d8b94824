"""What the planner plans over: a workload and a machine.

The paper's thesis is that the right scan structure is a function of
*measurable* parameters — element width, tuple size, order, problem
size, memory hierarchy — not of user folklore.  Six PRs of engines
gave this repo one knob per structural decision (``engine=``,
``threads=``, ``shards=``, ``chunk_bytes=``); this module names the
inputs those decisions actually depend on, so that
:mod:`repro.plan.planner` can make them from data.

* :class:`Workload` — one scan job, reduced to exactly the fields the
  cost model reads: payload size, dtype, operator, order, tuple size,
  inclusive flavor, where the bytes live (in memory vs on disk) and
  whether they are contiguous.  Frozen and hashable, so it doubles as
  the calibration-bucket key source.
* :class:`Machine` — this host, reduced the same way: core count plus
  the empirically tuned kernel geometry that
  :func:`repro.core.tuning.kernel_tuning` measures at first use
  (cache-block bytes, the threaded kernel's parallel cutover).  A
  snapshot is taken per dtype and memoized; with
  ``REPRO_TUNE_DISABLE=1`` it degrades to the built-in defaults and
  says so in ``tuning_source``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.kernels import usable_cpus
from repro.ops import get_op

#: Workload sources the cost model distinguishes.
SOURCE_MEMORY = "memory"
SOURCE_FILE = "file"
SOURCE_COMPRESSED = "compressed-file"


@dataclass(frozen=True)
class Workload:
    """One scan job, described by the parameters cost depends on.

    ``nbytes`` is always the *logical* payload (elements × itemsize);
    a :data:`SOURCE_COMPRESSED` workload additionally carries
    ``compressed_nbytes`` — the container bytes that actually cross the
    disk — so the cost model can price the decode term separately from
    the (smaller) IO term.

    ``float_mode`` is the caller's float contract and is part of the
    workload, not a tunable: under ``"compensated"`` every candidate —
    serial included — produces the error-free-carry result, so the
    planner's bit-identity guarantee holds *within* the mode and
    parallel candidates open up for float ``add``.  ``None`` (and
    ``"exact"``) keep the historical promise that a float plan equals
    the sequential left fold bit for bit, which only the serial path
    can honor.
    """

    nbytes: int
    dtype: str
    op: str = "add"
    order: int = 1
    tuple_size: int = 1
    inclusive: bool = True
    source: str = SOURCE_MEMORY
    contiguous: bool = True
    compressed_nbytes: int = 0
    float_mode: Optional[str] = None

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.order < 1 or self.tuple_size < 1:
            raise ValueError("order and tuple_size must be >= 1")
        if self.source not in (SOURCE_MEMORY, SOURCE_FILE, SOURCE_COMPRESSED):
            raise ValueError(f"unknown workload source {self.source!r}")
        if self.float_mode not in (None, "exact", "compensated", "regrouped"):
            raise ValueError(f"unknown float_mode {self.float_mode!r}")

    @classmethod
    def from_array(
        cls,
        values,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        float_mode=None,
    ) -> "Workload":
        """Describe an in-memory array scan (the ``repro.scan(x)`` shape)."""
        array = np.asarray(values)
        resolved = get_op(op)
        return cls(
            nbytes=int(array.nbytes),
            dtype=resolved.check_dtype(array.dtype).name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_MEMORY,
            contiguous=bool(array.flags.c_contiguous or array.ndim != 1),
            float_mode=float_mode,
        )

    @classmethod
    def from_file(
        cls,
        path,
        dtype,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        float_mode=None,
    ) -> "Workload":
        """Describe an out-of-core file scan (the ``repro.scan_file`` shape)."""
        resolved = get_op(op)
        return cls(
            nbytes=int(os.path.getsize(path)),
            dtype=resolved.check_dtype(dtype).name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_FILE,
            contiguous=True,
            float_mode=float_mode,
        )

    @classmethod
    def from_blocked_file(
        cls,
        path,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
    ) -> "Workload":
        """Describe a scan over a blocked ``.samb`` container.  The
        container header is authoritative for dtype and element count;
        ``nbytes`` is the logical payload and ``compressed_nbytes`` the
        container size on disk."""
        from repro.compression.stream import read_index

        index = read_index(path)
        resolved = get_op(op)
        dtype = resolved.check_dtype(index.dtype)
        return cls(
            nbytes=int(index.count) * dtype.itemsize,
            dtype=dtype.name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_COMPRESSED,
            contiguous=True,
            compressed_nbytes=int(index.container_bytes),
        )

    # -- derived ----------------------------------------------------------

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def elements(self) -> int:
        return self.nbytes // self.itemsize

    @property
    def on_disk(self) -> bool:
        """Whether the payload crosses the filesystem (raw or
        compressed) — the out-of-core drivers apply either way."""
        return self.source in (SOURCE_FILE, SOURCE_COMPRESSED)

    @property
    def integer(self) -> bool:
        """Fixed-width integer payloads are truly associative: every
        parallel regrouping (slabs, shards, process chunks) stays
        bit-identical.  Everything else is planned onto the exact
        serial path."""
        return np.dtype(self.dtype).kind in "iu"

    @property
    def compensable(self) -> bool:
        """Whether this workload runs under the compensated float
        contract: the caller asked for ``float_mode="compensated"`` and
        the kernels support it (float ``add`` with a real ufunc) on a
        contiguous buffer.  Compensable workloads get parallel
        candidates — every strategy, serial included, produces the
        same error-free-carry bits."""
        if self.float_mode != "compensated" or not self.contiguous:
            return False
        from repro.kernels import compensated_supported

        return compensated_supported(self.op, self.dtype)

    @property
    def fused(self) -> bool:
        """Whether the host kernels run this workload as the fused
        single-pass order-``q`` tile scan
        (:func:`repro.kernels.fused_supported`: integer ADD at
        ``order >= 2`` with ``tuple_size >= 2``).  The fused pass has
        no slab-threaded form, so fused workloads get no threaded
        candidates."""
        if self.order == 1:
            return False
        try:
            op = get_op(self.op)
        except (KeyError, TypeError):
            return False
        from repro.kernels import fused_supported

        return fused_supported(op, self.dtype, self.order, self.tuple_size)

    @property
    def scan_passes(self) -> int:
        """Memory passes the host kernels make over the payload: ``1``
        for order 1 and inside the fused gate, ``order`` otherwise
        (iterated pass-per-order scans, the paper's ``2qn`` traffic).
        The cost model divides by this instead of ``order`` wherever a
        term counts passes, so an order-3 integer scan is priced at its
        actual single-pass traffic.
        """
        return 1 if self.order == 1 or self.fused else self.order

    @property
    def vectorized(self) -> bool:
        """Whether the operator has a GIL-releasing ufunc inner loop
        (looped operators serialize threads, so slab parallelism cannot
        win on them).  Unregistered custom operators — whose name
        cannot be resolved back to an op — count as looped: the planner
        then only ever proposes the serial path, which takes the
        original op object verbatim."""
        try:
            return get_op(self.op).ufunc is not None
        except (KeyError, TypeError):
            return False

    def size_bucket(self) -> int:
        """Power-of-two size bucket for calibration: observed throughput
        at 48 MiB should inform a prediction at 60 MiB, not at 6 KiB."""
        return max(1, int(self.nbytes)).bit_length()

    def calibration_key(self, strategy: str) -> str:
        """The calibration-store bucket this workload's observations of
        ``strategy`` feed (and read).  Parameters that change the
        bytes-per-second of a strategy are part of the key; ones that do
        not (inclusive flavor) are left out so buckets warm up faster.
        The float mode is appended only when set, so integer buckets
        (and pre-existing float ones) keep their historical keys."""
        suffix = f"|fm:{self.float_mode}" if self.float_mode else ""
        return (
            f"{strategy}|{self.source}|{self.dtype}|{self.op}"
            f"|q{self.order}|s{self.tuple_size}|b{self.size_bucket()}{suffix}"
        )


@dataclass(frozen=True)
class Machine:
    """This host, reduced to the parameters the cost model reads."""

    cpu_count: int
    block_bytes: int
    parallel_cutover_bytes: int
    tuning_source: str = "default"

    @property
    def multicore(self) -> bool:
        return self.cpu_count > 1


_MACHINE_MEMO: Dict[str, Machine] = {}


def machine_snapshot(dtype, *, refresh: bool = False) -> Machine:
    """The memoized :class:`Machine` for ``dtype``.

    Consults :func:`repro.core.tuning.kernel_tuning` — which measures
    at first use, caches on disk, and honors ``REPRO_TUNE_DISABLE=1``
    and the per-value env pins — so the planner sees exactly the
    geometry the kernels run with.  A tuner failure falls back to the
    built-in defaults instead of failing the scan.
    """
    key = np.dtype(dtype).name
    if not refresh and key in _MACHINE_MEMO:
        return _MACHINE_MEMO[key]
    cpu = usable_cpus()
    try:
        from repro.core.tuning import kernel_tuning

        tuning = kernel_tuning(dtype, refresh=refresh)
        machine = Machine(
            cpu_count=cpu,
            block_bytes=tuning.block_bytes,
            parallel_cutover_bytes=tuning.parallel_cutover_bytes,
            tuning_source=tuning.source,
        )
    except Exception:  # pragma: no cover - defensive: planning must not fail scans
        from repro.core.tuning import (
            DEFAULT_BLOCK_BYTES,
            DEFAULT_PARALLEL_CUTOVER_BYTES,
        )

        machine = Machine(
            cpu_count=cpu,
            block_bytes=DEFAULT_BLOCK_BYTES,
            parallel_cutover_bytes=DEFAULT_PARALLEL_CUTOVER_BYTES,
            tuning_source="fallback",
        )
    _MACHINE_MEMO[key] = machine
    return machine


def _reset_machine_memo() -> None:
    """Test hook: forget memoized snapshots (env/tuning changed)."""
    _MACHINE_MEMO.clear()
