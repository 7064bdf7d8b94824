"""The planner's empirical memory: measured strategy throughput.

The analytic cost model (:mod:`repro.plan.cost`) ranks strategies from
first principles; this store corrects it with what actually happened
on this machine.  Every planned dispatch reports its observed
bytes-per-second back through :meth:`CalibrationStore.observe`, which
folds it into an exponential moving average keyed by
:meth:`repro.plan.Workload.calibration_key` — strategy, source, dtype,
op, order, tuple size, and a power-of-two size bucket — and persists
the table next to the kernel-tuning cache.  Repeated workloads
therefore converge on measured numbers, exactly like the install-time
tuner the paper adopts from StreamScan, but continuously instead of
once.

A bucket overrides the model only once it holds
:data:`MIN_TRUSTED_SAMPLES` observations, and its EWMA starts from
their median.  Only the chosen strategy is ever observed, so a bucket
trusted after one sample would let a single cold first run (pool
start-up, first-touch page faults) exclude a candidate for good.

Robustness contract (tested):

* a *missing* store is a cache miss, not an error — the analytic model
  serves alone until observations arrive;
* a *corrupt* store (truncated JSON, wrong version, garbage entries)
  is silently treated as empty and overwritten on the next
  observation — calibration is an optimization, never a failure mode;
* an *unwritable* store degrades to per-process memory;
* *concurrent writers* (several planned processes on one machine)
  merge instead of clobbering: each persist re-reads the file under an
  ``fcntl`` file lock and keeps, per bucket, whichever entry has seen
  more samples — so two processes warming different buckets both land,
  and the better-warmed EWMA survives a race on the same bucket.  On
  platforms without ``fcntl`` (or an unlockable directory) this
  degrades to the plain last-writer-wins write;
* ``REPRO_TUNE_DISABLE=1`` disables reads and writes entirely — the
  planner then runs on the static heuristics alone.

``REPRO_PLAN_CACHE=path`` overrides the file location (the tests use
it to isolate themselves from the developer's real calibration).
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
from typing import Dict, Optional

#: EWMA weight of a new observation: heavy enough that a handful of
#: runs converge, light enough that one noisy run cannot flip a plan.
EWMA_ALPHA = 0.3

#: Relative EWMA movement below which an observation updates process
#: memory but skips the disk write.  Converged buckets then cost no
#: I/O per scan (the write is milliseconds — measurable against small
#: jobs), while new buckets and real drift still persist immediately.
PERSIST_REL_DELTA = 0.02

#: Observations a bucket needs before the planner trusts it over the
#: model; its EWMA is seeded with their median.
MIN_TRUSTED_SAMPLES = 3

_STORE_VERSION = 1

_STORE_LOCK = threading.Lock()
_STORE_MEMO: Dict[str, "CalibrationStore"] = {}


def calibration_path() -> str:
    """Where the calibration table lives: ``REPRO_PLAN_CACHE`` if set,
    else ``planner_calibration.json`` next to the kernel-tuning cache."""
    override = os.environ.get("REPRO_PLAN_CACHE")
    if override:
        return override
    from repro.core.tuning import tuning_cache_dir

    return os.path.join(tuning_cache_dir(), "planner_calibration.json")


def _disabled() -> bool:
    return bool(os.environ.get("REPRO_TUNE_DISABLE"))


@contextlib.contextmanager
def _interprocess_lock(path: str):
    """Exclusive advisory lock on ``path`` (created if missing).

    Yields ``True`` while the lock is held.  Anywhere the lock cannot
    be taken — no ``fcntl`` on this platform, unwritable directory —
    it yields ``False`` and the caller proceeds unlocked (the
    pre-lock, last-writer-wins behavior).
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platform
        yield False
        return
    try:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError:
        yield False
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - fs without flock
            yield False
            return
        yield True
    finally:
        os.close(fd)  # closing the fd releases the flock


def _parse_entries(data) -> Dict[str, dict]:
    """Validate a loaded store document into an entries dict (empty on
    any structural problem — corruption is never an error)."""
    entries: Dict[str, dict] = {}
    if isinstance(data, dict) and data.get("version") == _STORE_VERSION:
        raw = data.get("entries")
        if isinstance(raw, dict):
            for key, entry in raw.items():
                try:
                    parsed = {
                        "bytes_per_second": float(entry["bytes_per_second"]),
                        "samples": int(entry["samples"]),
                    }
                    # Stores older than the trust threshold lack the
                    # untrusted buckets' first observations: their EWMA
                    # stands in for them.
                    if parsed["samples"] < MIN_TRUSTED_SAMPLES:
                        first = entry.get(
                            "first",
                            [parsed["bytes_per_second"]] * parsed["samples"],
                        )
                        parsed["first"] = [float(v) for v in first]
                    entries[str(key)] = parsed
                except (KeyError, TypeError, ValueError):
                    continue  # one bad row never poisons the rest
    return entries


class CalibrationStore:
    """Measured bytes-per-second per (strategy, workload bucket)."""

    def __init__(self, path: Optional[str] = None):
        self.path = path if path is not None else calibration_path()
        self._entries: Optional[Dict[str, dict]] = None
        self._lock = threading.Lock()

    # -- persistence ------------------------------------------------------

    def _read_disk(self) -> Dict[str, dict]:
        """Parse the on-disk table without touching process memory."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = None
        return _parse_entries(data)

    def _load(self) -> Dict[str, dict]:
        if self._entries is not None:
            return self._entries
        entries = {} if _disabled() else self._read_disk()
        self._entries = entries
        return entries

    def _merge_from_disk(self) -> None:
        """Fold concurrent writers' entries into process memory: per
        bucket, whichever side has seen more samples wins (a tie keeps
        ours — it includes the observation being persisted)."""
        mine = self._entries if self._entries is not None else {}
        for key, theirs in self._read_disk().items():
            ours = mine.get(key)
            if ours is None or theirs["samples"] > ours["samples"]:
                mine[key] = theirs
        self._entries = mine

    def _persist(self) -> None:
        """Best effort: an unwritable cache degrades to process memory.

        Holds the interprocess lock across re-read + merge + replace,
        so concurrent planned processes compose their tables instead of
        the last writer erasing everyone else's warm buckets.
        """
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        except OSError:
            return
        with _interprocess_lock(f"{self.path}.lock") as locked:
            if locked:
                self._merge_from_disk()
            payload = {"version": _STORE_VERSION, "entries": self._entries or {}}
            try:
                tmp = f"{self.path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                os.replace(tmp, self.path)
            except OSError:
                pass

    # -- the planner-facing API ------------------------------------------

    def throughput(self, key: str) -> Optional[float]:
        """Measured bytes/second for a calibration key, or ``None``
        (cache miss, fewer than :data:`MIN_TRUSTED_SAMPLES`
        observations, or calibration disabled)."""
        if _disabled():
            return None
        with self._lock:
            entry = self._load().get(key)
        if (
            entry is None
            or entry["samples"] < MIN_TRUSTED_SAMPLES
            or entry["bytes_per_second"] <= 0
        ):
            return None
        return entry["bytes_per_second"]

    def samples(self, key: str) -> int:
        if _disabled():
            return 0
        with self._lock:
            entry = self._load().get(key)
        return 0 if entry is None else entry["samples"]

    def observe(self, key: str, bytes_per_second: float) -> bool:
        """Fold one observed throughput into the bucket's EWMA and
        persist; returns whether the observation was recorded."""
        if _disabled():
            return False
        if not (bytes_per_second > 0.0):  # rejects NaN too
            return False
        with self._lock:
            entries = self._load()
            entry = entries.get(key)
            if entry is None or entry["samples"] < MIN_TRUSTED_SAMPLES:
                # Untrusted bucket: keep the raw observations; the
                # median of the first MIN_TRUSTED_SAMPLES seeds the EWMA.
                first = ([] if entry is None else entry["first"]) + [
                    float(bytes_per_second)
                ]
                entry = {
                    "bytes_per_second": statistics.median(first),
                    "samples": len(first),
                }
                if len(first) < MIN_TRUSTED_SAMPLES:
                    entry["first"] = first
                entries[key] = entry
                self._persist()
            else:
                old = entry["bytes_per_second"]
                new = old + EWMA_ALPHA * (float(bytes_per_second) - old)
                entry["bytes_per_second"] = new
                entry["samples"] += 1
                if abs(new - old) > PERSIST_REL_DELTA * old:
                    self._persist()
        return True


def get_store(path: Optional[str] = None) -> CalibrationStore:
    """The memoized process-wide store for ``path`` (default location
    when omitted — re-resolved per call so tests can repoint
    ``REPRO_PLAN_CACHE`` between cases)."""
    resolved = path if path is not None else calibration_path()
    with _STORE_LOCK:
        store = _STORE_MEMO.get(resolved)
        if store is None:
            store = CalibrationStore(resolved)
            _STORE_MEMO[resolved] = store
        return store


def _reset_store_memo() -> None:
    """Test hook: forget cached stores (the cache path changed)."""
    with _STORE_LOCK:
        _STORE_MEMO.clear()
