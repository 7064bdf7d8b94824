"""Plumbing shared by the workloads: paths, hermetic environment,
statistics, output checks, the machine record and the result line."""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: Spans beyond the tail percentile (the tail is the highest percentile
#: that still has this many samples above it).
TAIL_BEYOND = 10

#: Timed set-up repetitions per run (their median is ``setup_s``).
SETUP_REPS = 5


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def spans_path(workload: str) -> str:
    """Where a traced run leaves its spans (the latest run only)."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    return os.path.join(OUT_ROOT, f"{workload}-spans.json")


def require_program() -> None:
    """Fail (non-zero, no result line) when the checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no program at src/repro; run from the root of a "
            "checkout of the repository"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per group, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


# -- hermetic runs -----------------------------------------------------------


class Workdir:
    """A private scratch directory inside the checkout, removed on exit.

    Holds the planner and tuner caches (never the user's ``~/.cache``),
    generated inputs and outputs, and the server's socket."""

    def __init__(self, tag: str):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.path = os.path.join(TMP_ROOT, f"{tag}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._serial = 0

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def fresh(self, prefix: str) -> str:
        """A new empty subdirectory (one per set-up repetition)."""
        self._serial += 1
        return self.sub(f"{prefix}{self._serial}")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def hermetic_env(cache_dir: str) -> Dict[str, str]:
    """Environment for a program process: the checkout's ``src`` on the
    path, planner/tuner caches in ``cache_dir``, no inherited
    ``REPRO_*`` pins or switches, and a fixed string-hash seed (hash
    randomisation otherwise varies dict and set costs between runs)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_PLAN_CACHE"] = os.path.join(cache_dir, "planner.json")
    env["REPRO_TUNE_CACHE"] = os.path.join(cache_dir, "tuning.json")
    env["XDG_CACHE_HOME"] = os.path.join(cache_dir, "xdg")
    return env


def use_hermetic_env(cache_dir: str) -> None:
    """Apply :func:`hermetic_env` to this process (before ``import repro``
    reads any of it)."""
    env = hermetic_env(cache_dir)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it.  With too few samples
    for that percentile to lie above the median, the median is the
    tail (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n - TAIL_BEYOND - 1 < n / 2:
        return median(ordered), 50.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# -- host speed --------------------------------------------------------------


#: Iterations of the interpreter probe loop (about 10 ms).
PROBE_LOOP = 200_000

#: The probe's time on the reference host (2-vCPU x86 VM, Python 3.11):
#: the scale at which normalised figures read as raw ones.
PROBE_NOMINAL_S = 0.0105


def probe_seconds(repeats: int = 5) -> float:
    """Median time of a fixed pure-interpreter loop.

    Shared hosts drift in speed by tens of percent over seconds to
    minutes.  Interpreter-bound figures are normalised to
    :data:`PROBE_NOMINAL_S` by a probe timed next to the samples (with
    no program work in flight), so a run on a slow minute and a run on
    a fast one report the same figure for the same program."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i
        times.append(time.perf_counter() - t0)
    return median(times)


def host_scale(probe_s: float) -> float:
    """Multiply a measured duration by this to normalise it."""
    return PROBE_NOMINAL_S / probe_s


#: ``np.copyto`` bandwidth of the reference host (bytes/s), the scale
#: for figures bound by memory bandwidth rather than the interpreter.
MEMCPY_NOMINAL_BPS = 8e9


def memcpy_scale(nbytes: int, copy_s: float) -> float:
    """Normalising factor from a same-size memory copy timed next to
    the sample (for bandwidth-bound figures)."""
    return nbytes / MEMCPY_NOMINAL_BPS / copy_s


# -- output checks -----------------------------------------------------------


class Checker:
    """Bit-exact output fingerprints: CRC-32 over fixed stripes of the
    raw bytes (stripes hashed in parallel; the stripe count is fixed so
    fingerprints never depend on the CPU count)."""

    STRIPES = 4

    def __init__(self):
        workers = max(1, min(self.STRIPES, len(os.sched_getaffinity(0))))
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def fingerprint(self, array) -> tuple:
        import numpy as np

        data = np.ascontiguousarray(array)
        raw = memoryview(data.reshape(-1).view(np.uint8))
        step = -(-len(raw) // self.STRIPES) if len(raw) else 1
        parts = [raw[i : i + step] for i in range(0, len(raw), step)]
        crcs = tuple(self._pool.map(zlib.crc32, parts))
        return (data.dtype.str, int(data.size), crcs)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def flip_one_bit(array, index: int = None, bit: int = 0):
    """A copy of ``array`` with one bit of one element flipped."""
    import numpy as np

    out = np.array(array, copy=True)
    raw = out.reshape(-1).view(np.uint8)
    pos = (len(raw) // 2 if index is None else index * out.itemsize) + bit // 8
    raw[pos] ^= np.uint8(1 << (bit % 8))
    return out


# -- machine record ----------------------------------------------------------


def llc_bytes() -> Tuple[int, str]:
    """Last-level cache size as ``lscpu`` reports it, and the source."""
    try:
        text = subprocess.run(
            ["lscpu", "-B"], capture_output=True, text=True, timeout=20,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return 32 << 20, "default (lscpu unavailable)"
    best = (0, 0)
    for line in text.splitlines():
        match = re.match(r"\s*L(\d)\w*\s+cache:\s+(\d+)", line)
        if match:
            best = max(best, (int(match.group(1)), int(match.group(2))))
    if best[1] <= 0:
        return 32 << 20, "default (lscpu gave no cache sizes)"
    return best[1], f"lscpu L{best[0]}"


def machine_record() -> dict:
    import numpy as np

    llc, source = llc_bytes()
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "llc_source": source,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# -- processes ---------------------------------------------------------------


def run_child(args: List[str], env: Dict[str, str], timeout: float = 120.0,
              cwd: Optional[str] = None) -> dict:
    """Run a Python helper to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd or ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def setup_probe(kind: str, workdir: Workdir, reps: int = SETUP_REPS
                ) -> List[dict]:
    """Time ``import repro`` plus the workload's first calls in fresh
    interpreters with fresh caches.  One untimed run first, so every
    timed run finds the same compiled-bytecode state.  Each sample's
    times are host-normalised by the probe timed in the same process
    (the raw values stay in the sample)."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for rep in range(reps + 1):
        cache = workdir.fresh("setup")
        sample = run_child([probe, kind, cache], hermetic_env(cache))
        if rep:
            scale = host_scale(sample["probe_s"])
            sample["import_s_raw"] = sample["import_s"]
            sample["first_call_s_raw"] = sample["first_call_s"]
            sample["import_s"] *= scale
            sample["first_call_s"] *= scale
            samples.append(sample)
        shutil.rmtree(cache, ignore_errors=True)
    return samples


# -- result ------------------------------------------------------------------


class Result:
    """Accumulates operation outcomes and metrics; prints the last line."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.not_applicable: Dict[str, str] = {}
        self.record: Dict[str, object] = {}

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what or "operation failed")

    def error(self, what: str) -> None:
        """A benchmark-level error (not an operation): the run is wrong."""
        self.errors.append(what)
        self.record.setdefault("benchmark_errors", []).append(what)

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def na(self, name: str, why: str) -> None:
        """A metric of a layer this workload does not exercise: printed
        as 0 (the layer did no work here) and listed with the reason."""
        self.metrics[name] = 0.0
        self.not_applicable[name] = why

    @property
    def correct(self) -> bool:
        return self.failed == 0 and "benchmark_errors" not in self.record

    def finish(self) -> int:
        declared = declared_metrics()
        group = "per_layer" if self.trace else "end_to_end"
        units = declared[group]
        missing = sorted(set(units) - set(self.metrics))
        extra = sorted(set(self.metrics) - set(units))
        if missing or extra:
            self.error(f"metric set differs from BENCHMARK.json: "
                       f"missing {missing}, undeclared {extra}")
        self.record.update(
            workload=self.workload, seed=self.seed, trace=self.trace,
            attempted=self.attempted, failed=self.failed,
            errors=self.errors, not_applicable=self.not_applicable,
        )
        os.makedirs(OUT_ROOT, exist_ok=True)
        name = f"{self.workload}-trace{int(self.trace)}.json"
        with open(os.path.join(OUT_ROOT, name), "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=1, default=str)
        print(json.dumps({"record": self.record}, default=str))
        line = {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                name: {"value": self.metrics.get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(line), flush=True)
        return 0 if self.correct and self.attempted else 1


now = time.perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
