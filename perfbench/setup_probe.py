"""Set-up time of one fresh interpreter: ``import repro`` plus the
workload's first calls (lazy kernel tuning, planner calibration load
and first persist).

    python3 perfbench/setup_probe.py {import|bulk_inmem|file_jobs} CACHE_DIR

Prints ``{"import_s": ..., "first_call_s": ..., "probe_s": ...}``
(``probe_s`` is the host-speed probe, timed first in the same
process).  The caller gives the process a fresh, empty cache directory
each time.
"""

import array
import json
import os
import sys
import time

from harness import probe_seconds


def main(kind: str, cache_dir: str) -> None:
    raw_path = os.path.join(cache_dir, "first.bin")
    if kind == "file_jobs":
        # Written without numpy, so the import below is timed cold.
        with open(raw_path, "wb") as fh:
            array.array("q", range(1 << 17)).tofile(fh)
    probe = probe_seconds()
    t0 = time.perf_counter()
    import numpy as np

    import repro

    t1 = time.perf_counter()
    first = 0.0
    if kind == "bulk_inmem":
        rng = np.random.default_rng(0)
        ints = rng.integers(-1000, 1000, size=1 << 17, dtype=np.int64)
        floats = rng.standard_normal(1 << 17)
        t2 = time.perf_counter()
        repro.prefix_sum(ints)
        repro.prefix_sum(ints, order=3, tuple_size=4)
        repro.prefix_sum(floats, float_mode="compensated")
        first = time.perf_counter() - t2
    elif kind == "file_jobs":
        t2 = time.perf_counter()
        repro.scan_file(raw_path, os.path.join(cache_dir, "first.out"),
                        dtype="int64")
        first = time.perf_counter() - t2
    elif kind != "import":
        raise SystemExit(f"unknown set-up kind {kind!r}")
    print(json.dumps({"import_s": t1 - t0, "first_call_s": first,
                      "probe_s": probe}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
