"""``bulk_inmem``: large planned in-memory scans through ``repro.prefix_sum``.

Why this workload: it is bandwidth-bound and ``kernels`` does nearly
all of the work, so threaded reduce-then-scan, fused and compensated
threading gains show here; planning is a negligible share and
``stream``/``compression``/``serve`` are not touched (the workload that
predicts "no change" for their optimisations).  The integer array is
four times the last-level cache, so every pass streams from memory.
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import repro
from harness import (
    Checker, Result, host_scale, machine_record, median, memcpy_scale, now,
    peak_rss_mb, probe_seconds, setup_probe, tail,
)

#: The compensated float array: smaller than the integer one because
#: the compensated scan is compute-bound (about 0.25 GB/s at seed).
COMP_BYTES = 64 << 20

#: Integer arrays are this many times the last-level cache.
LLC_MULTIPLE = 4

#: Upper bound on the integer array, so a host with a huge last-level
#: cache does not run out of memory (input + one output live at once).
MAX_INT_BYTES = 2 << 30


@dataclass(frozen=True)
class Shape:
    name: str
    dtype: str
    order: int
    tuple_size: int
    float_mode: Optional[str] = None
    #: What bounds the call, and so which same-run reference normalises
    #: its time: "memory" (a memcpy of the same array) or "cpu" (the
    #: interpreter probe).  Order 1 streams the array once; the fused
    #: and compensated kernels compute on cache-sized tiles.
    bound: str = "cpu"

    def kwargs(self) -> dict:
        kw = {"order": self.order, "tuple_size": self.tuple_size}
        if self.float_mode:
            kw["float_mode"] = self.float_mode
        return kw


SHAPES = (
    Shape("order1_i64", "int64", 1, 1, bound="memory"),
    Shape("fused_i64", "int64", 3, 4),
    Shape("comp_f64", "float64", 1, 1, "compensated"),
)


def make_inputs(seed: int, int_bytes: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    ints = rng.integers(-(1 << 40), 1 << 40, size=int_bytes // 8,
                        dtype=np.int64)
    floats = rng.standard_normal(COMP_BYTES // 8) * 1e6
    return {"int64": ints, "float64": floats}


def planned(shape: Shape, x: np.ndarray) -> np.ndarray:
    return repro.prefix_sum(x, **shape.kwargs())


def pinned_host(shape: Shape, x: np.ndarray) -> np.ndarray:
    return repro.prefix_sum(x, engine="host", **shape.kwargs())


def pinned_threaded(shape: Shape, x: np.ndarray, threads: int) -> np.ndarray:
    from repro.kernels import ThreadedScan

    engine = ThreadedScan(threads=threads, float_mode=shape.float_mode)
    return engine.run(x, order=shape.order, tuple_size=shape.tuple_size).values


def threaded_candidates(shape: Shape, x: np.ndarray) -> List[int]:
    """Thread counts of the planner's own threaded candidates."""
    plan = repro.explain(x, **shape.kwargs())
    return sorted({
        int(c.params["threads"]) for c in plan.candidates
        if c.strategy == "threaded" and c.params.get("threads")
    })


class Bulk:
    def __init__(self, args, result: Result, workdir, tracer=None):
        self.args, self.result, self.workdir = args, result, workdir
        self.tracer = tracer
        self.checker = Checker()
        self.fingerprints: Dict[str, list] = {s.name: [] for s in SHAPES}
        self.times: Dict[str, Dict[str, list]] = {
            s.name: {} for s in SHAPES
        }
        self.strategies: Dict[str, set] = {s.name: set() for s in SHAPES}
        #: Host-normalised planned-call seconds (the end-to-end figures).
        self.normalised: Dict[str, list] = {s.name: [] for s in SHAPES}
        self.probe = 0.0

    # -- one timed operation -----------------------------------------------

    def _timed(self, shape: Shape, kind: str, fn, keep: bool = False):
        """Run ``fn``; time it; fingerprint its output outside the timed
        region.  Returns the output when ``keep``."""
        from repro.plan import PLANNER_COUNTERS

        t0 = now()
        try:
            out = fn()
        except Exception:
            self.result.op(False, f"{shape.name} {kind}: "
                           f"{traceback.format_exc(limit=3)}")
            return None
        elapsed = now() - t0
        self.times[shape.name].setdefault(kind, []).append(elapsed)
        if kind == "planned":
            self.strategies[shape.name].add(PLANNER_COUNTERS.last_strategy)
        self.fingerprints[shape.name].append(
            (kind, self.checker.fingerprint(out))
        )
        return out if keep else None

    def _planned(self, shape: Shape, x: np.ndarray) -> None:
        """One planned call, timed; then, untimed, the references that
        normalise it: a copy of the input into its output buffer and a
        host-speed probe (averaged with the one before the call)."""
        out = self._timed(shape, "planned", lambda: planned(shape, x),
                          keep=True)
        if out is None:
            return
        t0 = now()
        np.copyto(out, x)
        copy_s = now() - t0
        del out
        probe = probe_seconds()
        if shape.bound == "memory":
            scale = memcpy_scale(x.nbytes, copy_s)
        else:
            scale = host_scale(0.5 * (self.probe + probe))
        self.probe = probe
        self.normalised[shape.name].append(
            self.times[shape.name]["planned"][-1] * scale)

    def _traced(self, shape: Shape, x: np.ndarray) -> None:
        def call():
            with self.tracer.recording(f"bulk.{shape.name}"):
                return planned(shape, x)

        self._timed(shape, "traced", call)

    def _baselines(self, shape: Shape, x: np.ndarray, threads: List[int]):
        """Same-run references on the same array: pinned host, each
        pinned threaded candidate, and ``np.copyto`` (the memcpy
        ceiling) into the last baseline's output buffer."""
        runs = [("host", lambda: pinned_host(shape, x))] + [
            (f"threaded:{t}", functools.partial(pinned_threaded, shape, x, t))
            for t in threads
        ]
        dest = None
        for kind, fn in runs:
            dest = None  # one output alive at a time
            dest = self._timed(shape, kind, fn, keep=True)
        if dest is not None:
            t0 = now()
            np.copyto(dest, x)
            self.times[shape.name].setdefault("copy", []).append(now() - t0)

    # -- the run -----------------------------------------------------------

    def run(self) -> int:
        args, result = self.args, self.result
        machine = machine_record()
        int_bytes = min(MAX_INT_BYTES, LLC_MULTIPLE * machine["llc_bytes"])
        int_bytes -= int_bytes % 32
        result.record.update(machine=machine, sizes={
            "int64_bytes": int_bytes, "llc_bytes": machine["llc_bytes"],
            "int64_over_llc": int_bytes / machine["llc_bytes"],
            "comp_f64_bytes": COMP_BYTES,
        })
        setups = setup_probe("bulk_inmem", self.workdir)
        inputs = make_inputs(args.seed, int_bytes)
        arrays = {s.name: inputs[s.dtype] for s in SHAPES}

        # Warm-up, untimed: kernel tuning and planner calibration settle.
        for _ in range(2):
            for shape in SHAPES:
                planned(shape, arrays[shape.name])
        threads = {
            s.name: threaded_candidates(s, arrays[s.name]) for s in SHAPES
        }
        if self.tracer is not None:
            self.tracer.install()

        from repro.plan import PLANNER_COUNTERS

        counters0 = PLANNER_COUNTERS.to_dict()
        self.probe = probe_seconds()
        start = now()
        rounds = 0
        while True:
            for shape in SHAPES:
                x = arrays[shape.name]
                self._planned(shape, x)
                if self.tracer is not None:
                    self._traced(shape, x)
                    self._baselines(shape, x, threads[shape.name])
            rounds += 1
            if now() - start >= args.seconds:
                break
        counters1 = PLANNER_COUNTERS.to_dict()
        peak_mb = peak_rss_mb()
        if self.tracer is not None:
            self.tracer.restore()

        self._check(arrays)
        self.checker.close()
        result.record.update(
            rounds=rounds, threaded_candidates=threads,
            planner_strategy={
                k: sorted(v) for k, v in self.strategies.items()},
            planner_counters={"before": counters0, "after": counters1},
            times_s=self.times, normalised_s=self.normalised, setup=setups,
        )
        if self.tracer is None:
            self._end_to_end(arrays, setups, peak_mb)
        else:
            self._per_layer(arrays, setups, counters0, counters1, rounds)
        return result.finish()

    def _check(self, arrays) -> None:
        """Compare every output with the serial host-path oracle (the
        host compensated scan for the float shape)."""
        for shape in SHAPES:
            oracle = self.checker.fingerprint(
                pinned_host(shape, arrays[shape.name])
            )
            for kind, fp in self.fingerprints[shape.name]:
                self.result.op(fp == oracle,
                               f"{shape.name} {kind}: output differs from "
                               f"the host-path oracle")

    def _end_to_end(self, arrays, setups, peak_mb: float) -> None:
        r = self.result
        r.set("setup_s", median([s["import_s"] + s["first_call_s"]
                                 for s in setups]))
        r.set("peak_rss_mb", peak_mb)
        r.set("ok_frac", 1.0 - r.failed / max(1, r.attempted))
        seconds = 0.0
        total_bytes = 0
        for shape in SHAPES:
            secs = self.normalised[shape.name]
            nbytes = arrays[shape.name].nbytes
            seconds += sum(secs)
            total_bytes += nbytes * len(secs)
            r.set(f"{shape.name}_mb_s", nbytes / 1e6 / median(secs))
        r.set("throughput_mb_s", total_bytes / 1e6 / seconds)
        # Call latency of the plain order-1 prefix sum: pooling the three
        # shapes would put the tail percentile in whichever shape's
        # cluster the run's call count happens to reach.
        calls = self.normalised[SHAPES[0].name]
        value, pct, n = tail(calls)
        r.set("latency_p50_ms", median(calls) * 1e3)
        r.set("latency_tail_ms", value * 1e3)
        r.record["latency_tail"] = {"shape": SHAPES[0].name,
                                    "percentile": pct, "samples": n}

    def _per_layer(self, arrays, setups, counters0, counters1, rounds):
        from layers import fill_not_applicable, report_spans
        from tracer import as_dicts

        r = self.result
        spans = as_dicts(self.tracer.spans)
        traced_ops = sum(len(self.times[s.name].get("traced", []))
                         for s in SHAPES)
        report_spans(r, spans, traced_ops, "bulk_inmem", self.tracer.missing)
        r.set("plan.tiny_shortcuts",
              (counters1["tiny_shortcuts"] - counters0["tiny_shortcuts"])
              / max(1, 2 * traced_ops))
        predicted: Dict[str, list] = {s.name: [] for s in SHAPES}
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] == "plan.plan_scan" and span["note"]:
                root = by_id.get(span["root"], {}).get("name", "")
                shape = root.partition(".")[2]
                if shape in predicted:
                    predicted[shape].append(span["note"]["predicted_s"])
        for shape in SHAPES:
            t = {k: median(v) for k, v in self.times[shape.name].items()}
            best_pinned = min(
                v for k, v in t.items() if k == "host" or k.startswith("thr")
            )
            threaded = [v for k, v in t.items() if k.startswith("threaded:")]
            r.set(f"plan.vs_best.{shape.name}", t["planned"] / best_pinned)
            r.set(f"plan.predict_ratio.{shape.name}",
                  median(predicted[shape.name]) / t["planned"]
                  if predicted[shape.name] else 0.0)
            r.set(f"kernels.frac_of_memcpy.{shape.name}",
                  t["copy"] / t["planned"])
            r.set(f"kernels.vs_serial.{shape.name}",
                  t["host"] / min(threaded) if threaded else 1.0)
        r.set("setup.import_s", median([s["import_s"] for s in setups]))
        r.set("setup.first_call_s", median([s["first_call_s"]
                                            for s in setups]))
        untraced = sum(sum(self.times[s.name].get("planned", []))
                       for s in SHAPES)
        traced = sum(sum(self.times[s.name].get("traced", []))
                     for s in SHAPES)
        r.set("trace.overhead_frac", (traced - untraced) / untraced)
        fill_not_applicable(r, "bulk_inmem")

