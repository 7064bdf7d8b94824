"""``file_jobs``: a fixed, sequential list of planned ``repro.scan_file``
jobs, repeated for the run's duration.

Why this workload: ``stream`` and ``compression`` do the work here.
The list holds one large raw int64 order-1 job with a checkpoint, one
raw int64 order-3 s=4 job (fused single pass), one raw float64
compensated job, one blocked ``.samb`` input job (order 2; the input
is built untimed beforehand with the repository's own compressor), one
raw-to-blocked-output job, and many small 1 MiB raw int64 jobs.  The
small jobs are where planning and synchronous calibration persistence
are a visible share (at seed ``plan.observe_ms`` is a visible part of
the small-job ``latency_p50_ms``); decode (the blocked input) sits
beside encode (the blocked output), so a codec change that helps one
direction and costs the other shows.
"""

from __future__ import annotations

import contextlib
import os
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro
from harness import (
    Result, host_scale, machine_record, median, now, peak_rss_mb,
    probe_seconds, setup_probe, tail,
)

MIB = 1 << 20
PIECE = 8 * MIB
SMALL_JOBS = 32


@dataclass
class Job:
    name: str
    cls: str
    dtype: str
    elements: int
    kwargs: dict
    make: object  # rng -> ndarray of ``elements`` input values
    blocked_input: bool = False
    input: str = ""
    output: str = ""
    fingerprints: List[tuple] = field(default_factory=list)

    @property
    def logical_bytes(self) -> int:
        return self.elements * np.dtype(self.dtype).itemsize

    @property
    def blocked_output(self) -> bool:
        return self.kwargs.get("output_format") == "blocked"

    def oracle_kwargs(self) -> dict:
        kw = {k: self.kwargs[k] for k in ("order", "tuple_size", "float_mode")
              if k in self.kwargs}
        return kw


def _uniform(n):
    return lambda rng: rng.integers(-(1 << 40), 1 << 40, size=n,
                                    dtype=np.int64)


def _smooth(n):
    """An order-2 smooth series: its order-2 deltas are in [-3, 3], so
    the blocked codec compresses it about 8x."""
    def make(rng):
        steps = rng.integers(-3, 4, size=n, dtype=np.int64)
        return np.cumsum(np.cumsum(steps))
    return make


def _steps(n):
    """Small steps whose order-1 scan is a smooth series (compressible
    scan output for the blocked-output job)."""
    return lambda rng: rng.integers(-3, 4, size=n, dtype=np.int64)


def _normal(n):
    return lambda rng: rng.standard_normal(n) * 1e6


def job_list() -> List[Job]:
    i64 = 8
    jobs = [
        Job("big_order1", "order1_i64", "int64", 192 * MIB // i64,
            {"dtype": "int64", "checkpoint": True},
            _uniform(192 * MIB // i64)),
        Job("raw_order3", "fused_i64", "int64", 64 * MIB // i64,
            {"dtype": "int64", "order": 3, "tuple_size": 4},
            _uniform(64 * MIB // i64)),
        Job("comp_f64", "comp_f64", "float64", 16 * MIB // 8,
            {"dtype": "float64", "float_mode": "compensated"},
            _normal(16 * MIB // 8)),
        Job("samb_order2", "compressed", "int64", 16 * MIB // i64,
            {"dtype": "int64", "order": 2}, _smooth(16 * MIB // i64),
            blocked_input=True),
        Job("to_blocked", "compressed", "int64", 8 * MIB // i64,
            {"dtype": "int64", "output_format": "blocked"},
            _steps(8 * MIB // i64)),
    ]
    jobs += [
        Job(f"small{i:02d}", "small", "int64", MIB // i64,
            {"dtype": "int64"}, _uniform(MIB // i64))
        for i in range(SMALL_JOBS)
    ]
    return jobs


def job_input(job: Job, seed: int, index: int) -> np.ndarray:
    return job.make(np.random.default_rng([seed, index]))


def build_inputs(jobs: List[Job], seed: int, folder: str) -> Dict[str, float]:
    """Write every job's input (untimed).  The blocked input is encoded
    by the repository's own blocked-container writer."""
    from repro.compression import BlockedStreamWriter

    ratios = {}
    for index, job in enumerate(jobs):
        values = job_input(job, seed, index)
        suffix = ".samb" if job.blocked_input else ".bin"
        job.input = os.path.join(folder, f"{job.name}.in{suffix}")
        job.output = os.path.join(
            folder, f"{job.name}.out" + (".samb" if job.blocked_output
                                         else ".bin"))
        if job.blocked_input:
            with BlockedStreamWriter(job.input, dtype=values.dtype,
                                     total_count=values.size) as writer:
                for lo in range(0, values.size, PIECE // 8):
                    writer.feed(values[lo:lo + PIECE // 8])
            ratios[job.name] = values.nbytes / os.path.getsize(job.input)
        else:
            values.tofile(job.input)
        if job.kwargs.get("checkpoint") is True:
            job.kwargs["checkpoint"] = os.path.join(folder,
                                                    f"{job.name}.ckpt")
    return ratios


def _crc(pieces) -> tuple:
    crc, size = 0, 0
    for piece in pieces:
        raw = memoryview(np.ascontiguousarray(piece)).cast("B")
        crc = zlib.crc32(raw, crc)
        size += len(raw)
    return (size, crc)


def array_fingerprint(values: np.ndarray) -> tuple:
    step = max(1, PIECE // values.itemsize)
    return _crc(values[lo:lo + step] for lo in range(0, values.size, step))


def output_fingerprint(job: Job) -> tuple:
    """Fingerprint of a job's output file, read back in pieces (the
    blocked container is decoded through the repository's reader)."""
    if job.blocked_output:
        from repro.compression import BlockedFileReader

        with BlockedFileReader(job.output) as reader:
            step = PIECE // reader.dtype.itemsize
            return _crc(reader.read_range(lo, min(lo + step, reader.count))
                        for lo in range(0, reader.count, step))

    def pieces():
        with open(job.output, "rb") as fh:
            while True:
                block = fh.read(PIECE)
                if not block:
                    return
                yield np.frombuffer(block, dtype=np.uint8)

    return _crc(pieces())


class Files:
    def __init__(self, args, result: Result, workdir, tracer=None):
        self.args, self.result, self.workdir = args, result, workdir
        self.tracer = tracer
        self.jobs = job_list()
        #: (round, traced, job, seconds, counters dict)
        self.samples: List[tuple] = []
        self.strategies: Dict[str, set] = {}
        self.tiny: List[int] = []
        #: Round -> host-speed scale (probes before and after the round).
        self.scales: Dict[int, float] = {}

    def _run_job(self, job: Job, rnd: int, traced: bool) -> None:
        recording = (self.tracer.recording(f"file.{job.name}") if traced
                     else contextlib.nullcontext())
        t0 = now()
        try:
            with recording:
                result = repro.scan_file(job.input, job.output, **job.kwargs)
        except Exception:
            self.result.op(False, f"{job.name}: "
                           f"{traceback.format_exc(limit=3)}")
            return
        elapsed = now() - t0
        counters = result.counters
        self.samples.append((rnd, traced, job, elapsed, counters.as_dict()))
        self.strategies.setdefault(job.cls, set()).add(
            counters.planner_strategy or "unplanned")
        job.fingerprints.append(output_fingerprint(job))
        os.remove(job.output)

    def _round(self, rnd: int, traced: bool) -> None:
        from repro.plan import PLANNER_COUNTERS

        tiny0 = PLANNER_COUNTERS.tiny_shortcuts
        for job in self.jobs:
            self._run_job(job, rnd, traced)
        if traced:
            self.tiny.append(PLANNER_COUNTERS.tiny_shortcuts - tiny0)

    def run(self) -> int:
        args, result = self.args, self.result
        result.record["machine"] = machine_record()
        setups = setup_probe("file_jobs", self.workdir)
        folder = self.workdir.sub("files")
        ratios = build_inputs(self.jobs, args.seed, folder)
        result.record["inputs"] = {
            "jobs": [
                {"name": j.name, "class": j.cls, "logical_bytes":
                 j.logical_bytes, "kwargs": j.kwargs} for j in self.jobs
            ],
            "blocked_input_ratio": ratios,
        }
        # Warm-up, untimed: tuning and calibration settle.
        for job in self.jobs:
            repro.scan_file(job.input, job.output, **job.kwargs)
            os.remove(job.output)
        if self.tracer is not None:
            self.tracer.install()
        start = now()
        rnd = 0
        probe = probe_seconds()
        while True:
            self._round(rnd, traced=self.tracer is not None and rnd % 2 == 1)
            after = probe_seconds()
            self.scales[rnd] = host_scale(0.5 * (probe + after))
            probe = after
            rnd += 1
            if now() - start >= args.seconds and (
                self.tracer is None or rnd >= 2
            ):
                break
        peak_mb = peak_rss_mb()
        if self.tracer is not None:
            self.tracer.restore()
        self._check()
        result.record.update(
            rounds=rnd, setup=setups,
            planner_strategy={
                k: sorted(v) for k, v in self.strategies.items()},
        )
        if self.tracer is None:
            self._end_to_end(setups, peak_mb)
        else:
            self._per_layer(setups)
        return result.finish()

    def _check(self) -> None:
        """Compare every job's output with the host-path oracle on the
        same input (the host compensated scan for the float job)."""
        for index, job in enumerate(self.jobs):
            values = job_input(job, self.args.seed, index)
            expected = array_fingerprint(repro.prefix_sum(
                values, engine="host", **job.oracle_kwargs()))
            for fp in job.fingerprints:
                self.result.op(fp == expected, f"{job.name}: output differs "
                               f"from the host-path oracle")

    def _select(self, traced: bool, cls: Optional[str] = None):
        return [s for s in self.samples if s[1] == traced
                and (cls is None or s[2].cls == cls)]

    def _seconds(self, samples) -> List[float]:
        """Host-normalised job seconds (each round's probe scale)."""
        return [s[3] * self.scales[s[0]] for s in samples]

    def _end_to_end(self, setups, peak_mb: float) -> None:
        r = self.result
        r.set("setup_s", median([s["import_s"] + s["first_call_s"]
                                 for s in setups]))
        r.set("peak_rss_mb", peak_mb)
        r.set("ok_frac", 1.0 - r.failed / max(1, r.attempted))
        samples = self._select(False)
        seconds = self._seconds(samples)
        r.set("throughput_mb_s",
              sum(s[2].logical_bytes for s in samples) / 1e6 / sum(seconds))
        value, pct, n = tail(seconds)
        r.set("latency_p50_ms", median(seconds) * 1e3)
        r.set("latency_tail_ms", value * 1e3)
        r.record["latency_tail"] = {"percentile": pct, "samples": n}
        for cls in ("order1_i64", "fused_i64", "comp_f64"):
            picked = self._select(False, cls)
            r.set(f"{cls}_mb_s", picked[0][2].logical_bytes / 1e6
                  / median(self._seconds(picked)))
        r.record["small_job_p50_ms"] = median(
            [s[3] for s in self._select(False, "small")]) * 1e3
        r.record["round_scales"] = self.scales

    def _per_layer(self, setups) -> None:
        from layers import fill_not_applicable, report_spans
        from tracer import as_dicts

        r = self.result
        traced = self._select(True)
        spans = as_dicts(self.tracer.spans)
        report_spans(r, spans, len(traced), "file_jobs", self.tracer.missing)
        r.set("plan.tiny_shortcuts", sum(self.tiny) / max(1, len(traced)))
        small_p50 = median([s[3] for s in traced if s[2].cls == "small"])
        r.record["observe_share_of_small_job_p50"] = (
            r.metrics["plan.observe_ms"] / 1e3 / small_p50)
        rounds = sorted({s[0] for s in traced})

        def per_round(key):
            return median([sum(s[4][key] for s in traced if s[0] == rnd)
                           for rnd in rounds])

        for metric, key in (("read_s", "seconds_read"),
                            ("scan_s", "seconds_scan"),
                            ("write_s", "seconds_write"),
                            ("ckpt_s", "seconds_checkpoint"),
                            ("splice_s", "seconds_splice"),
                            ("fold_s", "seconds_fold")):
            r.set(f"stream.{metric}", per_round(key))
        r.set("stream.reread_ratio", sum(s[4]["bytes_in"] for s in traced)
              / sum(s[2].logical_bytes for s in traced))
        blocked = [s for s in traced if s[2].cls == "compressed"]
        container = sum(s[4]["compressed_bytes_in"]
                        + s[4]["compressed_bytes_out"] for s in blocked)
        r.set("compression.ratio",
              sum(s[2].logical_bytes for s in blocked) / container)
        decoding = [s for s in blocked if s[2].blocked_input]
        r.set("compression.overlap_frac",
              sum(s[4]["overlapped_decodes"] for s in decoding)
              / max(1, sum(s[4]["chunks"] for s in decoding)))
        plain = self._select(False, "compressed")
        r.set("compression.jobs_mb_s",
              sum(s[2].logical_bytes for s in plain) / 1e6
              / sum(self._seconds(plain)))
        r.set("setup.import_s", median([s["import_s"] for s in setups]))
        r.set("setup.first_call_s",
              median([s["first_call_s"] for s in setups]))
        by_id = {s["id"]: s for s in spans}
        job_spans = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] in ("stream.scan_file", "stream.scan_file_sharded")
            and by_id.get(s["parent"], {}).get("layer") == "bench"
        )
        r.record["counters_vs_wrapper"] = (
            sum(s[4]["seconds_total"] for s in traced) / job_spans
            if job_spans else None)
        def round_seconds(samples):
            by_round: Dict[int, float] = {}
            for sample, sec in zip(samples, self._seconds(samples)):
                by_round[sample[0]] = by_round.get(sample[0], 0.0) + sec
            return list(by_round.values())

        untraced_rounds = round_seconds(self._select(False))
        traced_rounds = round_seconds(traced)
        r.set("trace.overhead_frac",
              median(traced_rounds) / median(untraced_rounds) - 1.0)
        fill_not_applicable(r, "file_jobs")
