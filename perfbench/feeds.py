"""``serve_feeds``: a served scan daemon under a multiplexed feed load.

Why this workload: ``serve`` framing, queueing and batched dispatch do
the work here; kernels only ever see KiB-sized chunks.  The daemon
(``python -m repro serve --unix ... --checkpoint ...``) runs in its own
process.  The load comes from this one asyncio process over at most
two connections (never more than the CPUs), multiplexing 32 sessions
of three kinds: int64 order 1, int64 order 2 with s=2 (the fused
path), and float64 compensated.  Chunks are 1 KiB, one in sixteen is
16 KiB.

Two phases:

* open loop at a fixed offered rate (:data:`OFFERED_RATE`, about half
  the capacity measured at seed on a 2-CPU host).  Each feed's latency
  is timed from when it was due, and the generator's own lateness is
  reported.  Its latency feeds ``serve.queue_wait_ms`` and the record;
  it is not an end-to-end figure, because on this shared host it swung
  by half between runs minutes apart (host scheduling, not the daemon);
* closed loop with :data:`WINDOW` feeds in flight per session: the
  capacity phase, run as one-second rounds.  ``throughput_mb_s`` is
  the median over its rounds, and ``latency_p50_ms``/``latency_tail_ms``
  are its per-feed round trips.  Both are normalised to the nominal
  host speed by the median of interpreter probes, one after each round
  once its feeds have drained, so a host of another speed reads on the
  same scale (on the 2-vCPU reference host the probe does not follow
  the second-to-minute drift of the daemon's capacity: normalised and
  raw figures spread alike across runs).  No probe runs while feeds
  are in flight, so a probe never stalls reply handling inside a
  measured round.

At seed on a multicore host ``serve.batched_frac`` reads 0: serve OPEN
plans ``threads="auto"`` for every session, and sessions with threads
never take the batched dispatch path (a known defect).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from harness import (
    BENCH_DIR, SETUP_REPS, BenchError, Result, hermetic_env,
    host_scale, machine_record, median, now, probe_seconds, setup_probe,
    spans_path, tail,
)

#: Open-loop offered rate (feeds/s), frozen at about half the capacity
#: measured at seed on a 2-CPU host.
OFFERED_RATE = 4000.0

#: Feeds between the daemon's registry checkpoints (each an atomic,
#: fsynced write; one every four seconds at the offered rate).  At the
#: daemon's default of 256, fsync stalls on the shared disk (p50 0.1 ms,
#: p90 4 ms here) set the open-loop latency and its tail, and tripled
#: their run-to-run spread; the cost of a save is still measured by
#: ``serve.ckpt_ms``.
CHECKPOINT_EVERY = 16384

#: Share of the run's seconds given to the open-loop phase (the rest is
#: the capacity phase, whose one-second slices need the larger share).
OPEN_SHARE = 0.4

#: Untimed closed-loop warm-up before the measured phases (seconds).
WARMUP_S = 1.0

#: Length of one closed-loop round (seconds).  Between rounds the load
#: stops and drains, then a host-speed probe runs (it blocks the load
#: generator for about 30 ms, so it never overlaps a measured round).
ROUND_S = 1.0

#: Feeds in flight per session in the closed-loop phase.
WINDOW = 2

SESSIONS = 32
SMALL_BYTES = 1 << 10
LARGE_BYTES = 16 << 10
LARGE_EVERY = 16
POOL = 64
BUSY_RETRIES = 64
BUSY_BACKOFF = 0.005


@dataclass(frozen=True)
class Kind:
    cls: str
    dtype: str
    order: int
    tuple_size: int
    float_mode: Optional[str] = None

    def open_args(self) -> dict:
        args = {"dtype": self.dtype, "order": self.order,
                "tuple_size": self.tuple_size}
        if self.float_mode:
            args["float_mode"] = self.float_mode
        return args


KINDS = (
    Kind("order1_i64", "int64", 1, 1),
    Kind("fused_i64", "int64", 2, 2),
    Kind("comp_f64", "float64", 1, 1, "compensated"),
)


class Session:
    __slots__ = ("name", "kind", "conn", "feeds", "broken", "rng")

    def __init__(self, name, kind, conn, rng):
        self.name, self.kind, self.conn, self.rng = name, kind, conn, rng
        self.feeds: List["Feed"] = []
        self.broken = False


class Feed:
    __slots__ = ("seq", "session", "payload", "due", "sent", "done", "crc",
                 "busy", "failed")

    def __init__(self, seq, session, payload, due):
        self.seq, self.session, self.payload = seq, session, payload
        self.due = due
        self.sent = self.done = None
        self.crc = None
        self.busy = 0
        self.failed = None


class Payloads:
    """Seeded chunk pools per kind: POOL small and POOL/8 large chunks."""

    def __init__(self, seed: int):
        self.pools: Dict[str, tuple] = {}
        for i, kind in enumerate(KINDS):
            rng = np.random.default_rng([seed, 1000 + i])
            item = np.dtype(kind.dtype).itemsize

            def make(nbytes, count):
                n = nbytes // item
                if kind.dtype == "float64":
                    return [(rng.standard_normal(n) * 1e6).tobytes()
                            for _ in range(count)]
                return [rng.integers(-(1 << 40), 1 << 40, size=n,
                                     dtype=np.int64).tobytes()
                        for _ in range(count)]

            self.pools[kind.cls] = (make(SMALL_BYTES, POOL),
                                    make(LARGE_BYTES, POOL // 8))

    def pick(self, kind: Kind, rng) -> bytes:
        small, large = self.pools[kind.cls]
        if rng.integers(LARGE_EVERY) == 0:
            return large[rng.integers(len(large))]
        return small[rng.integers(len(small))]


class Conn:
    """One connection: pipelined FEEDs, replies matched by id, and the
    server's BUSY latch honoured (drain, then resend in order with the
    retry flag)."""

    def __init__(self, load: "Load", reader, writer):
        self.load, self.reader, self.writer = load, reader, writer
        self.next_id = 0
        self.inflight: Dict[int, Feed] = {}
        self.control: Dict[int, asyncio.Future] = {}
        self.backlog: deque = deque()
        self.rejected: List[Feed] = []
        self.latched = False
        self.task = asyncio.ensure_future(self._read_loop())

    def _write(self, verb, header, payload=b"") -> int:
        from repro.serve import protocol

        self.next_id += 1
        header["id"] = self.next_id
        self.writer.write(protocol.encode_frame(verb, header, payload))
        return self.next_id

    async def request(self, verb, header, payload=b"") -> tuple:
        rid = self._write(verb, dict(header), payload)
        fut = asyncio.get_running_loop().create_future()
        self.control[rid] = fut
        return await fut

    def submit(self, feed: Feed) -> None:
        if feed.session.broken:
            self.load.fail(feed, "session broken by an earlier failure")
        elif self.latched or self.backlog:
            self.backlog.append(feed)
        else:
            self._send(feed)

    def _send(self, feed: Feed, retry: bool = False) -> None:
        from repro.serve import protocol

        header = {"session": feed.session.name,
                  "dtype": feed.session.kind.dtype}
        if retry:
            header["retry"] = True
        if feed.sent is None:
            feed.sent = now()
        self.inflight[self._write(protocol.FEED, header, feed.payload)] = feed

    async def _read_loop(self) -> None:
        from repro.serve import protocol

        while True:
            frame = await protocol.read_frame(self.reader)
            if frame is None:
                return
            self._on_reply(*frame)

    def _on_reply(self, verb, header, payload) -> None:
        from repro.serve import protocol

        rid = header.get("id")
        fut = self.control.pop(rid, None)
        if fut is not None:
            fut.set_result((verb, header, payload))
            return
        feed = self.inflight.pop(rid)
        if verb == protocol.DATA:
            feed.done = now()
            feed.crc = zlib.crc32(payload)
            self.load.completed(feed)
        elif verb == protocol.BUSY:
            self.latched = True
            feed.busy += 1
            self.load.busy_replies += 1
            self.rejected.append(feed)
        else:
            self.load.fail(feed, f"ERROR reply: {header}")
        if self.latched and not self.inflight and self.rejected:
            # Drained: resend from the first rejected feed, after a
            # backoff, with the retry flag that clears the latch.
            self.rejected.sort(key=lambda f: f.seq)
            asyncio.get_running_loop().call_later(
                BUSY_BACKOFF * self.rejected[0].busy, self._resend)

    def _resend(self) -> None:
        pending = self.rejected + list(self.backlog)
        self.rejected, self.backlog = [], deque()
        self.latched = False
        first = True
        for feed in pending:
            if feed.busy > BUSY_RETRIES:
                self.load.fail(feed, "BUSY after every retry")
            elif feed.session.broken:
                self.load.fail(feed, "session broken by an earlier failure")
            elif self.latched:
                self.backlog.append(feed)
            else:
                self._send(feed, retry=first)
                first = False

    def idle(self) -> bool:
        return not (self.inflight or self.backlog or self.rejected)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


class Load:
    """The load generator: sessions over connections, both phases."""

    def __init__(self, seed: int, sock: str, connections: int):
        self.seed, self.sock, self.connections = seed, sock, connections
        self.payloads = Payloads(seed)
        self.sessions: List[Session] = []
        self.conns: List[Conn] = []
        self.seq = 0
        self.busy_replies = 0
        self.failures: List[str] = []
        #: While false, each answered closed-loop feed sends the next.
        self.closing = True
        #: Feeds of the phase being run.
        self.current: List[Feed] = []

    async def connect(self) -> None:
        for _ in range(self.connections):
            reader, writer = await asyncio.open_unix_connection(self.sock)
            self.conns.append(Conn(self, reader, writer))

    async def open_sessions(self) -> None:
        from repro.serve import protocol

        for i in range(SESSIONS):
            kind = KINDS[i % len(KINDS)]
            conn = self.conns[i % len(self.conns)]
            session = Session(f"s{i:02d}", kind, conn,
                              np.random.default_rng([self.seed, i]))
            verb, header, _ = await conn.request(
                protocol.OPEN, {"session": session.name, **kind.open_args()})
            if verb != protocol.OK:
                raise BenchError(f"OPEN {session.name} failed: {header}")
            self.sessions.append(session)

    async def stats(self) -> dict:
        from repro.serve import protocol

        _, header, _ = await self.conns[0].request(protocol.STATS, {})
        return header

    def new_feed(self, session: Session, due: float) -> Feed:
        self.seq += 1
        feed = Feed(self.seq, session,
                    self.payloads.pick(session.kind, session.rng), due)
        session.feeds.append(feed)
        self.current.append(feed)
        return feed

    def completed(self, feed: Feed) -> None:
        if not self.closing:
            session = feed.session
            session.conn.submit(self.new_feed(session, now()))

    def fail(self, feed: Feed, why: str) -> None:
        feed.failed = why
        feed.session.broken = True
        if len(self.failures) < 20:
            self.failures.append(f"{feed.session.name} #{feed.seq}: {why}")

    async def drain(self, timeout: float = 60.0) -> None:
        deadline = now() + timeout
        while not all(c.idle() for c in self.conns):
            if now() > deadline:
                raise BenchError("feeds still outstanding after the phase")
            await asyncio.sleep(0.002)

    async def flush(self) -> None:
        for conn in self.conns:
            await conn.writer.drain()

    async def open_loop(self, seconds: float, rate: float) -> List[Feed]:
        """Offer feeds at ``rate`` regardless of replies, for the whole
        phase; sessions are chosen by a seeded schedule."""
        self.closing = True
        self.current = []
        rng = np.random.default_rng([self.seed, 7])
        count = int(seconds * rate)
        order = rng.integers(len(self.sessions), size=count)
        t0 = now() + 0.001
        i = 0
        while i < count:
            t = now()
            while i < count and t0 + i / rate <= t:
                session = self.sessions[order[i]]
                session.conn.submit(self.new_feed(session, t0 + i / rate))
                i += 1
            await self.flush()
            if i < count:
                await asyncio.sleep(max(0.0, t0 + i / rate - now()))
        await self.drain()
        feeds, self.current = self.current, []
        return feeds

    async def closed_loop(self, seconds: float) -> tuple:
        """``WINDOW`` feeds in flight per session, in rounds of
        :data:`ROUND_S`: each answer sends the session's next feed until
        the round ends; then the round drains and a host-speed probe
        runs with nothing in flight.  Returns (rounds, probe seconds),
        each round a (start time, feeds) pair."""
        rounds, probes = [], []
        for _ in range(max(1, round(seconds / ROUND_S))):
            self.current = []
            self.closing = False
            start = now()
            for session in self.sessions:
                for _ in range(WINDOW):
                    session.conn.submit(self.new_feed(session, now()))
            await asyncio.sleep(max(0.0, start + ROUND_S - now()))
            self.closing = True
            await self.drain()
            rounds.append((start, self.current))
            self.current = []
            probes.append(probe_seconds(repeats=3))
        return rounds, probes

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()


# -- the server process ----------------------------------------------------


class Server:
    """``python -m repro serve`` in its own process (optionally under the
    benchmark's tracing launcher)."""

    def __init__(self, folder: str, cache: str, spans: Optional[str] = None):
        self.folder = folder
        self.sock = os.path.relpath(os.path.join(folder, "s.sock"))
        argv = ["serve", "--unix", "s.sock", "--checkpoint", "registry.json",
                "--checkpoint-every", str(CHECKPOINT_EVERY)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py"),
                   spans, *argv]
        self.log = open(os.path.join(folder, "server.log"), "wb")
        self.started = now()
        self.proc = subprocess.Popen(cmd, cwd=folder, env=hermetic_env(cache),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.rusage = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the socket accepts a connection."""
        import socket

        deadline = self.started + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early: {self.tail_log()}")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.sock)
                return now() - self.started
            except OSError:
                if now() > deadline:
                    raise BenchError("server did not start accepting")
                time.sleep(0.002)
            finally:
                probe.close()

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (the daemon stops cleanly and flushes its checkpoint)
        and reap it, keeping its resource usage (peak RSS)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = now() + timeout
            while now() < deadline:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.rusage = rusage
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                time.sleep(0.01)
            else:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def tail_log(self) -> str:
        self.log.flush()
        with open(os.path.join(self.folder, "server.log"), "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")


def connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


async def _first_calls(sock: str) -> float:
    """Set-up's first calls on a fresh server: one OPEN and one FEED
    per session kind, each a full round trip."""
    from repro.serve import protocol

    load = Load(0, sock, 1)
    t0 = now()
    await load.connect()
    conn = load.conns[0]
    for i, kind in enumerate(KINDS):
        name = f"first{i}"
        await conn.request(protocol.OPEN, {"session": name,
                                           **kind.open_args()})
        verb, header, _ = await conn.request(
            protocol.FEED, {"session": name, "dtype": kind.dtype},
            load.payloads.pools[kind.cls][0][0])
        if verb != protocol.DATA:
            raise BenchError(f"first FEED failed: {header}")
    elapsed = now() - t0
    await load.close()
    return elapsed


def _replay(sessions: List[Session]) -> tuple:
    """Replay every session's answered feeds through a local
    ``ScanSession`` (the oracle) and compare reply fingerprints."""
    from repro.stream import ScanSession

    ok = bad = 0
    for session in sessions:
        kind = session.kind
        local = ScanSession(order=kind.order, tuple_size=kind.tuple_size,
                            dtype=kind.dtype, float_mode=kind.float_mode)
        for feed in session.feeds:
            if feed.crc is None:
                break  # failed or never answered: the stream ends here
            expected = local.feed(np.frombuffer(feed.payload,
                                                dtype=kind.dtype))
            if zlib.crc32(np.ascontiguousarray(expected)) == feed.crc:
                ok += 1
            else:
                bad += 1
                feed.failed = "reply differs from the local replay"
    return ok, bad


class Feeds:
    def __init__(self, args, result: Result, workdir, traced: bool):
        self.args, self.result, self.workdir = args, result, workdir
        self.traced = traced
        self.sessions: List[Session] = []

    def _start(self, spans: Optional[str] = None) -> Server:
        folder = self.workdir.fresh("server")
        server = Server(folder, self.workdir.sub("cache"), spans)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def _setup(self) -> List[dict]:
        """Server start until it accepts, plus the first calls, each on
        a fresh server with fresh caches (one untimed run first);
        host-normalised by a probe timed just before the spawn."""
        samples = []
        for rep in range(SETUP_REPS + 1):
            folder = self.workdir.fresh("setup")
            probe = probe_seconds()
            server = Server(folder, folder)
            try:
                start_s = server.wait_ready()
                first_s = asyncio.run(_first_calls(server.sock))
            finally:
                server.stop()
            if rep:
                scale = host_scale(probe)
                samples.append({"server_start_s": start_s * scale,
                                "first_call_s": first_s * scale,
                                "raw_s": [start_s, first_s],
                                "probe_s": probe})
        return samples

    async def _drive(self, server: Server, phases) -> dict:
        load = Load(self.args.seed, server.sock, connections())
        out = {}
        try:
            await load.connect()
            await load.open_sessions()
            # Warm-up, untimed (its feeds are still checked): the
            # daemon, its caches and the host settle before measuring.
            await load.closed_loop(WARMUP_S)
            for name, seconds in phases:
                if name == "open":
                    out["open"] = await load.open_loop(seconds, OFFERED_RATE)
                else:
                    out["closed"] = await load.closed_loop(seconds)
                stats = await load.stats()
                out[f"stats_{name}"] = stats["gauges"]
                out["planner_strategy"] = sorted({
                    v["counters"]["planner_strategy"] or "unplanned"
                    for v in stats["sessions"].values()})
        finally:
            out["busy_replies"] = load.busy_replies
            out["failures"] = load.failures
            self.sessions += load.sessions
            await load.close()
        return out

    def _phase_run(self, phases, spans: Optional[str] = None) -> dict:
        server = self._start(spans)
        try:
            out = asyncio.run(self._drive(server, phases))
        finally:
            server.stop()
        if server.proc.returncode not in (0, None):
            raise BenchError(f"server exited {server.proc.returncode}: "
                             f"{server.tail_log()}")
        out["peak_rss_mb"] = (server.rusage.ru_maxrss * 1024 / 1e6
                              if server.rusage else 0.0)
        return out

    def run(self) -> int:
        args, result = self.args, self.result
        result.record["machine"] = machine_record()
        result.record["load"] = {
            "sessions": SESSIONS, "connections": connections(),
            "kinds": [k.__dict__ for k in KINDS],
            "offered_rate": OFFERED_RATE, "window": WINDOW,
            "chunk_bytes": [SMALL_BYTES, LARGE_BYTES],
            "large_every": LARGE_EVERY,
        }
        setups = self._setup()
        result.record["setup"] = setups
        if not self.traced:
            open_s = OPEN_SHARE * args.seconds
            main = self._phase_run([("open", open_s),
                                    ("closed", args.seconds - open_s)])
            self._check()
            self._end_to_end(main, setups)
        else:
            third = args.seconds / 3
            plain = self._phase_run([("closed", third)])
            spans = spans_path("serve_feeds")
            traced = self._phase_run([("open", third), ("closed", third)],
                                     spans=spans)
            self._check()
            self._per_layer(plain, traced, spans, setups)
        return result.finish()

    def _check(self) -> None:
        ok, bad = _replay(self.sessions)
        r = self.result
        failed = [f for s in self.sessions for f in s.feeds
                  if f.failed is not None]
        for _ in range(ok):
            r.op(True)
        for feed in failed:
            r.op(False, f"{feed.session.name} #{feed.seq}: {feed.failed}")

    @staticmethod
    def _capacity(closed) -> dict:
        """Closed-loop capacity: feeds and logical MB answered within
        each round (its drain left out), the median over the phase's
        rounds (so one stall of the host moves one round, not the run's
        figure), normalised by the median of the probes taken between
        the rounds."""
        rounds, probes = closed
        rows = []
        for start, feeds in rounds:
            row = {k.cls: 0 for k in KINDS}
            row["feeds"] = 0
            for f in feeds:
                if f.crc is not None and f.done < start + ROUND_S:
                    row[f.session.kind.cls] += len(f.payload)
                    row["feeds"] += 1
            rows.append(row)
        probe = median(probes)
        rate = 1.0 / (ROUND_S * host_scale(probe))  # per normalised second
        feeds = median([row["feeds"] for row in rows])
        return {
            "feeds_s": feeds * rate,
            "mb_s": median([sum(row[k.cls] for k in KINDS) / 1e6
                            for row in rows]) * rate,
            "class_mb_s": {k.cls: median([row[k.cls] / 1e6
                                          for row in rows]) * rate
                           for k in KINDS},
            "raw_feeds_s": feeds / ROUND_S,
            "probe_s": probe,
            "round_feeds": [row["feeds"] for row in rows],
            "probes_s": probes,
            "rounds": len(rows),
        }

    @staticmethod
    def _latencies(feeds: List[Feed], scale: float = 1.0,
                   windows: Optional[List[List[Feed]]] = None) -> dict:
        """Per-feed latency from each feed's due time (its send time in
        the closed loop), times ``scale``, and the generator's lateness.
        The p50 is pooled over the phase; the tail is taken per window
        (``windows``, or one-second windows of due times) and is the
        median over windows, so one rare stall moves one window rather
        than the run's figure."""
        latency = [(f.done - f.due) * scale for f in feeds
                   if f.crc is not None]
        late = [f.sent - f.due for f in feeds if f.sent is not None]
        if windows is None:
            t0 = feeds[0].due
            by_second: Dict[int, list] = {}
            for f in feeds:
                by_second.setdefault(int(f.due - t0), []).append(f)
            windows = list(by_second.values())
        tails = [tail([(f.done - f.due) * scale for f in w
                       if f.crc is not None]) for w in windows]
        return {"p50_s": median(latency),
                "tail_s": median([t[0] for t in tails]),
                "tail_percentile": median([t[1] for t in tails]),
                "samples_per_window": median([t[2] for t in tails]),
                "windows": len(tails),
                "late_p50_s": median(late), "late_tail_s": tail(late)[0]}

    def _end_to_end(self, main: dict, setups) -> None:
        r = self.result
        r.set("setup_s", median([s["server_start_s"] + s["first_call_s"]
                                 for s in setups]))
        r.set("peak_rss_mb", main["peak_rss_mb"])
        r.set("ok_frac", 1.0 - r.failed / max(1, r.attempted))
        cap = self._capacity(main["closed"])
        r.set("throughput_mb_s", cap["mb_s"])
        for cls, value in cap["class_mb_s"].items():
            r.set(f"{cls}_mb_s", value)
        # Feed latency in the capacity phase (normalised like capacity):
        # on this shared host the open loop's latency swung by half
        # between runs minutes apart, so it is recorded, not bounded.
        rounds = [feeds for _, feeds in main["closed"][0]]
        lat = self._latencies([f for w in rounds for f in w],
                              host_scale(cap["probe_s"]), rounds)
        r.set("latency_p50_ms", lat["p50_s"] * 1e3)
        r.set("latency_tail_ms", lat["tail_s"] * 1e3)
        open_lat = self._latencies(main["open"])
        r.record.update(
            latency_tail={"phase": "closed loop",
                          "percentile": lat["tail_percentile"],
                          "samples_per_window": lat["samples_per_window"],
                          "windows": lat["windows"],
                          "definition": "median over 1 s rounds"},
            open_loop_latency_ms={
                "offered_rate": OFFERED_RATE,
                "p50": open_lat["p50_s"] * 1e3,
                "tail": open_lat["tail_s"] * 1e3,
                "tail_percentile": open_lat["tail_percentile"]},
            capacity=cap,
            generator_late_ms={"p50": open_lat["late_p50_s"] * 1e3,
                               "tail": open_lat["late_tail_s"] * 1e3},
            gauges={"open": main["stats_open"],
                    "closed": main["stats_closed"]},
            busy_replies=main["busy_replies"],
            planner_strategy=main["planner_strategy"],
        )

    def _per_layer(self, plain, traced, spans_path, setups) -> None:
        from layers import BATCHED, fill_not_applicable, report_spans
        from tracer import load_spans

        r = self.result
        spans, missing = load_spans(spans_path)
        gauges = traced["stats_closed"]
        feeds = gauges["feeds_dispatched"]
        report_spans(r, spans, feeds, "serve_feeds", missing,
                     serve_feeds=feeds)
        if gauges["batch_dispatches"] and not any(
            r.record["span_calls"].get(name) for name in BATCHED
        ):
            r.error("the daemon made batched dispatches but no batched "
                    "kernel stage was traced")
        dispatches = gauges["batch_dispatches"] + gauges["solo_dispatches"]
        r.set("serve.batched_frac",
              gauges["batch_dispatches"] / max(1, dispatches))
        r.set("serve.batch_occupancy", gauges["batch_occupancy"])
        r.set("serve.busy_rejections", gauges["busy_rejections"])
        r.set("serve.max_queue_depth", gauges["max_queue_depth"])
        lat = self._latencies(traced["open"])
        r.set("serve.gen_late_ms", lat["late_tail_s"] * 1e3)
        r.set("serve.queue_wait_ms",
              lat["p50_s"] * 1e3 - r.metrics["serve.dispatch_ms"]
              - 2 * r.metrics["serve.frame_us"] / 1e3)
        r.record["serve.queue_wait_ms"] = (
            "derived: traced open-loop latency p50 minus dispatch per feed "
            "minus two frames")
        for name in ("read_s", "scan_s", "write_s", "ckpt_s", "splice_s",
                     "fold_s", "reread_ratio"):
            r.na(f"stream.{name}", "served sessions have no file phases")
        imports = setup_probe("import", self.workdir)
        r.set("setup.import_s", median([s["import_s"] for s in imports]))
        r.set("setup.first_call_s",
              median([s["first_call_s"] for s in setups]))
        r.set("setup.server_start_s",
              median([s["server_start_s"] for s in setups]))
        cap_plain = self._capacity(plain["closed"])["feeds_s"]
        cap_traced = self._capacity(traced["closed"])["feeds_s"]
        r.set("trace.overhead_frac", cap_plain / cap_traced - 1.0)
        r.record.update(gauges=gauges, capacity_feeds_s={
            "untraced": cap_plain, "traced": cap_traced})
        fill_not_applicable(r, "serve_feeds")
