"""The repository's benchmark: one runner, three workloads.

    python3 perfbench/run.py --workload {bulk_inmem,file_jobs,serve_feeds} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it uses the program in ``src/``.
Inputs are generated from ``--seed``; every output is compared with the
serial oracle outside the timed regions.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or
every per-layer metric (``--trace 1``, a separate run that wraps each
layer's entry points from outside the program).  The line before it
is the run's record: machine, sizes, planner choices, sample counts.
Every run first flips one bit of a real output and checks that each
workload's output check fires (a self-test failure is a run error).
Exit status 1 means a wrong output or a benchmark error.
"""

from __future__ import annotations

import argparse
import os
import sys

import harness

WORKLOADS = ("bulk_inmem", "file_jobs", "serve_feeds")


def self_test() -> list:
    """Flip one bit of a real output and make sure each workload's
    output check fires (and stays quiet on the unflipped output)."""
    import numpy as np

    import repro
    from feeds import KINDS, Session, Feed, _replay
    from files import Job, array_fingerprint, output_fingerprint

    problems = []
    x = np.arange(1, 1 << 14, dtype=np.int64) * 7919 % 1000
    good = repro.prefix_sum(x, engine="host", order=2)
    bad = harness.flip_one_bit(good, index=100, bit=3)

    checker = harness.Checker()
    try:
        oracle = checker.fingerprint(repro.prefix_sum(x, engine="host",
                                                      order=2))
        if checker.fingerprint(good) != oracle:
            problems.append("bulk check rejects a correct output")
        if checker.fingerprint(bad) == oracle:
            problems.append("bulk check misses a flipped bit")
    finally:
        checker.close()

    with harness.Workdir("selftest") as wd:
        from repro.compression import BlockedStreamWriter

        for blocked in (False, True):
            for values, want in ((good, True), (bad, False)):
                job = Job("t", "t", "int64", values.size, {}, None)
                job.output = os.path.join(wd.path, "t.out")
                if blocked:
                    job.kwargs["output_format"] = "blocked"
                    with BlockedStreamWriter(job.output, dtype=np.int64,
                                             total_count=values.size) as w:
                        w.feed(values)
                else:
                    values.tofile(job.output)
                same = output_fingerprint(job) == array_fingerprint(good)
                if same != want:
                    problems.append(f"file check (blocked={blocked}) "
                                    f"{'rejects' if want else 'misses'} "
                                    f"{'a correct' if want else 'a flipped'}"
                                    f" output")

    import zlib

    kind = KINDS[1]
    session = Session("t", kind, None, None)
    chunks = np.array_split(x, 5)
    local = repro.open_session(order=kind.order, tuple_size=kind.tuple_size)
    for i, chunk in enumerate(chunks):
        reply = local.feed(chunk)
        if i == 3:
            reply = harness.flip_one_bit(reply, bit=9)
        feed = Feed(i, session, chunk.tobytes(), 0.0)
        feed.crc = zlib.crc32(np.ascontiguousarray(reply))
        session.feeds.append(feed)
    ok, wrong = _replay([session])
    if (ok, wrong) != (4, 1):
        problems.append(f"serve replay check found {wrong} of 1 flipped "
                        f"replies ({ok} accepted of 4 correct)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.require_program()
    os.chdir(harness.ROOT)

    with harness.Workdir(args.workload) as workdir:
        harness.use_hermetic_env(workdir.sub("cache"))
        problems = self_test()
        result = harness.Result(args.workload, args.seed, bool(args.trace))
        for problem in problems:
            result.error(f"self-test: {problem}")
        tracer = None
        if args.trace and args.workload != "serve_feeds":
            from tracer import Tracer

            tracer = Tracer()
        if args.workload == "bulk_inmem":
            from bulk import Bulk

            code = Bulk(args, result, workdir, tracer).run()
        elif args.workload == "file_jobs":
            from files import Files

            code = Files(args, result, workdir, tracer).run()
        else:
            from feeds import Feeds

            code = Feeds(args, result, workdir, bool(args.trace)).run()
        if tracer is not None:
            tracer.write(harness.spans_path(args.workload),
                         meta={"seed": args.seed})
        return code


if __name__ == "__main__":
    sys.exit(main())
