"""Outside-in span tracer for the benchmark.

The program has no tracing of its own, so the benchmark wraps the
public entry points of each layer from the outside.  A function is
wrapped at *every* attribute that holds it: the defining module, the
package that re-exports it, and each module that bound it with
``from ... import`` (a patch of the defining module alone would miss
those call sites).  Methods are wrapped on their class, which every
caller resolves through.

Spans (id, parent id, root id, name, layer, start, end, thread) are
kept in memory and written once, by :meth:`Tracer.write`, after the
measurement.  :meth:`Tracer.restore` puts every original back.  A
target that no longer resolves is listed in ``Tracer.missing``, which
the per-layer report turns into an error.  While
``enabled`` is false the wrappers only forward the call, so checks and
baselines run untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The program's layers (packages under ``repro``) the tracer wraps.
LAYER_PACKAGES = ("plan", "kernels", "stream", "compression", "serve")


@dataclass(frozen=True)
class Target:
    """One entry point: ``module`` + dotted ``attr`` (``Class.method``
    for methods), reported as ``<layer>.<attr>``.  ``note(args, kwargs,
    result)`` may return a small dict kept on the span."""

    layer: str
    module: str
    attr: str
    note: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def _nbytes_result(args, kwargs, result):
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _nbytes_arg(args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs.get("values")
    return {"bytes": int(getattr(values, "nbytes", 0))}


def _plan_choice(args, kwargs, result):
    chosen = getattr(result, "chosen", None)
    if chosen is None:
        return None
    return {
        "label": chosen.label,
        "predicted_s": float(chosen.predicted_seconds),
    }


#: Every wrapped entry point, by layer: only those a per-layer metric
#: or a cross-check reads (each wrapper costs time on a hot path).
TARGETS: Tuple[Target, ...] = (
    # plan.plan_ms (and plan.predict_ratio from the note), plan.observe_ms
    Target("plan", "repro.plan", "plan_scan", _plan_choice),
    Target("plan", "repro.plan", "plan_file_scan", _plan_choice),
    Target("plan", "repro.plan", "Plan.observe"),
    # kernels.self_ms
    Target("kernels", "repro.kernels", "scan_into"),
    Target("kernels", "repro.kernels", "fused_lane_scan"),
    Target("kernels", "repro.kernels", "threaded_scan_into"),
    Target("kernels", "repro.kernels", "compensated_scan_into"),
    # kernels.batched_stage_ms (the compensated sessions' batched stage
    # too, so the metric covers every session kind once batching engages)
    Target("kernels", "repro.kernels", "BatchedLaneKernel.stage_scan"),
    Target("kernels", "repro.kernels", "BatchedLaneKernel.stage_scan_fused"),
    Target("kernels", "repro.kernels",
           "BatchedCompensatedKernel.stage_scan"),
    # the StreamCounters-vs-wrapper cross-check of file jobs (a job the
    # planner shards enters through scan_file_sharded), stream.feed_ms
    # and serve.dispatch_ms
    Target("stream", "repro.stream", "scan_file"),
    Target("stream", "repro.stream", "scan_file_sharded"),
    Target("stream", "repro.stream", "ScanSession.feed"),
    # compression.decode_mb_s, compression.encode_mb_s
    Target("compression", "repro.compression",
           "BlockedFileReader.read_block", _nbytes_result),
    Target("compression", "repro.compression",
           "BlockedFileReader.read_range", _nbytes_result),
    Target("compression", "repro.compression",
           "BlockedStreamWriter.feed", _nbytes_arg),
    Target("compression", "repro.compression",
           "BlockedStreamWriter.finalize"),
    # serve.dispatch_ms, serve.frame_us, serve.ckpt_ms
    Target("serve", "repro.serve", "feed_batch"),
    Target("serve", "repro.serve.protocol", "encode_frame"),
    Target("serve", "repro.serve.protocol", "decode_body"),
    Target("serve", "repro.serve", "SessionRegistry.save"),
)


def import_layers(layers: Sequence[str] = LAYER_PACKAGES) -> None:
    """Import every submodule of the layer packages, so each module
    that bound an entry point by name is in ``sys.modules`` before the
    identity sweep runs."""
    for layer in layers:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"repro.{layer}.{info.name}")
    importlib.import_module("repro.api")


class Tracer:
    """Wraps :data:`TARGETS` and records spans while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, layer, start, end, parent, root, sid, note, error):
        self.spans.append(
            (sid, parent, root, name, layer, start, end,
             threading.get_ident(), note, error)
        )

    def span(self, name: str, layer: str = "bench"):
        """Context manager for a benchmark-side span (an operation root)."""
        return _Span(self, name, layer)

    @contextlib.contextmanager
    def recording(self, name: str):
        """Record spans for one operation, rooted at a span ``name``."""
        self.enabled = True
        try:
            with self.span(name):
                yield
        finally:
            self.enabled = False

    def _wrap(self, original, target: Target):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            error = None
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                note = None
                if target.note is not None and error is None:
                    note = target.note(args, kwargs, result)
                tracer._record(target.name, target.layer, start, end,
                               parent, root or sid, sid, note, error)

        wrapper.__perfbench_original__ = original
        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        import_layers()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for target in targets:
            owner = importlib.import_module(target.module)
            path = target.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner else None
            if original is None:
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            if len(path) > 1:
                # A method: every caller resolves it through the class.
                # An inherited one is shadowed, and deleted on restore.
                own = path[-1] in vars(owner)
                self._patch(owner, path[-1], original if own else None,
                            wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every original back (in reverse patch order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self.enabled = False

    # -- output ------------------------------------------------------------

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write every span, column-wise, as one JSON document."""
        columns: Dict[str, list] = {
            key: [] for key in (
                "id", "parent", "root", "name", "layer", "start", "end",
                "thread", "note", "error",
            )
        }
        keys = list(columns)
        for span in self.spans:
            for key, value in zip(keys, span):
                columns[key].append(value)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta or {}, "missing": self.missing,
                       "spans": columns}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        tracer = self.tracer
        self.active = tracer.enabled
        if self.active:
            stack = tracer._stack()
            self.parent = stack[-1] if stack else 0
            self.root = stack[0] if stack else 0
            self.sid = next(tracer._ids)
            stack.append(self.sid)
            self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.active:
            end = time.perf_counter()
            self.tracer._stack().pop()
            self.tracer._record(
                self.name, self.layer, self.start, end, self.parent,
                self.root or self.sid, self.sid, None,
                exc_type.__name__ if exc_type else None,
            )
        return False


def load_spans(path: str) -> Tuple[List[dict], List[str]]:
    """Read a file written by :meth:`Tracer.write` back: the span
    dicts and the targets that did not resolve."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    columns = doc["spans"]
    keys = list(columns)
    spans = [dict(zip(keys, row))
             for row in zip(*(columns[k] for k in keys))]
    return spans, doc["missing"]


def as_dicts(spans: Sequence[tuple]) -> List[dict]:
    keys = ("id", "parent", "root", "name", "layer", "start", "end",
            "thread", "note", "error")
    return [dict(zip(keys, span)) for span in spans]


def layer_self_seconds(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per layer: each span's interval minus its direct
    children's, merged per layer across threads (work a threaded
    kernel runs on pool threads overlaps its parent and is counted
    once, as wall time)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"]:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    segments: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        cuts = sorted(children.get(span["id"], ()))
        cursor = span["start"]
        pieces = segments.setdefault(span["layer"], [])
        for lo, hi in cuts:
            if lo > cursor:
                pieces.append((cursor, min(lo, span["end"])))
            cursor = max(cursor, hi)
        if span["end"] > cursor:
            pieces.append((cursor, span["end"]))
    return {layer: _union_length(pieces) for layer, pieces in segments.items()}


def _union_length(pieces: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(pieces):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
