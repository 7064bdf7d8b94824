"""Per-layer metrics derived from traced spans.

Each workload names the layers it must exercise.  A wrap target that
no longer resolves, a layer on that list whose wrapped entry points saw
no call, and a metric of such a layer whose source entry points saw no
call are benchmark errors (the wrap no longer matches the program),
never a silent 0.  Metrics of layers a workload does not exercise are
reported as not applicable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from harness import Result, declared_metrics
from tracer import LAYER_PACKAGES, layer_self_seconds

#: The layers each workload must drive.
EXPECTED_LAYERS = {
    "bulk_inmem": ("plan", "kernels"),
    "file_jobs": ("plan", "kernels", "stream", "compression"),
    "serve_feeds": ("kernels", "stream", "serve"),
}

#: Shapes with same-run pinned baselines (``bulk_inmem`` only).
SHAPES = ("order1_i64", "fused_i64", "comp_f64")

PLAN_TOP = ("plan.plan_scan", "plan.plan_file_scan")
BATCHED = (
    "kernels.BatchedLaneKernel.stage_scan",
    "kernels.BatchedLaneKernel.stage_scan_fused",
    "kernels.BatchedCompensatedKernel.stage_scan",
)

#: The spans each span-derived metric reads.  On a workload that
#: exercises the metric's layer, at least one of them must have been
#: called.  ``kernels.batched_stage_ms`` is not here: the batched path
#: may rightly not engage (see ``serve.batched_frac``), so serve checks
#: its spans against the daemon's batch-dispatch gauge instead.
METRIC_SOURCES = {
    "plan.plan_ms": PLAN_TOP,
    "plan.observe_ms": ("plan.Plan.observe",),
    "kernels.self_ms": (
        "kernels.scan_into", "kernels.fused_lane_scan",
        "kernels.threaded_scan_into", "kernels.compensated_scan_into",
    ),
    "stream.feed_ms": ("stream.ScanSession.feed",),
    "compression.decode_mb_s": (
        "compression.BlockedFileReader.read_block",
        "compression.BlockedFileReader.read_range",
    ),
    "compression.encode_mb_s": (
        "compression.BlockedStreamWriter.feed",
        "compression.BlockedStreamWriter.finalize",
    ),
    "serve.dispatch_ms": ("serve.feed_batch", "stream.ScanSession.feed"),
    "serve.frame_us": ("serve.encode_frame", "serve.decode_body"),
    "serve.ckpt_ms": ("serve.SessionRegistry.save",),
}


def _durations(spans: Sequence[dict], names: Sequence[str]) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] in names]


def _mean(values: List[float], scale: float) -> float:
    """Busy time per call (a mean, so rare slow calls such as a
    calibration write are counted at their real share)."""
    return sum(values) / len(values) * scale if values else 0.0


def report_spans(result: Result, spans: Sequence[dict], ops: int,
                 workload: str, missing: Sequence[str],
                 serve_feeds: int = 0) -> None:
    """Set every span-derived per-layer metric on ``result``.

    ``ops`` is the number of traced operations (calls, jobs or feeds);
    per-operation metrics divide by it.  ``missing`` lists the wrap
    targets that did not resolve (``Tracer.missing``)."""
    expected = EXPECTED_LAYERS[workload]
    for target in missing:
        result.error(f"wrap target {target} no longer resolves")
    calls = {layer: 0 for layer in LAYER_PACKAGES}
    for span in spans:
        if span["layer"] in calls:
            calls[span["layer"]] += 1
    result.record["layer_calls"] = calls
    names: Dict[str, int] = {}
    for span in spans:
        names[span["name"]] = names.get(span["name"], 0) + 1
    result.record["span_calls"] = names
    for layer in expected:
        if not calls[layer]:
            result.error(f"layer {layer!r} saw zero calls on {workload}")
    for metric, sources in METRIC_SOURCES.items():
        if metric.split(".")[0] in expected and not any(
            names.get(name) for name in sources
        ):
            result.error(f"{metric}: none of {', '.join(sources)} was "
                         f"called on {workload}")
    self_s = layer_self_seconds(spans)
    result.record["layer_self_s"] = self_s
    ops = max(1, ops)
    by_id = {s["id"]: s for s in spans}

    if "plan" in expected:
        top = [
            s["end"] - s["start"] for s in spans
            if s["name"] in PLAN_TOP
            and by_id.get(s["parent"], {}).get("name") not in PLAN_TOP
        ]
        result.set("plan.plan_ms", _mean(top, 1e3))
        observe = _durations(spans, ("plan.Plan.observe",))
        result.set("plan.observe_ms", _mean(observe, 1e3))
        result.set("plan.observe_calls", len(observe) / ops)
    if "kernels" in expected:
        result.set("kernels.self_ms", self_s.get("kernels", 0.0) * 1e3 / ops)
        if workload == "serve_feeds":
            staged = sum(_durations(spans, BATCHED))
            result.set("kernels.batched_stage_ms", staged * 1e3 / ops)
        else:
            result.na("kernels.batched_stage_ms",
                      f"{workload} has no multi-stream dispatch")
    if "stream" in expected:
        result.set("stream.feed_ms",
                   _mean(_durations(spans, ("stream.ScanSession.feed",)), 1e3))
    if "compression" in expected:
        for metric, kind in (
            ("compression.decode_mb_s", "BlockedFileReader"),
            ("compression.encode_mb_s", "BlockedStreamWriter"),
        ):
            picked = [s for s in spans if s["name"].startswith(
                f"compression.{kind}.")]
            seconds = sum(s["end"] - s["start"] for s in picked)
            nbytes = sum((s["note"] or {}).get("bytes", 0) for s in picked)
            result.set(metric, nbytes / 1e6 / seconds if seconds else 0.0)
    if "serve" in expected:
        dispatch = [
            s["end"] - s["start"] for s in spans
            if s["name"] in ("serve.feed_batch", "stream.ScanSession.feed")
            and s["parent"] == 0
        ]
        result.set("serve.dispatch_ms",
                   sum(dispatch) * 1e3 / max(1, serve_feeds))
        result.set("serve.frame_us", _mean(_durations(
            spans, ("serve.encode_frame", "serve.decode_body")), 1e6))
        result.set("serve.ckpt_ms", _mean(_durations(
            spans, ("serve.SessionRegistry.save",)), 1e3))


def fill_not_applicable(result: Result, workload: str) -> None:
    """Mark the per-layer metrics ``workload`` cannot measure as not
    applicable.  A metric of an exercised layer that is still unset is
    left missing, which :meth:`Result.finish` reports as an error."""
    expected = EXPECTED_LAYERS[workload]
    for name in declared_metrics()["per_layer"]:
        if name in result.metrics:
            continue
        layer = name.split(".")[0]
        if layer in LAYER_PACKAGES and layer not in expected:
            result.na(name, f"{workload} does not exercise {layer}")
        elif name.split(".")[-1] in SHAPES and workload != "bulk_inmem":
            result.na(name, "needs same-run pinned baselines (bulk_inmem)")
        elif name == "setup.server_start_s" and workload != "serve_feeds":
            result.na(name, f"{workload} starts no server")
