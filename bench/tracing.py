"""Outside-in layer tracing.

The tracer rebinds module attributes of ``posevote`` around the calls into
each layer, so no program source changes. Every rebound name is looked up
at call time by its caller, so the wrapper sees every call. Names are
rebound in the caller's module: ``pipeline`` and ``refine`` both import
``render_full`` directly, so ``posevote.pipeline.render_full`` (the scene
render) and ``posevote.refine.render_full`` (ICP's single-model renders)
are wrapped separately and ``posevote.synth.render_full`` is left alone.

Spans (name, start, end, parent, op id) stay in memory until the run ends.
Counts are taken at the same boundaries from each call's inputs and return
value. The work of taking them is recorded as a ``trace.bookkeeping`` span
under the caller, so it lands in no layer's self time.

``geometry`` and ``fields`` are too fine-grained to time at their
boundaries and show up in their callers' self time. ``ply``, ``tensorio``
and ``cli`` are not wrapped, because no workload spends measurable time in
them.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from posevote import losses, pipeline, refine, voting

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, name: str, on_result=None, on_error=None):
        """Rebind ``module.attr`` to a wrapper that records a span per call.

        ``on_result(bound_args, result)`` and ``on_error(exc)`` take counts
        after the span has ended.
        """
        original = getattr(module, attr)
        sig = inspect.signature(original)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if on_error is not None:
                    self._bookkeep(parent, on_error, exc)
                raise
            rec[2] = time.perf_counter()
            self._stack.pop()
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._bookkeep(parent, on_result, bound.arguments, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _bookkeep(self, parent: int, fn, *args):
        start = time.perf_counter()
        fn(*args)
        self.spans.append([BOOKKEEPING, start, time.perf_counter(), parent,
                           self.op_id])

    def unwrap(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        try:
            _wrap_layers(self)
            yield self
        finally:
            self.unwrap()

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (sum of durations) and self_s
        (duration minus the part covered by direct child spans; children
        run one after another, so their durations do not overlap)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - covered[i]
        return dict(out)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _wrap_layers(t: Tracer):
    c = t.counts

    def count_icp_render(args, raster):
        c["synth.render_full.icp.covered_px"] += int(np.count_nonzero(raster.depth > 0))
        c["synth.render_full.icp.rendered_px"] += int(raster.depth.size)

    def count_votes(args, grid):
        # ray_steps counts cast_votes' walk over the full ray length, as
        # cast_votes computes it; votes count the cells it increments
        labels = args["labels"]
        rays = voting._class_rays(labels, args["fld"], args["class_id"])[0].size
        h, w = labels.height, labels.width
        length = args["max_ray_length"] or int(math.ceil(math.hypot(w, h)))
        c["voting.cast_votes.ray_steps"] += rays * (int(length / voting._RAY_STEP) + 1)
        c["voting.cast_votes.votes"] += int(grid.scores.sum())

    def count_detections(args, detections):
        c["voting.detections"] += len(detections)

    def count_matches(args, matched):
        c["voting.matched"] += len(matched)

    def count_fallback(exc):
        c["refine.fallbacks"] += 1

    def count_icp(args, res):
        c["refine.iterations"] += res.iterations
        c["refine.accepted_steps"] += len(res.objective_trace) - 1

    def count_icp_error(exc):
        if isinstance(exc, refine.IcpError):
            c["refine.icp_refine.errors"] += 1

    t.wrap(pipeline, "evaluate_scene", "pipeline.evaluate_scene")
    t.wrap(pipeline, "random_scene", "synth.random_scene")
    t.wrap(pipeline, "render_full", "synth.render_full.scene")
    t.wrap(pipeline, "ground_truth_fields", "synth.ground_truth_fields")
    t.wrap(pipeline, "perturb", "synth.perturb")
    t.wrap(pipeline, "detect", "voting.detect", on_result=count_detections)
    t.wrap(pipeline, "_match_detections", "pipeline.match_detections",
           on_result=count_matches)
    t.wrap(voting, "cast_votes", "voting.cast_votes", on_result=count_votes)
    t.wrap(voting, "find_centers", "voting.find_centers")
    t.wrap(voting, "collect_inliers", "voting.collect_inliers")
    t.wrap(pipeline, "multi_hypothesis_refine", "refine.multi_hypothesis_refine",
           on_error=count_fallback)
    t.wrap(refine, "icp_refine", "refine.icp_refine", on_result=count_icp,
           on_error=count_icp_error)
    t.wrap(refine, "render_full", "synth.render_full.icp",
           on_result=count_icp_render)
    t.wrap(pipeline, "add", "metrics.add")
    t.wrap(pipeline, "add_s", "metrics.add_s")
    t.wrap(pipeline, "reprojection_error", "metrics.reprojection_error")
    t.wrap(losses, "optimize_rotation", "losses.optimize_rotation")
    t.wrap(losses, "sloss", "losses.sloss")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple]:
    """The per-layer metrics BENCHMARK.json names, as {name: (value, unit)}.
    Layers a workload does not reach read 0."""
    times = t.layer_times()
    c = t.counts
    out: dict[str, tuple] = {}

    def span(name, *fields):
        row = times.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = (row[f], "count" if f == "calls" else "s")

    span("pipeline.evaluate_scene", "calls", "busy_s", "self_s")
    span("synth.random_scene", "busy_s")
    span("synth.render_full.scene", "calls", "busy_s")
    span("synth.ground_truth_fields", "busy_s")
    span("synth.perturb", "busy_s")
    span("synth.render_full.icp", "calls", "busy_s")
    covered = c["synth.render_full.icp.covered_px"]
    rendered = c["synth.render_full.icp.rendered_px"]
    out["synth.render_full.icp.covered_px"] = (covered, "count")
    out["synth.render_full.icp.rendered_px"] = (rendered, "count")
    out["synth.render_full.icp.coverage"] = (_ratio(covered, rendered), "ratio")

    span("voting.detect", "calls", "busy_s", "self_s")
    span("voting.cast_votes", "calls", "busy_s", "self_s")
    steps, votes = c["voting.cast_votes.ray_steps"], c["voting.cast_votes.votes"]
    out["voting.cast_votes.ray_steps"] = (steps, "count")
    out["voting.cast_votes.votes"] = (votes, "count")
    out["voting.cast_votes.yield"] = (_ratio(votes, steps), "ratio")
    span("voting.find_centers", "busy_s")
    span("voting.collect_inliers", "busy_s")
    dets, matched = c["voting.detections"], c["voting.matched"]
    out["voting.detections"] = (dets, "count")
    out["voting.matched"] = (matched, "count")
    out["voting.match_rate"] = (_ratio(matched, dets), "ratio")

    span("refine.multi_hypothesis_refine", "calls", "busy_s")
    span("refine.icp_refine", "calls", "busy_s", "self_s")
    out["refine.icp_refine.errors"] = (c["refine.icp_refine.errors"], "count")
    out["refine.iterations"] = (c["refine.iterations"], "count")
    accepted = c["refine.accepted_steps"]
    out["refine.accepted_steps"] = (accepted, "count")
    icp_renders = times.get("synth.render_full.icp", {"calls": 0})["calls"]
    out["refine.accept_rate"] = (_ratio(accepted, icp_renders), "ratio")
    out["refine.fallbacks"] = (c["refine.fallbacks"], "count")

    span("metrics.add", "busy_s")
    span("metrics.add_s", "busy_s")
    span("metrics.reprojection_error", "busy_s")
    span("losses.optimize_rotation", "calls", "busy_s", "self_s")
    span("losses.sloss", "calls", "busy_s")

    out["trace.spans"] = (len(t.spans), "count")
    out["trace.bookkeeping_s"] = (times.get(BOOKKEEPING, {"busy_s": 0.0})["busy_s"], "s")
    return out
