"""The benchmark's three workloads.

Each workload cycles over a fixed pool of inputs, runs one op per input,
hashes the op's output, and reduces the outputs of a run to quality figures.
Ops are addressed by a key: two ops with the same key get the same inputs,
so their digests must match. Because a run covers its whole pool, its
quality figures are constants, and ``EXPECTED`` holds them.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from posevote import losses, pipeline
from posevote.geometry import random_quat
from posevote.metrics import accuracy_curve, auc
from posevote.refine import IcpParams
from posevote.synth import NoiseSpec, default_registry, make_primitive_model

# the CLI's `moderate` preset, as acceptance criterion 8 uses it
MODERATE_NOISE = dict(direction_sigma=0.05, depth_sigma=0.005,
                      rotation_sigma_deg=25.0)

# AUC figures may differ in their last bits between BLAS builds; any real
# change to a pose moves them by far more
AUC_TOL = 0.01  # percentage points


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class _Pool:
    """Keys cycle over ``len(POOL)`` inputs; the benchmark seed picks the one
    the cycle starts at, and no digest may depend on it."""

    POOL: tuple

    def __init__(self, seed: int):
        self.start = seed % len(self.POOL)

    def key(self, i: int) -> int:
        return self.POOL[(self.start + i) % len(self.POOL)]

    @property
    def chunk(self) -> int:
        """Ops per timed chunk: one whole cycle, unless a workload's ops all
        cost the same."""
        return len(self.POOL)

    def quality_problems(self, results: dict) -> list[str]:
        """How this run's quality figures differ from ``EXPECTED``."""
        missing = sorted(set(self.POOL) - set(results))
        if missing:
            return [f"no result for {self.op_name}s {missing}"]
        problems = []
        for name, value, _, _ in self.quality(results):
            want = self.EXPECTED[name]
            tol = AUC_TOL if name.startswith("auc_") else 0.0
            if not abs(value - want) <= tol:
                problems.append(f"{name} {value!r} != expected {want!r}"
                                + (f" (tolerance {tol:g})" if tol else ""))
        return problems


class _ScenePool(_Pool):
    """One op = ``pipeline.evaluate_scene`` on one scene of a fixed pool of
    acceptance criterion 8's scenes (pipeline seed 0).

    Scenes differ in cost by up to an order of magnitude, so a seed-drawn
    scene set made throughput differ by over 20% between seeds. Every run
    therefore times whole cycles over the same pool: one chunk is one cycle.
    A pool holds an odd number of scenes, so that the median op time falls
    among one scene's samples rather than between two scenes' extremes.
    """

    op_name = "scene"

    @staticmethod
    def build_models():
        return default_registry()

    def __init__(self, seed: int, models, **cfg):
        super().__init__(seed)
        self.cfg = pipeline.PipelineConfig(seed=0, **cfg)
        self.models = models

    def op(self, key: int):
        return pipeline.evaluate_scene(key, self.cfg, self.models)

    @staticmethod
    def rows(records) -> list[dict]:
        return [r.to_row() for r in records]

    def digest(self, records) -> str:
        return _sha256(self.rows(records))

    def summary(self, results: dict) -> dict:
        """Run summary over distinct scenes, as ``run_pipeline`` computes it
        (``accuracy_10pct_diameter`` is left out on purpose)."""
        records = [r for key in sorted(results) for r in results[key]]
        detected = sum(r.detected for r in records)
        cap = self.cfg.max_threshold
        return {
            "scenes": len(results),
            "instances_evaluated": len(records),
            "instances_detected": detected,
            "detection_rate": detected / len(records) if records else 0.0,
            "auc_add": auc(accuracy_curve([r.add for r in records], cap)),
            "auc_adds": auc(accuracy_curve([r.add_s for r in records], cap)),
        }

    def run_digest(self, results: dict) -> str:
        return _sha256({"rows": [self.rows(results[k]) for k in sorted(results)],
                        "summary": self.summary(results)})

    def quality(self, results: dict) -> list[tuple]:
        s = self.summary(results)
        base = f"over {s['instances_evaluated']} instances in {s['scenes']} scenes"
        return [("auc_adds", s["auc_adds"], "%", base),
                ("auc_add", s["auc_add"], "%", base),
                ("detection_rate", s["detection_rate"], "ratio",
                 f"{s['instances_detected']} of {s['instances_evaluated']} instances")]


class DetectClean(_ScenePool):
    """No noise, no ICP: voting and scene rendering do the work.

    The pool is criterion 8's first 7 scenes, about 3.5 s a cycle, so that a
    20 s window holds five cycles."""

    name = "detect_clean"
    POOL = tuple(range(7))
    EXPECTED = {"auc_adds": 99.95, "auc_add": 99.95, "detection_rate": 1.0}


class RefineNoisy(_ScenePool):
    """Moderate noise and 4-hypothesis ICP (noise and ICP seeds 0), as in
    acceptance criterion 8.

    The pool is one of the cheapest of criterion 8's first 26 scenes, scene
    11, at about 2 s, so that a 20 s window holds about ten ops. The other
    scenes take 1.5 to 16 s; the cheapest, scene 15, spends only half its
    time in ICP. None of scene 11's hypotheses runs to the iteration cap.
    Without ICP it scores auc_adds 93.75 and auc_add 79.20.
    """

    name = "refine_noisy"
    POOL = (11,)
    EXPECTED = {"auc_adds": 99.95, "auc_add": 99.95, "detection_rate": 1.0}

    def __init__(self, seed: int, models):
        super().__init__(seed, models,
                         noise=NoiseSpec(rng_seed=0, **MODERATE_NOISE),
                         refine=True, icp=IcpParams(n_hypotheses=4, rng_seed=0))


class SlossHistogram(_Pool):
    """One op = one SLoss rotation descent on ``bar_2fold`` (acceptance
    criterion 4's model, step schedule and ground truth) from one of the
    first 40 of its seeded random starts.

    Every descent costs the same 500 steps, so the pool only fixes the
    quality figure: the share of these starts that end at a mode."""

    name = "sloss_histogram"
    op_name = "descent"
    POOL = tuple(range(40))
    chunk = 10
    MODE_TOL_DEG = 5.0
    EXPECTED = {"sloss_mode_frac": 0.95}  # 38 of 40

    @staticmethod
    def build_models():
        return make_primitive_model("bar_2fold", scale=0.1, n_points=320)

    def __init__(self, seed: int, model):
        super().__init__(seed)
        self.model = model
        rng = np.random.default_rng(104)
        self.q_gt = random_quat(rng)
        self.inits = [random_quat(rng) for _ in self.POOL]

    def op(self, key: int):
        (q, angle), = losses.optimize_rotation(
            self.model, self.q_gt, losses.LossKind.SLOSS, [self.inits[key]],
            steps=500, lr=0.03)
        return q, angle

    @staticmethod
    def digest(result) -> str:
        q, angle = result
        return hashlib.sha256(np.asarray(q, dtype="<f8").tobytes()
                              + repr(float(angle)).encode()).hexdigest()

    def run_digest(self, results: dict) -> str:
        return _sha256([self.digest(results[k]) for k in sorted(results)])

    def quality(self, results: dict) -> list[tuple]:
        angles = np.array([a for _, a in results.values()])
        near = np.minimum(angles, np.abs(angles - 180.0)) < self.MODE_TOL_DEG
        return [("sloss_mode_frac", float(np.mean(near)), "ratio",
                 f"{int(near.sum())} of {angles.size} descents within "
                 f"{self.MODE_TOL_DEG:g} deg of 0 or 180")]


WORKLOADS = {w.name: w for w in (DetectClean, RefineNoisy, SlossHistogram)}
