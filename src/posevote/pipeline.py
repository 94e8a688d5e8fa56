"""End-to-end synthetic pipeline: render -> perturb -> detect -> refine -> eval.

The renderer plays the dense predictor and the sensor, and synth_frame makes
all the estimator is given: labels, the noisy center field, the observed
depth and each rotation estimate, the ground-truth rotation plus simulated
regression error (rotation regression is an external component). Detection
recovers each instance's translation from center voting, and optional ICP
refinement corrects the full 6-dof pose against the observed depth.
Instances below the visibility cutoff are excluded from scoring; missed
detections count as failures at every threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import DepthMap, LabelMap
from .geometry import ObjectModel, Pose, is_int_at_least, rotation_angle_between
from .metrics import (AUC_CAP_M, add, add_s, is_correct, pose_scores,
                      reprojection_error)
from .refine import IcpError, IcpParams, multi_hypothesis_refine
from .synth import (InstanceTruth, NoiseSpec, Scene, ground_truth_fields,
                    perturb, perturbed_pose, random_scene, render_full,
                    scene_seed)
from .voting import detect

_MATCH_RADIUS_PX = 25.0
_MIN_VISIBILITY = 0.3  # instances less visible than this are not scored


@dataclass
class PipelineConfig:
    scenes: int = 20
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    refine: bool = False
    icp: IcpParams = field(default_factory=IcpParams)
    max_threshold = AUC_CAP_M  # the AUC cap, a constant rather than a field

    def __post_init__(self):
        if not is_int_at_least(self.scenes, 1):
            raise ValueError(f"scenes must be an integer of at least 1, "
                             f"got {self.scenes!r}")
        if not is_int_at_least(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class InstanceRecord:
    scene: int
    instance: int
    class_id: int
    visibility: float
    center_occluded: bool
    detected: bool
    center_error_px: float = math.inf
    add: float = math.inf
    add_s: float = math.inf
    reproj_px: float = math.inf
    rot_error_deg: float = math.inf
    correct: bool = False

    def to_row(self) -> dict:
        return {
            "scene": self.scene,
            "instance": self.instance,
            "class_id": self.class_id,
            "visibility": round(self.visibility, 6),
            "center_occluded": int(self.center_occluded),
            "detected": int(self.detected),
            "center_error_px": self.center_error_px,
            "add_m": self.add,
            "add_s_m": self.add_s,
            "reproj_px": self.reproj_px,
            "rot_error_deg": self.rot_error_deg,
            "correct": int(self.correct),
        }


def _match_detections(truths, detections):
    """Greedy class-consistent nearest-center matching; each detection is
    used at most once. Returns {instance index: detection}."""
    pairs = []
    for t in truths:
        for d in detections:
            if d.class_id != t.class_id:
                continue
            err = float(np.linalg.norm(d.center - t.center))
            if err <= _MATCH_RADIUS_PX:
                pairs.append((err, t.index, id(d), d))
    pairs.sort(key=lambda p: (p[0], p[1]))
    matched = {}
    used = set()
    for err, t_idx, d_id, d in pairs:
        if t_idx in matched or d_id in used:
            continue
        matched[t_idx] = (err, d)
        used.add(d_id)
    return matched


@dataclass
class Frame:
    """What the estimator is given for one scene: the observed depth, and the
    labels, noisy field and rotations standing in for the network's output."""

    depth: DepthMap
    truths: list[InstanceTruth]
    fld: np.ndarray  # (height, width, 3) float32 (nx, ny, Tz), perturbed
    labels: LabelMap  # the rendered labels, from ground_truth_fields
    rotations: list[np.ndarray]  # simulated quaternion of each truth, by index


def synth_frame(scene: Scene, scene_index: int, noise: NoiseSpec,
                models: dict[int, ObjectModel]) -> Frame:
    """Render `scene` and perturb its ground-truth fields and rotations with
    `noise`, reseeded by scene_seed for the scene_index-th scene of a run."""
    raster = render_full(scene, models)
    fld, labels, truths = ground_truth_fields(scene, raster)
    noise = replace(noise, rng_seed=scene_seed(noise.rng_seed, scene_index))
    fld = perturb(fld, labels, noise)
    rotations = []
    for t in truths:
        # stand-in for the network's rotation branch, which is out of scope
        q = t.pose.quaternion.copy()
        if noise.rotation_sigma_deg > 0:
            rot_rng = np.random.default_rng(noise.rng_seed * 9973 + t.index)
            ang = abs(rot_rng.normal(0.0, noise.rotation_sigma_deg))
            q = perturbed_pose(Pose(q, t.pose.translation),
                               ang, 0.0, rot_rng).quaternion
        rotations.append(q)
    return Frame(DepthMap(depth=raster.depth), truths, fld, labels, rotations)


def evaluate_scene(scene_index: int, cfg: PipelineConfig,
                   models: dict[int, ObjectModel]) -> list[InstanceRecord]:
    """Run the full pipeline on one seeded random scene."""
    scene = random_scene(scene_seed(cfg.seed, scene_index), models)
    frame = synth_frame(scene, scene_index, cfg.noise, models)
    detections = detect(frame.labels, frame.fld, scene.intrinsics)
    matched = _match_detections(frame.truths, detections)

    records = []
    for t in frame.truths:
        if t.visibility < _MIN_VISIBILITY:
            continue
        rec = InstanceRecord(scene=scene_index, instance=t.index,
                             class_id=t.class_id, visibility=t.visibility,
                             center_occluded=t.center_occluded, detected=False)
        if t.index in matched:
            err, det = matched[t.index]
            rec.detected = True
            rec.center_error_px = err
            est = Pose(frame.rotations[t.index], det.translation)
            model = models[t.class_id]
            if cfg.refine:
                try:
                    est = multi_hypothesis_refine(
                        frame.depth, frame.labels, t.class_id, model, est,
                        scene.intrinsics, cfg.icp).pose
                except IcpError:
                    pass  # fall back to the voted pose
            rec.add = add(est, t.pose, model)
            rec.add_s = add_s(est, t.pose, model)
            rec.reproj_px = reprojection_error(est, t.pose, model,
                                               scene.intrinsics)
            rec.rot_error_deg = rotation_angle_between(est.quaternion,
                                                       t.pose.quaternion)
            rec.correct = is_correct(rec.add_s, model)
        records.append(rec)
    return records


def run_pipeline(cfg: PipelineConfig,
                 models: dict[int, ObjectModel]) -> tuple[dict, list[InstanceRecord]]:
    """Evaluate cfg.scenes seeded scenes in order, on the calling thread;
    returns (summary, records)."""
    records = [r for i in range(cfg.scenes)
               for r in evaluate_scene(i, cfg, models)]
    if not records:
        raise RuntimeError("pipeline produced no evaluable instances")
    finite = [r for r in records if r.detected]
    summary = {
        "seed": cfg.seed,
        "scenes": cfg.scenes,
        "instances_evaluated": len(records),
        "instances_detected": len(finite),
        "detection_rate": len(finite) / len(records),
        **pose_scores([r.add for r in records], [r.add_s for r in records],
                      [r.correct for r in records]),
        "mean_add_s_m": (float(np.mean([r.add_s for r in finite]))
                         if finite else None),
        "mean_center_error_px": (float(np.mean([r.center_error_px
                                                for r in finite]))
                                 if finite else None),
        "max_threshold_m": AUC_CAP_M,
        "noise": {
            "direction_sigma_rad": cfg.noise.direction_sigma,
            "depth_sigma_m": cfg.noise.depth_sigma,
            "rotation_sigma_deg": cfg.noise.rotation_sigma_deg,
        },
        "refined": cfg.refine,
        "min_visibility": _MIN_VISIBILITY,
    }
    return summary, records
