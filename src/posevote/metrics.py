"""Pose evaluation: ADD, ADD-S, reprojection error, accuracy curves, AUC.

ADD is the mean distance between corresponding model points under the two
poses; ADD-S replaces correspondence with the closest point, so symmetric
shapes are not penalized for symmetry-equivalent rotations. A pose is correct
when its distance is below 10% of the model diameter.
AUC integrates the accuracy-threshold curve up to a maximum threshold
(AUC_CAP_M, 10 cm, in the pipeline and the CLI) and is reported as a
percentage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CameraIntrinsics, NeighborIndex, ObjectModel, Pose,
                       is_finite_real, project)

_CORRECT_FRACTION = 0.1  # of the model diameter
AUC_CAP_M = 0.10  # meters, the largest ADD / ADD-S threshold in the AUC
_AUC_STEPS = 1000  # uniform thresholds in an accuracy curve


def add(pose_est: Pose, pose_gt: Pose, model: ObjectModel) -> float:
    """Mean distance between corresponding transformed model points."""
    d = pose_est.transform(model.points) - pose_gt.transform(model.points)
    return float(np.mean(np.linalg.norm(d, axis=1)))


def add_s(pose_est: Pose, pose_gt: Pose, model: ObjectModel) -> float:
    """Mean closest-point distance between the transformed model points."""
    est = pose_est.transform(model.points)
    gt = pose_gt.transform(model.points)
    return float(np.mean(NeighborIndex(gt).query(est)[0]))


def reprojection_error(pose_est: Pose, pose_gt: Pose, model: ObjectModel,
                       intrinsics: CameraIntrinsics) -> float:
    """Mean pixel distance between corresponding projected model points;
    a point behind the camera raises GeometryError."""
    d = (project(pose_est.transform(model.points), intrinsics)
         - project(pose_gt.transform(model.points), intrinsics))
    return float(np.mean(np.linalg.norm(d, axis=1)))


def is_correct(distance: float, model: ObjectModel) -> bool:
    """Strictly below _CORRECT_FRACTION (10%) of the model diameter."""
    return distance < _CORRECT_FRACTION * model.diameter


@dataclass
class AccuracyCurve:
    thresholds: np.ndarray  # ascending, meters (or px)
    accuracy: np.ndarray  # same length, in [0, 1], non-decreasing
    accuracy_at_zero: float = 0.0  # right-limit at threshold 0


def accuracy_curve(distances, max_threshold: float) -> AccuracyCurve:
    """Fraction of distances strictly below each of _AUC_STEPS uniform
    thresholds in (0, max_threshold], for a finite max_threshold > 0.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ValueError("accuracy curve needs at least one distance")
    if not (is_finite_real(max_threshold) and max_threshold > 0):
        raise ValueError(f"max_threshold must be finite and positive, "
                         f"got {max_threshold!r}")
    thresholds = np.linspace(max_threshold / _AUC_STEPS, max_threshold,
                             _AUC_STEPS)
    accuracy = np.mean(d[None, :] < thresholds[:, None], axis=1)
    return AccuracyCurve(thresholds=thresholds, accuracy=accuracy,
                         accuracy_at_zero=float(np.mean(d <= 0.0)))


def auc(curve: AccuracyCurve) -> float:
    """Trapezoidal area under the accuracy curve over [0, its largest
    threshold], normalized by that threshold, as a percentage in [0, 100].

    The explicit threshold-zero point uses the right-limit accuracy, so a
    perfect estimator (all distances zero) scores exactly 100.
    """
    ts = np.concatenate([[0.0], curve.thresholds])
    acc = np.concatenate([[curve.accuracy_at_zero], curve.accuracy])
    return float(100.0 * np.trapezoid(acc, ts) / curve.thresholds[-1])


def pose_scores(adds, add_ss, correct) -> dict:
    """The pooled scores of a set of instances: the ADD and ADD-S AUCs
    (capped at AUC_CAP_M) and the fraction of correct poses."""
    return {
        "auc_add": auc(accuracy_curve(adds, AUC_CAP_M)),
        "auc_adds": auc(accuracy_curve(add_ss, AUC_CAP_M)),
        "accuracy_10pct_diameter": float(np.mean(correct)),
    }
