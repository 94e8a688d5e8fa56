"""Rotation-regression losses with analytic gradients.

Two losses over a model point set M with m points, comparing an estimated
quaternion against the ground truth:

  pose loss   = (1/2m) * sum_x ||R(q_est) x - R(q_gt) x||^2
  shape loss  = (1/2m) * sum_x1 min_x2 ||R(q_est) x1 - R(q_gt) x2||^2

The shape-match variant scores zero for any rotation that maps the point set
onto itself, so exact shape symmetries are not penalized. Its gradient holds
the nearest-neighbor correspondences fixed (a subgradient, as in ICP).

Gradients are reported in ambient quaternion 4-space after projection onto
the tangent space of the unit sphere at q_est.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ObjectModel, nearest_neighbors, normalize_quat,
                       quat_to_rotation, rotation_angle_between)


_FD_STEP = 1e-5  # quaternion component step of the gradient check


class LossKind(enum.Enum):
    PLOSS = "ploss"
    SLOSS = "sloss"


@dataclass
class LossResult:
    value: float  # meters^2
    gradient: np.ndarray  # (4,) d(value)/d(w,x,y,z), tangent-projected


def _rotation_jacobian(q: np.ndarray) -> np.ndarray:
    """d(R)/d(q) for the homogeneous quadratic rotation formula, (4, 3, 3).

    Valid on the unit sphere; combined with tangent projection it matches
    derivatives taken along renormalized perturbations.
    """
    w, x, y, z = q
    dw = 2.0 * np.array([[w, -z, y], [z, w, -x], [-y, x, w]])
    dx = 2.0 * np.array([[x, y, z], [y, -x, -w], [z, w, -x]])
    dy = 2.0 * np.array([[-y, x, w], [x, y, z], [-w, z, -y]])
    dz = 2.0 * np.array([[-z, -w, x], [w, -z, y], [x, y, z]])
    return np.stack([dw, dx, dy, dz])


def _tangent_project(grad: np.ndarray, q: np.ndarray) -> np.ndarray:
    return grad - np.dot(grad, q) * q


def _loss_impl(q_est, q_gt, model: ObjectModel, matched: bool) -> LossResult:
    qe = normalize_quat(q_est)
    qg = normalize_quat(q_gt)
    pts = model.points
    m = pts.shape[0]
    est = pts @ quat_to_rotation(qe).T
    gt = pts @ quat_to_rotation(qg).T
    if not matched:
        gt = gt[nearest_neighbors(est, gt)[1]]
    diff = est - gt
    value = float(np.sum(diff * diff)) / (2.0 * m)
    jac = _rotation_jacobian(qe)
    grad = np.array([np.sum(diff * (pts @ jac[k].T)) for k in range(4)]) / m
    return LossResult(value=value, gradient=_tangent_project(grad, qe))


def ploss(q_est, q_gt, model: ObjectModel) -> LossResult:
    """Mean squared distance between corresponding rotated model points."""
    return _loss_impl(q_est, q_gt, model, matched=True)


def sloss(q_est, q_gt, model: ObjectModel) -> LossResult:
    """Mean squared distance to the closest rotated ground-truth point."""
    return _loss_impl(q_est, q_gt, model, matched=False)


def evaluate_loss(kind: LossKind, q_est, q_gt, model) -> LossResult:
    """The loss of the given kind, with its gradient."""
    return ploss(q_est, q_gt, model) if kind is LossKind.PLOSS \
        else sloss(q_est, q_gt, model)


def loss_gradient_check(kind: LossKind, q_est, q_gt, model: ObjectModel) -> float:
    """Max relative error between the analytic gradient and central finite
    differences (step _FD_STEP) with renormalization; relative to the largest
    finite-difference component magnitude.
    """
    qe = normalize_quat(q_est)
    analytic = evaluate_loss(kind, qe, q_gt, model).gradient
    fd = np.zeros(4)
    for k in range(4):
        qp = qe.copy()
        qp[k] += _FD_STEP
        qm = qe.copy()
        qm[k] -= _FD_STEP
        fp = evaluate_loss(kind, qp, q_gt, model).value
        fm = evaluate_loss(kind, qm, q_gt, model).value
        fd[k] = (fp - fm) / (2.0 * _FD_STEP)
    fd = _tangent_project(fd, qe)
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(analytic - fd)) / scale)


def optimize_rotation(model: ObjectModel, q_gt, kind: LossKind, inits,
                      steps: int = 500, lr: float = 0.03):
    """Normalized projected gradient descent on the unit-quaternion sphere.

    Each step moves a fixed (decaying) arc length along the negative
    gradient direction, q <- normalize(q - (lr / sqrt(t+1)) * g / ||g||),
    which makes the trajectory independent of the loss magnitude and hence
    of model scale. Descent stops early at stationary points. Returns
    [(q_final, angle_error_deg)].
    """
    qg = normalize_quat(q_gt)
    results = []
    for q0 in inits:
        q = normalize_quat(q0)
        for t in range(steps):
            g = evaluate_loss(kind, q, qg, model).gradient
            ng = float(np.linalg.norm(g))
            if ng < 1e-15:
                break
            q = normalize_quat(q - (lr / math.sqrt(t + 1)) * g / ng)
        results.append((q, rotation_angle_between(q, qg)))
    return results
