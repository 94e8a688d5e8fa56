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

from .geometry import (NeighborIndex, ObjectModel, is_finite_real,
                       is_int_at_least, normalize_quat, quat_to_rotation,
                       rotation_angle_between)


_FD_STEP = 1e-5  # quaternion component step of the gradient check


class LossKind(enum.Enum):
    PLOSS = "ploss"
    SLOSS = "sloss"


@dataclass
class LossResult:
    value: float  # meters^2
    gradient: np.ndarray  # (4,) d(value)/d(w,x,y,z), tangent-projected


@dataclass(frozen=True)
class LossTarget:
    """The ground-truth side of a loss for one q_gt and model, prepared once
    and reused for any number of estimates.

    For SLoss, ``index`` searches ``points`` and remembers its last
    correspondences (NeighborIndex.nearest), so a target is not for
    concurrent use."""

    model: ObjectModel
    q_gt: np.ndarray  # unit (w, x, y, z)
    points: np.ndarray  # model.points rotated by q_gt, (m, 3)
    index: NeighborIndex | None  # None for PLoss


def prepare_target(kind: LossKind, q_gt, model: ObjectModel) -> LossTarget:
    """The ground truth a loss of this kind compares estimates against; a
    zero or non-finite q_gt raises GeometryError."""
    qg = normalize_quat(q_gt)
    points = model.points @ quat_to_rotation(qg).T
    index = NeighborIndex(points) if kind is LossKind.SLOSS else None
    return LossTarget(model=model, q_gt=qg, points=points, index=index)


def _rotation_jacobian(q: np.ndarray) -> np.ndarray:
    """d(R)/d(q) for the homogeneous quadratic rotation formula, (4, 3, 3).

    Valid on the unit sphere; combined with tangent projection it matches
    derivatives taken along renormalized perturbations.
    """
    w, x, y, z = (2.0 * q).tolist()  # doubling is exact
    return np.array([[[w, -z, y], [z, w, -x], [-y, x, w]],
                     [[x, y, z], [y, -x, -w], [z, w, -x]],
                     [[-y, x, w], [x, y, z], [-w, z, -y]],
                     [[-z, -w, x], [w, -z, y], [x, y, z]]])


def _tangent_project(grad: np.ndarray, q: np.ndarray) -> np.ndarray:
    return grad - np.dot(grad, q) * q


def _loss_impl(kind: LossKind, q_est, q_gt, model: ObjectModel,
               target: LossTarget | None) -> LossResult:
    if target is None:
        target = prepare_target(kind, q_gt, model)
    elif (target.model is not model
          or (kind is LossKind.SLOSS and target.index is None)
          or not (q_gt is target.q_gt or np.array_equal(q_gt, target.q_gt)
                  or np.array_equal(normalize_quat(q_gt), target.q_gt))):
        # renormalizing a unit q_gt can change its last bit, so target.q_gt
        # is accepted as it is
        raise ValueError("the loss target was prepared for another q_gt, "
                         "model or loss kind")
    qe = normalize_quat(q_est)
    pts = model.points
    m = pts.shape[0]
    est = pts @ quat_to_rotation(qe).T
    gt = target.points
    if kind is LossKind.SLOSS:
        gt = gt[target.index.nearest(est)]
    diff = est - gt
    # np.add.reduce is the reduction np.sum makes, without its wrapper
    value = float(np.add.reduce(diff * diff, axis=None)) / (2.0 * m)
    jac = _rotation_jacobian(qe)
    grad = np.add.reduce(diff * (pts @ jac.transpose(0, 2, 1)),
                         axis=(1, 2)) / m
    return LossResult(value=value, gradient=_tangent_project(grad, qe))


def ploss(q_est, q_gt, model: ObjectModel, *,
          target: LossTarget | None = None) -> LossResult:
    """Mean squared distance between corresponding rotated model points.

    ``target``, from prepare_target for this q_gt and model, saves rotating
    the ground truth again; one prepared for anything else raises ValueError.
    """
    return _loss_impl(LossKind.PLOSS, q_est, q_gt, model, target)


def sloss(q_est, q_gt, model: ObjectModel, *,
          target: LossTarget | None = None) -> LossResult:
    """Mean squared distance to the closest rotated ground-truth point.

    ``target``, from prepare_target(LossKind.SLOSS, q_gt, model), saves
    rotating, indexing and matching the ground truth again (it keeps its
    last correspondences); one prepared for anything else raises ValueError.
    """
    return _loss_impl(LossKind.SLOSS, q_est, q_gt, model, target)


def evaluate_loss(kind: LossKind, q_est, q_gt, model, *,
                  target: LossTarget | None = None) -> LossResult:
    """The loss of the given kind, with its gradient."""
    return ploss(q_est, q_gt, model, target=target) if kind is LossKind.PLOSS \
        else sloss(q_est, q_gt, model, target=target)


def loss_gradient_check(kind: LossKind, q_est, q_gt, model: ObjectModel) -> float:
    """Max relative error between the analytic gradient and central finite
    differences (step _FD_STEP) with renormalization; relative to the largest
    finite-difference component magnitude.
    """
    qe = normalize_quat(q_est)
    target = prepare_target(kind, q_gt, model)
    analytic = evaluate_loss(kind, qe, q_gt, model, target=target).gradient
    fd = np.zeros(4)
    for k in range(4):
        qp = qe.copy()
        qp[k] += _FD_STEP
        qm = qe.copy()
        qm[k] -= _FD_STEP
        fp = evaluate_loss(kind, qp, q_gt, model, target=target).value
        fm = evaluate_loss(kind, qm, q_gt, model, target=target).value
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
    of model scale. Descent stops early at stationary points. The ground
    truth is prepared once for every start and step; for SLoss it tracks
    its correspondences, so each step re-queries only the points whose
    closest ground-truth point can have changed. Returns
    [(q_final, angle_error_deg)]. ``steps`` must be an integer >= 0 and
    ``lr`` finite and > 0 (ValueError); a zero or non-finite quaternion
    raises GeometryError.
    """
    if not is_int_at_least(steps, 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    if not (is_finite_real(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    qg = normalize_quat(q_gt)
    target = prepare_target(kind, qg, model)
    results = []
    for q0 in inits:
        q = normalize_quat(q0)
        for t in range(steps):
            g = evaluate_loss(kind, q, target.q_gt, model,
                              target=target).gradient
            ng = math.sqrt(g.dot(g))
            if ng < 1e-15:
                break
            q = normalize_quat(q - (lr / math.sqrt(t + 1)) * g / ng)
        results.append((q, rotation_angle_between(q, qg)))
    return results
