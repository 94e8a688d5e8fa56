"""Pose refinement by projective point-to-plane ICP.

Each iteration renders the model at the current pose over the window the
masked observed depth pixels span, associates every masked observed depth
pixel with the rendered surface at the same pixel, and forms the signed
distance from the observed 3D point to the rendered tangent plane.
Residuals above a rejection threshold are dropped; the remaining ones drive
a damped Gauss-Newton step on the 6-dof pose (rotation handled as a tangent
increment composed onto the quaternion), with step halving so the mean
inlier residual never increases. Multi-hypothesis refinement perturbs the
initial pose with seeded random offsets and keeps the pose with the best
alignment score = inlier_fraction - mean_residual / reject threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import DepthMap, LabelMap
from .geometry import (CameraIntrinsics, ObjectModel, Pose, cross_rows,
                       is_int_at_least, quat_from_axis_angle, quat_multiply,
                       random_unit)
from .synth import RangeImage, Scene, render_full

_MIN_MASK_PIXELS = 50
_MAX_HALVINGS = 8
_CONVERGENCE_TOL = 1e-5  # meters of pose change per iteration
_RESIDUAL_REJECT_M = 0.02  # point-plane residuals above this are outliers
_PERTURB_ROT_SIGMA_DEG = 20.0  # hypothesis rotation offsets
_PERTURB_TRANS_SIGMA_M = 0.02  # hypothesis translation offsets


class IcpError(RuntimeError):
    pass


@dataclass
class IcpParams:
    """ICP settings; the step schedule, residual cut and hypothesis offsets
    are constants."""

    max_iterations: int = 100
    n_hypotheses: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        counts = (self.max_iterations, self.n_hypotheses)
        if not all(is_int_at_least(n, 1) for n in counts):
            raise ValueError("max_iterations and n_hypotheses must be "
                             "integers of at least 1")
        if not is_int_at_least(self.rng_seed, 0):
            raise ValueError("rng_seed must be a non-negative integer")


@dataclass
class RefineResult:
    pose: Pose
    mean_residual: float  # mean |signed point-plane residual| over inliers
    inlier_fraction: float  # inliers / masked observed pixels
    iterations: int
    objective_trace: list  # truncated energy at the start and per accepted step

    def alignment_score(self) -> float:
        """Coverage-minus-fit score used to pick among refined hypotheses."""
        return self.inlier_fraction - self.mean_residual / _RESIDUAL_REJECT_M


def _observed_points(observed: DepthMap, mask: np.ndarray,
                     intrinsics: CameraIntrinsics):
    """Masked observed pixels, their rays ((x-px)/fx, (y-py)/fy, 1) and the
    camera-frame points rays * depth."""
    ys, xs = np.nonzero(mask & (observed.depth > 0))
    z = observed.depth[ys, xs].astype(float)
    rays = np.stack([(xs - intrinsics.px) / intrinsics.fx,
                     (ys - intrinsics.py) / intrinsics.fy,
                     np.ones(xs.size)], axis=1)
    return xs, ys, rays, rays * z[:, None]


def _associate(raster: RangeImage, flat, rays, obs_pts, reject: float):
    """Point-plane residuals for masked pixels with rendered coverage;
    `flat` indexes each masked pixel in the rendered window.

    Returns inlier (points, normals, residuals), the inlier count, the mean
    absolute inlier residual, and a truncated alignment energy: the mean over
    all masked pixels of min(|r|, reject), with uncovered pixels saturated at
    the rejection threshold. The truncated energy is the line-search
    objective; unlike the raw inlier mean it cannot be gamed by shrinking
    the inlier set.
    """
    n_masked = flat.size
    depth = raster.depth.ravel()[flat]
    hit = np.flatnonzero(depth > 0)
    # row gathers go through take, which is faster than fancy indexing
    p = rays.take(hit, axis=0) * depth[hit][:, None]
    n = raster.face_normals.take(raster.face.ravel().take(flat[hit]), axis=0)
    nd = obs_pts.take(hit, axis=0) - p
    nd *= n
    r = 0.0 + nd[:, 0] + nd[:, 1] + nd[:, 2]  # n . (o - p), added as np.sum does
    abs_r = np.abs(r)
    keep = abs_r <= reject
    n_in = int(keep.sum())
    if n_in == 0:
        return None
    mean_abs = float(np.mean(abs_r[keep]))
    energy = (float(np.sum(np.minimum(abs_r, reject)))
              + (n_masked - r.size) * reject) / n_masked
    if n_in < r.size:
        keep = np.flatnonzero(keep)
        p, n, r = p.take(keep, axis=0), n.take(keep, axis=0), r[keep]
    return p, n, r, n_in, mean_abs, energy


def _apply_increment(pose: Pose, omega: np.ndarray, dt: np.ndarray) -> Pose:
    dq = quat_from_axis_angle(omega, float(np.linalg.norm(omega)))
    dr = Pose(dq, dt)
    return Pose(quat_multiply(dq, pose.quaternion),
                dr.rotation_matrix() @ pose.translation + dt)


def icp_refine(observed: DepthMap, labels: LabelMap, class_id: int,
               model: ObjectModel, init: Pose, intrinsics: CameraIntrinsics,
               params: IcpParams | None = None) -> RefineResult:
    """Refine a pose against an observed depth map cropped by semantic labels.

    Returns the refined pose with its final mean inlier residual and inlier
    fraction. The accepted-step rule guarantees the returned pose's mean
    inlier residual is never above the initial pose's.
    """
    params = params or IcpParams()
    if init.translation[2] <= 0:
        raise IcpError("initial pose is behind the camera")
    if labels.labels.shape != observed.depth.shape:
        raise IcpError(f"label map shape {labels.labels.shape} differs from "
                       f"depth map shape {observed.depth.shape}")
    mask = labels.labels == class_id
    xs, ys, rays, obs_pts = _observed_points(observed, mask, intrinsics)
    n_masked = xs.size
    if n_masked < _MIN_MASK_PIXELS:
        raise IcpError(f"insufficient support: {n_masked} masked depth pixels "
                       f"(need {_MIN_MASK_PIXELS})")
    h, w = observed.depth.shape
    # only the window the masked pixels span is rendered
    x0, y0 = int(xs.min()), int(ys.min())
    window = (x0, y0, int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1)
    flat = (ys - y0) * window[2] + (xs - x0)
    radius = 0.5 * model.diameter

    def evaluate(pose: Pose):
        if pose.translation[2] <= 0:
            return None  # candidate stepped behind the camera
        scene = Scene(instances=[(class_id, pose)], intrinsics=intrinsics,
                      width=w, height=h, window=window)
        raster = render_full(scene, {class_id: model})
        return _associate(raster, flat, rays, obs_pts, _RESIDUAL_REJECT_M)

    current = init
    state = evaluate(current)
    if state is None:
        raise IcpError("projective association failed: no rendered coverage")
    init_state = state
    trace = [state[5]]
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        p, n, r, n_in, mean_abs, energy = state
        # linearize: r(omega, dt) ~= r - (p x n) . omega - n . dt
        jac = np.empty((n_in, 6))
        cross_rows(p, n, out=jac[:, :3])
        jac[:, 3:] = n
        jtj = jac.T @ jac
        jtr = jac.T @ r
        damp = 1e-9 * max(np.trace(jtj) / 6.0, 1e-12)
        try:
            xi = np.linalg.solve(jtj + damp * np.eye(6), jtr)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(xi).all():
            break  # near-singular: no step to take, as for LinAlgError
        step = 1.0
        accepted = None
        for _ in range(_MAX_HALVINGS):
            cand = _apply_increment(current, step * xi[:3], step * xi[3:])
            cand_state = evaluate(cand)
            if cand_state is not None and cand_state[5] <= energy:
                accepted = (cand, cand_state, step)
                break
            step *= 0.5
        if accepted is None:
            break
        current, state, step = accepted
        trace.append(state[5])
        change = step * (float(np.linalg.norm(xi[3:]))
                         + float(np.linalg.norm(xi[:3])) * radius)
        if change < _CONVERGENCE_TOL:
            break
    if state[4] > init_state[4]:
        # never return a pose with a worse inlier residual than the input
        current, state = init, init_state
    _, _, _, n_in, mean_abs, _ = state
    return RefineResult(pose=current, mean_residual=mean_abs,
                        inlier_fraction=n_in / n_masked, iterations=iterations,
                        objective_trace=trace)


def _random_perturbation(pose: Pose, rng: np.random.Generator) -> Pose:
    axis = random_unit(rng, 3)
    angle = abs(rng.normal(0.0, math.radians(_PERTURB_ROT_SIGMA_DEG)))
    direction = random_unit(rng, 3)
    magnitude = abs(rng.normal(0.0, _PERTURB_TRANS_SIGMA_M))
    dq = quat_from_axis_angle(axis, angle)
    return Pose(quat_multiply(dq, pose.quaternion),
                pose.translation + magnitude * direction)


def multi_hypothesis_refine(observed: DepthMap, labels: LabelMap, class_id: int,
                            model: ObjectModel, init: Pose,
                            intrinsics: CameraIntrinsics,
                            params: IcpParams) -> RefineResult:
    """Refine the initial pose plus seeded random perturbations of it and
    return the result with the best alignment score (coverage minus
    normalized residual). Deterministic for a fixed rng_seed.
    """
    rng = np.random.default_rng(params.rng_seed)
    hypotheses = [init]
    for _ in range(params.n_hypotheses - 1):
        hypotheses.append(_random_perturbation(init, rng))
    best = None
    for hyp in hypotheses:
        try:
            res = icp_refine(observed, labels, class_id, model, hyp,
                             intrinsics, params)
        except IcpError as exc:
            last_error = exc
            continue
        score = res.alignment_score()
        if best is None or score > best[0]:
            best = (score, res)
    if best is None:
        raise last_error  # every hypothesis failed (init is always one)
    return best[1]
