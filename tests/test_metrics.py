import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from posevote.geometry import (CameraIntrinsics, GeometryError, ObjectModel,
                               Pose, project, quat_from_axis_angle,
                               quat_multiply, quat_to_rotation, random_quat)
from posevote.metrics import (accuracy_curve, add, add_s, auc, is_correct,
                              reprojection_error)
from posevote.synth import default_registry, make_primitive_model

K = CameraIntrinsics(fx=500.0, fy=500.0, px=320.0, py=240.0)


def _random_pose(rng, tz=1.0):
    return Pose(random_quat(rng),
                np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                          tz + rng.uniform(-0.2, 0.2)]))


def brute_add(est, gt, pts):
    a = pts @ quat_to_rotation(est.quaternion).T + est.translation
    b = pts @ quat_to_rotation(gt.quaternion).T + gt.translation
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def brute_add_s(est, gt, pts):
    a = pts @ quat_to_rotation(est.quaternion).T + est.translation
    b = pts @ quat_to_rotation(gt.quaternion).T + gt.translation
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(np.mean(d.min(axis=1)))


def test_identical_poses_zero():
    rng = np.random.default_rng(0)
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    p = _random_pose(rng)
    assert add(p, p, m) == pytest.approx(0.0, abs=1e-12)
    assert add_s(p, p, m) == pytest.approx(0.0, abs=1e-12)
    assert reprojection_error(p, p, m, K) == pytest.approx(0.0, abs=1e-9)


def test_pure_translation_offset():
    rng = np.random.default_rng(1)
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    gt = _random_pose(rng)
    est = Pose(gt.quaternion.copy(), gt.translation + np.array([0.03, 0, 0]))
    assert add(est, gt, m) == pytest.approx(0.03, rel=1e-12)


def test_add_matches_oracle():
    rng = np.random.default_rng(2)
    small = make_primitive_model("cube", scale=0.1, n_points=96)
    large = ObjectModel(name="large", points=rng.standard_normal((2500, 3)) * 0.05)
    for m, trials in ((small, 50), (large, 3)):
        for _ in range(trials):
            est, gt = _random_pose(rng), _random_pose(rng)
            assert add(est, gt, m) == pytest.approx(
                brute_add(est, gt, m.points), rel=1e-12)
            assert add_s(est, gt, m) == pytest.approx(
                brute_add_s(est, gt, m.points), rel=1e-12)


def test_add_s_matches_a_fresh_kd_tree_bit_for_bit():
    # the oracle's tree holds every target, while a NeighborIndex holds each
    # distinct target once; the cube has exact duplicate points, and no
    # closest-point distance may move by a bit
    models = [*default_registry().values(),
              make_primitive_model("bar_2fold", scale=0.1, n_points=320)]
    rng = np.random.default_rng(34)
    for m in models:
        for _ in range(20):
            gt = _random_pose(rng)
            dq = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]),
                                      rng.uniform(-0.3, 0.3))
            near = Pose(quat_multiply(gt.quaternion, dq),
                        gt.translation + rng.uniform(-0.01, 0.01, 3))
            for est in (_random_pose(rng), near):
                want = float(np.mean(cKDTree(gt.transform(m.points))
                                     .query(est.transform(m.points))[0]))
                assert add_s(est, gt, m) == want


def test_add_s_le_add():
    rng = np.random.default_rng(3)
    m = make_primitive_model("asymmetric_blob", scale=0.12, n_points=100)
    for _ in range(300):
        est, gt = _random_pose(rng), _random_pose(rng)
        assert add_s(est, gt, m) <= add(est, gt, m) + 1e-12


def test_bar_flip_add_s_near_zero():
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(4)
    gt = _random_pose(rng)
    flip = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi)
    est = Pose(quat_multiply(gt.quaternion, flip), gt.translation.copy())
    assert add_s(est, gt, m) < 1e-9
    assert add(est, gt, m) > 0.01


def test_reprojection_matches_oracle():
    rng = np.random.default_rng(5)
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    est, gt = _random_pose(rng), _random_pose(rng)
    a = project(m.points @ quat_to_rotation(est.quaternion).T
                + est.translation, K)
    b = project(m.points @ quat_to_rotation(gt.quaternion).T
                + gt.translation, K)
    oracle = float(np.mean(np.linalg.norm(a - b, axis=1)))
    assert reprojection_error(est, gt, m, K) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("behind", ["est", "gt"])
def test_reprojection_rejects_points_behind_the_camera(behind):
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    front = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    # the cube straddles the camera plane: some of its points have z < 0
    straddle = Pose(front.quaternion, np.array([0.0, 0.0, 0.01]))
    est, gt = (straddle, front) if behind == "est" else (front, straddle)
    with pytest.raises(GeometryError, match="behind the camera"):
        reprojection_error(est, gt, m, K)


def test_reprojection_scales_with_focal_length():
    rng = np.random.default_rng(6)
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    gt = _random_pose(rng)
    est = Pose(gt.quaternion.copy(), gt.translation + np.array([0.01, 0.0, 0.0]))
    k2 = CameraIntrinsics(fx=2 * K.fx, fy=2 * K.fy, px=K.px, py=K.py)
    e1 = reprojection_error(est, gt, m, K)
    e2 = reprojection_error(est, gt, m, k2)
    assert e2 == pytest.approx(2 * e1, rel=1e-9)


def test_is_correct_threshold():
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    assert is_correct(0.0, m)
    assert is_correct(0.09 * m.diameter, m)
    assert not is_correct(0.1 * m.diameter, m)  # strict inequality
    assert not is_correct(m.diameter, m)


def test_accuracy_curve_extremes():
    c = accuracy_curve([0.0, 0.0, 0.0], 0.10)
    assert np.all(c.accuracy == 1.0)
    c = accuracy_curve([0.2, 0.3], 0.10)
    assert np.all(c.accuracy == 0.0)


def test_accuracy_curve_step():
    c = accuracy_curve([0.05], 0.10)
    # step from 0 to 1 at t = 0.05
    assert np.all(c.accuracy[c.thresholds < 0.05] == 0.0)
    assert np.all(c.accuracy[c.thresholds > 0.05] == 1.0)
    below = c.thresholds[c.accuracy == 0.0]
    assert below.max() <= 0.05


def test_accuracy_curve_monotone():
    rng = np.random.default_rng(7)
    c = accuracy_curve(rng.uniform(0, 0.2, 100), 0.10)
    assert np.all(np.diff(c.accuracy) >= 0)


# a NaN or infinite cap would give an AUC of NaN
@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0.0, -0.1, "x", True])
def test_accuracy_curve_rejects_cap_not_finite_and_positive(cap):
    with pytest.raises(ValueError, match="max_threshold"):
        accuracy_curve([0.05], cap)


def test_auc_perfect_and_failures():
    assert auc(accuracy_curve([0.0] * 5, 0.10)) == pytest.approx(100.0)
    assert auc(accuracy_curve([0.5] * 5, 0.10)) == pytest.approx(0.0)


def test_auc_single_step():
    assert auc(accuracy_curve([0.05], 0.10)) == pytest.approx(50.0, abs=0.5)


def test_auc_resolution_convergence():
    rng = np.random.default_rng(8)
    d = rng.uniform(0, 0.15, 50)
    exact = float(np.mean(np.clip((0.10 - d) / 0.10, 0, None))) * 100
    got = auc(accuracy_curve(d, 0.10))
    assert got == pytest.approx(exact, abs=0.01)


def test_add_invariant_under_global_rigid_transform():
    rng = np.random.default_rng(9)
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    est, gt = _random_pose(rng), _random_pose(rng)
    g = Pose(random_quat(rng), rng.uniform(-0.2, 0.2, 3))

    def moved(p):  # g applied after p
        return Pose(quat_multiply(g.quaternion, p.quaternion),
                    g.rotation_matrix() @ p.translation + g.translation)

    assert add(moved(est), moved(gt), m) == pytest.approx(
        add(est, gt, m), rel=1e-9)
