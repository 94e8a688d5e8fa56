import math

import numpy as np
import pytest

from posevote.geometry import (ObjectModel, quat_from_axis_angle,
                               quat_multiply, quat_to_rotation, random_quat)
from posevote.losses import (LossKind, loss_gradient_check, optimize_rotation,
                             ploss, sloss)
from posevote.synth import make_primitive_model


def brute_ploss(q_est, q_gt, pts):
    a = pts @ quat_to_rotation(q_est).T
    b = pts @ quat_to_rotation(q_gt).T
    return float(np.sum((a - b) ** 2)) / (2 * len(pts))


def brute_sloss(q_est, q_gt, pts):
    a = pts @ quat_to_rotation(q_est).T
    b = pts @ quat_to_rotation(q_gt).T
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.sum(d2.min(axis=1))) / (2 * len(pts))


def _random_model(rng, n=60):
    pts = rng.standard_normal((n, 3)) * 0.05
    return ObjectModel(class_id=1, name="rand", points=pts)


def test_ploss_zero_at_gt_and_double_cover():
    rng = np.random.default_rng(0)
    m = _random_model(rng)
    q = random_quat(rng)
    res = ploss(q, q, m)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.gradient, 0.0, atol=1e-12)
    assert ploss(-q, q, m).value == pytest.approx(0.0, abs=1e-15)
    assert sloss(-q, q, m).value == pytest.approx(0.0, abs=1e-15)


def test_ploss_cube_90deg_matches_oracle():
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], dtype=float) * 0.05
    m = ObjectModel(class_id=1, name="corners", points=corners)
    q_gt = np.array([1.0, 0.0, 0.0, 0.0])
    q_est = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    assert ploss(q_est, q_gt, m).value == pytest.approx(
        brute_ploss(q_est, q_gt, corners), rel=1e-12)


def test_losses_match_brute_force_oracles():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = _random_model(rng, n=40)
        q1, q2 = random_quat(rng), random_quat(rng)
        assert ploss(q1, q2, m).value == pytest.approx(
            brute_ploss(q1, q2, m.points), rel=1e-12, abs=1e-15)
        assert sloss(q1, q2, m).value == pytest.approx(
            brute_sloss(q1, q2, m.points), rel=1e-12, abs=1e-15)


def test_sloss_le_ploss():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = _random_model(rng, n=30)
        q1, q2 = random_quat(rng), random_quat(rng)
        assert sloss(q1, q2, m).value <= ploss(q1, q2, m).value + 1e-15


def test_sloss_zero_under_cube_symmetry():
    m = make_primitive_model("cube", scale=0.1, n_points=600)
    rng = np.random.default_rng(3)
    q_gt = random_quat(rng)
    for k in range(1, 4):
        s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), k * math.pi / 2)
        q_est = quat_multiply(q_gt, s)
        assert sloss(q_est, q_gt, m).value < 1e-9
        if k != 2:  # 90/270 degrees move the grid points, ploss sees it
            assert ploss(q_est, q_gt, m).value > 1e-6


def test_sloss_zero_under_bar_180():
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(4)
    q_gt = random_quat(rng)
    s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi)
    q_est = quat_multiply(q_gt, s)
    assert sloss(q_est, q_gt, m).value < 1e-9
    assert ploss(q_est, q_gt, m).value > 1e-6


def test_sloss_matches_oracle_on_2500_points():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2500, 3)) * 0.05
    m = ObjectModel(class_id=1, name="big", points=pts)
    q1, q2 = random_quat(rng), random_quat(rng)
    assert sloss(q1, q2, m).value == pytest.approx(
        brute_sloss(q1, q2, pts), rel=1e-10)


def test_gradient_checks():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = _random_model(rng, n=30)
        q_gt = random_quat(rng)
        q_est = random_quat(rng)
        assert loss_gradient_check(LossKind.PLOSS, q_est, q_gt, m) < 1e-4


def test_gradient_check_sloss_away_from_switches():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        m = _random_model(rng, n=30)
        q_gt = random_quat(rng)
        # stay near the ground truth where correspondences are stable
        dq = quat_from_axis_angle(rng.standard_normal(3), 0.05)
        q_est = quat_multiply(dq, q_gt)
        err = loss_gradient_check(LossKind.SLOSS, q_est, q_gt, m)
        assert err < 1e-4
        checked += 1


def test_optimize_rotation_ploss_basin():
    m = make_primitive_model("asymmetric_blob", scale=0.12, n_points=200)
    rng = np.random.default_rng(8)
    q_gt = random_quat(rng)
    inits = [quat_multiply(quat_from_axis_angle(rng.standard_normal(3),
                                                math.radians(10)), q_gt)
             for _ in range(10)]
    results = optimize_rotation(m, q_gt, LossKind.PLOSS, inits)
    assert all(ang < 1.0 for _, ang in results)


def test_optimize_rotation_zero_steps_identity():
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    rng = np.random.default_rng(9)
    q_gt = random_quat(rng)
    inits = [random_quat(rng) for _ in range(3)]
    results = optimize_rotation(m, q_gt, LossKind.PLOSS, inits, steps=0)
    for (q, _), q0 in zip(results, inits):
        assert np.allclose(q, q0 / np.linalg.norm(q0))
