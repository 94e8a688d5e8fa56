import math

import numpy as np
import pytest

from posevote import losses
from posevote.geometry import (GeometryError, ObjectModel, nearest_neighbors,
                               normalize_quat, quat_from_axis_angle,
                               quat_multiply, quat_to_rotation, random_quat,
                               rotation_angle_between)
from posevote.losses import (LossKind, _rotation_jacobian, _tangent_project,
                             evaluate_loss, loss_gradient_check,
                             optimize_rotation, ploss, prepare_target, sloss)
from posevote.synth import PRIMITIVE_KINDS, make_primitive_model


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


def _reference_loss(kind, q_est, q_gt, model):
    """(value, gradient) as every call computed them before the ground truth
    could be prepared once: q_gt rotated, and for SLoss searched by a fresh
    k-d tree, on each call, and one matmul per quaternion component."""
    qe = normalize_quat(q_est)
    qg = normalize_quat(q_gt)
    pts = model.points
    m = pts.shape[0]
    est = pts @ quat_to_rotation(qe).T
    gt = pts @ quat_to_rotation(qg).T
    if kind is LossKind.SLOSS:
        gt = gt[nearest_neighbors(est, gt)[1]]
    diff = est - gt
    value = float(np.sum(diff * diff)) / (2.0 * m)
    jac = _rotation_jacobian(qe)
    grad = np.array([np.sum(diff * (pts @ jac[k].T)) for k in range(4)]) / m
    return value, _tangent_project(grad, qe)


def _reference_optimize_rotation(model, q_gt, kind, inits, steps, lr=0.03):
    """The descent with the ground truth rebuilt on every step."""
    qg = normalize_quat(q_gt)
    results = []
    for q0 in inits:
        q = normalize_quat(q0)
        for t in range(steps):
            g = _reference_loss(kind, q, qg, model)[1]
            ng = float(np.linalg.norm(g))
            if ng < 1e-15:
                break
            q = normalize_quat(q - (lr / math.sqrt(t + 1)) * g / ng)
        results.append((q, rotation_angle_between(q, qg)))
    return results


@pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("model_kind", PRIMITIVE_KINDS)
def test_optimize_rotation_matches_per_step_reference(model_kind, kind):
    m = make_primitive_model(model_kind, scale=0.1, n_points=320)
    rng = np.random.default_rng(20)
    q_gt = random_quat(rng)
    # random starts, one at the ground truth (a stationary point) and its
    # antipode, and one 10 degrees off
    inits = [random_quat(rng), random_quat(rng), q_gt, -q_gt,
             quat_multiply(quat_from_axis_angle([1.0, 2.0, 3.0],
                                                math.radians(10)), q_gt)]
    for steps in (0, 1, 60):
        got = optimize_rotation(m, q_gt, kind, inits, steps=steps)
        ref = _reference_optimize_rotation(m, q_gt, kind, inits, steps)
        for (q, angle), (ref_q, ref_angle) in zip(got, ref, strict=True):
            assert np.array_equal(q, ref_q)
            assert angle == ref_angle


@pytest.mark.parametrize("model_kind", PRIMITIVE_KINDS)
def test_prepared_target_gives_bit_equal_losses(model_kind):
    m = make_primitive_model(model_kind, scale=0.1, n_points=320)
    rng = np.random.default_rng(21)
    for _ in range(10):
        q_est, q_gt = random_quat(rng), random_quat(rng) * 3.0
        shape_target = prepare_target(LossKind.SLOSS, q_gt, m)
        for kind, fn in ((LossKind.PLOSS, ploss), (LossKind.SLOSS, sloss)):
            ref_value, ref_grad = _reference_loss(kind, q_est, q_gt, m)
            targets = (None, prepare_target(kind, q_gt, m), shape_target)
            for target in targets:
                res = fn(q_est, q_gt, m, target=target)
                assert res.value == ref_value
                assert np.array_equal(res.gradient, ref_grad)
                res = evaluate_loss(kind, q_est, q_gt, m, target=target)
                assert res.value == ref_value
                assert np.array_equal(res.gradient, ref_grad)


def test_loss_gradient_check_prepares_its_target_once(monkeypatch):
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(22)
    q_gt = random_quat(rng)
    q_est = quat_multiply(quat_from_axis_angle([0.0, 1.0, 1.0], 0.05), q_gt)
    prepared = []

    def counting(*args):
        prepared.append(args)
        return prepare_target(*args)

    monkeypatch.setattr(losses, "prepare_target", counting)
    for kind in LossKind:
        prepared.clear()
        got = loss_gradient_check(kind, q_est, q_gt, m)
        assert len(prepared) == 1
        # the same figure from nine per-call reference evaluations
        qe = normalize_quat(q_est)
        fd = np.zeros(4)
        for k in range(4):
            step = np.zeros(4)
            step[k] = losses._FD_STEP
            fd[k] = (_reference_loss(kind, qe + step, q_gt, m)[0]
                     - _reference_loss(kind, qe - step, q_gt, m)[0]) \
                / (2.0 * losses._FD_STEP)
        fd = _tangent_project(fd, qe)
        err = np.abs(_reference_loss(kind, qe, q_gt, m)[1] - fd)
        assert got == float(np.max(err) / max(float(np.max(np.abs(fd))), 1e-12))


def test_mismatched_target_raises():
    cube = make_primitive_model("cube", scale=0.1, n_points=150)
    bar = make_primitive_model("bar_2fold", scale=0.1, n_points=150)
    rng = np.random.default_rng(23)
    q_est, q_gt = random_quat(rng), random_quat(rng)
    with pytest.raises(ValueError, match="prepared for another"):
        sloss(q_est, q_gt, bar, target=prepare_target(LossKind.SLOSS, q_gt, cube))
    with pytest.raises(ValueError, match="prepared for another"):
        ploss(q_est, q_gt, cube,
              target=prepare_target(LossKind.PLOSS, random_quat(rng), cube))
    with pytest.raises(ValueError, match="prepared for another"):
        sloss(q_est, q_gt, cube, target=prepare_target(LossKind.PLOSS, q_gt, cube))


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_losses_reject_non_finite_quaternions(bad):
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    good = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.5, 0.5, bad, 0.5])
    for fn in (ploss, sloss):
        with pytest.raises(GeometryError, match="non-finite"):
            fn(q, good, m)
        with pytest.raises(GeometryError, match="non-finite"):
            fn(good, q, m)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
def test_optimize_rotation_rejects_non_finite_quaternions(kind, bad):
    # a NaN start used to come back as a NaN quaternion scored 0.0 degrees
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    good = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.5, 0.5, bad, 0.5])
    with pytest.raises(GeometryError, match="non-finite"):
        optimize_rotation(m, good, kind, [good, q], steps=2)
    with pytest.raises(GeometryError, match="non-finite"):
        optimize_rotation(m, q, kind, [good], steps=2)


@pytest.mark.parametrize("setting", [
    {"steps": -1}, {"steps": 1.5}, {"steps": True}, {"steps": "3"},
    {"lr": 0.0}, {"lr": -0.03}, {"lr": math.nan}, {"lr": math.inf},
    {"lr": "0.03"}])
def test_optimize_rotation_rejects_bad_settings(setting):
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=next(iter(setting))):
        optimize_rotation(m, q, LossKind.PLOSS, [q], **setting)
