import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from posevote import geometry, losses
from posevote.geometry import (GeometryError, NeighborIndex, ObjectModel,
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
    return ObjectModel(name="rand", points=pts)


def test_ploss_zero_at_gt_and_double_cover():
    rng = np.random.default_rng(0)
    m = _random_model(rng)
    q = random_quat(rng)
    target = prepare_target(q, m)
    res = ploss(q, target)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.gradient, 0.0, atol=1e-12)
    assert ploss(-q, target).value == pytest.approx(0.0, abs=1e-15)
    assert sloss(-q, target).value == pytest.approx(0.0, abs=1e-15)


def test_ploss_cube_90deg_matches_oracle():
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], dtype=float) * 0.05
    m = ObjectModel(name="corners", points=corners)
    q_gt = np.array([1.0, 0.0, 0.0, 0.0])
    q_est = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    assert ploss(q_est, prepare_target(q_gt, m)).value == pytest.approx(
        brute_ploss(q_est, q_gt, corners), rel=1e-12)


def test_losses_match_brute_force_oracles():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = _random_model(rng, n=40)
        q1, q2 = random_quat(rng), random_quat(rng)
        target = prepare_target(q2, m)
        assert ploss(q1, target).value == pytest.approx(
            brute_ploss(q1, q2, m.points), rel=1e-12, abs=1e-15)
        assert sloss(q1, target).value == pytest.approx(
            brute_sloss(q1, q2, m.points), rel=1e-12, abs=1e-15)


def test_sloss_le_ploss():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = _random_model(rng, n=30)
        q1, q2 = random_quat(rng), random_quat(rng)
        target = prepare_target(q2, m)
        assert sloss(q1, target).value <= ploss(q1, target).value + 1e-15


def test_sloss_zero_under_cube_symmetry():
    m = make_primitive_model("cube", scale=0.1, n_points=600)
    rng = np.random.default_rng(3)
    q_gt = random_quat(rng)
    target = prepare_target(q_gt, m)
    for k in range(1, 4):
        s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), k * math.pi / 2)
        q_est = quat_multiply(q_gt, s)
        assert sloss(q_est, target).value < 1e-9
        if k != 2:  # 90/270 degrees move the grid points, ploss sees it
            assert ploss(q_est, target).value > 1e-6


def test_sloss_zero_under_bar_180():
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(4)
    q_gt = random_quat(rng)
    s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi)
    q_est = quat_multiply(q_gt, s)
    target = prepare_target(q_gt, m)
    assert sloss(q_est, target).value < 1e-9
    assert ploss(q_est, target).value > 1e-6


def test_sloss_matches_oracle_on_2500_points():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2500, 3)) * 0.05
    m = ObjectModel(name="big", points=pts)
    q1, q2 = random_quat(rng), random_quat(rng)
    assert sloss(q1, prepare_target(q2, m)).value == pytest.approx(
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


def _frozen_normalize_quat(q):
    """normalize_quat as it was with np.linalg.norm: the bits it keeps."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise GeometryError(f"a quaternion has 4 components, got shape {q.shape}")
    n = np.linalg.norm(q)
    if n == 0.0:
        raise GeometryError("cannot normalize an all-zero quaternion")
    if not math.isfinite(n):
        raise GeometryError(f"cannot normalize a quaternion of non-finite "
                            f"norm: {q}")
    return q / n


def _frozen_quat_to_rotation(q):
    """quat_to_rotation as it was with numpy-scalar arithmetic."""
    w, x, y, z = _frozen_normalize_quat(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _frozen_rotation_jacobian(q):
    """_rotation_jacobian as it was with numpy-scalar arithmetic."""
    w, x, y, z = q
    return 2.0 * np.array([[[w, -z, y], [z, w, -x], [-y, x, w]],
                           [[x, y, z], [y, -x, -w], [z, w, -x]],
                           [[-y, x, w], [x, y, z], [-w, z, -y]],
                           [[-z, -w, x], [w, -z, y], [x, y, z]]])


def _outcome(fn, q):
    """fn(q) as its dtype, shape and bytes, or the type and text of what it
    raised."""
    try:
        out = fn(q)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


# signed magnitudes from 1e-150 to 1e150, signed zeros and non-finite values
_COMPONENT = st.one_of(
    st.builds(lambda v, neg: -v if neg else v,
              st.floats(1e-150, 1e150), st.booleans()),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=1000, deadline=None)
@given(q=st.lists(_COMPONENT, min_size=4, max_size=4))
@example(q=[0.0, -0.0, 0.0, -0.0])
@example(q=[-0.0, 1.0, -0.0, 0.0])
@example(q=[1e-150, -1e150, 1e-150, 0.0])
def test_quaternion_helpers_keep_their_bits(q):
    # each helper gives the bits, or raises the error, of its frozen copy, on
    # the drawn q and on its normalization (an already-unit input)
    q = np.array(q)
    inputs = [q]
    if np.isfinite(q).all() and np.any(q):
        inputs.append(_frozen_normalize_quat(q))
    for v in inputs:
        assert (_outcome(normalize_quat, v)
                == _outcome(_frozen_normalize_quat, v))
        assert (_outcome(quat_to_rotation, v)
                == _outcome(_frozen_quat_to_rotation, v))
        if np.isfinite(v).all():
            assert (_outcome(_rotation_jacobian, v)
                    == _outcome(_frozen_rotation_jacobian, v))


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
        gt = gt[NeighborIndex(gt).query(est)[1]]
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


@contextlib.contextmanager
def _tree_queries():
    """The (points, k) of every k-d tree query made by a tree built inside
    the block."""
    queries = []

    class Counting(geometry.cKDTree):
        def query(self, x, k=1, **kwargs):
            queries.append((np.array(x), k))
            return super().query(x, k=k, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "cKDTree", Counting)
        yield queries


def _point_queries(queries):
    return sum(len(x) for x, _ in queries)


def test_optimize_rotation_matches_per_step_reference_on_acceptance_4_schedule():
    # acceptance 4's model, ground truth and schedule; late steps move far
    # less than the point spacing, so most correspondences stay cached
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(104)
    q_gt = random_quat(rng)
    inits = [random_quat(rng) for _ in range(5)]
    with _tree_queries() as queries:
        got = optimize_rotation(m, q_gt, LossKind.SLOSS, inits, steps=500,
                                lr=0.03)
    assert _point_queries(queries) < 500 * 320
    ref = _reference_optimize_rotation(m, q_gt, LossKind.SLOSS, inits, 500)
    for (q, angle), (ref_q, ref_angle) in zip(got, ref, strict=True):
        assert np.array_equal(q, ref_q)
        assert angle == ref_angle


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tiny_steps_keep_correspondences_cached(seed):
    # at lr 1e-7 no point moves 1e-7 m in the whole descent, so after the
    # first step only a point whose two closest targets are that nearly tied
    # may be queried again (twice a step at most: k = 2, then k = 1 for a tie)
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(seed)
    q_gt, q0 = random_quat(rng), random_quat(rng)
    steps, lr = 20, 1e-7
    # the bar repeats no point, so the second closest target is distinct
    d = np.sort(cdist(m.points @ quat_to_rotation(q0).T,
                      m.points @ quat_to_rotation(q_gt).T), axis=1)
    reach = 0.5 * (d[:, 1] - d[:, 0]) - 1e-9 * d[:, 1]
    path = 2.0 * sum(lr / math.sqrt(t + 1) for t in range(steps))
    near = int(np.sum(reach <= path * np.linalg.norm(m.points, axis=1) + 1e-12))
    with _tree_queries() as first:
        optimize_rotation(m, q_gt, LossKind.SLOSS, [q0], steps=1, lr=lr)
    with _tree_queries() as queries:
        (q, angle), = optimize_rotation(m, q_gt, LossKind.SLOSS, [q0],
                                        steps=steps, lr=lr)
    later = _point_queries(queries) - _point_queries(first)
    assert 0 <= later <= 2 * (steps - 1) * near
    (ref_q, ref_angle), = _reference_optimize_rotation(
        m, q_gt, LossKind.SLOSS, [q0], steps, lr=lr)
    assert np.array_equal(q, ref_q)
    assert angle == ref_angle


def test_cube_duplicates_need_no_wider_query():
    # the cube's edge samples repeat, but the tree holds each distinct
    # target once, so a point's two closest targets never share coordinates
    # and no query asks for more than two
    m = make_primitive_model("cube", scale=0.1, n_points=320)
    assert len(np.unique(m.points, axis=0)) < len(m.points)
    rng = np.random.default_rng(24)
    q_gt = random_quat(rng)
    inits = [random_quat(rng) for _ in range(3)]
    with _tree_queries() as queries:
        got = optimize_rotation(m, q_gt, LossKind.SLOSS, inits, steps=100)
    assert max(k for _, k in queries) <= 2
    assert _point_queries(queries) < 3 * 100 * len(m.points)
    ref = _reference_optimize_rotation(m, q_gt, LossKind.SLOSS, inits, 100)
    for (q, angle), (ref_q, ref_angle) in zip(got, ref, strict=True):
        assert np.array_equal(q, ref_q)
        assert angle == ref_angle


def test_point_midway_between_two_targets_is_queried_every_step():
    # q_gt turns the model half a turn about x, so the estimate of the first
    # point, on the z axis, sits exactly midway between the other two
    # targets for every turn about z; the other two points stay cached
    m = ObjectModel(name="three", points=np.array(
        [[0.0, 0.0, 0.05], [0.05, 0.0, -0.05], [-0.05, 0.0, -0.05]]))
    q_gt = np.array([0.0, 1.0, 0.0, 0.0])
    with _tree_queries() as queries:
        shared = prepare_target(q_gt, m)
        for t in range(6):
            q_est = quat_from_axis_angle([0.0, 0.0, 1.0], 0.01 * t)
            est = m.points @ quat_to_rotation(q_est).T
            d = np.linalg.norm(shared.points - est[0], axis=1)
            assert d[1] == d[2] < d[0]
            queries.clear()
            res = sloss(q_est, shared)
            # the tied point takes a fresh k = 1 query's choice each time
            assert np.array_equal(queries[-1][0], est[:1])
            assert queries[-1][1] == 1
            assert _point_queries(queries) == (4 if t == 0 else 2)
            ref_value, ref_grad = _reference_loss(LossKind.SLOSS, q_est, q_gt, m)
            assert res.value == ref_value
            assert np.array_equal(res.gradient, ref_grad)


def test_target_shared_by_a_descent_answers_as_fresh_ones(monkeypatch):
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(25)
    q_gt = random_quat(rng)
    prepared = []

    def keeping(*args):
        prepared.append(prepare_target(*args))
        return prepared[-1]

    monkeypatch.setattr(losses, "prepare_target", keeping)
    (q, _), = optimize_rotation(m, q_gt, LossKind.SLOSS, [random_quat(rng)],
                                steps=60)
    target, = prepared
    assert isinstance(target.index, NeighborIndex)
    for q_est in (q, random_quat(rng)):
        res = sloss(q_est, target)
        fresh = sloss(q_est, prepare_target(q_gt, m))
        assert res.value == fresh.value
        assert np.array_equal(res.gradient, fresh.gradient)


@pytest.mark.parametrize("model_kind", PRIMITIVE_KINDS)
def test_prepared_target_gives_bit_equal_losses(model_kind):
    # one target serves ploss, sloss and evaluate_loss in alternation: PLoss
    # calls between SLoss calls leave the cached correspondences intact
    m = make_primitive_model(model_kind, scale=0.1, n_points=320)
    rng = np.random.default_rng(21)
    for _ in range(10):
        q_gt = random_quat(rng) * 3.0
        target = prepare_target(q_gt, m)
        for _ in range(3):
            q_est = random_quat(rng)
            for kind, fn in ((LossKind.PLOSS, ploss), (LossKind.SLOSS, sloss),
                             (LossKind.PLOSS, ploss), (LossKind.SLOSS, sloss)):
                ref_value, ref_grad = _reference_loss(kind, q_est, q_gt, m)
                for res in (fn(q_est, target),
                            evaluate_loss(kind, q_est, target)):
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
        with _tree_queries() as queries:
            got = loss_gradient_check(kind, q_est, q_gt, m)
        assert len(prepared) == 1
        # the nine evaluations share the target's correspondences
        if kind is LossKind.SLOSS:
            assert _point_queries(queries) < 9 * 320
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


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_losses_reject_non_finite_quaternions(bad):
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    good = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.5, 0.5, bad, 0.5])
    target = prepare_target(good, m)
    for fn in (ploss, sloss):
        with pytest.raises(GeometryError, match="non-finite"):
            fn(q, target)
    with pytest.raises(GeometryError, match="non-finite"):
        prepare_target(q, m)


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
    {"lr": "0.03"}, {"lr": True}, {"lr": 10**400}])
def test_optimize_rotation_rejects_bad_settings(setting):
    m = make_primitive_model("cube", scale=0.1, n_points=150)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=next(iter(setting))):
        optimize_rotation(m, q, LossKind.PLOSS, [q], **setting)
