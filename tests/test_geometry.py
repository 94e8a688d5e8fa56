import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from posevote.geometry import (CameraIntrinsics, GeometryError, NeighborIndex,
                               ObjectModel, Pose, backproject_center,
                               model_diameter, normalize_quat, project,
                               quat_from_axis_angle, quat_multiply,
                               quat_to_rotation, random_quat,
                               rotation_angle_between)
from posevote.synth import default_registry, make_primitive_model

K = CameraIntrinsics(fx=500.0, fy=500.0, px=320.0, py=240.0)


def test_quat_to_rotation_identity():
    assert np.allclose(quat_to_rotation([1, 0, 0, 0]), np.eye(3))


def test_quat_to_rotation_x_flip():
    assert np.allclose(quat_to_rotation([0, 1, 0, 0]), np.diag([1, -1, -1]))


def test_quat_double_cover():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = random_quat(rng)
        assert np.allclose(quat_to_rotation(q), quat_to_rotation(-q))


def test_quat_to_rotation_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(200):
        R = quat_to_rotation(random_quat(rng))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q1, q2 = random_quat(rng), random_quat(rng)
        R = quat_to_rotation(quat_multiply(q1, q2))
        assert np.allclose(R, quat_to_rotation(q1) @ quat_to_rotation(q2))


def test_quat_conjugate_is_inverse():
    rng = np.random.default_rng(3)
    q = random_quat(rng)
    qq = quat_multiply(q, q * [1.0, -1.0, -1.0, -1.0])
    assert np.allclose(np.abs(qq), [1, 0, 0, 0], atol=1e-12)


def test_quat_from_axis_angle():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    assert np.allclose(q, [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])


def test_normalize_quat_rejects_zero():
    with pytest.raises(GeometryError):
        normalize_quat(np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quaternions_reject_non_finite_components(bad):
    # NaN used to pass through, and rotation_angle_between read it as 0 deg
    q = np.array([0.5, bad, 0.5, 0.5])
    with pytest.raises(GeometryError, match="non-finite"):
        normalize_quat(q)
    with pytest.raises(GeometryError, match="non-finite"):
        Pose(q, np.zeros(3))
    with pytest.raises(GeometryError, match="non-finite"):
        rotation_angle_between(q, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="non-finite"):
        rotation_angle_between([1.0, 0.0, 0.0, 0.0], q)


def test_normalize_quat_rejects_an_overflowing_norm():
    # finite components whose norm overflows used to normalize to all zeros
    with np.errstate(over="ignore"), pytest.raises(GeometryError,
                                                   match="non-finite"):
        normalize_quat(np.full(4, 1e300))


def test_rotation_angle_between():
    rng = np.random.default_rng(4)
    q = random_quat(rng)
    assert rotation_angle_between(q, q) == pytest.approx(0.0, abs=1e-6)
    qz180 = np.array([0.0, 0.0, 0.0, 1.0])
    assert rotation_angle_between([1, 0, 0, 0], qz180) == pytest.approx(180.0)
    c = math.cos(math.pi / 4)
    qz90 = np.array([c, 0.0, 0.0, c])
    assert rotation_angle_between([1, 0, 0, 0], qz90) == pytest.approx(90.0)
    # sign invariance and symmetry
    q2 = random_quat(rng)
    a = rotation_angle_between(q, q2)
    assert rotation_angle_between(-q, q2) == pytest.approx(a)
    assert rotation_angle_between(q2, q) == pytest.approx(a)


def test_project_examples():
    assert np.allclose(project(np.array([0, 0, 1.0]), K), [320, 240])
    assert np.allclose(project(np.array([0.1, 0, 1.0]), K), [370, 240])
    assert np.allclose(project(np.array([0, -0.2, 2.0]), K), [320, 190])


def test_project_rejects_nonpositive_depth():
    with pytest.raises(GeometryError):
        project(np.array([0.0, 0.0, 0.0]), K)
    with pytest.raises(GeometryError):
        project(np.array([0.0, 0.0, -1.0]), K)


def test_backproject_examples():
    assert np.allclose(backproject_center(np.array([320, 240.0]), 1.0, K),
                       [0, 0, 1.0])
    assert np.allclose(backproject_center(np.array([370, 240.0]), 1.0, K),
                       [0.1, 0, 1.0])


def test_project_backproject_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        t = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.2, 5.0)])
        intr = CameraIntrinsics(fx=rng.uniform(100, 1000),
                                fy=rng.uniform(100, 1000),
                                px=rng.uniform(0, 640), py=rng.uniform(0, 480))
        c = project(t, intr)
        c2 = project(backproject_center(c, t[2], intr), intr)
        worst = max(worst, float(np.max(np.abs(c - c2))))
    assert worst < 1e-9


def test_project_rows_match_single_points():
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20),
                           rng.uniform(0.3, 3.0, 20)])
    many = project(pts, K)
    assert many.shape == (20, 2)
    for i, p in enumerate(pts):
        assert np.array_equal(many[i], project(p, K))
    assert np.array_equal(project(pts.reshape(4, 5, 3), K), many.reshape(4, 5, 2))
    pts[7, 2] = 0.0
    with pytest.raises(GeometryError):
        project(pts, K)


def test_pose_transform_and_compose():
    # the composed pose is built inline: q = q1 q2, t = R1 t2 + t1
    rng = np.random.default_rng(7)
    p1 = Pose(random_quat(rng), rng.uniform(-1, 1, 3))
    p2 = Pose(random_quat(rng), rng.uniform(-1, 1, 3))
    x = rng.uniform(-1, 1, (10, 3))
    both = Pose(quat_multiply(p1.quaternion, p2.quaternion),
                p1.transform(p2.translation)[0])
    assert np.allclose(both.transform(x), p1.transform(p2.transform(x)),
                       atol=1e-12)


def test_pose_inverse():
    # the inverse is built inline: q* and -R^T t
    rng = np.random.default_rng(8)
    p = Pose(random_quat(rng), rng.uniform(-1, 1, 3))
    x = rng.uniform(-1, 1, (10, 3))
    inv = Pose(p.quaternion * [1.0, -1.0, -1.0, -1.0],
               -p.rotation_matrix().T @ p.translation)
    assert np.allclose(inv.transform(p.transform(x)), x, atol=1e-12)


def test_pose_transform_matches_quaternion_rotation():
    # oracle: x' = q (0, x) q* + t with the Hamilton product
    rng = np.random.default_rng(7)
    p = Pose(random_quat(rng), rng.uniform(-1, 1, 3))
    x = rng.uniform(-1, 1, (10, 3))
    q_conj = p.quaternion * [1.0, -1.0, -1.0, -1.0]
    want = [quat_multiply(quat_multiply(p.quaternion, np.r_[0.0, v]), q_conj)[1:]
            for v in x]
    assert np.allclose(p.transform(x), np.array(want) + p.translation,
                       atol=1e-12)


# checked where the pose is built, as its quaternion is
@pytest.mark.parametrize("trans", [[0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                   [0.0, math.nan, 1.0], [-math.inf, 0.0, 1.0]],
                         ids=["2", "4", "nan", "inf"])
def test_pose_rejects_translation_not_of_3_finite_numbers(trans):
    with pytest.raises(GeometryError, match="translation is 3 finite numbers"):
        Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array(trans))


# checked where it is normalized, before any rotation unpacks it
@pytest.mark.parametrize("quat", [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
                                  [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["3", "5", "2x2"])
def test_pose_rejects_quaternion_not_of_4_components(quat):
    with pytest.raises(GeometryError, match="quaternion has 4 components"):
        Pose(np.array(quat), np.zeros(3))
    with pytest.raises(GeometryError, match="quaternion has 4 components"):
        quat_to_rotation(quat)


def test_intrinsics_reject_non_finite():
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=math.inf, fy=500.0, px=math.nan, py=240.0)
    with pytest.raises(GeometryError):
        CameraIntrinsics(fx=500.0, fy=500.0, px=320.0, py=math.nan)


def test_model_diameter_cube_corners():
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                        for z in (0, 1)], dtype=float)
    assert model_diameter(corners) == pytest.approx(math.sqrt(3))


def test_model_diameter_two_points():
    assert model_diameter(np.array([[0, 0, 0], [0.07, 0, 0]])) == \
        pytest.approx(0.07)


def test_model_diameter_matches_brute_force():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((500, 3))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    assert model_diameter(pts) == pytest.approx(math.sqrt(d2.max()), rel=1e-12)


def test_model_diameter_coplanar_falls_back_to_brute_force():
    # a flat point set makes Qhull fail; the brute-force scan still runs
    rng = np.random.default_rng(12)
    pts = np.zeros((500, 3))
    pts[:, :2] = rng.standard_normal((500, 2))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    assert model_diameter(pts) == pytest.approx(math.sqrt(d2.max()), rel=1e-12)


def test_object_model_diameter_cached():
    m = ObjectModel(name="t", points=np.array([[0, 0, 0], [1.0, 0, 0]]))
    assert m.diameter == pytest.approx(1.0)
    with pytest.raises(TypeError):  # always computed, never passed in
        ObjectModel(name="t", points=m.points, diameter=5.0)


def test_object_model_radius_is_its_largest_point_norm():
    m = ObjectModel(name="t", points=np.array([[0, 0, 0], [3.0, -4, 0], [0, 2, 2]]))
    assert m.radius == 5.0
    with pytest.raises(TypeError):  # always computed, never passed in
        ObjectModel(name="t", points=m.points, radius=1.0)


def test_object_model_rejects_non_finite_points():
    # one NaN among 300 points used to give diameter 0.0
    pts = np.random.default_rng(13).standard_normal((300, 3))
    pts[17, 1] = math.nan
    with pytest.raises(GeometryError):
        ObjectModel(name="t", points=pts)


def test_object_model_without_faces_holds_an_empty_face_array():
    m = ObjectModel(name="t", points=np.eye(3), faces=None)
    assert m.faces.shape == (0, 3) and m.faces.dtype == np.int64


def test_object_model_rejects_out_of_range_faces():
    pts = np.eye(3)
    with pytest.raises(GeometryError):  # -1 used to wrap to the last vertex
        ObjectModel(name="t", points=pts, faces=[[0, 1, -1]])
    with pytest.raises(GeometryError):
        ObjectModel(name="t", points=pts, faces=[[0, 1, 3]])


def _reference_nearest_neighbors(query, targets):
    """The dense search: one distance matrix, ties -> lowest index."""
    d = cdist(query, targets)
    idx = np.argmin(d, axis=1)
    return d[np.arange(idx.size), idx], idx


def _pose_pairs(rng, n):
    """n random pose pairs and n near-converged ones (about 0.5 degrees
    and 1 mm apart)."""
    for _ in range(n):
        yield (Pose(random_quat(rng), rng.uniform(-0.2, 0.2, 3)),
               Pose(random_quat(rng), rng.uniform(-0.2, 0.2, 3)))
    for _ in range(n):
        est = Pose(random_quat(rng), rng.uniform(-0.2, 0.2, 3))
        dq = quat_from_axis_angle(rng.standard_normal(3),
                                  math.radians(rng.uniform(0.0, 0.5)))
        yield est, Pose(quat_multiply(est.quaternion, dq),
                        est.translation + rng.uniform(-1e-3, 1e-3, 3))


@pytest.mark.parametrize("model", [*default_registry().values(),
                                   make_primitive_model("bar_2fold", scale=0.1,
                                                        n_points=320)],
                         ids=lambda m: f"{m.name}-{m.points.shape[0]}")
def test_nearest_neighbors_matches_dense_reference(model):
    # the same distances and the same gathered points as the dense search,
    # and the same index wherever no other target ties the closest distance
    rng = np.random.default_rng(14)
    for est, gt in _pose_pairs(rng, 10):
        for query, targets in ((est.transform(model.points),
                                gt.transform(model.points)),
                               (model.points @ est.rotation_matrix().T,
                                model.points @ gt.rotation_matrix().T)):
            dist, idx = NeighborIndex(targets).query(query)
            ref_dist, ref_idx = _reference_nearest_neighbors(query, targets)
            assert np.array_equal(dist, ref_dist)
            assert np.array_equal(targets[idx], targets[ref_idx])
            tied = (cdist(query, targets) == ref_dist[:, None]).sum(axis=1) > 1
            assert np.array_equal(idx[~tied], ref_idx[~tied])


def test_nearest_neighbors_ties_pick_a_nearest_target():
    targets = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    dist, idx = NeighborIndex(targets).query(np.zeros((1, 3)))
    assert dist[0] == 1.0
    assert np.linalg.norm(targets[idx[0]]) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["query", "targets"])
def test_nearest_neighbors_rejects_non_finite(where, bad):
    points = {"query": np.zeros((4, 3)), "targets": np.eye(3)}
    points[where][1, 2] = bad
    with pytest.raises(GeometryError, match="finite"):
        NeighborIndex(points["targets"]).query(points["query"])


def test_neighbor_tracker_gathers_what_fresh_queries_gather():
    # targets on a coarse grid repeat and tie often; the points take steps
    # from 1e-9 to 1e-2 and sometimes jump back onto the grid
    rng = np.random.default_rng(16)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        targets = rng.integers(-3, 4, (n, 3)) * 0.01
        if trial % 3 == 0:
            targets = rng.standard_normal((n, 3))
        index = NeighborIndex(targets)
        points = rng.integers(-3, 4, (25, 3)) * 0.005
        for step in range(20):
            points = points + rng.standard_normal(points.shape) \
                * 10.0 ** rng.integers(-9, -1)
            if step % 7 == 3:
                points[:5] = rng.integers(-3, 4, (5, 3)) * 0.005
            got = targets[index.nearest(points)]
            fresh = targets[NeighborIndex(targets).query(points)[1]]
            assert np.array_equal(got.view(np.int64), fresh.view(np.int64))


def test_neighbor_tracker_reach_allows_for_rounding():
    # a point searched for just short of the bisector of two targets, then
    # moved along their line just past it: its move exceeds half the gap of
    # its two distances by less than their rounding, so only the reach's
    # margin sends it to a fresh search
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a, b = rng.uniform(-1, 1, (2, 3))
        length = np.linalg.norm(b - a)
        u = (b - a) / length
        mid = (a + b) / 2
        before = mid - rng.uniform(0, 5e-15) * length * u
        past = mid + rng.uniform(0, 5e-16) * length * u
        index = NeighborIndex(np.stack([a, b]))
        index.nearest(before[None])
        assert index.nearest(past[None]) == index.query(past[None])[1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_neighbor_tracker_checks_every_call(bad):
    index = NeighborIndex(np.eye(3))
    points = np.zeros((4, 3))
    index.nearest(points)
    points[1, 2] = bad
    with pytest.raises(GeometryError, match="finite"):
        index.nearest(points)


def test_reused_neighbor_index_answers_as_fresh_ones():
    rng = np.random.default_rng(15)
    targets = rng.standard_normal((200, 3))
    index = NeighborIndex(targets)
    for _ in range(5):
        query = rng.standard_normal((50, 3))
        dist, idx = index.query(query)
        ref_dist, ref_idx = NeighborIndex(targets).query(query)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(idx, ref_idx)
