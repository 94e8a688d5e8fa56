import math

import numpy as np
import pytest

from posevote.fields import LabelMap
from posevote.geometry import (CameraIntrinsics, ObjectModel, Pose, project,
                               quat_to_rotation, random_quat)
from posevote.losses import sloss
from posevote.synth import (NoiseSpec, Scene, SynthError, default_registry,
                            ground_truth_fields, make_primitive_model,
                            perturb, random_scene, render_full, render_scene)

K = CameraIntrinsics(fx=400.0, fy=400.0, px=160.0, py=120.0)


def _lone_scene(class_id, pose, w=320, h=240):
    return Scene(instances=[(class_id, pose)], intrinsics=K, width=w, height=h)


# primitives ----------------------------------------------------------------


def test_cube_diameter():
    m = make_primitive_model("cube", scale=0.1, n_points=600)
    assert m.diameter == pytest.approx(0.1 * math.sqrt(3), rel=1e-9)


def test_bar_exact_z_symmetry():
    m = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    flipped = m.points.copy()
    flipped[:, 0] *= -1
    flipped[:, 1] *= -1
    # the flipped set must coincide with the original set within 1e-12
    d2 = np.sum((flipped[:, None, :] - m.points[None, :, :]) ** 2, axis=2)
    assert math.sqrt(d2.min(axis=1).max()) < 1e-12


def test_blob_has_trivial_symmetry():
    m = make_primitive_model("asymmetric_blob", scale=0.12, n_points=200)
    rng = np.random.default_rng(0)
    q_id = np.array([1.0, 0.0, 0.0, 0.0])
    smallest = np.inf
    for _ in range(200):
        q = random_quat(rng)
        ang = 2 * math.degrees(math.acos(min(1.0, abs(q[0]))))
        if ang < 5.0:  # skip near-identity rotations
            continue
        smallest = min(smallest, sloss(q, q_id, m).value)
    assert smallest > 1e-7


def test_primitives_deterministic():
    a = make_primitive_model("asymmetric_blob", scale=0.12, n_points=300)
    b = make_primitive_model("asymmetric_blob", scale=0.12, n_points=300)
    assert np.array_equal(a.points, b.points)


def test_unknown_kind_rejected():
    with pytest.raises(SynthError):
        make_primitive_model("torus")
    with pytest.raises(SynthError):
        make_primitive_model("cube", scale=-1.0)


# rendering -----------------------------------------------------------------


def test_render_empty_scene():
    scene = Scene(instances=[], intrinsics=K, width=64, height=48)
    depth, labels, rng_img = render_scene(scene, {})
    assert not np.any(depth.depth)
    assert not np.any(labels.labels)


def test_render_depth_bounds():
    models = default_registry()
    tz = 0.9
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, tz]))
    depth, labels, _ = render_scene(_lone_scene(1, pose), models)
    mask = labels.labels == 1
    assert mask.sum() > 0
    radius = models[1].diameter / 2
    assert depth.depth[mask].min() >= tz - radius - 1e-6
    assert depth.depth[mask].max() <= tz + radius + 1e-6


def test_render_z_buffer_near_surface_wins():
    models = default_registry()
    front = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.7]))
    back = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.2]))
    scene = Scene(instances=[(3, back), (1, front)], intrinsics=K,
                  width=320, height=240)
    depth, labels, _ = render_scene(scene, models)
    solo_front, _, _ = render_scene(_lone_scene(1, front), models)
    overlap = (solo_front.depth > 0) & (labels.labels != 0)
    # wherever the front object covers a pixel, its label must win
    assert np.all(labels.labels[solo_front.depth > 0] == 1)
    assert np.all(depth.depth[solo_front.depth > 0]
                  == solo_front.depth[solo_front.depth > 0])


def test_render_model_without_faces_rejected():
    cube = default_registry()[1]
    points_only = ObjectModel(class_id=1, name="cloud", points=cube.points)
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.9]))
    with pytest.raises(SynthError, match="no faces"):
        render_full(_lone_scene(1, pose), {1: points_only})


def _ray_triangle_depth(model, pose, x, y):
    """Brute-force depth at pixel center (x, y): nearest ray-triangle hit."""
    verts = model.points @ quat_to_rotation(pose.quaternion).T + pose.translation
    d = np.array([(x - K.px) / K.fx, (y - K.py) / K.fy, 1.0])
    best = np.inf
    for tri in model.faces:
        a, b, c = verts[tri]
        e1, e2 = b - a, c - a
        p = np.cross(d, e2)
        det = e1 @ p
        if abs(det) < 1e-14:
            continue
        t = a * -1
        u = (-a @ p) / det
        q = np.cross(-a, e1)
        v = (d @ q) / det
        s = (e2 @ q) / det
        if u >= -1e-9 and v >= -1e-9 and u + v <= 1 + 1e-9 and s > 0:
            z = s * d[2]
            best = min(best, z)
    return best


def test_render_depth_matches_ray_cast_oracle():
    models = default_registry()
    rng = np.random.default_rng(1)
    pose = Pose(random_quat(rng), np.array([0.02, -0.01, 0.85]))
    model = models[1]
    depth, labels, _ = render_scene(_lone_scene(1, pose), models)
    ys, xs = np.nonzero(labels.labels == 1)
    pick = rng.choice(len(xs), size=min(100, len(xs)), replace=False)
    for i in pick:
        x, y = int(xs[i]), int(ys[i])
        oracle = _ray_triangle_depth(model, pose, x, y)
        assert depth.depth[y, x] == pytest.approx(oracle, abs=1e-5)


# ground-truth fields --------------------------------------------------------


def test_fields_point_at_projected_center():
    models = default_registry()
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.05, 0.02, 0.9]))
    scene = _lone_scene(1, pose)
    raster = render_full(scene, models)
    fld, truths = ground_truth_fields(scene, models, raster)
    t = truths[0]
    pl = fld.plane(1)
    ys, xs = np.nonzero(raster.label == 1)
    for x, y in zip(xs[:200], ys[:200]):
        v = t.center - np.array([x, y], dtype=float)
        n = np.linalg.norm(v)
        if n == 0:
            continue
        assert np.allclose(pl[y, x, :2], v / n, atol=1e-6)
        assert pl[y, x, 2] == pytest.approx(pose.translation[2], abs=1e-6)


def test_fully_occluded_instance_flagged():
    models = default_registry()
    small = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.4]))
    big = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.6]))
    scene = Scene(instances=[(1, small), (5, big)], intrinsics=K,
                  width=320, height=240)
    raster = render_full(scene, models)
    fld, truths = ground_truth_fields(scene, models, raster)
    assert truths[0].fully_occluded
    assert not fld.has_class(1) or not np.any(fld.plane(1))
    assert not truths[1].fully_occluded


# noise ----------------------------------------------------------------------


def _noisy_setup():
    models = default_registry()
    left = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([-0.13, 0.0, 0.8]))
    right = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.13, 0.0, 0.8]))
    scene = Scene(instances=[(1, left), (3, right)], intrinsics=K,
                  width=320, height=240)
    raster = render_full(scene, models)
    fld, _ = ground_truth_fields(scene, models, raster)
    return fld, LabelMap(labels=raster.label)


def test_perturb_zero_spec_identity():
    fld, labels = _noisy_setup()
    out_fld, out_labels = perturb(fld, labels, NoiseSpec())
    assert np.array_equal(out_labels.labels, labels.labels)
    assert np.array_equal(out_fld.plane(1), fld.plane(1))


def test_perturb_direction_sigma_statistics():
    fld, labels = _noisy_setup()
    out_fld, _ = perturb(fld, labels, NoiseSpec(direction_sigma=0.1,
                                                rng_seed=0))
    mask = labels.labels == 1
    a = fld.plane(1)[mask][:, :2]
    b = out_fld.plane(1)[mask][:, :2]
    nonzero = np.hypot(a[:, 0], a[:, 1]) > 0  # center pixel stays (0, 0)
    a, b = a[nonzero], b[nonzero]
    # unit norm preserved
    assert np.allclose(np.hypot(b[:, 0], b[:, 1]), 1.0, atol=1e-5)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     np.sum(a * b, axis=1))
    assert len(ang) > 2000
    assert abs(np.std(ang) - 0.1) < 0.005


def test_perturb_label_flip_rate():
    fld, labels = _noisy_setup()
    _, out_labels = perturb(fld, labels, NoiseSpec(label_flip_rate=0.2,
                                                   rng_seed=0))
    mask = labels.labels == 1
    assert mask.sum() > 2000
    flipped = np.mean(out_labels.labels[mask] != 1)
    assert abs(flipped - 0.2) < 0.02


def test_perturb_deterministic():
    fld, labels = _noisy_setup()
    spec = NoiseSpec(direction_sigma=0.05, depth_sigma=0.01,
                     label_flip_rate=0.1, rng_seed=42)
    f1, l1 = perturb(fld, labels, spec)
    f2, l2 = perturb(fld, labels, spec)
    assert np.array_equal(f1.plane(1), f2.plane(1))
    assert np.array_equal(l1.labels, l2.labels)


def test_noise_spec_validation():
    with pytest.raises(SynthError):
        NoiseSpec(direction_sigma=-0.1)
    with pytest.raises(SynthError):
        NoiseSpec(label_flip_rate=1.0)


# scenes ---------------------------------------------------------------------


def test_random_scene_deterministic():
    models = default_registry()
    s1 = random_scene(11, models)
    s2 = random_scene(11, models)
    assert len(s1.instances) == len(s2.instances)
    for (c1, p1), (c2, p2) in zip(s1.instances, s2.instances):
        assert c1 == c2
        assert np.array_equal(p1.quaternion, p2.quaternion)
        assert np.array_equal(p1.translation, p2.translation)


def test_random_scene_unique_classes():
    models = default_registry()
    for seed in range(20):
        cids = [c for c, _ in random_scene(seed, models).instances]
        assert len(cids) == len(set(cids))


def test_random_scene_constants():
    models = default_registry()
    for seed in range(50):
        w, h = (320, 240) if seed % 2 else (200, 150)
        scene = random_scene(seed, models, width=w, height=h)
        assert (scene.width, scene.height) == (w, h)
        k = scene.intrinsics
        assert (k.fx, k.fy, k.px, k.py) == (400.0, 400.0, w / 2, h / 2)
        cids = [c for c, _ in scene.instances]
        assert 3 <= len(set(cids)) == len(cids) <= 5
        for _, pose in scene.instances:
            assert 0.7 <= pose.translation[2] <= 1.4
            cx, cy = project(pose.translation, k)
            assert 0.15 * w - 1e-9 <= cx <= 0.85 * w + 1e-9
            assert 0.15 * h - 1e-9 <= cy <= 0.85 * h + 1e-9
