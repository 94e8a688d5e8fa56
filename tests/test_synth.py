import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posevote import synth
from posevote.fields import CenterField, LabelMap
from posevote.geometry import (CameraIntrinsics, ObjectModel, Pose, project,
                               quat_to_rotation, random_quat)
from posevote.losses import sloss
from posevote.synth import (NoiseSpec, RangeImage, Scene, SynthError,
                            default_registry, ground_truth_fields,
                            make_primitive_model, perturb, random_scene,
                            render_full)

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
        make_primitive_model("torus", scale=0.1, n_points=500)
    with pytest.raises(SynthError):
        make_primitive_model("cube", scale=-1.0, n_points=500)


@pytest.mark.parametrize("kind", synth.PRIMITIVE_KINDS)
@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, True, "x"])
def test_non_finite_or_zero_scale_rejected(kind, scale):
    with pytest.raises(SynthError, match="scale must be positive and finite"):
        make_primitive_model(kind, scale=scale, n_points=500)


@pytest.mark.parametrize("kind", ["cube", "bar_2fold", "asymmetric_blob",
                                  "cylinder"])
@pytest.mark.parametrize("n_points", [0, -5, 2.5, 40.7, True, "5"])
def test_point_count_below_one_rejected(kind, n_points):
    with pytest.raises(SynthError, match="n_points"):
        make_primitive_model(kind, scale=0.1, n_points=n_points)


def _argmin_box_faces(pts, sx, sy, sz):
    """The box's 12 corner triangles, each corner located by an argmin over
    all grid points (the first among equals)."""
    half = np.array([sx, sy, sz]) / 2.0
    corner_idx = {}
    for ix, cs in enumerate(
            (sign * half for sign in
             (np.array([sx_, sy_, sz_]) for sx_ in (-1, 1)
              for sy_ in (-1, 1) for sz_ in (-1, 1)))):
        corner_idx[ix] = int(np.argmin(np.sum((pts - cs) ** 2, axis=1)))
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = []
    for a, b, c, d in quads:
        ia, ib, ic, id_ = (corner_idx[v] for v in (a, b, c, d))
        faces.append([ia, ib, ic])
        faces.append([ia, ic, id_])
    return np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 10, 21])
@pytest.mark.parametrize("size", [(0.1, 0.1, 0.1), (0.3, 0.05, 0.12),
                                  (1e-3, 2.0, 0.7), (0.14, 0.14, 0.14)])
def test_box_corners_match_argmin_search(k, size):
    pts, faces = synth._box_mesh(*size, k)
    assert faces.dtype == np.int64
    assert np.array_equal(faces, _argmin_box_faces(pts, *size))


# rendering -----------------------------------------------------------------


def test_render_empty_scene():
    scene = Scene(instances=[], intrinsics=K, width=64, height=48)
    r = render_full(scene, {})
    assert not np.any(r.depth)
    assert not np.any(r.label)


def test_render_depth_bounds():
    models = default_registry()
    tz = 0.9
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, tz]))
    r = render_full(_lone_scene(1, pose), models)
    mask = r.label == 1
    assert mask.sum() > 0
    radius = models[1].diameter / 2
    assert r.depth[mask].min() >= tz - radius - 1e-6
    assert r.depth[mask].max() <= tz + radius + 1e-6


def test_render_z_buffer_near_surface_wins():
    models = default_registry()
    front = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.7]))
    back = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.2]))
    scene = Scene(instances=[(3, back), (1, front)], intrinsics=K,
                  width=320, height=240)
    both = render_full(scene, models)
    solo_front = render_full(_lone_scene(1, front), models)
    covered = solo_front.depth > 0
    # wherever the front object covers a pixel, its label must win
    assert np.all(both.label[covered] == 1)
    assert np.all(both.depth[covered] == solo_front.depth[covered])


def test_render_model_without_faces_rejected():
    cube = default_registry()[1]
    points_only = ObjectModel(class_id=1, name="cloud", points=cube.points)
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.9]))
    with pytest.raises(SynthError, match="no faces"):
        render_full(_lone_scene(1, pose), {1: points_only})
    zero_faces = ObjectModel(class_id=1, name="cloud", points=cube.points,
                             faces=np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(SynthError, match="no faces"):
        render_full(_lone_scene(1, pose), {1: zero_faces})


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
    for class_id in (1, 2, 3, 4):  # cube, bar_2fold, cylinder, blob
        rng = np.random.default_rng(1)
        pose = Pose(random_quat(rng), np.array([0.02, -0.01, 0.85]))
        model = models[class_id]
        r = render_full(_lone_scene(class_id, pose), models)
        ys, xs = np.nonzero(r.label == class_id)
        pick = rng.choice(len(xs), size=min(100, len(xs)), replace=False)
        for i in pick:
            x, y = int(xs[i]), int(ys[i])
            oracle = _ray_triangle_depth(model, pose, x, y)
            assert r.depth[y, x] == pytest.approx(oracle, abs=1e-5), model.name


# batched rasterizer against the per-triangle loop ----------------------------


def _reference_buffers(width, height):
    """The buffers the reference loop fills: depth, label, instance and its
    own per-pixel normal, which a RangeImage looks up through its face
    buffer."""
    return SimpleNamespace(depth=np.zeros((height, width)),
                           label=np.zeros((height, width), dtype=np.uint16),
                           instance=np.full((height, width), -1, dtype=np.int32),
                           normals=np.zeros((height, width, 3)))


def _reference_raster(r, verts_cam, faces, intrinsics, class_id, inst):
    """The per-triangle z-buffer loop that the batched rasterizer replaced,
    kept as its reference: both must fill every buffer bit for bit alike,
    the reference writing each won pixel's normal where the rasterizer
    writes its triangle's row of the normal table."""
    h, w = r.depth.shape
    fx, fy, px, py = intrinsics.fx, intrinsics.fy, intrinsics.px, intrinsics.py
    z = verts_cam[:, 2]
    u = fx * verts_cam[:, 0] / z + px
    v = fy * verts_cam[:, 1] / z + py
    inv_z = 1.0 / z
    for tri in faces:
        if np.any(z[tri] <= 1e-6):
            continue
        ua, ub, uc = u[tri]
        va, vb, vc = v[tri]
        x0 = max(0, int(math.floor(min(ua, ub, uc))))
        x1 = min(w - 1, int(math.ceil(max(ua, ub, uc))))
        y0 = max(0, int(math.floor(min(va, vb, vc))))
        y1 = min(h - 1, int(math.ceil(max(va, vb, vc))))
        if x1 < x0 or y1 < y0:
            continue
        denom = (ub - ua) * (vc - va) - (uc - ua) * (vb - va)
        if abs(denom) < 1e-12:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        b1 = ((gx - ua) * (vc - va) - (uc - ua) * (gy - va)) / denom
        b2 = ((ub - ua) * (gy - va) - (gx - ua) * (vb - va)) / denom
        b0 = 1.0 - b1 - b2
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        if not inside.any():
            continue
        izs = b0 * inv_z[tri[0]] + b1 * inv_z[tri[1]] + b2 * inv_z[tri[2]]
        zs = 1.0 / izs
        cur = r.depth[y0 : y1 + 1, x0 : x1 + 1]
        win = inside & ((cur == 0) | (zs < cur))
        if not win.any():
            continue
        p0, p1, p2 = verts_cam[tri]
        n = np.cross(p1 - p0, p2 - p0)
        nn = np.linalg.norm(n)
        if nn < 1e-15:
            continue
        n = n / nn
        if np.dot(n, (p0 + p1 + p2) / 3.0) > 0:
            n = -n  # orient toward the camera
        zw = zs[win]
        sub = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        r.depth[sub][win] = zw
        r.label[sub][win] = class_id
        r.instance[sub][win] = inst
        r.normals[sub][win] = n


def _assert_same_raster(got, want):
    for name in ("depth", "label", "instance"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.face_normals[got.face], want.normals), "normals"
    # a pixel names a triangle exactly where it has depth; row 0 is the
    # background's zero normal
    assert np.array_equal(got.face > 0, got.depth > 0)
    assert not got.face_normals[0].any()


def _reference_pass(meshes, intrinsics, width, height):
    """Reference render of (verts_cam, faces, class_id) meshes, one instance
    each, and the pixel count of each mesh rendered alone."""
    r = _reference_buffers(width, height)
    solo = []
    with np.errstate(all="ignore"):
        for inst, (verts, faces, cid) in enumerate(meshes):
            _reference_raster(r, verts, faces, intrinsics, cid, inst)
            alone = _reference_buffers(width, height)
            _reference_raster(alone, verts, faces, intrinsics, cid, inst)
            solo.append(int(np.count_nonzero(alone.instance == inst)))
    return r, solo


def _check_scene(scene, models):
    meshes = []
    for cid, pose in scene.instances:
        m = models[cid]
        meshes.append((m.points @ pose.rotation_matrix().T + pose.translation,
                       m.faces, cid))
    want, solo = _reference_pass(meshes, scene.intrinsics, scene.width,
                                 scene.height)
    got = render_full(scene, models)
    _assert_same_raster(got, want)
    assert got.coverage == solo
    _, truths = ground_truth_fields(scene, got)
    assert [t.solo_pixels for t in truths] == solo
    return got


@pytest.mark.parametrize("class_id", [1, 2, 3, 4],
                         ids=["cube", "bar_2fold", "cylinder", "asymmetric_blob"])
def test_batched_raster_matches_loop_per_kind(class_id):
    models = default_registry()
    rng = np.random.default_rng(class_id)
    for _ in range(10):
        t = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1),
                      rng.uniform(0.3, 1.4)])
        _check_scene(_lone_scene(class_id, Pose(random_quat(rng), t)), models)


def test_batched_raster_matches_loop_random_scenes():
    models = default_registry()
    for seed in range(20):
        _check_scene(random_scene(seed, models), models)


def _bbox_pixels(model, pose, w=320, h=240):
    verts = model.points @ pose.rotation_matrix().T + pose.translation
    u = K.fx * verts[:, 0] / verts[:, 2] + K.px
    v = K.fy * verts[:, 1] / verts[:, 2] + K.py
    tu, tv = u[model.faces], v[model.faces]
    bw = np.minimum(w - 1, np.ceil(tu.max(1))) - np.maximum(0, np.floor(tu.min(1))) + 1
    bh = np.minimum(h - 1, np.ceil(tv.max(1))) - np.maximum(0, np.floor(tv.min(1))) + 1
    return int(np.sum(np.clip(bw, 0, None) * np.clip(bh, 0, None)))


def test_batched_raster_near_camera_spans_batches():
    models = default_registry()
    pose = Pose(random_quat(np.random.default_rng(6)), np.array([0.0, 0.0, 0.06]))
    assert _bbox_pixels(models[4], pose) > 2 * synth._FRAGMENT_BUDGET
    r = _check_scene(_lone_scene(4, pose), models)
    assert r.coverage[0] > 0.9 * r.depth.size


def test_batched_raster_small_budget_matches_loop(monkeypatch):
    monkeypatch.setattr(synth, "_FRAGMENT_BUDGET", 300)
    models = default_registry()
    for seed in range(4):
        _check_scene(random_scene(seed, models), models)


def test_coincident_instances_keep_the_earlier_one():
    cube = default_registry()[1]
    twin = ObjectModel(class_id=2, name="cube_twin", points=cube.points,
                       faces=cube.faces)
    models = {1: cube, 2: twin}
    pose = Pose(random_quat(np.random.default_rng(2)), np.array([0.01, 0.0, 0.8]))
    scene = Scene(instances=[(1, pose), (2, pose)], intrinsics=K,
                  width=320, height=240)
    r = _check_scene(scene, models)
    covered = r.depth > 0
    assert covered.sum() == r.coverage[0] == r.coverage[1] > 0
    assert np.all(r.instance[covered] == 0)
    assert np.all(r.label[covered] == 1)


def test_render_rejects_model_keyed_by_another_class_id():
    # the label map would hold the model's id and the field the key, so
    # voting would find no detection
    cube = make_primitive_model("cube", scale=0.1, n_points=600, class_id=1)
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.9]))
    with pytest.raises(SynthError, match="class id 1, not its key 2"):
        render_full(_lone_scene(2, pose), {2: cube})


def test_render_rejects_non_finite_pose():
    models = default_registry()
    # Pose rejects a NaN translation when it is built; one set afterwards
    # still reaches the render's own check
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.9]))
    pose.translation = np.array([0.0, np.nan, 0.9])
    with pytest.raises(SynthError, match="non-finite"):
        render_full(_lone_scene(1, pose), models)


_KS = CameraIntrinsics(fx=40.0, fy=40.0, px=20.0, py=15.0)
_XY = st.one_of(st.sampled_from([-0.1, 0.0, 0.05, 0.1]),
                st.floats(-0.3, 0.3, allow_nan=False))
_Z = st.one_of(st.sampled_from([-0.1, 0.0, 1e-6, 2e-6, 0.2, 0.5]),
               st.floats(-0.05, 1.0, allow_nan=False))


@st.composite
def _degenerate_meshes(draw):
    """Small meshes rich in zero-area, collinear and behind-camera triangles:
    coordinates repeat often, the last vertex is the midpoint of the first
    two, and the first faces are always degenerate."""
    n = draw(st.integers(3, 7))
    verts = np.array([[draw(_XY), draw(_XY), draw(_Z)] for _ in range(n)])
    verts = np.vstack([verts, (verts[0] + verts[1]) / 2.0])
    idx = st.integers(0, n)
    faces = [[0, 0, 1], [0, 1, n]]
    faces += draw(st.lists(st.lists(idx, min_size=3, max_size=3), max_size=10))
    return verts, np.array(faces, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(_degenerate_meshes(), _degenerate_meshes())
def test_batched_raster_degenerate_triangles_match_loop(first, second):
    meshes = [(first[0], first[1], 3), (second[0], second[1], 1)]
    want, solo = _reference_pass(meshes, _KS, 40, 30)
    got = RangeImage.empty(40, 30)
    counts = [synth._raster_triangles(got, v, f, _KS, cid, inst)
              for inst, (v, f, cid) in enumerate(meshes)]
    _assert_same_raster(got, want)
    assert counts == solo


_SLIVER = st.one_of(st.just(0.0), st.floats(1e-12, 1e-3),
                   st.floats(1e-3, 2.0), st.floats(-1e-3, -1e-12))


@st.composite
def _span_triangles(draw):
    """Triangles placed in pixel coordinates on the 40x30 frame of _KS:
    vertices on and off pixel centers and edges, slivers a hair off a line,
    edges close to horizontal or shorter than 1e-3 px, and vertices far
    off-screen (some beyond 1e6 px). Returns camera-frame vertices."""
    coord = st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 14.5, 20.0, 39.0,
                                       39.5, 40.0]),
                      st.integers(-3, 43).map(float),
                      st.floats(-5.0, 45.0, allow_nan=False),
                      st.sampled_from([-3e6, -2e5, 2e5, 3e6]))
    uv = []
    for _ in range(draw(st.integers(1, 4))):
        a = np.array([draw(coord), draw(coord)])
        kind = draw(st.sampled_from(["free", "flat", "short", "sliver"]))
        if kind == "free":
            b = np.array([draw(coord), draw(coord)])
            c = np.array([draw(coord), draw(coord)])
        elif kind == "flat":  # an edge within a sliver of horizontal
            b = a + [draw(st.floats(-60.0, 60.0)), draw(_SLIVER)]
            c = np.array([draw(coord), draw(coord)])
        elif kind == "short":  # an edge under 1e-3 px
            b = a + [draw(_SLIVER) * 1e-3, draw(_SLIVER) * 1e-3]
            c = np.array([draw(coord), draw(coord)])
        else:  # c a hair off the line through a and b
            b = np.array([draw(coord), draw(coord)])
            off = np.array([a[1] - b[1], b[0] - a[0]]) * draw(_SLIVER)
            c = a + draw(st.floats(-0.5, 1.5)) * (b - a) + off
        uv += [a, b, c]
    uv = np.array(uv)
    z = np.array([draw(st.floats(0.2, 2.0)) for _ in range(len(uv))])
    verts = np.stack([(uv[:, 0] - _KS.px) * z / _KS.fx,
                      (uv[:, 1] - _KS.py) * z / _KS.fy, z], axis=1)
    return verts, np.arange(len(uv)).reshape(-1, 3)


@settings(max_examples=300, deadline=None)
@given(_span_triangles(), _span_triangles())
def test_span_walk_adversarial_triangles_match_loop(first, second):
    meshes = [(first[0], first[1], 2), (second[0], second[1], 4)]
    want, solo = _reference_pass(meshes, _KS, 40, 30)
    got = RangeImage.empty(40, 30)
    counts = [synth._raster_triangles(got, v, f, _KS, cid, inst)
              for inst, (v, f, cid) in enumerate(meshes)]
    _assert_same_raster(got, want)
    assert counts == solo


# windowed renders ------------------------------------------------------------


def _crop(r, x0, y0, w, h):
    """A window of a render's buffers, with its per-pixel normals."""
    sub = (slice(y0, y0 + h), slice(x0, x0 + w))
    return SimpleNamespace(depth=r.depth[sub], label=r.label[sub],
                           instance=r.instance[sub],
                           normals=r.face_normals[r.face[sub]])


def _windows(r, rng):
    """Windows on the mesh's pixels touching each frame border, a 1x1
    window on it, and windows the mesh misses: a 1x1 one and, where there
    is room, one beside the mesh's bounding box."""
    ys, xs = np.nonzero(r.depth > 0)
    h, w = r.depth.shape
    bx0, bx1, by0, by1 = xs.min(), xs.max(), ys.min(), ys.max()
    wins = [(0, 0, w, h), (0, by0, bx1 + 1, by1 - by0 + 1),
            (bx0, 0, w - bx0, by1 + 1), (bx0, by0, w - bx0, h - by0),
            (0, by0, w, h - by0), (bx0, by0, bx1 - bx0 + 1, by1 - by0 + 1)]
    i = rng.integers(xs.size)
    wins.append((int(xs[i]), int(ys[i]), 1, 1))
    empty = np.flatnonzero(r.depth.ravel() == 0)
    j = empty[rng.integers(empty.size)]
    wins.append((int(j % w), int(j // w), 1, 1))
    if bx0 > 0:
        wins.append((0, 0, bx0, h))
    if by1 < h - 1:
        wins.append((0, by1 + 1, w, h - by1 - 1))
    return [tuple(int(v) for v in win) for win in wins]


@pytest.mark.parametrize("class_id", [1, 2, 3, 4],
                         ids=["cube", "bar_2fold", "cylinder", "asymmetric_blob"])
def test_window_render_equals_crop_of_full_render(class_id):
    models = default_registry()
    rng = np.random.default_rng(30 + class_id)
    for _ in range(6):
        t = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15),
                      rng.uniform(0.4, 1.4)])
        scene = _lone_scene(class_id, Pose(random_quat(rng), t))
        full = render_full(scene, models)
        for win in _windows(full, rng):
            scene.window = win
            got = render_full(scene, models)
            want = _crop(full, *win)
            _assert_same_raster(got, want)
            assert got.origin == win[:2]
            assert got.coverage == [int(np.count_nonzero(want.depth))]


def test_window_render_of_a_scene_counts_coverage_in_the_window():
    models = default_registry()
    scene = random_scene(3, models)
    full = render_full(scene, models)
    win = (50, 40, 200, 150)
    scene.window = win
    got = render_full(scene, models)
    _assert_same_raster(got, _crop(full, *win))
    for inst, (cid, pose) in enumerate(scene.instances):
        alone = render_full(_lone_scene(cid, pose), models)
        assert got.coverage[inst] == np.count_nonzero(_crop(alone, *win).depth)


@pytest.mark.parametrize("win", [(-1, 0, 10, 10), (0, -1, 10, 10),
                                 (0, 0, 0, 10), (0, 0, 10, 0),
                                 (311, 0, 10, 10), (0, 231, 10, 10)])
def test_window_outside_the_frame_rejected(win):
    models = default_registry()
    scene = _lone_scene(1, Pose(np.array([1.0, 0.0, 0.0, 0.0]),
                                np.array([0.0, 0.0, 0.9])))
    scene.window = win
    with pytest.raises(SynthError, match="window"):
        render_full(scene, models)


# ground-truth fields --------------------------------------------------------


def test_fields_point_at_projected_center():
    models = default_registry()
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.05, 0.02, 0.9]))
    scene = _lone_scene(1, pose)
    raster = render_full(scene, models)
    fld, truths = ground_truth_fields(scene, raster)
    t = truths[0]
    pl = fld.values
    ys, xs = np.nonzero(raster.label == 1)
    for x, y in zip(xs[:200], ys[:200]):
        v = t.center - np.array([x, y], dtype=float)
        n = np.linalg.norm(v)
        if n == 0:
            continue
        assert np.allclose(pl[y, x, :2], v / n, atol=1e-6)
        assert pl[y, x, 2] == pytest.approx(pose.translation[2], abs=1e-6)
    assert not np.any(pl[raster.label != 1])  # background stays zero


def test_ground_truth_fields_need_the_whole_frame():
    # a window's pixels would land at window coordinates in the frame-sized
    # field, and every center would read occluded
    models = default_registry()
    scene = random_scene(3, models)
    full = render_full(scene, models)
    want_fld, want = ground_truth_fields(scene, full)
    ys, xs = np.nonzero(full.depth)
    x0, y0 = int(xs.min()), int(ys.min())
    for win in ((x0, y0, int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1),
                (0, 0, 319, 240), (1, 0, 319, 240)):
        scene.window = win
        with pytest.raises(SynthError, match="whole 320x240 frame"):
            ground_truth_fields(scene, render_full(scene, models))
    scene.window = (0, 0, 320, 240)  # a window that is the whole frame
    fld, truths = ground_truth_fields(scene, render_full(scene, models))
    assert np.array_equal(fld.values, want_fld.values)
    assert ([t.center_occluded for t in truths]
            == [t.center_occluded for t in want])


def test_fully_occluded_instance_flagged():
    models = default_registry()
    small = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.4]))
    big = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.6]))
    scene = Scene(instances=[(1, small), (5, big)], intrinsics=K,
                  width=320, height=240)
    raster = render_full(scene, models)
    fld, truths = ground_truth_fields(scene, raster)
    assert truths[0].visible_pixels == 0
    assert not np.any(fld.values[raster.label != 5])
    assert truths[1].visible_pixels > 0


# noise ----------------------------------------------------------------------


def _noisy_setup():
    models = default_registry()
    left = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([-0.13, 0.0, 0.8]))
    right = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.13, 0.0, 0.8]))
    scene = Scene(instances=[(1, left), (3, right)], intrinsics=K,
                  width=320, height=240)
    raster = render_full(scene, models)
    fld, _ = ground_truth_fields(scene, raster)
    return fld, LabelMap(labels=raster.label)


def test_perturb_zero_spec_identity():
    fld, labels = _noisy_setup()
    out_fld, out_labels = perturb(fld, labels, NoiseSpec())
    assert np.array_equal(out_labels.labels, labels.labels)
    assert not np.shares_memory(out_labels.labels, labels.labels)
    assert labels.class_ids() == [1, 3]
    assert np.array_equal(out_fld.values, fld.values)
    assert not np.shares_memory(out_fld.values, fld.values)


def test_perturb_direction_sigma_statistics():
    fld, labels = _noisy_setup()
    out_fld, _ = perturb(fld, labels, NoiseSpec(direction_sigma=0.1,
                                                rng_seed=0))
    mask = labels.labels == 1
    a = fld.values[mask][:, :2]
    b = out_fld.values[mask][:, :2]
    nonzero = np.hypot(a[:, 0], a[:, 1]) > 0  # center pixel stays (0, 0)
    a, b = a[nonzero], b[nonzero]
    # unit norm preserved
    assert np.allclose(np.hypot(b[:, 0], b[:, 1]), 1.0, atol=1e-5)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     np.sum(a * b, axis=1))
    assert len(ang) > 2000
    assert abs(np.std(ang) - 0.1) < 0.005


def test_perturb_deterministic():
    fld, labels = _noisy_setup()
    spec = NoiseSpec(direction_sigma=0.05, depth_sigma=0.01, rng_seed=42)
    f1, l1 = perturb(fld, labels, spec)
    f2, l2 = perturb(fld, labels, spec)
    assert np.array_equal(f1.values, f2.values)
    assert not f1.values[labels.labels == 0].any()  # the background stays zero
    assert np.array_equal(l1.labels, l2.labels)
    # noise never touches the labels, and each call returns its own copy
    assert np.array_equal(l1.labels, labels.labels)
    assert not np.shares_memory(l1.labels, labels.labels)


@pytest.mark.parametrize("field_wh, labels_wh", [((60, 40), (30, 20)),
                                                 ((30, 20), (60, 40))])
def test_perturb_field_of_another_frame_rejected(field_wh, labels_wh):
    # the larger frame's pixels would index past the smaller one's field,
    # or perturb only its top-left corner
    fld = CenterField(np.ones((field_wh[1], field_wh[0], 3), dtype=np.float32))
    labels = np.zeros(labels_wh[::-1], dtype=np.uint16)
    labels[5:10, 5:10] = 1
    match = (rf"center field shape \({field_wh[1]}, {field_wh[0]}\) differs "
             rf"from label map shape \({labels_wh[1]}, {labels_wh[0]}\)")
    for spec in (NoiseSpec(), NoiseSpec(direction_sigma=0.1, depth_sigma=0.01)):
        with pytest.raises(SynthError, match=match):
            perturb(fld, LabelMap(labels=labels), spec)


def test_noise_spec_validation():
    with pytest.raises(SynthError):
        NoiseSpec(direction_sigma=-0.1)
    with pytest.raises(TypeError):  # labels are never flipped
        NoiseSpec(label_flip_rate=0.1)


# a NaN sigma would switch its noise off while the run summary records NaN,
# and a negative or fractional seed would fail late, inside numpy
@pytest.mark.parametrize("setting", [
    {"rotation_sigma_deg": math.nan}, {"rotation_sigma_deg": math.inf},
    {"direction_sigma": math.nan}, {"depth_sigma": math.inf},
    {"depth_sigma": math.nan}, {"rng_seed": -1}, {"rng_seed": 1.5},
    {"depth_sigma": True}, {"depth_sigma": "a"}, {"rng_seed": True},
    pytest.param({"depth_sigma": 10**400}, id="depth_sigma=10**400"),
], ids=lambda d: "{}={}".format(*next(iter(d.items()))))
def test_noise_spec_rejects_non_finite_or_negative(setting):
    with pytest.raises(SynthError):
        NoiseSpec(**setting)


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
    w, h = 320, 240
    for seed in range(50):
        scene = random_scene(seed, models)
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
