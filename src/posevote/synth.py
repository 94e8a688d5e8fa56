"""Synthetic scene generation: z-buffered depth rendering, ground-truth
center fields and label maps, primitive models, and noise injection.

The renderer stands in for a learned dense predictor and doubles as the
ground-truth oracle for tests. Each mesh is rasterized in one vectorized
pass over all its triangles, with perspective-correct depth and a z-buffer
in which the earlier triangle keeps a pixel on equal depth; models without
faces cannot be rendered. Each row of a triangle's bounding box walks only
the columns its edge lines allow, widened by a pixel, and the whole row
where rounding could move an edge further. A render covers the whole frame
or a `Scene.window` of it: the window's buffers hold exactly those pixels
of the whole-frame render, `RangeImage.origin` places them in the frame,
and `RangeImage.coverage` counts pixels within the window. ICP renders only
the window its masked depth pixels span.
Everything is deterministic, and all randomness flows from explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .fields import LabelMap, directions_to_center
from .geometry import (CameraIntrinsics, ObjectModel, Pose, backproject_center,
                       cross_rows, is_finite_real, is_int_at_least, project,
                       quat_from_axis_angle, quat_multiply, random_quat,
                       random_unit)


class SynthError(ValueError):
    pass


@dataclass
class Scene:
    instances: list  # [(class_id, Pose)]
    intrinsics: CameraIntrinsics
    width: int
    height: int
    # (x0, y0, width, height) of the frame to render; None renders it whole
    window: tuple[int, int, int, int] | None = None


@dataclass
class NoiseSpec:
    direction_sigma: float = 0.0  # radians of angular jitter on (nx, ny)
    depth_sigma: float = 0.0  # meters on Tz
    rotation_sigma_deg: float = 0.0  # synth_frame's simulated rotation error
    rng_seed: int = 0

    def __post_init__(self):
        sigmas = (self.direction_sigma, self.depth_sigma, self.rotation_sigma_deg)
        if not all(is_finite_real(s) and s >= 0 for s in sigmas):
            raise SynthError("noise sigmas must be finite and non-negative")
        if not is_int_at_least(self.rng_seed, 0):
            raise SynthError("rng_seed must be a non-negative integer")


@dataclass
class RangeImage:
    """Z-buffer render: depth, instance index and winning triangle per
    pixel. Camera-frame points follow from depth and the pixel rays, and a
    pixel's unit normal is its triangle's row of `face_normals`
    (a visibility buffer: normals are looked up only where they are read).
    The buffers hold a window of the frame whose top-left pixel is `origin`;
    buffer pixel (j, i) is frame pixel (origin[1] + j, origin[0] + i)."""

    depth: np.ndarray  # (h, w), 0 = empty
    instance: np.ndarray  # (h, w) int32, -1 = background
    face: np.ndarray  # (h, w) int32 row of face_normals, 0 = background
    # (n, 3) unit normals of the rendered triangles, oriented toward the
    # camera; row 0 is the zero vector of the background
    face_normals: np.ndarray
    # per instance index, the window pixels it covers when rendered alone
    coverage: list[int] = field(default_factory=list)
    origin: tuple[int, int] = (0, 0)  # frame (x, y) of buffer pixel (0, 0)

    @classmethod
    def empty(cls, width: int, height: int,
              origin: tuple[int, int] = (0, 0)) -> "RangeImage":
        return cls(depth=np.zeros((height, width)),
                   instance=np.full((height, width), -1, dtype=np.int32),
                   face=np.zeros((height, width), dtype=np.int32),
                   face_normals=np.zeros((1, 3)), origin=origin)


@dataclass
class InstanceTruth:
    """Ground truth bookkeeping for one scene instance."""

    index: int
    class_id: int
    pose: Pose
    center: np.ndarray  # projected (x, y), may lie outside the image
    tz: float
    visible_pixels: int
    solo_pixels: int
    center_occluded: bool

    @property
    def visibility(self) -> float:
        return self.visible_pixels / self.solo_pixels if self.solo_pixels else 0.0


# ---------------------------------------------------------------------------
# primitive models

PRIMITIVE_KINDS = ("cube", "bar_2fold", "asymmetric_blob", "cylinder")


def _box_mesh(sx: float, sy: float, sz: float, k: int):
    """Grid-sampled axis-aligned box surface; symmetric sampling, so the
    vertex set inherits the full symmetry of the box dimensions.

    Faces are the 12 corner triangles (the surface is flat, so a decimated
    mesh renders identically to the dense grid and much faster); the dense
    grid points remain for losses and metrics.
    """
    u = np.linspace(-0.5, 0.5, k)
    g0, g1 = np.meshgrid(u, u, indexing="ij")
    verts = []
    half = np.array([sx, sy, sz]) / 2.0
    for axis in range(3):
        for sign in (-1.0, 1.0):
            face_pts = np.zeros((k * k, 3))
            other = [a for a in range(3) if a != axis]
            face_pts[:, other[0]] = g0.ravel()
            face_pts[:, other[1]] = g1.ravel()
            face_pts[:, axis] = 0.5 * sign
            verts.append(face_pts * 2.0 * half)
    pts = np.concatenate(verts)
    # corner bit order: x sign (4), y sign (2), z sign (1). A corner first
    # occurs on the x face of its sign, at grid row (y) and column (z) 0 or
    # k - 1; the box is triangulated over those 8 points.
    corner_idx = np.array([((c >> 2) * k + (c >> 1 & 1) * (k - 1)) * k
                           + (c & 1) * (k - 1) for c in range(8)], dtype=np.int64)
    quads = corner_idx[[
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]]
    return pts, np.stack([quads[:, :3], quads[:, [0, 2, 3]]], axis=1).reshape(-1, 3)


def _cylinder_mesh(radius: float, length: float, n_ang: int, n_len: int):
    angles = np.arange(n_ang) * (2 * math.pi / n_ang)
    zs = np.linspace(-length / 2, length / 2, n_len)
    verts = []
    faces = []
    for iz, z in enumerate(zs):
        for a in angles:
            verts.append([radius * math.cos(a), radius * math.sin(a), z])
    # decimated faces: the side is straight along z, so quads span the full
    # length directly between the end rings; caps are fans over the same
    # strided angular subset (renders are self-consistent with the model)
    stride = max(1, n_ang // 16)
    ring_a = list(range(0, n_ang, stride))
    for j, ia in enumerate(ring_a):
        ib = ring_a[(j + 1) % len(ring_a)]
        a, b = ia, ib
        c, d = a + (n_len - 1) * n_ang, b + (n_len - 1) * n_ang
        faces.append([a, b, d])
        faces.append([a, d, c])
    for z, flip in ((-length / 2, True), (length / 2, False)):
        center_idx = len(verts)
        verts.append([0.0, 0.0, z])
        base = 0 if flip else (n_len - 1) * n_ang
        for j, ia in enumerate(ring_a):
            a = base + ia
            b = base + ring_a[(j + 1) % len(ring_a)]
            faces.append([center_idx, b, a] if flip else [center_idx, a, b])
    return np.array(verts), np.array(faces, dtype=np.int64)


def _fibonacci_dirs(n: int):
    """n unit directions spread over the sphere on a Fibonacci spiral, with
    their polar angles phi and azimuths theta."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = math.pi * (1 + math.sqrt(5)) * i
    dirs = np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)
    return dirs, phi, theta


def make_primitive_model(kind: str, scale: float, n_points: int) -> ObjectModel:
    """Deterministic primitive point sets/meshes with known symmetry groups.

    cube: grid-sampled cube surface, full octahedral symmetry.
    bar_2fold: elongated ellipsoid, exact 180-degree symmetry about Z by
      mirrored construction; no smaller-angle symmetry.
    asymmetric_blob: deformed ellipsoid point cloud, trivial symmetry group.
    cylinder: capped cylinder mesh with discrete n-fold axial symmetry.
    """
    if not (is_finite_real(scale) and scale > 0):
        raise SynthError(f"scale must be positive and finite, got {scale}")
    if not is_int_at_least(n_points, 1):
        raise SynthError(f"n_points must be at least 1, got {n_points}")
    if kind == "cube":
        k = max(2, round(math.sqrt(max(n_points, 24) / 6)))
        pts, faces = _box_mesh(scale, scale, scale, k)
        return ObjectModel(name="cube", points=pts, faces=faces)
    if kind == "bar_2fold":
        # Elongated ellipsoid with strongly distinct semi-axes. Half the
        # points are Fibonacci-sphere samples; the other half is the same
        # set with x and y negated, so the point set maps onto itself under
        # a 180-degree rotation about Z exactly (sign flips are exact in
        # floating point). The smooth surface avoids the spurious SLoss
        # minima that flat box faces create.
        half = max(n_points, 24) // 2
        p = _fibonacci_dirs(half)[0] * (scale * np.array([1.0, 0.5, 0.15]))
        mirrored = p.copy()
        mirrored[:, 0] *= -1.0
        mirrored[:, 1] *= -1.0
        pts = np.concatenate([p, mirrored])
        # convex surface: a hull over a mirror-paired subset gives a
        # watertight decimated mesh (rendering stays self-consistent because
        # observed and hypothesis renders share the same faces)
        sel = np.unique(np.linspace(0, half - 1, min(72, half)).astype(int))
        sel = np.concatenate([sel, sel + half])
        faces = sel[ConvexHull(pts[sel]).simplices].astype(np.int64)
        return ObjectModel(name="bar_2fold", points=pts, faces=faces)
    if kind == "cylinder":
        n_ang = max(8, int(math.sqrt(2 * n_points)))
        n_len = max(3, n_points // n_ang)
        pts, faces = _cylinder_mesh(0.35 * scale, scale, n_ang, n_len)
        return ObjectModel(name="cylinder", points=pts, faces=faces)
    if kind == "asymmetric_blob":
        rng = np.random.default_rng(20240521)
        n = max(n_points, 50)
        # Fibonacci sphere directions, radius modulated by fixed harmonics
        dirs, phi, theta = _fibonacci_dirs(n)
        r = 0.5 * scale * (1.0 + 0.25 * np.sin(3 * theta) * np.sin(2 * phi)
                           + 0.15 * np.cos(phi + 0.7))
        pts = dirs * r[:, None] * np.array([1.0, 0.75, 0.55])
        pts += 0.01 * scale * rng.standard_normal(pts.shape)
        # coarse convex-hull mesh over a subset; shaves shallow concavities
        # but keeps renders fast and self-consistent
        sel = np.unique(np.linspace(0, n - 1, min(150, n)).astype(int))
        faces = sel[ConvexHull(pts[sel]).simplices].astype(np.int64)
        return ObjectModel(name="asymmetric_blob", points=pts, faces=faces)
    raise SynthError(f"unknown primitive kind: {kind!r} "
                     f"(expected one of {PRIMITIVE_KINDS})")


# ---------------------------------------------------------------------------
# rendering


# Pixels walked at once; a longer box row is its own batch. Bounds the
# per-batch arrays when a mesh comes close to the camera.
_FRAGMENT_BUDGET = 1 << 18

# Each box row walks only the columns its triangle's edge lines allow,
# widened by 1 px. An edge bounds the walk only where rounding in the
# barycentric test provably moves it by at most half a pixel: that error is
# below _SPAN_ROUNDING times the magnitude of the terms the test sums,
# divided by the edge's height. Edges under _SPAN_MIN_HEIGHT px tall, and
# every edge of a triangle with a vertex beyond _SPAN_MAX_UV px, bound
# nothing, so such rows fall back to their whole box row.
_SPAN_ROUNDING = 8 * np.finfo(float).eps
_SPAN_MIN_HEIGHT = 1e-3
_SPAN_MAX_UV = 1e6


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays. Batched matmul reduces each
    row the way np.dot reduces one vector, so results match it bit for bit
    (einsum and sum(axis=1) round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _spans(lo: np.ndarray, size: np.ndarray):
    """Concatenated ranges lo[i] .. lo[i] + size[i] - 1, with the index i of
    the range each entry belongs to."""
    owner = np.repeat(np.arange(size.size), size)
    return np.arange(owner.size) - np.repeat(np.cumsum(size) - size - lo, size), owner


def _row_spans(ua, va, du1, dv1, du2, dv2, denom, safe, box, row_t, c1, c2):
    """First column and column count to walk in each box row.

    The barycentric test is b1 = (dx dv1 - c1) / denom, b2 = (c2 - dx dv2) /
    denom and b0 = 1 - b1 - b2 with dx = x - ua and the row terms c1 = du1 dy,
    c2 = du2 dy; each b >= 0 holds on one side of an edge line. Per row,
    every edge the rounding bound trusts gives the column where it crosses
    the row, and the walk runs from the last lower crossing - 1 to the first
    upper crossing + 1, clipped to the box (x0, x1, y0, y1): pixels outside
    that fail the test however it rounds.
    """
    x0, x1, y0, y1 = box
    dv0 = dv1 - dv2
    mx = np.maximum(np.abs(x0 - ua), np.abs(x1 - ua))
    my = np.maximum(np.abs(y0 - va), np.abs(y1 - va))
    m1 = mx * np.abs(dv1) + my * np.abs(du1)
    m2 = mx * np.abs(dv2) + my * np.abs(du2)
    pos = denom > 0
    ua = ua[row_t]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        crossings = (ua + c1 / dv1[row_t], ua + c2 / dv2[row_t],
                     ua + (denom[row_t] + c1 - c2) / dv0[row_t])
    lo = np.full(row_t.size, -np.inf)
    hi = np.full(row_t.size, np.inf)
    # (edge height, magnitude of the terms, whether b grows with x) per b
    for (dv, mag, lower), x in zip(((dv1, m1, (dv1 > 0) == pos),
                                    (dv2, m2, (dv2 < 0) == pos),
                                    (dv0, m1 + m2 + np.abs(denom), (dv0 < 0) == pos)),
                                   crossings):
        trusted = (safe & (np.abs(dv) >= _SPAN_MIN_HEIGHT)
                   & (_SPAN_ROUNDING * mag <= 0.5 * np.abs(dv)))
        lo = np.where((trusted & lower)[row_t], np.maximum(lo, x), lo)
        hi = np.where((trusted & ~lower)[row_t], np.minimum(hi, x), hi)
    first = np.clip(np.ceil(lo - 1.0), x0[row_t], x1[row_t] + 1.0)
    last = np.clip(np.floor(hi + 1.0), x0[row_t] - 1.0, x1[row_t])
    return first.astype(np.int64), np.maximum(last - first + 1.0, 0).astype(np.int64)


def _raster_triangles(r: RangeImage, verts_cam: np.ndarray, faces: np.ndarray,
                      intrinsics: CameraIntrinsics, inst: int) -> int:
    """Z-buffer the triangles `faces` of `verts_cam` (camera frame) into the
    window `r` holds and return the number of distinct window pixels they
    cover. The kept triangles' normals are appended to `r.face_normals`, and
    each pixel a triangle wins records its row there.

    All triangles go through one vectorized pass, in batches of at most
    _FRAGMENT_BUDGET walked pixels; each row of a triangle's bounding box
    walks only the columns its edges allow (see _row_spans). Every pixel
    test runs in frame coordinates, so a window holds exactly those pixels
    of a whole-frame render. A pixel takes the fragment with the smallest
    perspective-correct depth; among equal depths the earlier triangle, and
    an instance rendered earlier, keeps it. Triangles with a vertex at
    z <= 1e-6, no bounding-box pixel in the window, or zero projected or 3D
    area are skipped. A non-finite vertex raises SynthError.
    """
    if not np.isfinite(verts_cam).all():
        raise SynthError("non-finite vertex in the camera frame")
    h, w = r.depth.shape
    ox, oy = r.origin
    fx, fy, px, py = intrinsics.fx, intrinsics.fy, intrinsics.px, intrinsics.py
    z = verts_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = fx * verts_cam[:, 0] / z + px
        v = fy * verts_cam[:, 1] / z + py
        inv_z = 1.0 / z
    faces = faces[~np.any(z[faces] <= 1e-6, axis=1)]
    tu, tv = u[faces], v[faces]
    x0 = np.maximum(float(ox), np.floor(tu.min(axis=1)))
    x1 = np.minimum(ox + w - 1.0, np.ceil(tu.max(axis=1)))
    y0 = np.maximum(float(oy), np.floor(tv.min(axis=1)))
    y1 = np.minimum(oy + h - 1.0, np.ceil(tv.max(axis=1)))
    ua, ub, uc = tu.T
    va, vb, vc = tv.T
    du1, dv1, du2, dv2 = uc - ua, vc - va, ub - ua, vb - va
    denom = du2 * dv1 - du1 * dv2
    p0, p1, p2 = (verts_cam[faces[:, k]] for k in range(3))
    n = cross_rows(p1 - p0, p2 - p0)
    nn = np.sqrt(_rowdot(n, n))
    keep = (x1 >= x0) & (y1 >= y0) & ~(np.abs(denom) < 1e-12) & ~(nn < 1e-15)
    n = n[keep] / nn[keep][:, None]
    facing = _rowdot(n, (p0[keep] + p1[keep] + p2[keep]) / 3.0) > 0
    n[facing] = -n[facing]  # orient toward the camera
    first_face = len(r.face_normals)  # table row of kept triangle 0
    r.face_normals = np.concatenate([r.face_normals, n])
    safe = np.all((np.abs(tu[keep]) <= _SPAN_MAX_UV)
                  & (np.abs(tv[keep]) <= _SPAN_MAX_UV), axis=1)
    ua, va, du1, dv1, du2, dv2, denom, x0, x1, y0, y1 = (
        a[keep] for a in (ua, va, du1, dv1, du2, dv2, denom, x0, x1, y0, y1))
    iz0, iz1, iz2 = inv_z[faces[keep]].T
    # The barycentric numerators split into a column term and a row term per
    # triangle, each computed once with the same operations as per pixel.
    ix0, iy0 = x0.astype(np.int64), y0.astype(np.int64)
    bw = x1.astype(np.int64) - ix0 + 1
    bh = y1.astype(np.int64) - iy0 + 1
    col_x, col_t = _spans(ix0, bw)
    row_y, row_t = _spans(iy0, bh)
    dx, dy = col_x - ua[col_t], row_y - va[row_t]
    a1, a2 = dx * dv1[col_t], dx * dv2[col_t]
    c1, c2 = du1[row_t] * dy, du2[row_t] * dy
    first, walk = _row_spans(ua, va, du1, dv1, du2, dv2, denom, safe,
                             (x0, x1, y0, y1), row_t, c1, c2)
    # index into the column terms of each row's first walked pixel
    first += (np.cumsum(bw) - bw - ix0)[row_t]
    ends = np.cumsum(walk)
    # flat views of the window's buffers, which RangeImage.empty makes
    # C-contiguous
    depth, instance, face = r.depth.ravel(), r.instance.ravel(), r.face.ravel()
    covered = np.zeros(h * w, dtype=bool)
    start = 0
    while start < walk.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, base + _FRAGMENT_BUDGET, side="right")))
        # every walked pixel of the batch: by triangle, row, column
        col, fr = _spans(first[start:stop], walk[start:stop])
        fr += start
        start = stop
        t = row_t[fr]
        d = denom[t]
        b1 = (a1[col] - c1[fr]) / d
        b2 = (c2[fr] - a2[col]) / d
        b0 = 1.0 - b1 - b2
        inside = np.flatnonzero((b0 >= 0) & (b1 >= 0) & (b2 >= 0))
        if not inside.size:
            continue
        t, gx, gy = t[inside], col_x[col[inside]], row_y[fr[inside]]
        zs = 1.0 / (b0[inside] * iz0[t] + b1[inside] * iz1[t] + b2[inside] * iz2[t])
        # per pixel of the fragments' bounding box the nearest fragment, the
        # earliest one among equals
        wx0, wy0 = gx.min(), gy.min()
        ww, wh = gx.max() - wx0 + 1, gy.max() - wy0 + 1
        pix = (gy - wy0) * ww + (gx - wx0)
        zmin = np.full(ww * wh, np.inf)
        np.minimum.at(zmin, pix, zs)
        cand = np.flatnonzero(zs == zmin[pix])
        earliest = np.full(ww * wh, zs.size)
        np.minimum.at(earliest, pix[cand], cand)
        f = earliest[earliest < zs.size]
        at, zw, t = (gy[f] - oy) * w + (gx[f] - ox), zs[f], t[f]
        covered[at] = True
        cur = depth[at]
        win = (cur == 0) | (zw < cur)
        at = at[win]
        depth[at] = zw[win]
        instance[at] = inst
        face[at] = t[win] + first_face
    return int(np.count_nonzero(covered))


def render_full(scene: Scene, models: dict[int, ObjectModel]) -> RangeImage:
    """Z-buffer render returning depth/instance/face buffers of the
    scene's window, or of the whole frame when it has none."""
    x0, y0, w, h = scene.window or (0, 0, scene.width, scene.height)
    if scene.window and not (0 <= x0 and 0 <= y0 and 1 <= w and 1 <= h
                             and x0 + w <= scene.width
                             and y0 + h <= scene.height):
        raise SynthError(f"window {scene.window} does not lie in the "
                         f"{scene.width}x{scene.height} frame")
    r = RangeImage.empty(w, h, origin=(x0, y0))
    for inst, (cid, pose) in enumerate(scene.instances):
        if cid not in models:
            raise SynthError(f"scene references unknown class id {cid}")
        if pose.translation[2] <= 0:
            raise SynthError("instance depth Tz must be positive")
        model = models[cid]
        if not model.faces.size:
            raise SynthError(f"model {model.name!r} has no faces to render")
        pts_cam = pose.transform(model.points)
        r.coverage.append(_raster_triangles(r, pts_cam, model.faces,
                                            scene.intrinsics, inst))
    return r


def ground_truth_fields(scene: Scene, raster: RangeImage):
    """Exact regression targets and per-instance ground truth for a scene
    whose render_full output is `raster`. Each instance's solo pixel count
    is the coverage the rasterizer recorded in `raster`.

    Each instance's visible pixels encode the unit direction toward its own
    projected center (which may be occluded or outside the image) and its
    ground-truth Tz, and are labeled with its class id. Returns
    (center field, LabelMap, [InstanceTruth]). The raster must cover the
    whole frame (SynthError): the field and the occlusion test are in frame
    coordinates. Each class id must be an integer in [1, 65535] (SynthError):
    the uint16 label map holds it, and 0 is the background.
    """
    h, w = raster.depth.shape
    if raster.origin != (0, 0) or (h, w) != (scene.height, scene.width):
        raise SynthError(f"ground truth needs a render of the whole "
                         f"{scene.width}x{scene.height} frame, got a {w}x{h} "
                         f"window at {raster.origin}")
    for cid, _ in scene.instances:
        if not (is_int_at_least(cid, 1) and cid <= 65535):
            raise SynthError(f"class id {cid!r} is not an integer in [1, 65535]")
    fld = np.zeros((h, w, 3), dtype=np.float32)
    classes = np.array([0] + [c for c, _ in scene.instances], dtype=np.uint16)
    labels = LabelMap(classes[raster.instance + 1])  # instance -1 reads 0
    truths = []
    vys, vxs = np.nonzero(raster.instance >= 0)
    owner = raster.instance[vys, vxs]
    for inst, (cid, pose) in enumerate(scene.instances):
        center = project(pose.translation, scene.intrinsics)
        tz = float(pose.translation[2])
        mine = owner == inst
        ys, xs = vys[mine], vxs[mine]
        dirs = directions_to_center(xs, ys, center)
        fld[ys, xs, :2] = dirs
        fld[ys, xs, 2] = tz
        ci, cj = int(math.floor(center[0] + 0.5)), int(math.floor(center[1] + 0.5))
        occ = True
        if 0 <= cj < h and 0 <= ci < w:
            occ = raster.instance[cj, ci] != inst
        truths.append(InstanceTruth(
            index=inst, class_id=cid, pose=pose, center=center, tz=tz,
            visible_pixels=int(xs.size), solo_pixels=raster.coverage[inst],
            center_occluded=bool(occ)))
    return fld, labels, truths


# ---------------------------------------------------------------------------
# noise


def perturb(fld: np.ndarray, labels: LabelMap, spec: NoiseSpec):
    """A noise-injected copy of a field, seeded and deterministic. Directions
    get angular jitter and Tz Gaussian noise, class by class in ascending
    order of the label map. Zero-direction (center) pixels stay zero; unit
    norms are preserved. Frames must match (SynthError).
    """
    if fld.shape[:2] != labels.labels.shape:
        raise SynthError(f"center field shape {fld.shape[:2]} "
                         f"differs from label map shape {labels.labels.shape}")
    out = fld.copy()
    if spec.direction_sigma > 0 or spec.depth_sigma > 0:  # else no pixel moves
        rng = np.random.default_rng(spec.rng_seed)
        for cid in labels.class_ids():
            ys, xs = np.nonzero(labels.labels == cid)
            if spec.direction_sigma > 0:
                ang = rng.normal(0.0, spec.direction_sigma, xs.size)
                ca, sa = np.cos(ang), np.sin(ang)
                nx = out[ys, xs, 0].astype(float)
                ny = out[ys, xs, 1].astype(float)
                out[ys, xs, 0] = (ca * nx - sa * ny).astype(np.float32)
                out[ys, xs, 1] = (sa * nx + ca * ny).astype(np.float32)
            if spec.depth_sigma > 0:
                out[ys, xs, 2] += rng.normal(0.0, spec.depth_sigma,
                                             xs.size).astype(np.float32)
    return out


# ---------------------------------------------------------------------------
# random scenes


def default_registry() -> dict[int, ObjectModel]:
    """Primitive stand-ins: cube, bar, cylinder, blob, large cube."""
    reg = {
        1: make_primitive_model("cube", scale=0.10, n_points=600),
        2: make_primitive_model("bar_2fold", scale=0.10, n_points=600),
        3: make_primitive_model("cylinder", scale=0.12, n_points=600),
        4: make_primitive_model("asymmetric_blob", scale=0.12, n_points=900),
        5: make_primitive_model("cube", scale=0.14, n_points=600),
    }
    reg[5].name = "cube_large"
    return reg


def scene_seed(seed: int, i: int) -> int:
    """Seed of the i-th scene (or its noise) in a run seeded with `seed`."""
    return seed * 100003 + i


def random_scene(seed: int, models: dict[int, ObjectModel]) -> Scene:
    """Seeded random 320x240 scene: 3 to 5 objects, each class at most once
    (which keeps inlier depth averages free of cross-instance contamination),
    seen by a camera with fx = fy = 400 px and its principal point at the
    image center. Tz is uniform in [0.7, 1.4] m; projected centers are normal
    around the image center (sigma 0.35 * min(width, height) / 2), clamped
    to [0.15, 0.85] of each side, so occluded objects and centers are common.
    """
    width, height = 320, 240
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(fx=400.0, fy=400.0, px=width / 2.0, py=height / 2.0)
    cids = list(models)
    n = min(int(rng.integers(3, 6)), len(cids))
    chosen = list(rng.choice(cids, size=n, replace=False))
    spread = 0.35 * min(width, height) / 2.0
    instances = []
    for cid in chosen:
        cid = int(cid)
        tz = float(rng.uniform(0.7, 1.4))
        cx = width / 2.0 + float(rng.normal(0.0, spread))
        cy = height / 2.0 + float(rng.normal(0.0, spread))
        cx = min(max(cx, 0.15 * width), 0.85 * width)
        cy = min(max(cy, 0.15 * height), 0.85 * height)
        q = random_quat(rng)
        instances.append((cid, Pose(q, backproject_center((cx, cy), tz, intr))))
    return Scene(instances=instances, intrinsics=intr, width=width, height=height)


def perturbed_pose(pose: Pose, rot_deg: float, trans_m: float,
                   rng: np.random.Generator) -> Pose:
    """Pose composed with a random rotation (fixed angle, random axis) and a
    random translation offset of fixed magnitude."""
    dq = quat_from_axis_angle(random_unit(rng, 3), math.radians(rot_deg))
    dt = random_unit(rng, 3) * trans_m
    return Pose(quat_multiply(dq, pose.quaternion), pose.translation + dt)
