"""Rigid-body and camera geometry: quaternions, poses, pinhole projection.

Quaternions are stored as (w, x, y, z) everywhere. Angles are degrees at
API boundaries, radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quaternions


def normalize_quat(q) -> np.ndarray:
    """q scaled to unit length; a zero or non-finite norm (a NaN or infinite
    component, or an overflow) raises GeometryError."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise GeometryError("cannot normalize an all-zero quaternion")
    if not math.isfinite(n):
        raise GeometryError(f"cannot normalize a quaternion of non-finite "
                            f"norm: {q}")
    return q / n


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion; normalizes internally."""
    w, x, y, z = normalize_quat(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_multiply(q1, q2) -> np.ndarray:
    w1, x1, y1, z1 = np.asarray(q1, dtype=float)
    w2, x2, y2, z2 = np.asarray(q2, dtype=float)
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        if angle_rad != 0.0:
            raise GeometryError("zero axis with nonzero angle")
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle_rad
    return np.concatenate([[math.cos(half)], math.sin(half) * axis / n])


def random_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit quaternion (uniform on SO(3) up to sign)."""
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-12:
        q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def rotation_angle_between(q1, q2) -> float:
    """Geodesic rotation angle between two quaternions, degrees in [0, 180].

    Sign-invariant: q and -q encode the same rotation.
    """
    q1 = normalize_quat(q1)
    q2 = normalize_quat(q2)
    d = min(1.0, abs(float(np.dot(q1, q2))))
    return math.degrees(2.0 * math.acos(d))


# ---------------------------------------------------------------------------
# camera


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    px: float
    py: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.px, self.py)):
            raise GeometryError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "px": self.px, "py": self.py}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(fx=d["fx"], fy=d["fy"], px=d["px"], py=d["py"])


def project(points, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of camera-frame points of shape (..., 3) to pixels
    of shape (..., 2); every z must be > 0."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    if np.any(z <= 0):
        raise GeometryError("point is behind the camera (Tz <= 0)")
    out = np.empty(points.shape[:-1] + (2,))
    out[..., 0] = intrinsics.fx * points[..., 0] / z + intrinsics.px
    out[..., 1] = intrinsics.fy * points[..., 1] / z + intrinsics.py
    return out


def backproject_center(c, tz: float, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Invert the pinhole projection given pixel coordinates and depth."""
    if tz <= 0:
        raise GeometryError("invalid depth (Tz <= 0)")
    c = np.asarray(c, dtype=float)
    return np.array(
        [
            (c[0] - intrinsics.px) * tz / intrinsics.fx,
            (c[1] - intrinsics.py) * tz / intrinsics.fy,
            tz,
        ]
    )


# ---------------------------------------------------------------------------
# poses


@dataclass
class Pose:
    """Rigid transform: unit quaternion (w, x, y, z) + translation, meters."""

    quaternion: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.quaternion = normalize_quat(self.quaternion)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotation(self.quaternion)

    def transform(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self.rotation_matrix().T + self.translation

    def to_dict(self, class_id: int | None = None) -> dict:
        d = {
            "quaternion_wxyz": [float(v) for v in self.quaternion],
            "translation_m": [float(v) for v in self.translation],
        }
        if class_id is not None:
            d["class_id"] = int(class_id)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Pose":
        q = np.array(d["quaternion_wxyz"], dtype=float)
        t = np.array(d["translation_m"], dtype=float)
        if not (np.isfinite(q).all() and np.isfinite(t).all()):
            raise GeometryError("pose values must be finite")
        return cls(q, t)


# ---------------------------------------------------------------------------
# point sets


def cross_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """Row-wise cross products of (n, 3) arrays, into `out` if given. Each
    component takes the products and the difference np.cross takes, so the
    results match it bit for bit, without its per-call overhead."""
    if out is None:
        out = np.empty(a.shape)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _require_finite_points(points: np.ndarray):
    if not np.isfinite(points).all():
        raise GeometryError("nearest-neighbour points must be finite")


class NeighborIndex:
    """A k-d tree over a fixed set of target points, for closest-point
    queries against the same targets many times.

    The targets are checked once, when the tree is built, and each query
    when it is asked; a non-finite point raises GeometryError. Among targets
    at equal distance the index is the tree's choice, which is deterministic
    but not always the lowest. Exact duplicates share their coordinates, so
    targets[indices] holds the same points whichever index the tree picks.
    """

    def __init__(self, targets: np.ndarray):
        _require_finite_points(targets)
        self._tree = cKDTree(targets)

    def query(self, points: np.ndarray):
        """(distances, indices) of the closest target to each point."""
        _require_finite_points(points)
        return self._tree.query(points, k=1)


def nearest_neighbors(query: np.ndarray, targets: np.ndarray):
    """(distances, indices) of the closest target to each query point, with
    NeighborIndex's tie rule and finite checks."""
    return NeighborIndex(targets).query(query)


# ---------------------------------------------------------------------------
# object models


def model_diameter(points) -> float:
    """Maximum pairwise distance of a point set.

    Brute force with a convex-hull pre-filter; only hull vertices can
    realize the maximum pairwise distance.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise GeometryError("diameter needs at least 2 points")
    if pts.shape[0] > 400:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass  # degenerate (coplanar etc.) -> fall through to brute force
    best = 0.0
    # chunked O(m^2) scan keeps memory bounded for large hulls
    for i in range(0, pts.shape[0], 512):
        block = pts[i : i + 512]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


@dataclass
class ObjectModel:
    """A 3D point set, optionally with triangle faces; the diameter is
    always computed from the points."""

    class_id: int
    name: str
    points: np.ndarray
    faces: np.ndarray | None = None
    diameter: float = field(init=False)

    def __post_init__(self):
        if self.class_id <= 0:
            raise GeometryError("class_id must be a positive integer")
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.points.shape[0] == 0:
            raise GeometryError("model has no points")
        if not np.isfinite(self.points).all():
            raise GeometryError("model points must be finite")
        if self.faces is not None:
            self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
            if self.faces.size and (self.faces.min() < 0
                                    or self.faces.max() >= self.points.shape[0]):
                raise GeometryError("face index out of range")
        self.diameter = model_diameter(self.points) if self.points.shape[0] >= 2 else 0.0
