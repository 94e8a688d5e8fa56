"""Rigid-body and camera geometry: quaternions, poses, pinhole projection.

Quaternions are stored as (w, x, y, z) everywhere. Angles are degrees at
API boundaries, radians internally.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree


class GeometryError(ValueError):
    pass


def is_int_at_least(value, low: int) -> bool:
    """A Python or numpy integer, not a bool, of at least `low`."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


def is_finite_real(value) -> bool:
    """A real number, not a bool, that is finite as a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# ---------------------------------------------------------------------------
# quaternions


def normalize_quat(q) -> np.ndarray:
    """q scaled to unit length; GeometryError for a q not of 4 components or
    of zero or non-finite norm (a NaN or infinite component, or overflow)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise GeometryError(f"a quaternion has 4 components, got shape {q.shape}")
    n = math.sqrt(q.dot(q))  # np.linalg.norm's vector path, undispatched
    if n == 0.0:
        raise GeometryError("cannot normalize an all-zero quaternion")
    if not math.isfinite(n):
        raise GeometryError(f"cannot normalize a quaternion of non-finite "
                            f"norm: {q}")
    return q / n


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion; normalizes internally."""
    w, x, y, z = normalize_quat(q).tolist()  # Python floats: no numpy scalars
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


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random unit vector in n dimensions: normalized standard
    normals, drawn again while their norm is below 1e-12."""
    v = rng.standard_normal(n)
    while np.linalg.norm(v) < 1e-12:
        v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit quaternion (uniform on SO(3) up to sign)."""
    return random_unit(rng, 4)


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
        if not all(is_finite_real(v) for v in (self.fx, self.fy, self.px, self.py)):
            raise GeometryError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")


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
    """Rigid transform: unit quaternion (w, x, y, z) + translation, meters.
    A translation that is not 3 finite numbers raises GeometryError."""

    quaternion: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.quaternion = normalize_quat(self.quaternion)
        t = np.asarray(self.translation, dtype=float)
        if t.size != 3 or not np.isfinite(t).all():
            raise GeometryError(
                f"a translation is 3 finite numbers, got {t.tolist()}")
        self.translation = t.reshape(3)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotation(self.quaternion)

    def transform(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self.rotation_matrix().T + self.translation


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


_REACH_MARGIN = 1e-9  # of the second distance, for rounding in the distances


def _require_finite_points(points: np.ndarray):
    if not np.isfinite(points).all():
        raise GeometryError("nearest-neighbour points must be finite")


class NeighborIndex:
    """A k-d tree over a fixed set of target points, for closest-point
    queries against the same targets many times.

    The targets are checked once, when the tree is built, and the points of
    every call when it is made; a non-finite point raises GeometryError.
    Among targets at equal distance the index is the tree's choice, which
    is deterministic but not always the lowest. ``query`` is stateless;
    ``nearest`` remembers the correspondences of its last call, so an index
    is not for concurrent use.
    """

    def __init__(self, targets: np.ndarray):
        _require_finite_points(targets)
        self._tree = cKDTree(targets)
        self._at = None  # (m, 3) where each point was last searched for
        self._nearest = None  # (m,) the closest target found there
        self._reach2 = None  # (m,) squared reach, -inf for none

    def query(self, points: np.ndarray):
        """(distances, indices) of the closest target to each point."""
        _require_finite_points(points)
        return self._tree.query(points, k=1)

    def nearest(self, points: np.ndarray) -> np.ndarray:
        """Indices of the closest target to each point, by a cached k-d
        tree search (Nüchter, Lingemann and Hertzberg, 3DIM 2007) that is
        exact for any sequence of calls and cheapest when the points move a
        little between calls, as along a descent.

        Each point keeps where it was last searched for, the target found
        and a reach: half the gap from that target's distance to the second
        closest one's, less 1e-9 of the latter for rounding. By the triangle
        inequality no other target can be closest to a point that has moved
        less than its reach, so only the points that moved farther (all of
        them when their number changes) are searched again, and every call
        returns what ``query`` returns. A point without a positive reach (an
        exact tie, or a single distinct target) is searched on every call.
        """
        _require_finite_points(points)
        if self._at is None or self._at.shape != points.shape:
            self._at = np.empty(points.shape)
            self._nearest = np.empty(points.shape[0], dtype=np.intp)
            self._reach2 = np.empty(points.shape[0])
            stale = np.arange(points.shape[0])
        else:
            moved = points - self._at
            stale = (~(np.einsum("ij,ij->i", moved, moved)
                       < self._reach2)).nonzero()[0]
        if stale.size:
            self._at[stale] = points[stale]
            self._nearest[stale], self._reach2[stale] = \
                self._search(points[stale])
        return self._nearest.copy()

    def _search(self, points: np.ndarray):
        """(indices, squared reaches) of the closest target to each point,
        from one query for its two closest targets."""
        k = min(2, self._tree.n)
        dist, idx = (a.reshape(-1, k) for a in self._tree.query(points, k=k))
        nearest = idx[:, 0]
        reach = 0.5 * (dist[:, -1] - dist[:, 0]) - _REACH_MARGIN * dist[:, -1]
        tied = ~(reach > 0)
        if tied.any():
            # queried on every call, so they take a fresh query's choice
            nearest[tied] = self._tree.query(points[tied], k=1)[1]
        return nearest, np.where(tied, -np.inf, reach * reach)


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
    """A 3D point set, its (n, 3) int64 triangle faces ((0, 3) for faces=None),
    its points' diameter and radius (largest norm). Its class id is its registry key.
    Equal points (-0.0 is 0.0) merge into the first, in order of first appearance,
    and faces keep their coordinates, so a mesh with split-vertex seams loads."""

    name: str
    points: np.ndarray
    faces: np.ndarray | None = None
    diameter: float = field(init=False)
    radius: float = field(init=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.points.shape[0] == 0:
            raise GeometryError("model has no points")
        if not np.isfinite(self.points).all():
            raise GeometryError("model points must be finite")
        self.faces = np.asarray([] if self.faces is None else self.faces,
                                dtype=np.int64).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= self.points.shape[0]):
            raise GeometryError("face index out of range")
        _, first, inverse = np.unique(self.points, axis=0, return_index=True,
                                      return_inverse=True)
        self.points = self.points[np.sort(first)]
        self.faces = np.argsort(np.argsort(first))[inverse][self.faces]
        self.diameter = model_diameter(self.points) if self.points.shape[0] >= 2 else 0.0
        self.radius = float(np.linalg.norm(self.points, axis=1).max())
