"""Hough voting for object center localization and translation recovery.

Each labeled pixel casts votes along its predicted ray toward the center;
accumulator maxima surviving non-maximum suppression become detections. The
depth of a center is the mean of its inlier depth predictions, and the full
3D translation follows by inverting the pinhole projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CenterField, LabelMap
from .geometry import CameraIntrinsics, backproject_center

_RAY_STEP = 0.5  # px; fine enough to touch every crossed cell
# Ray steps accumulated at once; a longer ray is its own chunk. Bounds the
# per-chunk arrays whatever the number of labeled pixels.
_VOTE_STEP_BUDGET = 1 << 15
_NMS_RADIUS = 20  # px, Chebyshev distance between accepted centers
_INLIER_RAY_DISTANCE = 3.0  # px, perpendicular distance from ray to center


class VotingError(ValueError):
    pass


@dataclass
class VoteGrid:
    scores: np.ndarray  # (height, width) non-negative integers
    rays: tuple  # (xs, ys, nx, ny) of the voting pixels, as _class_rays gives them


@dataclass
class Detection:
    class_id: int
    center: np.ndarray  # (x, y) px
    score: int
    inliers: np.ndarray  # (n, 2) integer (x, y), row-major order
    bbox: tuple  # (xmin, ymin, xmax, ymax)
    translation: np.ndarray  # (3,) meters

    def to_dict(self) -> dict:
        return {
            "class_id": int(self.class_id),
            "center_px": [float(self.center[0]), float(self.center[1])],
            "score": int(self.score),
            "inlier_count": int(self.inliers.shape[0]),
            "bbox_px": [int(v) for v in self.bbox],
            "depth_tz_m": float(self.translation[2]),
            "translation_m": [float(v) for v in self.translation],
        }


def _class_rays(labels: LabelMap, fld: CenterField, class_id: int):
    """Pixels of a class with a nonzero predicted direction (xs, ys, nx, ny)."""
    if not fld.has_class(class_id):
        raise VotingError(f"field has no plane for class {class_id}")
    ys, xs = np.nonzero(labels.labels == class_id)
    pl = fld.plane(class_id)
    nx = pl[ys, xs, 0].astype(float)
    ny = pl[ys, xs, 1].astype(float)
    norm = np.hypot(nx, ny)
    keep = norm > 1e-6
    nx, ny, norm = nx[keep], ny[keep], norm[keep]
    return xs[keep], ys[keep], nx / norm, ny / norm


def _exit_steps(xs, ys, nx, ny, w: int, h: int, n_steps: int) -> np.ndarray:
    """Steps each ray takes before it leaves the image, at most n_steps.

    A slab test against [-0.5, w-0.5) x [-0.5, h-0.5) gives the parameter at
    which each ray exits; 2 steps of margin past it cover rounding at the
    border (the caller still masks the cells that fall outside).
    """
    t_exit = np.full(xs.shape, np.inf)
    for p, n, size in ((xs, nx, w), (ys, ny, h)):
        bound = np.where(n > 0, size - 0.5, -0.5)
        with np.errstate(divide="ignore"):  # bound - p is never 0
            t = (bound - p) / n
        t_exit = np.minimum(t_exit, np.where(n == 0, np.inf, t))
    steps = np.minimum(t_exit / _RAY_STEP, n_steps).astype(np.int64) + 3
    return np.minimum(steps, n_steps)


def _round_cells(p: np.ndarray, n: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """floor(p + n * ts + 0.5) as int32 cells, computed in place."""
    v = n * ts
    v += p
    v += 0.5
    return np.floor(v, out=v).astype(np.int32)


def cast_votes(labels: LabelMap, fld: CenterField, class_id: int,
               max_ray_length: int | None = None) -> VoteGrid:
    """Accumulate center votes for one class along every pixel's ray.

    Each pixel increments every grid cell its ray visits (all-touched
    stepping at half-pixel resolution), up to max ray length or the border.
    Each ray is walked only until it leaves the image, and whole rays are
    accumulated in chunks of at most _VOTE_STEP_BUDGET steps. Accumulation
    is pure addition, so the result is independent of pixel processing order.
    """
    h, w = labels.height, labels.width
    grid = np.zeros((h, w), dtype=np.int64)
    xs, ys, nx, ny = _class_rays(labels, fld, class_id)
    max_len = max_ray_length or int(math.ceil(math.hypot(w, h)))
    n_steps = int(max_len / _RAY_STEP) + 1
    if xs.size == 0 or n_steps < 1:
        return VoteGrid(grid, (xs, ys, nx, ny))

    steps = _exit_steps(xs, ys, nx, ny, w, h, n_steps)
    ends = np.cumsum(steps)
    flat = grid.ravel()
    start = 0
    while start < steps.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, base + _VOTE_STEP_BUDGET, side="right")))
        size = steps[start:stop]
        first = ends[start:stop] - size - base  # each ray's first step in the chunk
        ts = (np.arange(ends[stop - 1] - base) - np.repeat(first, size)) * _RAY_STEP
        # cells touched along each ray, rounded to nearest integer pixel
        cx = _round_cells(np.repeat(xs[start:stop], size),
                          np.repeat(nx[start:stop], size), ts)
        cy = _round_cells(np.repeat(ys[start:stop], size),
                          np.repeat(ny[start:stop], size), ts)
        # a negative cell wraps to a large unsigned value
        inside = (cx.view(np.uint32) < w) & (cy.view(np.uint32) < h)
        key = cy * np.int32(w) + cx  # int32: a frame holds < 2**31 cells
        fresh = np.ones_like(inside)
        fresh[1:] = key[1:] != key[:-1]  # dedup consecutive duplicates
        fresh[first] = True
        hit = key[inside & fresh]
        if hit.size:
            lo = int(hit.min())
            counts = np.bincount(hit - lo)
            flat[lo:lo + counts.size] += counts
        start = stop
    return VoteGrid(grid, (xs, ys, nx, ny))


def find_centers(grid: VoteGrid,
                 class_pixel_count: int = 0) -> list[tuple[np.ndarray, int]]:
    """Greedy NMS over accumulator cells scoring above
    max(10, 0.1 * class_pixel_count); an accepted center suppresses every
    cell within _NMS_RADIUS (20 px, Chebyshev distance) of it.

    Returns [(center (x, y), score)] sorted by descending score, ties broken
    by lowest row-major index.
    """
    ys, xs = np.nonzero(grid.scores > max(10, int(0.1 * class_pixel_count)))
    if ys.size == 0:
        return []
    scores = grid.scores[ys, xs]
    order = np.lexsort((ys * grid.scores.shape[1] + xs, -scores))
    accepted: list[tuple[np.ndarray, int]] = []
    acc_xy: list[tuple[int, int]] = []
    for idx in order:
        x, y, s = int(xs[idx]), int(ys[idx]), int(scores[idx])
        if any(max(abs(x - ax), abs(y - ay)) <= _NMS_RADIUS
               for ax, ay in acc_xy):
            continue
        acc_xy.append((x, y))
        accepted.append((np.array([float(x), float(y)]), s))
    return accepted


def collect_inliers(center, grid: VoteGrid) -> np.ndarray:
    """Mask over grid.rays: the rays that pass within _INLIER_RAY_DISTANCE
    (3 px) of the center while pointing toward it (positive dot product)."""
    xs, ys, nx, ny = grid.rays
    vx = float(center[0]) - xs
    vy = float(center[1]) - ys
    toward = vx * nx + vy * ny > 0
    return toward & (np.abs(vx * ny - vy * nx) <= _INLIER_RAY_DISTANCE)


def refine_center(center, xs, ys, nx, ny) -> np.ndarray:
    """Sub-pixel center: least-squares point closest to the inlier rays.

    Solves sum_i (I - n_i n_i^T) c = sum_i (I - n_i n_i^T) p_i; falls back to
    the voted cell when the system is degenerate (e.g. all rays parallel).
    """
    if xs.size < 2:
        return np.asarray(center, dtype=float)
    a00 = np.sum(1.0 - nx * nx)
    a01 = np.sum(-nx * ny)
    a11 = np.sum(1.0 - ny * ny)
    b0 = np.sum((1.0 - nx * nx) * xs - nx * ny * ys)
    b1 = np.sum(-nx * ny * xs + (1.0 - ny * ny) * ys)
    det = a00 * a11 - a01 * a01
    if abs(det) < 1e-9 * max(1.0, a00 + a11):
        return np.asarray(center, dtype=float)
    cx = (a11 * b0 - a01 * b1) / det
    cy = (a00 * b1 - a01 * b0) / det
    refined = np.array([cx, cy])
    # guard against outlier-driven drift away from the voted peak
    if np.max(np.abs(refined - np.asarray(center, dtype=float))) > 2.0:
        return np.asarray(center, dtype=float)
    return refined


def estimate_translation(center, tz: np.ndarray,
                         intrinsics: CameraIntrinsics) -> np.ndarray:
    """Translation from the voted center and the mean of the inliers'
    predicted depths tz."""
    if tz.size == 0:
        raise VotingError("no inlier support for translation estimate")
    mean_tz = float(np.mean(tz))
    if not mean_tz > 0:  # also catches a NaN mean
        raise VotingError("mean predicted depth is not positive")
    return backproject_center(np.asarray(center, dtype=float), mean_tz, intrinsics)


def detect(labels: LabelMap, fld: CenterField,
           intrinsics: CameraIntrinsics) -> list[Detection]:
    """Full voting pipeline: votes -> centers -> inliers -> translation/bbox.

    Each class's rays and depth plane are read once. The thresholds are
    fixed: find_centers' score cut and _NMS_RADIUS, and collect_inliers'
    _INLIER_RAY_DISTANCE.
    """
    detections: list[Detection] = []
    for cid in labels.class_ids():
        if not fld.has_class(cid):
            continue
        grid = cast_votes(labels, fld, cid)
        xs, ys, nx, ny = grid.rays
        tz = fld.plane(cid)[ys, xs, 2].astype(float)
        n_px = int(np.count_nonzero(labels.labels == cid))
        for center, score in find_centers(grid, class_pixel_count=n_px):
            keep = collect_inliers(center, grid)
            if not keep.any():
                continue
            ix, iy = xs[keep], ys[keep]
            center = refine_center(center, ix, iy, nx[keep], ny[keep])
            translation = estimate_translation(center, tz[keep], intrinsics)
            detections.append(Detection(
                class_id=cid, center=center, score=score,
                inliers=np.stack([ix, iy], axis=1).astype(np.int64),
                bbox=(int(ix.min()), int(iy.min()), int(ix.max()), int(iy.max())),
                translation=translation))
    return detections
