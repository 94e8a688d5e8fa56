"""Hough voting for object center localization and translation recovery.

Each labeled pixel casts votes along its predicted ray toward the center,
added one cell run at a time into a difference array; accumulator maxima
surviving non-maximum suppression become detections. The depth of a center
is the mean of its inlier depth predictions, and the full 3D translation
follows by inverting the pinhole projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import LabelMap
from .geometry import CameraIntrinsics, ObjectModel, backproject_center, is_int_at_least

_RAY_STEP = 0.5  # px; fine enough to touch every crossed cell
# Run boundaries accumulated at once; a ray with more is its own chunk.
# Bounds the per-chunk arrays whatever the number of labeled pixels.
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


def _class_rays(labels: LabelMap, fld: np.ndarray, class_id: int):
    """Pixels of a class with a nonzero predicted direction (xs, ys, nx, ny).

    Raises VotingError if the field's frame is not the label map's, or if a
    labeled pixel's direction is NaN or infinite.
    """
    if fld.shape[:2] != labels.labels.shape:
        raise VotingError(f"center field shape {fld.shape[:2]} "
                          f"differs from label map shape {labels.labels.shape}")
    ys, xs = np.nonzero(labels.labels == class_id)
    nx = fld[ys, xs, 0].astype(float)
    ny = fld[ys, xs, 1].astype(float)
    if not (np.isfinite(nx).all() and np.isfinite(ny).all()):
        raise VotingError(f"class {class_id} has a non-finite predicted direction")
    norm = np.hypot(nx, ny)
    keep = norm > 1e-6
    nx, ny, norm = nx[keep], ny[keep], norm[keep]
    return xs[keep], ys[keep], nx / norm, ny / norm


def _exit_steps(xs, ys, nx, ny, w: int, h: int, n_steps: int) -> np.ndarray:
    """Steps each ray takes before it leaves the image, at most n_steps.

    A slab test against [-0.5, w-0.5) x [-0.5, h-0.5) gives the parameter at
    which each ray exits; 2 steps of margin past it cover rounding at the
    border (the caller still discards the cells that fall outside).
    """
    t_exit = np.full(xs.shape, np.inf)
    for p, n, size in ((xs, nx, w), (ys, ny, h)):
        bound = np.where(n > 0, size - 0.5, -0.5)
        with np.errstate(divide="ignore"):  # bound - p is never 0
            t = (bound - p) / n
        t_exit = np.minimum(t_exit, np.where(n == 0, np.inf, t))
    steps = np.minimum(t_exit / _RAY_STEP, n_steps).astype(np.int64) + 3
    return np.minimum(steps, n_steps)


def _ray_values(p: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """p + n * (k * _RAY_STEP) + 0.5 in the walk's order of operations, in
    place; its floor is the cell that step k lands in."""
    v = k * _RAY_STEP
    v *= n
    v += p
    v += 0.5
    return v


def _round_cells(p: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The cells of steps k, floor(_ray_values(p, n, k)), as int32."""
    v = _ray_values(p, n, k)
    return np.floor(v, out=v).astype(np.int32)


def _run_starts(p, n, j, row) -> np.ndarray:
    """First step k, as floats, whose cell _round_cells(p, n, k) reaches
    row, j >= 1 cells from p: where _ray_values reaches row, or falls below
    row + 1 when n < 0.

    The exact value crosses that edge at step t = (2j - 1) / |n|, so
    k = ceil(t), and lies (k - t)|n| / 2 px past it at step k and
    (t - k + 1)|n| / 2 px short of it at k - 1. In a frame under 10^4 px
    each of _ray_values' three roundings is at most 2^-40 px (its values
    stay below 2^14), and rounding t moves both distances by at most
    j * 2^-53 px: under 5e-12 px in all. So min(k - t, t - k + 1)|n| > 2e-9
    (1e-9 px) certifies k. Only the rest take the exact loop: k moves one
    step at a time until the value at k is past the edge and at k - 1 is
    not; the value is monotone in k, so this ends at the true first step.
    """
    an = np.abs(n)
    t = (2 * j - 1) / an
    k = np.ceil(t)
    d = k - t
    np.minimum(d, 1 - d, out=d)
    d *= an
    at = np.flatnonzero(d <= 2e-9)
    pt, nt, kt = p[at], n[at], k[at]
    ut = nt > 0
    et = row[at] + np.where(ut, 0.0, 1.0)
    while kt.size:
        early = (_ray_values(pt, nt, kt) >= et) != ut
        late = (_ray_values(pt, nt, kt - 1) >= et) == ut
        i = np.flatnonzero(early | late)
        at, pt, nt, et, ut, kt = at[i], pt[i], nt[i], et[i], ut[i], kt[i] + early[i] - late[i]
        k[at] = kt
    return k


def _run_votes(p, n, pe, q, m, qe, origin, shape) -> np.ndarray:
    """Votes as a (minor cells, major cells) grid of the given shape at
    origin, from rays with minor and major coordinates p, q, directions n, m
    and cells pe, qe at their last step. Each run adds +1 at the low end of
    its major-axis segment and -1 just past its high end to a difference
    array. The grid spans the rays' first and last cells clipped to the
    frame, which a ray leaves by at most 2 steps (1 px), so in the grid its
    cells lie in [-2, size + 1] (-2 only through rounding) and its segment
    ends in [-2, size + 2]. Padding the minor axis by 2 cells a side and the
    major one by 2 on the left and 3 on the right keeps every add inside.
    """
    rows, size = shape
    width = size + 5
    diff = np.zeros((rows + 4) * width, dtype=np.int64)

    # A run starts at step 0 or at a boundary k, and ends at step k - 1 or
    # last. A start adds sign at its cell (past it if sign < 0), an end adds
    # -sign at its cell (past it if sign > 0); frame cell c of frame row r,
    # floored in frame coordinates, is at flat index r * width + c + offset.
    offset = (2 - origin[0]) * width + 2 - origin[1]
    sign = np.where(m < 0, -1, 1)
    np.add.at(diff, p * width + q + offset + (m < 0), sign)
    np.add.at(diff, pe * width + qe + offset + (m >= 0), -sign)
    moves = pe - p
    bounds = np.abs(moves)  # a ray's run boundaries
    ends = np.cumsum(bounds)
    # per ray, in float64 like every per-boundary pass: boundaries before it,
    # minor cell change per run, and start and end offsets from row * width
    first = (ends - bounds).astype(float)
    step = np.sign(moves).astype(float)
    at_start = float(offset) + (m < 0)
    at_end = offset - step * width + (m >= 0)
    rays = (p.astype(float), n, q.astype(float), m, step, sign)
    start = 0
    while start < p.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, base + _VOTE_STEP_BUDGET, side="right")))
        c, count = slice(start, stop), bounds[start:stop]
        j = np.arange(base + 1.0, ends[stop - 1] + 1.0) - np.repeat(first[c], count)
        pb, nb, qb, mb, db, sb = (np.repeat(a[c], count) for a in rays)
        row = db * j
        row += pb
        k = _run_starts(pb, nb, j, row)
        row *= width
        for steps, at, weight in ((k, at_start, sb), (k - 1, at_end, -sb)):
            index = _ray_values(qb, mb, steps)
            np.floor(index, out=index)
            index += row
            index += np.repeat(at[c], count)
            np.add.at(diff, index.astype(np.intp), weight)
        start = stop
    return np.cumsum(diff.reshape(rows + 4, width), axis=1)[2:rows + 2, 2:size + 2]


def cast_votes(labels: LabelMap, fld: np.ndarray, class_id: int,
               max_ray_length: int | None = None) -> VoteGrid:
    """Accumulate center votes for one class along every pixel's ray.

    Each pixel increments every grid cell its ray visits (all-touched
    stepping at half-pixel resolution), up to max ray length or the border.
    A ray's cells never turn back and move at most one per step on each
    axis, so on its minor axis (the one whose cell moves less) the walk
    falls into runs of one cell, each covering every major-axis cell between
    its first and last step once. Votes are added one cell run at a time
    into a difference array, until each ray leaves the image, in chunks of
    whole rays with at most _VOTE_STEP_BUDGET run boundaries, over only the
    box of the rays' first and last cells clipped to the frame. Accumulation
    is pure addition, so the result is independent of pixel order.

    max_ray_length is None (the frame diagonal) or an integer of at least 1;
    any other value raises VotingError.
    """
    if max_ray_length is not None and not is_int_at_least(max_ray_length, 1):
        raise VotingError("max_ray_length must be None or an integer of at "
                          f"least 1, got {max_ray_length!r}")
    h, w = labels.height, labels.width
    xs, ys, nx, ny = _class_rays(labels, fld, class_id)
    grid = np.zeros((h, w), dtype=np.int64)
    if xs.size == 0:
        return VoteGrid(grid, (xs, ys, nx, ny))
    max_len = max_ray_length or int(math.ceil(math.hypot(w, h)))
    n_steps = int(max_len / _RAY_STEP) + 1
    last = _exit_steps(xs, ys, nx, ny, w, h, n_steps) - 1
    ex = _round_cells(xs, nx, last)
    ey = _round_cells(ys, ny, last)
    along_x = np.abs(ey - ys) <= np.abs(ex - xs)  # y is the minor axis
    x0, x1 = np.clip([min(xs.min(), ex.min()), max(xs.max(), ex.max()) + 1], 0, w).tolist()
    y0, y1 = np.clip([min(ys.min(), ey.min()), max(ys.max(), ey.max()) + 1], 0, h).tolist()
    box = (y1 - y0, x1 - x0)
    grid[y0:y1, x0:x1] = (
        _run_votes(*(a[along_x] for a in (ys, ny, ey, xs, nx, ex)), (y0, x0), box)
        + _run_votes(*(a[~along_x] for a in (xs, nx, ex, ys, ny, ey)), (x0, y0), box[::-1]).T)
    return VoteGrid(grid, (xs, ys, nx, ny))


def find_centers(grid: VoteGrid,
                 class_pixel_count: int) -> list[tuple[np.ndarray, int]]:
    """Greedy NMS over accumulator cells scoring above
    max(10, 0.1 * class_pixel_count); an accepted center suppresses every
    cell within _NMS_RADIUS (20 px, Chebyshev distance) of it.

    Returns [(center (x, y), score)] sorted by descending score, ties broken
    by lowest row-major index.
    """
    ys, xs = np.nonzero(grid.scores > max(10, int(0.1 * class_pixel_count)))
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
    the voted cell when the system is degenerate (under 2 rays, or parallel).
    """
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


def _reach(tz_min, model: ObjectModel | None, i: CameraIntrinsics, w, h) -> int | None:
    """Ray length in px from any pixel of an instance of model, whose predicted
    Tz are at least tz_min, to its center C; None (walk to the border) with no
    model, tz_min not above R = model.radius (NaN too) or a reach not below the
    frame diagonal. A pixel shows C + d with |d| <= R and |d x C| <= R |C|, so
    it lies at most f R |C| / (Tz (Tz - R)) px from C's image, f = max(fx, fy),
    and |C| / Tz <= k if C projects into the frame. A center outside it has no
    grid cell, so it loses nothing; 3 px cover Tz noise; w + h keeps it finite.
    """
    if model is None or not tz_min > (r := model.radius):
        return None
    k = math.hypot(1.0, max(i.px + 0.5, w - 0.5 - i.px) / i.fx,
                   max(i.py + 0.5, h - 0.5 - i.py) / i.fy)
    reach = math.ceil(min(max(i.fx, i.fy) * r * k / (tz_min - r), w + h)) + 3
    return reach if reach < math.hypot(w, h) else None


def detect(labels: LabelMap, fld: np.ndarray, intrinsics: CameraIntrinsics,
           models: dict[int, ObjectModel]) -> list[Detection]:
    """Full voting pipeline: votes -> centers -> inliers -> translation/bbox.

    Each class's rays and depths are read once, and reach as far as _reach
    gives for its model in models. The thresholds are fixed: find_centers'
    score cut and _NMS_RADIUS, and collect_inliers' _INLIER_RAY_DISTANCE.
    """
    detections: list[Detection] = []
    for cid in labels.class_ids():
        mask = labels.labels == cid
        grid = cast_votes(labels, fld, cid, _reach(float(fld[mask, 2].min()), models.get(cid),
                                                   intrinsics, labels.width, labels.height))
        xs, ys, nx, ny = grid.rays
        tz = fld[ys, xs, 2].astype(float)
        n_px = int(np.count_nonzero(mask))
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
