"""Dense per-pixel prediction containers and center directions.

Pixel coordinates are integer (x, y) used directly; a pixel of class k with
center c regresses to the unit direction (c - p) / ||c - p|| plus the object
depth Tz. The degenerate center pixel stores direction (0, 0) but keeps Tz.
A center field is a plain (height, width, 3) float32 array holding each
pixel's (nx, ny, Tz) for its own labeled class, zero on the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    pass


@dataclass
class LabelMap:
    """Per-pixel class ids, 0 = background; shape (height, width).

    Stored as uint16. Other integer input is checked to lie in [0, 65535]
    before it is converted; non-integer input raises FieldError.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise FieldError("labels must be 2-D")
        if labels.dtype != np.uint16:
            if not np.issubdtype(labels.dtype, np.integer):
                raise FieldError(f"labels must be integers, got {labels.dtype}")
            if labels.size and (labels.min() < 0 or labels.max() > 65535):
                raise FieldError("labels must lie in [0, 65535]")
        self.labels = labels.astype(np.uint16, copy=False)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def class_ids(self) -> list[int]:
        ids = np.unique(self.labels)
        return [int(c) for c in ids if c != 0]


@dataclass
class DepthMap:
    """Per-pixel depth in meters, 0 = missing; shape (height, width)."""

    depth: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth)
        # an integer depth (in millimetres, say) would silently read as meters
        if not np.issubdtype(depth.dtype, np.floating):
            raise FieldError(f"depths must be floating point, got {depth.dtype}")
        with np.errstate(over="ignore"):  # a float64 overflow is caught as inf
            self.depth = depth.astype(np.float32, copy=False)
        if self.depth.ndim != 2:
            raise FieldError("depth must be 2-D")
        if not np.isfinite(self.depth).all():
            raise FieldError("depths must be finite")
        if np.any(self.depth < 0):
            raise FieldError("depths must be non-negative")


def to_tensor(fld: np.ndarray, labels: LabelMap, n_classes: int) -> np.ndarray:
    """A center field's dense (n_classes, 3, height, width) f32 network form:
    each labeled pixel in plane class_id - 1 (if it has one), zero elsewhere."""
    out = np.zeros((n_classes, 3, *fld.shape[:2]), dtype=np.float32)
    k, ys, xs = _planed_pixels(labels, n_classes)
    out[k, :, ys, xs] = fld[ys, xs]
    return out


def from_tensor(tensor: np.ndarray, labels: LabelMap) -> np.ndarray:
    """The center field of a tensor in the label map's frame: each labeled
    pixel's values from plane class_id - 1; a class with no plane reads zero."""
    if tensor.ndim != 4 or tensor.shape[1] != 3:
        raise FieldError("field tensor must have shape (classes, 3, h, w)")
    if tensor.shape[2:] != labels.labels.shape:
        raise FieldError(f"center field shape {tensor.shape[2:]} differs "
                         f"from label map shape {labels.labels.shape}")
    if not np.issubdtype(tensor.dtype, np.floating):
        raise FieldError(f"field tensor must be floating point, got {tensor.dtype}")
    with np.errstate(over="ignore"):  # a float64 overflow is caught as inf
        tensor = tensor.astype(np.float32, copy=False)
    if not np.isfinite(tensor).all():
        raise FieldError("field tensor values must be finite")
    fld = np.zeros((*labels.labels.shape, 3), dtype=np.float32)
    k, ys, xs = _planed_pixels(labels, tensor.shape[0])
    fld[ys, xs] = tensor[k, :, ys, xs]
    return fld


def _planed_pixels(labels: LabelMap, n_classes: int):
    """(plane index, ys, xs) of the pixels whose class has one of n planes."""
    ys, xs = np.nonzero((labels.labels > 0) & (labels.labels <= n_classes))
    return labels.labels[ys, xs].astype(np.intp) - 1, ys, xs


def directions_to_center(xs, ys, center) -> np.ndarray:
    """Unit directions from integer pixels (xs, ys) toward a center, (n, 2).

    Pixels exactly at the center get (0, 0).
    """
    dx = center[0] - np.asarray(xs, dtype=float)
    dy = center[1] - np.asarray(ys, dtype=float)
    norm = np.hypot(dx, dy)
    safe = np.where(norm > 0, norm, 1.0)
    out = np.stack([dx / safe, dy / safe], axis=-1)
    out[norm == 0] = 0.0
    return out
