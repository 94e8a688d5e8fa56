"""Dense per-pixel prediction containers and center directions.

Pixel coordinates are integer (x, y) used directly; a pixel of class k with
center c regresses to the unit direction (c - p) / ||c - p|| plus the object
depth Tz. The degenerate center pixel stores direction (0, 0) but keeps Tz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        self.depth = depth.astype(np.float32, copy=False)
        if self.depth.ndim != 2:
            raise FieldError("depth must be 2-D")
        if not np.isfinite(self.depth).all():
            raise FieldError("depths must be finite")
        if np.any(self.depth < 0):
            raise FieldError("depths must be non-negative")


@dataclass
class CenterField:
    """Per-class (nx, ny, Tz) planes, each of shape (height, width, 3).

    Stored sparsely as a dict keyed by class id; absent classes are implicit
    zero planes.
    """

    width: int
    height: int
    planes: dict[int, np.ndarray] = field(default_factory=dict)

    def plane(self, class_id: int) -> np.ndarray:
        if class_id not in self.planes:
            self.planes[class_id] = np.zeros((self.height, self.width, 3),
                                             dtype=np.float32)
        return self.planes[class_id]

    def has_class(self, class_id: int) -> bool:
        return class_id in self.planes

    def class_ids(self) -> list[int]:
        return sorted(self.planes)

    def copy(self) -> "CenterField":
        return CenterField(self.width, self.height,
                           {k: v.copy() for k, v in self.planes.items()})

    def to_tensor(self, n_classes: int) -> np.ndarray:
        """Pack as a dense (n_classes, 3, height, width) f32 tensor.

        Plane index = class_id - 1.
        """
        out = np.zeros((n_classes, 3, self.height, self.width), dtype=np.float32)
        for cid, pl in self.planes.items():
            out[cid - 1] = np.moveaxis(pl, 2, 0)
        return out

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "CenterField":
        if tensor.ndim != 4 or tensor.shape[1] != 3:
            raise FieldError("field tensor must have shape (classes, 3, h, w)")
        if not np.issubdtype(tensor.dtype, np.floating):
            raise FieldError(f"field tensor must be floating point, got {tensor.dtype}")
        with np.errstate(over="ignore"):  # a float64 overflow is caught as inf
            tensor = tensor.astype(np.float32, copy=False)
        if not np.isfinite(tensor).all():
            raise FieldError("field tensor values must be finite")
        planes = {k + 1: np.moveaxis(pl, 0, 2).copy()  # C-contiguous
                  for k, pl in enumerate(tensor) if np.any(pl)}
        return cls(width=tensor.shape[3], height=tensor.shape[2], planes=planes)


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
