"""Binary tensor file format.

Layout: magic "PFT1", little-endian u32 dtype code (0 = f32, 1 = u16),
u32 ndim, ndim x u32 dims, then the raw row-major payload. Round trips
are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"PFT1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<u2")}
_CODE_FOR = {np.dtype("<f4"): 0, np.dtype("<u2"): 1}


class TensorFormatError(ValueError):
    pass


def save_tensor(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    dt = array.dtype.newbyteorder("<")
    if dt not in _CODE_FOR:
        raise TensorFormatError(f"unsupported dtype {array.dtype}; use f32 or u16")
    array = array.astype(dt, copy=False)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", _CODE_FOR[dt], array.ndim))
        f.write(struct.pack(f"<{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise TensorFormatError("bad magic; not a PFT1 tensor file")
    try:
        code, ndim = struct.unpack_from("<II", data, 4)
        if code not in _DTYPE_CODES:
            raise TensorFormatError(f"unknown dtype code {code}")
        dims = struct.unpack_from(f"<{ndim}I", data, 12)
    except struct.error as exc:
        raise TensorFormatError("truncated header") from exc
    dt = _DTYPE_CODES[code]
    n = math.prod(dims)
    payload = data[12 + 4 * ndim :]
    if len(payload) != n * dt.itemsize:
        raise TensorFormatError("payload size mismatch")
    try:
        array = np.frombuffer(payload, dtype=dt).reshape(dims)
    except ValueError as exc:  # an empty shape whose other dims overflow
        raise TensorFormatError(f"unsupported shape {dims}") from exc
    return array.copy()
