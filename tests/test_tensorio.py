import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from posevote.tensorio import TensorFormatError, load_tensor, save_tensor


def test_round_trip_f32(tmp_path):
    a = np.random.default_rng(0).standard_normal((4, 5, 3)).astype(np.float32)
    p = tmp_path / "a.pft"
    save_tensor(p, a)
    b = load_tensor(p)
    assert b.dtype == np.float32
    assert np.array_equal(a, b)


def test_round_trip_u16(tmp_path):
    a = np.arange(24, dtype=np.uint16).reshape(4, 6)
    p = tmp_path / "a.pft"
    save_tensor(p, a)
    b = load_tensor(p)
    assert b.dtype == np.uint16
    assert np.array_equal(a, b)


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(TensorFormatError):
        save_tensor(tmp_path / "a.pft", np.zeros(3, dtype=np.float64))


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "a.pft"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError):
        load_tensor(p)


def test_rejects_truncated_payload(tmp_path):
    p = tmp_path / "a.pft"
    save_tensor(p, np.zeros((10, 10), dtype=np.float32))
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(TensorFormatError):
        load_tensor(p)


def test_write_is_deterministic(tmp_path):
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    p1, p2 = tmp_path / "1.pft", tmp_path / "2.pft"
    save_tensor(p1, a)
    save_tensor(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_truncated_header(tmp_path):
    p = tmp_path / "a.pft"
    save_tensor(p, np.zeros((2, 3, 4), dtype=np.float32))
    data = p.read_bytes()
    for cut in (6, 16):  # inside the dtype/ndim words, inside the dims
        p.write_bytes(data[:cut])
        with pytest.raises(TensorFormatError):
            load_tensor(p)


@pytest.mark.parametrize("dims, error", [
    # 2**31 * 2**31 * 4 elements wrap to 0 in int64, which matched the
    # empty payload and left reshape to fail
    ((2**31, 2**31, 4), "payload size"),
    # no elements, but a shape numpy cannot hold
    ((0, 2**31, 2**31, 4), "unsupported shape"),
], ids=["count_wraps", "empty_but_too_big"])
def test_huge_dims_raise_tensor_format_error(tmp_path, dims, error):
    p = tmp_path / "a.pft"
    p.write_bytes(b"PFT1" + struct.pack("<II", 0, len(dims))
                  + struct.pack(f"<{len(dims)}I", *dims))
    with pytest.raises(TensorFormatError, match=error):
        load_tensor(p)



def test_scalar_and_strided_arrays_keep_their_shape(tmp_path):
    p = tmp_path / "a.pft"
    for a in (np.array(2.5, dtype=np.float32),
              np.arange(12, dtype=np.uint16).reshape(3, 4).T):
        save_tensor(p, a)
        assert np.array_equal(load_tensor(p), a) and load_tensor(p).shape == a.shape


_SHAPES = st.lists(st.integers(0, 4), max_size=4).map(tuple)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    hnp.arrays(np.float32, _SHAPES,
               elements=st.floats(width=32, allow_nan=True)),
    hnp.arrays(np.uint16, _SHAPES)))
def test_round_trip_is_bit_exact(tmp_path, a):
    p = tmp_path / "a.pft"
    save_tensor(p, a)
    b = load_tensor(p)
    assert b.dtype == a.dtype and b.shape == a.shape
    assert b.tobytes() == a.tobytes()


@st.composite
def _damaged(draw, data: bytes):
    """`data` cut at a drawn length and with up to 4 bytes overwritten."""
    out = bytearray(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(0, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_tensor_loads_or_raises_tensor_format_error(tmp_path, data):
    p = tmp_path / "a.pft"
    save_tensor(p, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    p.write_bytes(data.draw(_damaged(p.read_bytes())))
    try:
        load_tensor(p)
    except TensorFormatError:
        pass
