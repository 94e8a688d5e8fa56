import numpy as np
import pytest

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
