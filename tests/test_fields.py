import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from posevote.fields import (DepthMap, FieldError, LabelMap,
                             directions_to_center, from_tensor, to_tensor)


def test_directions_straight_down():
    d = directions_to_center([320], [230], np.array([320.0, 240.0]))
    assert np.allclose(d, [[0.0, 1.0]])


def test_directions_345_triangle():
    d = directions_to_center([0], [0], np.array([3.0, 4.0]))
    assert np.allclose(d, [[0.6, 0.8]])


def test_directions_degenerate_center():
    d = directions_to_center([5], [5], np.array([5.0, 5.0]))
    assert np.allclose(d, [[0.0, 0.0]])


def test_directions_unit_norm():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 100, 500)
    ys = rng.integers(0, 100, 500)
    c = np.array([40.3, 61.7])
    d = directions_to_center(xs, ys, c)
    assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0)


def test_center_field_tensor_round_trip():
    rng = np.random.default_rng(1)
    labels = LabelMap(rng.choice([0, 2, 5], size=(6, 8)))
    fld = rng.standard_normal((6, 8, 3)).astype(np.float32)
    fld[labels.labels == 0] = 0.0
    t = to_tensor(fld, labels, 5)
    assert t.shape == (5, 3, 6, 8)
    back = from_tensor(t, labels)
    assert np.array_equal(back, fld)


def test_center_field_tensor_plane_index():
    labels = LabelMap(np.full((4, 4), 3))
    fld = np.zeros((4, 4, 3), dtype=np.float32)
    fld[:, :, 2] = 1.0
    t = to_tensor(fld, labels, 4)
    assert np.all(t[2, 2] == 1.0)  # class 3 lives at plane index 2
    assert not np.any(t[[0, 1, 3]])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_center_field_tensor_keeps_each_labeled_pixels_own_plane(data):
    n = data.draw(st.integers(1, 4), label="planes")
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(3, 6))
    ids = data.draw(arrays(np.uint16, (h, w), elements=st.integers(0, n + 2)))
    # background, a class with a plane and a class beyond the planes
    ids[0, :3] = 0, data.draw(st.integers(1, n)), data.draw(st.integers(n + 1, 65535))
    labels = LabelMap(ids)
    t = data.draw(arrays(np.float32, (n, 3, h, w),
                         elements=st.floats(-1e3, 1e3, width=32)))
    got = to_tensor(from_tensor(t, labels), labels, n)
    want = np.zeros_like(t)
    for y in range(h):
        for x in range(w):
            k = int(ids[y, x]) - 1
            if 0 <= k < n:
                want[k, :, y, x] = t[k, :, y, x]
    assert got.tobytes() == want.tobytes()


def test_center_field_from_tensor_rejects_a_tensor_of_another_frame():
    with pytest.raises(FieldError, match=r"center field shape \(4, 5\) "
                       r"differs from label map shape \(5, 4\)"):
        from_tensor(np.zeros((2, 3, 4, 5)), LabelMap(np.zeros((5, 4), int)))


def test_label_map_validation():
    with pytest.raises(FieldError):
        LabelMap(np.zeros(5))
    lm = LabelMap(np.array([[0, 1], [2, 0]]))
    assert lm.class_ids() == [1, 2]
    assert lm.width == 2 and lm.height == 2
    lm = LabelMap(np.array([[0, 65535]]))
    assert lm.labels.dtype == np.uint16 and lm.class_ids() == [65535]


# a uint16 cast would turn each into a plausible label: 1.7 -> 1,
# -1 -> 65535, 70000 -> 4464, NaN -> 0
@pytest.mark.parametrize("bad", [np.array([[1.7]]), np.array([[np.nan]]),
                                 np.array([[-1]]), np.array([[70000]]),
                                 np.array([[True]])],
                         ids=["fraction", "nan", "negative", "above-uint16", "bool"])
def test_label_map_rejects_values_it_cannot_hold(bad):
    with pytest.raises(FieldError):
        LabelMap(np.pad(bad, ((0, 1), (0, 1))))


def test_depth_map_validation():
    with pytest.raises(FieldError):
        DepthMap(np.array([[-1.0, 0.0]]))
    dm = DepthMap(np.array([[0.0, 2.5]]))
    assert dm.depth.dtype == np.float32


# numpy would cast each to float32 (dropping an imaginary part, parsing a
# string), and an integer depth in millimetres would read as meters
_NOT_FLOATING = [np.array([[1.5 + 2j]]), np.array([["1.5"]]),
                 np.array([[True]]), np.array([[1500]], dtype=np.uint16)]
_NOT_FLOATING_IDS = ["complex", "string", "bool", "uint16"]


@pytest.mark.parametrize("bad", _NOT_FLOATING, ids=_NOT_FLOATING_IDS)
def test_depth_map_rejects_values_that_are_not_floating(bad):
    with pytest.raises(FieldError, match="floating point"):
        DepthMap(bad)


_LABELS_4X5 = LabelMap(np.zeros((4, 5), dtype=np.uint16))


@pytest.mark.parametrize("bad", _NOT_FLOATING, ids=_NOT_FLOATING_IDS)
def test_center_field_from_tensor_rejects_values_that_are_not_floating(bad):
    with pytest.raises(FieldError, match="floating point"):
        from_tensor(np.broadcast_to(bad, (2, 3, 4, 5)), _LABELS_4X5)


def test_depth_map_rejects_non_finite():
    with pytest.raises(FieldError):
        DepthMap(np.array([[np.nan, 1.0]]))
    with pytest.raises(FieldError):
        DepthMap(np.array([[np.inf, 1.0]]))


@pytest.mark.filterwarnings("error")
def test_depth_map_beyond_float32_range_raises_without_a_warning():
    # 1e39 is finite in float64; its cast to float32 overflows to inf
    with pytest.raises(FieldError, match="finite"):
        DepthMap(depth=np.full((4, 4), 1e39))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_center_field_from_tensor_rejects_non_finite(bad):
    t = np.zeros((2, 3, 4, 5), dtype=np.float32)
    t[1, 2, 3, 4] = bad
    with pytest.raises(FieldError):
        from_tensor(t, _LABELS_4X5)
