import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from posevote.ply import PlyError, load_model, load_ply, save_ply


def test_round_trip_points_only(tmp_path):
    pts = np.random.default_rng(0).standard_normal((20, 3))
    p = tmp_path / "m.ply"
    save_ply(p, pts)
    assert "element face 0\n" in p.read_text()
    pts2, faces = load_ply(p)
    assert np.allclose(pts, pts2)
    assert faces.shape == (0, 3) and faces.dtype == np.int64


def test_round_trip_with_faces(tmp_path):
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2]])
    p = tmp_path / "m.ply"
    save_ply(p, pts, faces=faces)
    pts2, faces2 = load_ply(p)
    assert np.allclose(pts, pts2)
    assert np.array_equal(faces, faces2)


def test_zero_face_element_loads_as_empty_faces(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                 "property float y\nproperty float z\nelement face 0\n"
                 "property list uchar int vertex_indices\nend_header\n0 0 0\n")
    _, faces = load_ply(p)
    assert faces.shape == (0, 3) and faces.dtype == np.int64
    first = p.read_bytes()
    save_ply(p, *load_ply(p))
    assert p.read_bytes() == first


def test_rejects_binary_format(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\n"
                 "element vertex 0\nend_header\n")
    with pytest.raises(PlyError):
        load_ply(p)


def test_rejects_non_ply(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("obj\n")
    with pytest.raises(PlyError):
        load_ply(p)


def test_rejects_quad_faces(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\n"
                 "element vertex 4\nproperty float x\nproperty float y\n"
                 "property float z\nelement face 1\n"
                 "property list uchar int vertex_indices\nend_header\n"
                 "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(PlyError):
        load_ply(p)


def test_load_model(tmp_path):
    pts = np.array([[0, 0, 0], [0.05, 0, 0]])
    p = tmp_path / "m.ply"
    save_ply(p, pts)
    m = load_model(p)
    assert m.name == str(p)
    assert m.diameter == pytest.approx(0.05)


def test_rejects_face_rows_missing_indices(tmp_path):
    # three such rows used to load as faces [[0, 1, 1], [2, 2, 0]]
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\n"
                 "element vertex 3\nproperty float x\nproperty float y\n"
                 "property float z\nelement face 3\n"
                 "property list uchar int vertex_indices\nend_header\n"
                 "0 0 0\n1 0 0\n0 1 0\n3 0 1\n3 1 2\n3 2 0\n")
    with pytest.raises(PlyError):
        load_ply(p)


def test_rejects_bare_format_line(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat\nelement vertex 0\nend_header\n")
    with pytest.raises(PlyError):
        load_ply(p)


_XYZ_HEADER = ("ply\nformat ascii 1.0\nelement vertex {nv}\nproperty float x\n"
               "property float y\nproperty float z\n{faces}end_header\n")
_FACE_HEADER = "element face 1\nproperty list uchar int vertex_indices\n"
_NORMAL_AND_RED = ("property float nx\nproperty float ny\nproperty float nz\n"
                   "property uchar red\n")


@pytest.mark.parametrize("text", [
    _XYZ_HEADER.format(nv=2, faces="") + "0 0\n1 0 0\n",
    _XYZ_HEADER.format(nv="two", faces="") + "0 0 0\n1 0 0\n",
    _XYZ_HEADER.format(nv=3, faces=_FACE_HEADER) + "0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n",
], ids=["short_vertex_row", "non_numeric_count", "non_numeric_face_index"])
def test_malformed_numbers_raise_ply_error(tmp_path, text):
    p = tmp_path / "m.ply"
    p.write_text(text)
    with pytest.raises(PlyError):
        load_ply(p)


def test_vertex_properties_after_xyz_are_skipped(tmp_path):
    # nothing reads normals, so a zero or non-unit one loads like any other
    p = tmp_path / "m.ply"
    p.write_text(_XYZ_HEADER.format(nv=3, faces=_NORMAL_AND_RED + _FACE_HEADER)
                 + "0 0 0 0 0 0 255\n1 0 0 0 0 2 0\n0 1 0 0 0 1 9\n3 0 1 2\n")
    points, faces = load_ply(p)
    assert points.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert faces.tolist() == [[0, 1, 2]]
    m = load_model(p)
    assert np.array_equal(m.points, points) and np.array_equal(m.faces, faces)


def test_vertex_row_missing_a_declared_property_raises(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text(_XYZ_HEADER.format(
        nv=2, faces="property uchar red\nproperty uchar green\n"
        "property uchar blue\n") + "0 0 0 1 2 3\n1 0 0\n")
    with pytest.raises(PlyError, match="fewer than 6 values"):
        load_ply(p)


@pytest.mark.parametrize("nv, nf", [(-1, -1), (-1, 0), (1, -1)])
def test_rejects_negative_element_counts(tmp_path, nv, nf):
    face_header = _FACE_HEADER.replace("face 1", f"face {nf}")
    p = tmp_path / "m.ply"
    p.write_text(_XYZ_HEADER.format(nv=nv, faces=face_header) + "0 0 0\n")
    with pytest.raises(PlyError, match="negative element count"):
        load_ply(p)


def test_rejects_faces_declared_before_vertices(tmp_path):
    # a valid PLY may declare its faces first, but the body is read vertices
    # first, so its face row would be read as a vertex
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\n" + _FACE_HEADER
                 + "element vertex 3\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(PlyError,
                       match="element face declared before element vertex"):
        load_ply(p)


@pytest.mark.parametrize("extra, row", [
    ("property uchar red", "3 0 1 2 9"),
    ("property list uchar float texcoord", "3 0 1 2 6 0 0 1 0 0 1"),
    ("property list uchar int flags", "3 0 1 2 1 7"),
], ids=["colour", "texcoord_list", "int_list"])
def test_rejects_a_second_face_property(tmp_path, extra, row):
    # a face row is read as exactly "3 i j k"; the header names the cause,
    # where the rows would only show too many values
    p = tmp_path / "m.ply"
    p.write_text(_XYZ_HEADER.format(nv=3, faces=_FACE_HEADER + extra + "\n")
                 + f"0 0 0\n1 0 0\n0 1 0\n{row}\n")
    with pytest.raises(PlyError, match="the face element holds only its "
                       f"vertex-index list, not also: {extra}$"):
        load_ply(p)


def test_non_ascii_bytes_raise_ply_error(tmp_path):
    p = tmp_path / "m.ply"
    save_ply(p, np.zeros((2, 3)))
    data = p.read_bytes()
    for bad in (b"comment caf\xc3\xa9\n", b"\xff\n"):
        p.write_bytes(data.replace(b"end_header\n", bad + b"end_header\n"))
        with pytest.raises(PlyError, match="ASCII"):
            load_ply(p)


@pytest.mark.parametrize("index", ["3", "-1", "99999999999999999999"])
def test_rejects_face_index_out_of_range(tmp_path, index):
    p = tmp_path / "m.ply"
    p.write_text(_XYZ_HEADER.format(nv=3, faces=_FACE_HEADER)
                 + f"0 0 0\n1 0 0\n0 1 0\n3 0 1 {index}\n")
    with pytest.raises(PlyError, match="face index out of range"):
        load_ply(p)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _meshes(draw):
    """(points, faces or None); faces, when present, are triangles over
    existing vertices, possibly none."""
    n = draw(st.integers(0, 6))
    points = np.array(draw(st.lists(st.tuples(_FINITE, _FINITE, _FINITE),
                                    min_size=n, max_size=n)),
                      dtype=float).reshape(n, 3)
    faces = None
    if draw(st.booleans()):
        idx = st.integers(0, max(n - 1, 0))
        faces = np.array(draw(st.lists(st.tuples(idx, idx, idx),
                                       max_size=5 if n else 0)),
                         dtype=np.int64).reshape(-1, 3)
    return points, faces


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_meshes())
def test_save_load_save_is_byte_identical(tmp_path, mesh):
    points, faces = mesh
    p = tmp_path / "m.ply"
    save_ply(p, points, faces=faces)
    first = p.read_bytes()
    save_ply(p, *load_ply(p))
    assert p.read_bytes() == first


def _valid_ply(path):
    """Five vertices, each with a normal and a colour after x y z, and two
    faces, so damage can land in skipped properties too."""
    pts = np.random.default_rng(0).standard_normal((5, 3))
    header = _NORMAL_AND_RED + _FACE_HEADER.replace("face 1", "face 2")
    path.write_text(_XYZ_HEADER.format(nv=5, faces=header)
                    + "".join("%.9g %.9g %.9g 0 0 1 200\n" % tuple(q) for q in pts)
                    + "3 0 1 2\n3 2 3 4\n")
    return path.read_bytes()


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
def test_damaged_ply_loads_or_raises_ply_error(tmp_path, data):
    p = tmp_path / "m.ply"
    p.write_bytes(data.draw(_damaged(_valid_ply(p))))
    try:
        load_ply(p)
    except PlyError:
        pass
