"""ASCII PLY mesh I/O: vertex points x y z and optional triangle faces."""

from __future__ import annotations

import numpy as np

from .geometry import ObjectModel


class PlyError(ValueError):
    pass


def _numbers(tokens, kind, line: str) -> list:
    """tokens converted by kind (int or float); PlyError if one does not parse."""
    try:
        return [kind(t) for t in tokens]
    except ValueError:
        raise PlyError(f"malformed number in line: {line}") from None


def load_ply(path):
    """Parse an ASCII PLY file.

    Returns (points, faces); faces is (0, 3) int64 when the file has none. The
    vertex properties must start with x y z; any after those (normals, colours)
    are skipped, but each vertex row must hold a value for every one. The face
    element must follow the vertex element and hold only its vertex-index
    list; only triangle faces whose indices name a vertex are accepted, and a
    non-empty row past the declared counts is an error.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = [ln.strip() for ln in f]
    except UnicodeDecodeError:
        raise PlyError("not an ASCII file") from None
    if not lines or lines[0] != "ply":
        raise PlyError("not a PLY file")

    n_vertices = 0
    n_faces = 0
    vertex_props = []
    face_list = False
    current_element = None
    i = 1
    fmt_seen = False
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line.startswith("comment"):
            continue
        tokens = line.split()
        if len(tokens) < {"format": 2, "element": 3, "property": 3}.get(tokens[0], 1):
            raise PlyError(f"malformed header line: {line}")
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise PlyError("only ASCII PLY is supported")
            fmt_seen = True
        elif tokens[0] == "element":
            if tokens[1] == "vertex":
                n_vertices, = _numbers(tokens[2:3], int, line)
            elif tokens[1] == "face":
                if current_element is None:  # the body is read vertices first
                    raise PlyError("element face declared before element vertex")
                n_faces, = _numbers(tokens[2:3], int, line)
            else:
                raise PlyError(f"unsupported element: {tokens[1]}")
            if min(n_vertices, n_faces) < 0:
                raise PlyError(f"negative element count: {line}")
            current_element = tokens[1]
        elif tokens[0] == "property":
            if current_element == "vertex":
                vertex_props.append(tokens[-1])
            elif current_element == "face":
                if face_list:  # a face row is read as exactly "3 i j k"
                    raise PlyError("the face element holds only its vertex-"
                                   f"index list, not also: {line}")
                if tokens[1] != "list":
                    raise PlyError("face element must use a list property")
                face_list = True
        elif tokens[0] == "end_header":
            break
        else:
            raise PlyError(f"unexpected header line: {line}")
    else:
        raise PlyError("missing end_header")
    if not fmt_seen:
        raise PlyError("missing format line")

    if vertex_props[:3] != ["x", "y", "z"]:
        raise PlyError(f"unsupported vertex layout: {vertex_props}")
    n_cols = len(vertex_props)

    body = [ln for ln in lines[i:] if ln]
    extra = len(body) - n_vertices - n_faces
    if extra < 0:
        raise PlyError("truncated PLY body")
    if extra > 0:
        raise PlyError(f"{extra} extra rows past the declared {n_vertices} "
                       f"vertices and {n_faces} faces")

    rows = []
    for line in body[:n_vertices]:
        tokens = line.split()
        if len(tokens) < n_cols:
            raise PlyError(f"vertex row has fewer than {n_cols} values: {line}")
        rows.append(_numbers(tokens[:3], float, line))
    points = np.array(rows, dtype=float).reshape(n_vertices, 3)

    rows = []
    for line in body[n_vertices:n_vertices + n_faces]:
        row = _numbers(line.split(), int, line)
        if len(row) != 4 or row[0] != 3:
            raise PlyError(f"not a triangle face row: {line}")
        if not all(0 <= v < n_vertices for v in row[1:]):
            raise PlyError(f"face index out of range: {line}")
        rows.append(row[1:])
    faces = np.array(rows, dtype=np.int64).reshape(n_faces, 3)
    return points, faces


def save_ply(path, points, faces=None):
    """Write an ASCII PLY; no faces (None or (0, 3)) writes `element face 0`."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    faces = np.asarray([] if faces is None else faces, dtype=np.int64).reshape(-1, 3)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {points.shape[0]}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write(f"element face {faces.shape[0]}\n")
        f.write("property list uchar int vertex_indices\n")
        f.write("end_header\n")
        for p in points:
            f.write("%.9g %.9g %.9g\n" % tuple(p))
        for tri in faces:
            f.write("3 %d %d %d\n" % tuple(tri))


def load_model(path) -> ObjectModel:
    """ObjectModel from a PLY file's points and faces."""
    points, faces = load_ply(path)
    return ObjectModel(name=str(path), points=points, faces=faces)
