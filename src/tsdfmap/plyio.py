"""PLY point-cloud/mesh I/O (ascii and binary little-endian) and raw
float32 xyzi scan files.

Writers emit float32 coordinates and int32 triangle indices. The reader
parses each element into one record array in either encoding (the one
list an element may hold becomes a count field plus a (3,) item field);
`load_ply` then checks the records once, and every error names the file.
"""

import os
from pathlib import Path

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .errors import MalformedFile, UnsupportedFormat

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _write_ply(path, binary, vertices, faces):
    """Write the header, the vertex block and an optional face block."""
    verts = np.asarray(vertices, dtype=np.float32).reshape(-1, 3)
    vrec = np.empty(verts.shape[0], dtype=[(k, "<f4") for k in "xyz"])
    for k, col in zip("xyz", verts.T):
        vrec[k] = col
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {vrec.size}", *(f"property float {k}" for k in vrec.dtype.names)]
    blocks = [(vrec, "%.9g")]
    if faces is not None:
        frec = np.empty(faces.shape[0], dtype=[("n", "u1"), ("v", "<i4", (3,))])
        frec["n"], frec["v"] = 3, faces
        header += [f"element face {frec.size}", "property list uchar int vertex_indices"]
        blocks.append((frec, "%d"))
    with open(path, "wb") as fh:
        fh.write(("\n".join(header + ["end_header"]) + "\n").encode("ascii"))
        for rec, fmt in blocks:
            if binary:
                fh.write(rec.tobytes())
            else:
                np.savetxt(fh, structured_to_unstructured(rec), fmt=fmt)


def write_points_ply(path, points, binary: bool = True):
    """Write an xyz cloud."""
    _write_ply(path, binary, points, None)


def write_mesh_ply(path, vertices, faces, binary: bool = True):
    """Write a triangle mesh (float32 vertices, int32 indices)."""
    verts = np.asarray(vertices, dtype=np.float32).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int32).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= verts.shape[0]):
        raise ValueError("face index out of range")
    _write_ply(path, binary, verts, faces)


def _ply_type(name):
    if name not in _PLY_TYPES:
        raise UnsupportedFormat(f"unsupported property type {name!r}")
    return "<" + _PLY_TYPES[name]


def _list_field(dtype):  # the (3,) items field of a list; "<items>_count" holds its count
    return next((f for f in dtype.names if dtype[f].shape), None)


def _parse_header(fh):
    """Return (binary, [(element name, count, record dtype)])."""
    if fh.readline().strip() != b"ply":
        raise UnsupportedFormat("not a PLY file (missing 'ply' magic)")
    binary, elements = None, []  # elements: (name, count, [(field, type[, shape])])
    while True:
        line = fh.readline()
        if not line:
            raise MalformedFile("header ended before end_header")
        tokens = line.decode("ascii", "replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "end_header":
            break
        is_list = tokens[:2] == ["property", "list"]
        if len(tokens) < {"format": 3, "element": 3, "property": 3 + 2 * is_list}.get(tokens[0], 0):
            raise MalformedFile(f"header line {' '.join(tokens)!r} lacks tokens")
        if tokens[0] == "format":
            binary = {"ascii": False, "binary_little_endian": True}.get(tokens[1])
            if binary is None:
                raise UnsupportedFormat(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            if not tokens[2].isdigit():
                raise MalformedFile(f"element count {tokens[2]!r} is not a non-negative integer")
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MalformedFile("property before any element")
            fields = elements[-1][2]
            if not is_list:
                fields.append((tokens[2], _ply_type(tokens[1])))
            elif any(len(f) == 3 for f in fields):
                raise UnsupportedFormat(f"element {elements[-1][0]!r} holds more than one list")
            else:  # triangle faces only: the record holds 3 items
                fields += [(tokens[4] + "_count", _ply_type(tokens[2])),
                           (tokens[4], _ply_type(tokens[3]), (3,))]
    if binary is None:
        raise MalformedFile("missing format line")
    for name, _, fields in elements:
        if not fields:
            raise MalformedFile(f"element {name!r} has no properties")
        if len({f[0] for f in fields}) < len(fields):
            raise MalformedFile(f"element {name!r} repeats a property name")
    return binary, [(name, count, np.dtype(fields)) for name, count, fields in elements]


def _read_element(fh, binary, name, count, dtype):
    """Read `count` records of `dtype`; ascii values are kept as float64."""
    if binary:
        nbytes = count * dtype.itemsize
        if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
            raise MalformedFile(f"truncated {name} data")
        return np.frombuffer(fh.read(nbytes), dtype=dtype)
    f8 = np.dtype([(f, "<f8", dtype[f].shape) for f in dtype.names])
    width = f8.itemsize // 8
    note = "; only triangle faces are supported" if _list_field(dtype) else ""
    rows = []
    for i in range(count):
        rows.append(fh.readline().split())
        if len(rows[-1]) != width:
            raise MalformedFile(f"{name} row {i} holds {len(rows[-1])} values, not {width}{note}")
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError as exc:  # a token that is not a number
        raise MalformedFile(f"{name} data: {exc}") from None
    return np.frombuffer(table.tobytes(), dtype=f8)


def load_ply(path):
    """Load a PLY cloud or mesh.

    Returns {"points": (n, 3) float64, "faces": (m, 3) int64 or None};
    extra vertex properties are parsed and ignored. Raises MalformedFile
    or UnsupportedFormat, naming `path`.
    """
    try:
        with open(path, "rb") as fh:
            binary, elements = _parse_header(fh)
            data = {name: _read_element(fh, binary, name, count, dtype)
                    for name, count, dtype in elements}
        v = data.get("vertex")
        if v is None or not {"x", "y", "z"} <= set(v.dtype.names):
            raise MalformedFile("no vertex element with x, y and z")
        for rec in data.values():
            items = _list_field(rec.dtype)
            if items and not (rec[items + "_count"] == 3).all():
                raise MalformedFile("only triangle faces are supported")
        faces = None
        if "face" in data:
            items = _list_field(data["face"].dtype)
            if items is None:
                raise MalformedFile("face element has no vertex index list")
            idx = data["face"][items]
            if not ((idx >= 0) & (idx < v.size) & (idx % 1 == 0)).all():
                raise MalformedFile(f"face index outside [0, {v.size}) or not an integer")
            faces = idx.astype(np.int64)
    except (MalformedFile, UnsupportedFormat) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    points = np.stack([v["x"], v["y"], v["z"]], axis=1).astype(np.float64)
    return {"points": points, "faces": faces}


def _load_bin(path):
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise MalformedFile(f"{path}: size is not a multiple of 4 float32 (xyzi)")
    return raw.reshape(-1, 4)[:, :3].astype(np.float64)


_SCAN_READERS = {".ply": lambda path: load_ply(path)["points"], ".bin": _load_bin}
SCAN_SUFFIXES = tuple(_SCAN_READERS)


def load_scan(path):
    """Load scan points from .ply or raw float32 xyzi .bin.

    Returns (n, 3) float64 points, non-finite rows included: the frame
    gate in `Mapper.process_frame` drops and counts them. The suffix
    matches in any case, as `tsdfmap map` lists scans.
    """
    reader = _SCAN_READERS.get(Path(path).suffix.lower())
    if reader is None:
        raise UnsupportedFormat(f"{path}: expected one of {', '.join(SCAN_SUFFIXES)}")
    return reader(path)
