"""PLY point-cloud/mesh I/O (ascii and binary little-endian) and raw
float32 xyzi scan files.

Writers emit float32 coordinates and int32 triangle indices. The reader
handles the subset this package writes plus common scalar vertex
properties from other tools; anything else raises.
"""

import numpy as np

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


def write_points_ply(path, points, scalars=None, binary: bool = True):
    """Write an xyz cloud with optional named float scalar properties."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    scalars = {k: np.asarray(v, dtype=np.float32).reshape(-1) for k, v in (scalars or {}).items()}
    for name, col in scalars.items():
        if col.shape[0] != pts.shape[0]:
            raise ValueError(f"scalar {name!r} length mismatch")
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {pts.shape[0]}",
              "property float x", "property float y", "property float z"]
    header += [f"property float {name}" for name in scalars]
    header.append("end_header")
    cols = [pts] + [c[:, None] for c in scalars.values()]
    rows = np.hstack(cols).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(rows.tobytes())
        else:
            np.savetxt(fh, rows, fmt="%.9g")


def write_mesh_ply(path, vertices, faces, binary: bool = True):
    """Write a triangle mesh (float32 vertices, int32 indices)."""
    verts = np.asarray(vertices, dtype=np.float32).reshape(-1, 3)
    faces = np.asarray(faces, dtype=np.int32).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= verts.shape[0]):
        raise ValueError("face index out of range")
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {verts.shape[0]}",
              "property float x", "property float y", "property float z",
              f"element face {faces.shape[0]}",
              "property list uchar int vertex_indices",
              "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(verts.astype("<f4").tobytes())
            frec = np.empty(faces.shape[0], dtype=[("n", "u1"), ("v", "<i4", (3,))])
            frec["n"] = 3
            frec["v"] = faces
            fh.write(frec.tobytes())
        else:
            np.savetxt(fh, verts, fmt="%.9g")
            np.savetxt(fh, np.hstack([np.full((faces.shape[0], 1), 3, dtype=np.int64), faces]),
                       fmt="%d")


def _parse_header(fh):
    first = fh.readline().strip()
    if first != b"ply":
        raise UnsupportedFormat("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []  # (name, count, [(prop_name, dtype-or-'list', ...)])
    while True:
        line = fh.readline()
        if not line:
            raise MalformedFile("header ended before end_header")
        tokens = line.decode("ascii", "replace").strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise UnsupportedFormat(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MalformedFile("property before any element")
            if tokens[1] == "list":
                count_t, item_t = _PLY_TYPES.get(tokens[2]), _PLY_TYPES.get(tokens[3])
                if count_t is None or item_t is None:
                    raise UnsupportedFormat(f"unsupported list types {tokens[2]}/{tokens[3]}")
                elements[-1][2].append((tokens[4], "list", count_t, item_t))
            else:
                t = _PLY_TYPES.get(tokens[1])
                if t is None:
                    raise UnsupportedFormat(f"unsupported property type {tokens[1]!r}")
                elements[-1][2].append((tokens[2], t))
        elif tokens[0] == "end_header":
            break
    if fmt is None:
        raise MalformedFile("missing format line")
    return fmt, elements


def _read_element_binary(fh, count, props):
    if any(p[1] == "list" for p in props):
        if len(props) != 1:
            raise UnsupportedFormat("mixed list/scalar element not supported")
        name, _, count_t, item_t = props[0]
        # triangle meshes only: constant list length 3
        rec = np.dtype([("n", "<" + count_t), ("v", "<" + item_t, (3,))])
        raw = fh.read(rec.itemsize * count)
        if len(raw) != rec.itemsize * count:
            raise MalformedFile("truncated face data")
        arr = np.frombuffer(raw, dtype=rec)
        if count and not (arr["n"] == 3).all():
            raise MalformedFile("only triangle faces are supported")
        return {name: arr["v"].astype(np.int64)}
    rec = np.dtype([(p[0], "<" + p[1]) for p in props])
    raw = fh.read(rec.itemsize * count)
    if len(raw) != rec.itemsize * count:
        raise MalformedFile("truncated vertex data")
    arr = np.frombuffer(raw, dtype=rec)
    return {p[0]: arr[p[0]] for p in props}


def _read_element_ascii(fh, count, props):
    rows = []
    for _ in range(count):
        line = fh.readline()
        if not line:
            raise MalformedFile("truncated ascii data")
        rows.append(line.split())
    if any(p[1] == "list" for p in props):
        name = props[0][0]
        faces = []
        for r in rows:
            if int(r[0]) != 3:
                raise MalformedFile("only triangle faces are supported")
            faces.append([int(r[1]), int(r[2]), int(r[3])])
        return {name: np.asarray(faces, dtype=np.int64).reshape(-1, 3)}
    out = {}
    table = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(props)))
    if table.size and table.shape[1] != len(props):
        raise MalformedFile("ascii row width does not match declared properties")
    for j, p in enumerate(props):
        out[p[0]] = table[:, j] if table.size else np.zeros(0)
    return out


def load_ply(path):
    """Load a PLY cloud or mesh.

    Returns {"points": (n, 3) float64, "faces": (m, 3) int64 or None,
    "properties": {name: (n,) float64}} for any extra vertex scalars.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh)
        data = {}
        for name, count, props in elements:
            if not props:
                raise MalformedFile(f"element {name!r} has no properties")
            reader = _read_element_binary if fmt == "binary" else _read_element_ascii
            data[name] = reader(fh, count, props)
    if "vertex" not in data:
        raise MalformedFile("no vertex element")
    v = data["vertex"]
    for axis in ("x", "y", "z"):
        if axis not in v:
            raise MalformedFile(f"vertex element lacks {axis!r}")
    points = np.stack(
        [np.asarray(v["x"], np.float64), np.asarray(v["y"], np.float64),
         np.asarray(v["z"], np.float64)], axis=1)
    extra = {k: np.asarray(val, np.float64) for k, val in v.items() if k not in ("x", "y", "z")}
    faces = None
    if "face" in data:
        faces = next(iter(data["face"].values()))
    return {"points": points, "faces": faces, "properties": extra}


def load_scan(path):
    """Load scan points from .ply or raw float32 xyzi .bin.

    Returns (n, 3) float64 points, non-finite rows included: the frame
    gate in `Mapper.process_frame` drops and counts them.
    """
    path = str(path)
    lower = path.lower()  # suffixes match in any case, as `tsdfmap map` lists scans
    if lower.endswith(".ply"):
        return load_ply(path)["points"]
    if lower.endswith(".bin"):
        raw = np.fromfile(path, dtype="<f4")
        if raw.size % 4 != 0:
            raise MalformedFile(f"{path}: size is not a multiple of 4 float32 (xyzi)")
        return raw.reshape(-1, 4)[:, :3].astype(np.float64)
    raise UnsupportedFormat(f"{path}: expected .ply or .bin")
