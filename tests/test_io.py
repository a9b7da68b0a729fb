import warnings

import numpy as np
import pytest

from tsdfmap.errors import MalformedFile, MalformedLine, UnsupportedFormat
from tsdfmap.plyio import load_ply, load_scan, write_mesh_ply, write_points_ply
from tsdfmap.poses import ORTHO_TOL, load_poses, save_poses


def test_points_roundtrip_binary(tmp_path, rng):
    pts = rng.standard_normal((50, 3)).astype(np.float32)
    path = tmp_path / "p.ply"
    write_points_ply(path, pts, binary=True)
    data = load_ply(path)
    np.testing.assert_array_equal(data["points"].astype(np.float32), pts)
    assert data["faces"] is None


def test_extra_vertex_property_is_parsed_and_ignored(tmp_path, rng):
    pts = rng.standard_normal((20, 3)).astype(np.float32)
    intensity = rng.random(20).astype(np.float32)
    fields = ("intensity", "x", "y", "z")  # binary: the extra property comes first
    rec = np.empty(20, dtype=[(k, "<f4") for k in fields])
    rec["intensity"] = intensity
    for k, col in zip("xyz", pts.T):
        rec[k] = col
    for binary, order in ((False, ("x", "y", "z", "intensity")), (True, fields)):
        header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
                  "element vertex 20", *(f"property float {k}" for k in order), "end_header\n"]
        if binary:
            body = rec.tobytes()
        else:
            rows = np.column_stack([pts, intensity])
            body = "".join(" ".join(f"{x:.9g}" for x in row) + "\n" for row in rows).encode()
        path = tmp_path / f"cloud_{binary}.ply"
        path.write_bytes("\n".join(header).encode() + body)
        data = load_ply(path)
        assert set(data) == {"points", "faces"} and data["faces"] is None
        np.testing.assert_array_equal(data["points"].astype(np.float32), pts)


def test_mesh_face_index_validation(tmp_path):
    with pytest.raises(ValueError):
        write_mesh_ply(tmp_path / "m.ply", np.zeros((3, 3)),
                       np.array([[0, 1, 5]]))


def test_three_point_ascii_ply(tmp_path):
    text = """ply
format ascii 1.0
comment hand written
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""
    path = tmp_path / "tri.ply"
    path.write_text(text)
    pts = load_scan(path)
    assert pts.shape == (3, 3)
    np.testing.assert_allclose(pts[1], [1, 0, 0])


def test_nan_rows_reach_the_frame_gate(tmp_path):
    # the loader keeps them; Mapper.process_frame drops and counts them
    text = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
nan 0 0
0 1 0
"""
    path = tmp_path / "n.ply"
    path.write_text(text)
    pts = load_scan(path)
    assert pts.shape == (3, 3)
    assert np.isnan(pts[1, 0]) and np.isfinite(np.delete(pts, 1, axis=0)).all()


def test_kitti_bin_scan(tmp_path):
    raw = np.array([1.0, 2.0, 3.0, 0.5,
                    4.0, 5.0, 6.0, 0.9], dtype=np.float32)
    path = tmp_path / "scan.bin"
    raw.tofile(path)
    pts = load_scan(path)
    assert pts.shape == (2, 3)
    np.testing.assert_allclose(pts, [[1, 2, 3], [4, 5, 6]])


def test_scan_suffix_is_matched_in_any_case(tmp_path):
    np.array([1.0, 2.0, 3.0, 0.5], dtype=np.float32).tofile(tmp_path / "SCAN.BIN")
    write_points_ply(tmp_path / "scan.Ply", np.array([[4.0, 5.0, 6.0]]))
    np.testing.assert_allclose(load_scan(tmp_path / "SCAN.BIN"), [[1, 2, 3]])
    np.testing.assert_allclose(load_scan(tmp_path / "scan.Ply"), [[4, 5, 6]])


def test_bin_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    np.array([1.0, 2.0, 3.0], dtype=np.float32).tofile(path)
    with pytest.raises(MalformedFile):
        load_scan(path)


def test_unsupported_extension(tmp_path):
    path = tmp_path / "scan.xyz"
    path.write_text("0 0 0\n")
    with pytest.raises(UnsupportedFormat):
        load_scan(path)


def test_unsupported_ply_format(tmp_path):
    path = tmp_path / "big.ply"
    path.write_text("ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n")
    with pytest.raises(UnsupportedFormat):
        load_ply(path)


def test_not_a_ply(tmp_path):
    # .ply extension but OFF content: some other, unsupported format
    path = tmp_path / "no.ply"
    path.write_text("OFF\n")
    with pytest.raises(UnsupportedFormat):
        load_ply(path)


def test_binary_truncation_detected(tmp_path, rng):
    path = tmp_path / "t.ply"
    write_points_ply(path, rng.standard_normal((10, 3)), binary=True)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(MalformedFile):
        load_ply(path)


def test_non_triangle_faces_rejected(tmp_path):
    text = """ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
"""
    path = tmp_path / "quad.ply"
    path.write_text(text)
    with pytest.raises(MalformedFile, match="triangle"):
        load_ply(path)


def test_mesh_roundtrip_both_formats(tmp_path, rng):
    verts = rng.standard_normal((9, 3)).astype(np.float32)
    faces = rng.integers(0, 9, size=(7, 3)).astype(np.int32)
    for binary in (True, False):
        path = tmp_path / f"m{int(binary)}.ply"
        write_mesh_ply(path, verts, faces, binary=binary)
        data = load_ply(path)
        np.testing.assert_array_equal(data["points"].astype(np.float32), verts)
        np.testing.assert_array_equal(data["faces"], faces)


# ------------------------------------------------------------------ poses


def test_identity_pose_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    poses = load_poses(path)
    assert len(poses) == 1
    np.testing.assert_array_equal(poses[0], np.hstack([np.eye(3),
                                                       np.zeros((3, 1))]))


def test_translation_pose_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 4.5 0 1 0 -2 0 0 1 0.25\n")
    pose = load_poses(path)[0]
    np.testing.assert_array_equal(pose[:, 3], [4.5, -2.0, 0.25])
    np.testing.assert_array_equal(pose[:, :3], np.eye(3))


def test_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("# header\n\n1 0 0 0 0 1 0 0 0 0 1 0\n\n")
    assert len(load_poses(path)) == 1


def test_eleven_floats_is_malformed(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1\n")
    with pytest.raises(MalformedLine) as exc:
        load_poses(path)
    assert exc.value.lineno == 2


def test_non_numeric_is_malformed(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 one 0 0 0 0 1 0\n")
    with pytest.raises(MalformedLine):
        load_poses(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_is_malformed(tmp_path, bad):
    path = tmp_path / "poses.txt"
    path.write_text(f"1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 {bad} 0 1 0 0 0 0 1 0\n")
    with pytest.raises(MalformedLine, match="line 2: non-finite value") as exc:
        load_poses(path)
    assert exc.value.lineno == 2


def test_slightly_off_rotation_is_reorthonormalized(tmp_path):
    r = np.eye(3)
    r[0, 1] = 5e-3  # beyond the 1e-3 tolerance
    line = " ".join(str(v) for v in np.hstack([r, np.zeros((3, 1))]).ravel())
    path = tmp_path / "poses.txt"
    path.write_text(line + "\n")
    with pytest.warns(UserWarning):
        pose = load_poses(path)[0]
    rr = pose[:, :3]
    np.testing.assert_allclose(rr @ rr.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rr) == pytest.approx(1.0, abs=1e-12)


def test_rotation_within_tolerance_is_kept(tmp_path):
    r = np.eye(3)
    r[0, 1] = ORTHO_TOL / 10
    line = " ".join(f"{v:.17g}" for v in np.hstack([r, np.zeros((3, 1))]).ravel())
    path = tmp_path / "poses.txt"
    path.write_text(line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pose = load_poses(path)[0]
    np.testing.assert_array_equal(pose[:, :3], r)


def test_reflected_rotation_is_malformed(tmp_path):
    # R R^T = I holds for this block, so only its determinant tells it from a rotation
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 -1 0\n")
    with pytest.raises(MalformedLine, match="^line 2: rotation block is a reflection$"):
        load_poses(path)


# a zero determinant passes the reflection check, and SVD would pick arbitrary
# singular vectors for the missing directions
@pytest.mark.parametrize("block", ["0 0 0 1 0 0 0 2 0 0 0 3", "1 1 0 0 1 1 0 0 0 0 0 0"])
def test_singular_rotation_is_malformed(tmp_path, block):
    path = tmp_path / "poses.txt"
    path.write_text(f"1 0 0 0 0 1 0 0 0 0 1 0\n{block}\n")
    with pytest.raises(MalformedLine, match="^line 2: rotation block is singular$"):
        load_poses(path)


def test_save_load_roundtrip(tmp_path, rng):
    # random rotations via QR
    poses = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        poses.append(np.hstack([q, rng.standard_normal((3, 1))]))
    path = tmp_path / "poses.txt"
    save_poses(path, poses)
    back = load_poses(path)
    assert len(back) == 4
    for a, b in zip(poses, back):
        np.testing.assert_allclose(a, b, atol=1e-11)


# ------------------------------------------------- malformed and extended PLY

TRI_HEADER = """ply
format {fmt} 1.0
element vertex 3
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
"""


def _ascii_mesh(path, face_row, header=TRI_HEADER):
    path.write_text(header.format(fmt="ascii") + "0 0 0\n1 0 0\n0 1 0\n" + face_row + "\n")
    return path


def _rejects(path, error=MalformedFile, match=None):
    with pytest.raises(error, match=match) as exc:
        load_ply(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("row, match", [("3 0 1 -1", "face index"),
                                        ("3 0 1 3", "face index"),
                                        ("3 0 1", "row 0 holds 3 values, not 4")])
def test_bad_ascii_face_rows_are_malformed(tmp_path, row, match):
    _rejects(_ascii_mesh(tmp_path / "bad.ply", row), match=match)


def test_binary_face_index_past_the_vertices_is_malformed(tmp_path):
    path = tmp_path / "far.ply"
    write_mesh_ply(path, np.eye(3), [[0, 1, 2]])
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + np.int32(3).tobytes())
    _rejects(path, match=r"face index outside \[0, 3\)")


@pytest.mark.parametrize("old, new", [("format {fmt} 1.0", "format"),
                                      ("element vertex 3", "element vertex"),
                                      ("property float y", "property float"),
                                      ("property list uchar int vertex_indices",
                                       "property list uchar int")])
def test_header_lines_missing_tokens_are_malformed(tmp_path, old, new):
    path = _ascii_mesh(tmp_path / "short.ply", "3 0 1 2", TRI_HEADER.replace(old, new))
    _rejects(path, match="lacks tokens")


@pytest.mark.parametrize("count", ["three", "-1", "2.5"])
def test_non_integer_element_count_is_malformed(tmp_path, count):
    path = _ascii_mesh(tmp_path / "count.ply", "3 0 1 2",
                       TRI_HEADER.replace("element vertex 3", f"element vertex {count}"))
    _rejects(path, match="not a non-negative integer")


def test_non_numeric_ascii_value_is_malformed(tmp_path):
    _rejects(_ascii_mesh(tmp_path / "word.ply", "3 0 one 2"), match="face data")


def test_repeated_property_name_is_malformed(tmp_path):
    path = _ascii_mesh(tmp_path / "twice.ply", "3 0 1 2",
                       TRI_HEADER.replace("property float z", "property float y"))
    _rejects(path, match="element 'vertex' repeats a property name")


def test_binary_faces_with_a_colour_after_the_list(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype="<f4")
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    rec = np.empty(2, dtype=[("n", "u1"), ("v", "<i4", (3,)), ("red", "u1")])
    rec["n"], rec["v"], rec["red"] = 3, faces, [200, 7]
    header = TRI_HEADER.format(fmt="binary_little_endian").replace(
        "element vertex 3", "element vertex 4").replace(
        "element face 1", "element face 2").replace(
        "end_header", "property uchar red\nend_header")
    path = tmp_path / "colour.ply"
    path.write_bytes(header.encode() + verts.tobytes() + rec.tobytes())
    data = load_ply(path)
    np.testing.assert_array_equal(data["faces"], faces)
    np.testing.assert_array_equal(data["points"], verts)


@pytest.mark.parametrize("binary", [True, False])
def test_zero_count_elements(tmp_path, binary):
    path = tmp_path / "empty.ply"
    write_mesh_ply(path, np.zeros((0, 3)), np.zeros((0, 3), dtype=int), binary=binary)
    data = load_ply(path)
    assert data["points"].shape == (0, 3) and data["faces"].shape == (0, 3)
    write_mesh_ply(path, np.eye(3), np.zeros((0, 3), dtype=int), binary=binary)
    data = load_ply(path)
    np.testing.assert_array_equal(data["points"], np.eye(3))
    assert data["faces"].shape == (0, 3) and data["faces"].dtype == np.int64
