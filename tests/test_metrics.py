import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from tsdfmap.errors import EmptyMesh
from tsdfmap.mesher import TriMesh
from tsdfmap.metrics import (
    EvalConfig,
    evaluate,
    nn_distances,
    sample_surface,
    write_eval_csv,
    write_eval_json,
)


def two_triangle_square(z=0.0, side=1.0):
    v = np.array([[0, 0, z], [side, 0, z], [side, side, z], [0, side, z]],
                 dtype=np.float64)
    f = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(v, f)


def test_sample_surface_counts_and_support(rng):
    mesh = two_triangle_square()
    pts = sample_surface(mesh, 5000, rng)
    assert pts.shape == (5000, 3)
    assert (pts[:, 2] == 0).all()
    assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 1
    assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 1


def test_sample_surface_is_area_weighted(rng):
    # two parallel squares, one with 4x the area: expect an 80/20 split
    big = two_triangle_square(z=0.0, side=2.0)
    small = two_triangle_square(z=5.0, side=1.0)
    mesh = TriMesh(np.vstack([big.vertices, small.vertices]),
                   np.vstack([big.faces, small.faces + 4]))
    n = 50_000
    pts = sample_surface(mesh, n, rng)
    frac_big = np.mean(pts[:, 2] == 0.0)
    p = 4.0 / 5.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac_big - p) < 4 * sigma


def test_sample_surface_uniform_within_triangle(rng):
    # quadrant counts of a single right triangle against exact areas
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64)
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    pts = sample_surface(mesh, 40_000, rng)
    # the (x > 0.5) corner region holds 1/4 of the area
    frac = np.mean(pts[:, 0] > 0.5)
    sigma = np.sqrt(0.25 * 0.75 / 40_000)
    assert abs(frac - 0.25) < 4 * sigma


def test_sample_surface_empty_mesh():
    mesh = TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMesh):
        sample_surface(mesh, 10, np.random.default_rng(0))


def test_sample_surface_zero_area_mesh():
    v = np.zeros((3, 3))
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    with pytest.raises(EmptyMesh):
        sample_surface(mesh, 10, np.random.default_rng(0))


def sample_surface_in_draw_order(mesh, n, rng):
    """Reference: each area draw looked up in the order it was drawn."""
    v = mesh.vertices[mesh.faces]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    area = 0.5 * np.linalg.norm(cross, axis=1)
    cum = np.cumsum(area)
    tri = np.searchsorted(cum, rng.random(n) * area.sum(), side="right")
    tri = np.minimum(tri, area.shape[0] - 1)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = v[tri, 0], v[tri, 1], v[tri, 2]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c


class ListedDraws:
    """An rng stand-in whose random(n) returns the next listed array."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, n):
        out = np.asarray(self.draws.pop(0), dtype=np.float64)
        assert out.shape == (n,)
        return out


def test_sorted_lookup_samples_the_points_of_draw_order(rng):
    # right triangles of area 2^k and zero-area ones: every cumsum is exact
    verts, faces = [], []
    for i, k in enumerate([0, -1, None, 2, None, None, -3, 1, None]):
        z = float(i)
        if k is None:  # collinear
            tri = [[0, 0, z], [1, 0, z], [2, 0, z]]
        else:
            tri = [[0, 0, z], [2.0 ** (k + 1), 0, z], [0, 1, z]]
        faces.append(np.arange(3) + 3 * i)
        verts.extend(tri)
    mesh = TriMesh(np.array(verts, dtype=np.float64), np.array(faces))
    v = mesh.vertices[mesh.faces]
    area = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)
    cum = np.cumsum(area)
    boundaries = cum / area.sum()  # draws that land exactly on a cumsum value
    assert (boundaries * area.sum() == cum).all()
    last = np.nextafter(1.0, 0.0)
    area_draws = np.concatenate([boundaries[::-1], [0.0, last, 0.3, 0.0], boundaries])
    n = area_draws.size
    r1, r2 = rng.random(n), rng.random(n)
    got = sample_surface(mesh, n, ListedDraws(area_draws, r1, r2))
    want = sample_surface_in_draw_order(mesh, n, ListedDraws(area_draws, r1, r2))
    assert got.tobytes() == want.tobytes()
    # below the total, no draw lands on a zero-area triangle; at it, the last one is taken
    below = area_draws * area.sum() < cum[-1]
    assert not np.isin(got[below, 2], [2.0, 4.0, 5.0, 8.0]).any()
    for n in (1, 5000):
        seed = np.random.SeedSequence(11)
        got = sample_surface(mesh, n, np.random.default_rng(seed))
        want = sample_surface_in_draw_order(mesh, n, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_names_a_non_finite_mesh_vertex(bad):
    square = two_triangle_square()
    broken = TriMesh(square.vertices.copy(), square.faces)
    broken.vertices[2, 1] = bad
    cfg = EvalConfig(n_points=100)
    with pytest.raises(ValueError, match="^recon: mesh vertex 2 is not finite"):
        evaluate(broken, square, cfg)
    with pytest.raises(ValueError, match="^gt: mesh vertex 2 is not finite"):
        evaluate(square, broken, cfg)
    # a vertex no face uses is never sampled, so it does not matter
    unused = TriMesh(np.vstack([square.vertices, [[bad, 0.0, 0.0]]]), square.faces)
    assert evaluate(unused, square, cfg).chamfer_l1_cm == 0.0


def test_evaluate_names_a_non_finite_cloud_point():
    square = two_triangle_square()
    cloud = np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match="^gt: point 2 is not finite"):
        evaluate(square, cloud, EvalConfig(n_points=100))
    with pytest.raises(ValueError, match="^recon: point 2 is not finite"):
        evaluate(cloud, square, EvalConfig(n_points=100))


def test_nn_distances_matches_brute_force(rng):
    src = rng.standard_normal((100, 3))
    dst = rng.standard_normal((80, 3))
    d, back = nn_distances(src, dst)
    diff = np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=2)
    np.testing.assert_allclose(d, diff.min(axis=1), atol=1e-12)
    np.testing.assert_allclose(back, diff.min(axis=0), atol=1e-12)


def test_nn_distances_equal_a_plain_tree_query_in_input_order(rng):
    # two tight clusters 20 m apart, queries near them and far from both
    dst = np.vstack([rng.normal(0.0, 0.05, (3000, 3)), rng.normal(20.0, 0.05, (3000, 3))])
    near = dst[rng.integers(0, dst.shape[0], 500)] + rng.normal(0.0, 0.01, (500, 3))
    far = rng.uniform(-50.0, 70.0, (500, 3))
    # a square of dst points, each stored twice, around a query equidistant from all four
    square = np.array([[10.0 + x, -10.0 + y, 5.0] for x in (-1, 1) for y in (-1, 1)])
    dst = np.vstack([dst, square, square])
    tie = np.array([[10.0, -10.0, 5.0]])
    src = np.vstack([far[:250], near, tie, np.repeat(near[:5], 4, axis=0), dst[:50], far[250:]])
    d, back = nn_distances(src, dst)
    assert np.array_equal(d, cKDTree(dst).query(src)[0])
    assert np.array_equal(back, cKDTree(src).query(dst)[0])
    assert d[750] == np.sqrt(2.0)
    assert np.array_equal(d[751:771], np.repeat(d[250:255], 4))  # repeated queries
    assert not d[771:821].any()  # queries on dst points
    # input order: each distance belongs to its own query
    brute = np.min(np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=2), axis=1)
    np.testing.assert_allclose(d, brute, rtol=0, atol=1e-12)
    perm = rng.permutation(src.shape[0])
    d_perm, back_perm = nn_distances(src[perm], dst)
    assert np.array_equal(d_perm, d[perm])
    assert np.array_equal(back_perm, back)


def test_self_evaluation_fixed_point(rng):
    mesh = two_triangle_square()
    res = evaluate(mesh, mesh, EvalConfig(n_points=5000, seed=3))
    assert res.accuracy_cm == 0.0
    assert res.completeness_cm == 0.0
    assert res.chamfer_l1_cm == 0.0
    assert res.precision_pct == 100.0
    assert res.recall_pct == 100.0
    assert res.f1_pct == 100.0


def test_point_cloud_inputs_accepted(rng):
    a = rng.standard_normal((500, 3))
    res = evaluate(a, a.copy(), EvalConfig(n_points=100))
    assert res.f1_pct == 100.0


def test_offset_planes_have_exact_distances(rng):
    a = two_triangle_square(z=0.0)
    b = two_triangle_square(z=0.05)
    res = evaluate(a, b, EvalConfig(n_points=20000, threshold=0.10, seed=0))
    assert res.accuracy_cm == pytest.approx(5.0, abs=1e-9)
    assert res.completeness_cm == pytest.approx(5.0, abs=1e-9)
    assert res.chamfer_l1_cm == pytest.approx(5.0, abs=1e-9)
    assert res.f1_pct == 100.0


def test_threshold_strictness():
    # exact representable distance 0.25: strict < excludes it
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.25, 0.0, 0.0]])
    res = evaluate(a, b, EvalConfig(threshold=0.25))
    assert res.precision_pct == 0.0
    assert res.recall_pct == 0.0
    assert res.f1_pct == 0.0
    res = evaluate(a, b, EvalConfig(threshold=0.2500001))
    assert res.f1_pct == 100.0


def test_partial_overlap_precision_recall(rng):
    # recon covers half the ground truth plus a spurious far plane
    gt = two_triangle_square(z=0.0, side=2.0)
    good = two_triangle_square(z=0.0, side=2.0)
    good.vertices[:, 0] *= 0.5  # half of gt's extent in x
    far = two_triangle_square(z=10.0, side=1.42)  # ~2 m^2 of junk
    recon = TriMesh(np.vstack([good.vertices, far.vertices]),
                    np.vstack([good.faces, far.faces + 4]))
    res = evaluate(recon, gt, EvalConfig(n_points=40000, threshold=0.1, seed=2))
    # precision ~ area(good) / area(recon) = 2 / (2 + 2.0164)
    assert res.precision_pct == pytest.approx(100 * 2 / 4.0164, abs=1.5)
    # recall: half of gt plus the 0.1-wide strip reachable past the edge
    assert 50.0 <= res.recall_pct <= 58.0
    f = res.f1_pct / 100
    p, r = res.precision_pct / 100, res.recall_pct / 100
    assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_f1_zero_when_both_zero():
    a = two_triangle_square(z=0.0)
    b = two_triangle_square(z=50.0)
    res = evaluate(a, b, EvalConfig(n_points=500, threshold=0.1))
    assert res.precision_pct == 0.0 and res.recall_pct == 0.0
    assert res.f1_pct == 0.0


def test_metric_monotone_in_threshold(rng):
    a = two_triangle_square(z=0.0)
    b = two_triangle_square(z=0.03)
    prev = -1.0
    for thr in (0.01, 0.02, 0.05, 0.2):
        res = evaluate(a, b, EvalConfig(n_points=3000, threshold=thr, seed=5))
        assert res.f1_pct >= prev
        prev = res.f1_pct


def test_writers(tmp_path):
    a = two_triangle_square()
    res = evaluate(a, a, EvalConfig(n_points=200))
    jp = tmp_path / "eval.json"
    cp = tmp_path / "eval.csv"
    write_eval_json(res, jp)
    write_eval_csv(res, cp)
    data = json.loads(jp.read_text())
    assert data["f1_pct"] == 100.0
    lines = cp.read_text().strip().splitlines()
    assert lines[0].split(",") == ["accuracy_cm", "completeness_cm",
                                   "chamfer_l1_cm", "precision_pct",
                                   "recall_pct", "f1_pct"]
    assert len(lines) == 2


def test_eval_is_seed_deterministic():
    a = two_triangle_square(z=0.0)
    b = two_triangle_square(z=0.02)
    r1 = evaluate(a, b, EvalConfig(n_points=5000, seed=9))
    r2 = evaluate(a, b, EvalConfig(n_points=5000, seed=9))
    assert r1 == r2
