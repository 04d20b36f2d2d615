import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hotspots.geometry import (
    Polygon, DeformationPath, GeometryError, NotLip1Error,
    OrthogonalSidesError, arc_points, lip1_classify, lip1_reduction_path,
    break_triangle, breaking_family, orthogonal_side_pairs,
    unit_square, regular_polygon, equilateral_triangle, isosceles_triangle,
    triangle_from_angles,
)
from hotspots.corpus import random_simple_polygon, random_triangle


def brute_force_lip1(P, tol=1e-12):
    """Independent check: all contiguous cyclic side bipartitions."""
    N = P.side_normals
    n = P.n
    for start in range(n):
        for length in range(1, n):
            a = [(start + k) % n for k in range(length)]
            b = [i for i in range(n) if i not in a]
            ok = True
            for i in a:
                for j in a:
                    if N[i] @ N[j] < -tol:
                        ok = False
            for i in b:
                for j in b:
                    if N[i] @ N[j] < -tol:
                        ok = False
            for i in a:
                for j in b:
                    if N[i] @ N[j] > tol:
                        ok = False
            if ok:
                return True
    return False


class TestAngles:
    def test_unit_square(self):
        assert np.allclose(unit_square().angles, math.pi / 2)

    def test_right_isosceles(self):
        T = Polygon([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(T.angles, [math.pi / 2, math.pi / 4, math.pi / 4])

    def test_regular_hexagon(self):
        assert np.allclose(regular_polygon(6).angles, 2 * math.pi / 3)

    def test_turning_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            P = random_simple_polygon(rng, int(rng.integers(3, 9)),
                                      avoid_right_angles=False)
            assert abs(np.sum(math.pi - P.angles) - 2 * math.pi) < 1e-12

    def test_reflex_angle(self):
        L = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
        assert abs(L.angles[3] - 1.5 * math.pi) < 1e-12


class TestPolygonValidation:
    def test_rejects_self_intersection(self):
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])

    def test_names_the_crossing_sides(self):
        with pytest.raises(GeometryError, match="self-intersecting chain: sides 0 and 3 cross"):
            Polygon([[0, 0], [4, 0], [4, 3], [1, 3], [3, -1], [0, 2]])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [0, 0], [1, 0], [0, 1]])

    def test_cw_input_normalized(self):
        P = Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert P.area > 0

    def test_contains_and_distance(self):
        P = unit_square()
        assert P.contains(np.array([[0.5, 0.5], [1.5, 0.5]])).tolist() == [True, False]
        assert abs(P.boundary_distance(np.array([[0.5, 0.25]]))[0] - 0.25) < 1e-14
        assert P.signed_distance(np.array([[0.5, 0.5]]))[0] < 0
        assert P.signed_distance(np.array([[2.0, 0.5]]))[0] > 0


class TestLip1:
    def test_equilateral_not_lip1(self):
        assert not lip1_classify(equilateral_triangle()).is_lip1

    def test_right_triangle_lip1(self):
        assert lip1_classify(Polygon([[0, 0], [1, 0], [0, 1]])).is_lip1

    def test_square_lip1_matches_brute_force(self):
        P = unit_square()
        res = lip1_classify(P)
        assert res.is_lip1 == brute_force_lip1(P) is True
        assert res.partition is not None

    def test_partition_count_counts_each_bipartition_once(self):
        # square: {0,1}|{2,3} and {1,2}|{3,0}; obtuse triangle: the side
        # opposite the obtuse angle against the other two
        square = lip1_classify(unit_square())
        assert square.partition_count == 2
        assert square.partition == ((0, 1), (2, 3))
        obtuse = lip1_classify(triangle_from_angles(math.radians(30), math.radians(40)))
        assert obtuse.partition_count == 1
        assert obtuse.partition == ((0,), (1, 2))

    def test_triangles_lip1_iff_not_acute(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            T = random_triangle(rng)
            expected = bool(T.angles.max() >= math.pi / 2)
            assert lip1_classify(T).is_lip1 == expected

    def test_random_polygons_match_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            P = random_simple_polygon(rng, int(rng.integers(3, 9)),
                                      avoid_right_angles=False)
            assert lip1_classify(P).is_lip1 == brute_force_lip1(P)


class TestLip1Reduction:
    def test_obtuse_triangle_constant_path(self):
        T = triangle_from_angles(math.radians(30), math.radians(40))
        path = lip1_reduction_path(T)
        assert path.params["n_legs"] <= 1
        assert np.allclose(path.polygon_at(0.0).vertices, path.polygon_at(1.0).vertices)

    def test_square_orthogonal_sides_error(self):
        with pytest.raises(OrthogonalSidesError):
            lip1_reduction_path(unit_square())

    def test_not_lip1_error(self):
        with pytest.raises(NotLip1Error):
            lip1_reduction_path(equilateral_triangle())

    def test_broken_obtuse_triangle_recovers_triangle(self):
        T = triangle_from_angles(math.radians(30), math.radians(40))
        Q = break_triangle(T, 0, T.side_point(0, 0.5), 0.004 * T.side_lengths[0])
        assert lip1_classify(Q).is_lip1
        path = lip1_reduction_path(Q)
        end = path.polygon_at(1.0)
        # endpoint is a triangle (up to an angle-pi vertex)
        assert len(end.effective_sides()) == 3
        genuine = sorted(a for a in end.angles if abs(a - math.pi) > 1e-9)
        assert max(genuine) > math.pi / 2  # obtuse endpoint
        for t in np.linspace(0, 1, 17):
            Pt = path.polygon_at(t)
            assert lip1_classify(Pt).is_lip1
            assert not orthogonal_side_pairs(Pt)

    def test_lip1_pentagon_reduces(self):
        # displace interior points of two sides of an obtuse triangle outward
        T = triangle_from_angles(math.radians(32), math.radians(38))
        Q = break_triangle(T, 0, T.side_point(0, 0.4), 0.003)
        w = Q.side_point(2, 0.6)
        R = Polygon(np.insert(Q.vertices, 3, w + 0.002 * Q.side_normals[2], axis=0))
        assert R.n == 5 and lip1_classify(R).is_lip1
        path = lip1_reduction_path(R)
        assert len(path.polygon_at(1.0).effective_sides()) == 3
        for t in np.linspace(0, 1, 21):
            assert lip1_classify(path.polygon_at(t)).is_lip1


class TestBreaking:
    def test_eps_zero_gives_triangle_with_pi_vertex(self):
        T = isosceles_triangle(math.radians(50))
        w = T.side_point(0, 0.5)
        Q = break_triangle(T, 0, w, 0.0)
        assert Q.n == 4
        assert np.allclose(Q.vertices[1], w)
        assert abs(Q.angles[1] - math.pi) < 1e-12

    def test_small_break_angle_structure(self):
        T = isosceles_triangle(math.radians(50))
        e = 0
        w = T.side_point(e, 0.5)
        Q = break_triangle(T, e, w, 0.01 * T.side_lengths[e])
        ang = Q.angles
        w_ang = ang[1]
        others = np.delete(ang, 1)
        assert math.pi / 2 < w_ang < math.pi
        assert np.all(others < math.pi / 2)

    def test_negative_eps_rejected(self):
        T = isosceles_triangle(math.radians(50))
        with pytest.raises(GeometryError):
            break_triangle(T, 0, T.side_point(0, 0.5), -0.1)

    def test_w_on_vertex_rejected(self):
        T = isosceles_triangle(math.radians(50))
        with pytest.raises(GeometryError):
            break_triangle(T, 0, T.vertices[0], 0.01)

    def test_angles_converge_as_eps_to_zero(self):
        T = isosceles_triangle(math.radians(50))
        w = T.side_point(0, 0.4)
        target = np.sort(np.concatenate([T.angles, [math.pi]]))
        for eps, tol in ((1e-3, 1e-2), (1e-5, 1e-4), (1e-7, 1e-6)):
            Q = break_triangle(T, 0, w, eps)
            assert np.allclose(np.sort(Q.angles), target, atol=tol)

    def test_breaking_family_endpoints_and_midpoint(self):
        T = isosceles_triangle(math.radians(50))
        w0, w1 = T.side_point(0, 0.3), T.side_point(0, 0.7)
        eps = 0.02
        fam = breaking_family(T, 0, (w0, w1), eps)
        Q0 = fam.polygon_at(0.0)
        assert np.allclose(Q0.vertices[1], w0, atol=1e-12)
        assert abs(Q0.angles[1] - math.pi) < 1e-9
        Qh = fam.polygon_at(0.5)
        wmid = 0.5 * (w0 + w1)
        assert np.allclose(Qh.vertices[1], wmid + eps * T.side_normals[0], atol=1e-12)
        # break points stay interior to the side for all t
        for t in np.linspace(0, 1, 33):
            fam.polygon_at(t)  # would raise if w left the side


class TestDeformationPath:
    def test_fixed_vertex_count_enforced(self):
        with pytest.raises(GeometryError):
            DeformationPath.from_breakpoints("vertex-lerp", [0, 1],
                                             [np.zeros((3, 2)), np.zeros((4, 2))])

    def test_lerp_endpoints(self):
        A = unit_square().vertices
        B = A + [0.5, 0.0]
        p = DeformationPath.from_breakpoints("vertex-lerp", [0, 1], [A, B])
        assert np.allclose(p.polygon_at(0.0).vertices, A)
        assert np.allclose(p.polygon_at(1.0).vertices, B)
        assert np.allclose(p.polygon_at(0.5).vertices, A + [0.25, 0.0])


class TestCanonicalShapes:
    @pytest.mark.parametrize("apex", [0.0, math.pi, -0.5, 4.0])
    def test_isosceles_apex_outside_open_interval_rejected(self, apex):
        with pytest.raises(GeometryError, match=r"apex angle must lie in \(0, pi\)"):
            isosceles_triangle(apex)

    @pytest.mark.parametrize("alpha, beta", [
        (math.pi / 2, math.pi / 2),            # sum pi: no third angle
        (2.0, 1.5),                            # sum above pi
        (0.0, 1.0),                            # a zero angle
    ])
    def test_triangle_angles_summing_to_pi_or_more_rejected(self, alpha, beta):
        with pytest.raises(GeometryError, match="angles must sum to less than pi"):
            triangle_from_angles(alpha, beta)

    def test_shapes_have_unit_base(self):
        for T in (equilateral_triangle(), isosceles_triangle(math.radians(50)),
                  triangle_from_angles(math.radians(30), math.radians(35))):
            assert np.array_equal(T.vertices[:2], [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(np.linalg.norm(regular_polygon(5).vertices, axis=1), 1.0)
        assert np.allclose(equilateral_triangle().side_lengths, 1.0, rtol=0, atol=1e-15)
        iso = isosceles_triangle(math.radians(50))
        assert abs(iso.angles[2] - math.radians(50)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10_000))
def test_polygon_invariants_property(n, seed):
    rng = np.random.default_rng(seed)
    try:
        P = random_simple_polygon(rng, n, avoid_right_angles=False, max_tries=60)
    except RuntimeError:
        return
    assert abs(np.sum(math.pi - P.angles) - 2 * math.pi) < 1e-12
    assert P.area > 0
    t = P.side_tangents
    nrm = P.side_normals
    assert np.allclose(np.sum(t * nrm, axis=1), 0, atol=1e-14)
    # outward normals: a small step along the normal leaves the polygon
    mids = P.vertices + 0.5 * P.side_vectors
    out_pts = mids + 1e-6 * P.diameter * nrm
    assert not np.any(P.contains(out_pts))


def test_side_geometry_is_cached_and_read_only():
    P = Polygon([[0, 0], [3, 0], [3, 1], [0, 2]])
    sv = np.roll(P.vertices, -1, axis=0) - P.vertices
    assert np.array_equal(P.side_vectors, sv)
    assert np.array_equal(P.side_lengths, np.linalg.norm(sv, axis=1))
    assert np.array_equal(P.side_tangents, sv / np.linalg.norm(sv, axis=1)[:, None])
    for name in ("side_vectors", "side_lengths", "side_tangents"):
        a = getattr(P, name)
        assert a is getattr(P, name)
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_angle_data_is_cached_and_read_only():
    P = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [0, 2]])
    v = P.vertices
    a, b = np.roll(v, 1, axis=0) - v, np.roll(v, -1, axis=0) - v
    ang = np.arctan2(b[:, 0] * a[:, 1] - b[:, 1] * a[:, 0], np.sum(a * b, axis=1))
    assert np.array_equal(P.angles, np.where(ang <= 0, ang + 2 * math.pi, ang))
    assert P.angles[3] > math.pi                       # the reflex corner
    t = P.side_tangents
    assert np.array_equal(P.side_normals, np.column_stack([t[:, 1], -t[:, 0]]))
    assert P.diameter == max(np.linalg.norm(p - q) for p in v for q in v)
    assert P.diameter is P.diameter
    for name in ("angles", "side_normals"):
        arr = getattr(P, name)
        assert arr is getattr(P, name)
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_arc_points_are_radius_major():
    c = np.array([1.0, -2.0])
    phis = np.array([0.0, math.pi / 2, math.pi])
    pts = arc_points(c, [1.0, 0.5], phis)
    assert pts.shape == (6, 2)
    expect = [[2, -2], [1, -1], [0, -2], [1.5, -2], [1, -1.5], [0.5, -2]]
    assert np.allclose(pts, expect, atol=1e-15)
    assert np.allclose(np.linalg.norm(pts - c, axis=1), [1, 1, 1, 0.5, 0.5, 0.5])


def test_vertex_clearance_is_the_per_vertex_definition():
    """The distance to the nearest side not adjacent to the vertex, capped by
    the two adjacent side lengths, bit for bit, on random polygons and
    triangles; cached and read-only."""
    rng = np.random.default_rng(21)
    polygons = [random_simple_polygon(rng, int(rng.integers(3, 9)), avoid_right_angles=False)
                for _ in range(40)]
    polygons += [random_triangle(rng) for _ in range(20)]
    for P in polygons:
        n, L = P.n, P.side_lengths
        want = [min(min(P.distance_to_side(P.vertices[i], j) for j in range(n)
                        if j not in (i, (i - 1) % n)), min(L[i], L[(i - 1) % n]))
                for i in range(n)]
        assert P.vertex_clearance.tobytes() == np.array(want).tobytes()
    assert P.vertex_clearance is P.vertex_clearance
    with pytest.raises(ValueError):
        P.vertex_clearance[0] = 0.0
    # the equilateral triangle: every clearance is the height
    T = equilateral_triangle()
    assert np.allclose(T.vertex_clearance, math.sqrt(3) / 2 * T.side_lengths)
