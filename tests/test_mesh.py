import dataclasses
import math

import numpy as np
import pytest

import hotspots.mesh as mesh_mod
from hotspots.config import DEFAULTS
from hotspots.geometry import (Polygon, unit_square, isosceles_triangle,
                               triangle_from_angles, breaking_family)
from hotspots.mesh import (triangulate, refine,
                           default_grading, MeshingError, _unique_edges, _check_conforming,
                           _SizeFunction)
from hotspots.corpus import random_simple_polygon

from oracles import edge_lengths, regular_polygon, structured_triangle_mesh, triangle_areas

_L_SHAPE = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


@pytest.fixture(scope="module")
def square_mesh():
    return triangulate(unit_square(), 0.1)


class TestTriangulate:
    def test_square_edge_lengths_in_band(self, square_mesh):
        ell = edge_lengths(square_mesh)
        assert ell.min() >= 0.05 and ell.max() <= 0.2

    def test_polygon_vertices_are_nodes(self):
        T = Polygon([[0, 0], [1, 0], [0, 1]])
        m = triangulate(T, 0.5)
        for i in range(3):
            assert np.allclose(m.nodes[m.vertex_map[i]], T.vertices[i])

    def test_reflex_vertex_grading(self):
        L = _L_SHAPE
        assert abs(default_grading(L)[3] - (1 - math.pi / (1.5 * math.pi))) < 1e-12
        h = 0.1
        m = triangulate(L, h)
        rv = m.vertex_map[3]
        adj = [np.linalg.norm(m.nodes[a] - m.nodes[b])
               for a, b, s in m.boundary_edges if rv in (a, b)]
        assert min(adj) < h / 4

    def test_area_matches(self, square_mesh):
        assert abs(triangle_areas(square_mesh).sum() - 1.0) < 1e-10

    def test_boundary_nodes_on_sides(self, square_mesh):
        P = square_mesh.polygon
        for a, b, sid in square_mesh.boundary_edges:
            for nid in (a, b):
                assert P.distance_to_side(square_mesh.nodes[nid], sid) <= 1e-12 * P.diameter

    def test_quality_bound(self, square_mesh):
        assert square_mesh.min_angle() >= 20.0

    def test_quality_on_random_polygons(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            P = random_simple_polygon(rng, int(rng.integers(4, 8)))
            m = triangulate(P, P.diameter / 18)
            assert m.min_angle() >= 20.0
            assert abs(triangle_areas(m).sum() - P.area) < 1e-10 * P.area

    def test_graded_mesh_is_deterministic(self):
        m1, m2 = triangulate(_L_SHAPE, 0.1), triangulate(_L_SHAPE, 0.1)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_bad_h_rejected(self):
        with pytest.raises(MeshingError):
            triangulate(unit_square(), -0.1)


class TestRefine:
    def test_counts_and_lengths(self, square_mesh):
        m2 = refine(square_mesh)
        assert m2.n_triangles == 4 * square_mesh.n_triangles
        assert len(m2.boundary_edges) == 2 * len(square_mesh.boundary_edges)
        assert abs(edge_lengths(m2).max() - edge_lengths(square_mesh).max() / 2) < 1e-12

    def test_quality_preserved(self, square_mesh):
        m2 = refine(square_mesh)
        assert abs(m2.min_angle() - square_mesh.min_angle()) < 1e-9

    def test_area_and_boundary_invariants(self, square_mesh):
        m2 = refine(square_mesh)
        assert abs(triangle_areas(m2).sum() - 1.0) < 1e-10
        P = m2.polygon
        for a, b, sid in m2.boundary_edges:
            assert P.distance_to_side(m2.nodes[a], sid) <= 1e-12

    def test_h_halves_per_level(self, square_mesh):
        m2 = refine(square_mesh)
        m3 = refine(m2)
        assert m2.h == square_mesh.h / 2 and m3.h == square_mesh.h / 4
        assert (m2.level, m3.level) == (1, 2)

    def test_h_at_scales(self, square_mesh):
        m2 = refine(square_mesh)
        pts = np.array([[0.5, 0.5]])
        assert abs(m2.h_at(pts)[0] - square_mesh.h_at(pts)[0] / 2) < 1e-12

    def test_matches_first_encounter_loop(self, square_mesh):
        # reference: midpoints numbered as the triangles first reach them
        nodes = square_mesh.nodes
        mid_of: dict[tuple[int, int], int] = {}
        new_nodes = [p for p in nodes]

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid_of:
                mid_of[key] = len(new_nodes)
                new_nodes.append(0.5 * (nodes[a] + nodes[b]))
            return mid_of[key]

        tris = []
        for a, b, c in square_mesh.triangles.tolist():
            mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
            tris += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
        bedges = []
        P = square_mesh.polygon
        for a, b, sid in square_mesh.boundary_edges.tolist():
            m = mid(a, b)
            va, sv = P.vertices[sid], P.side_vectors[sid]
            new_nodes[m] = va + np.dot(new_nodes[m] - va, sv) / np.dot(sv, sv) * sv
            bedges += [(a, m, sid), (m, b, sid)]

        m2 = refine(square_mesh)
        assert np.array_equal(m2.nodes, np.array(new_nodes))
        assert np.array_equal(m2.triangles, np.array(tris))
        assert np.array_equal(m2.boundary_edges, np.array(bedges))


class TestStructured:
    def test_symmetric_lattice(self):
        T = isosceles_triangle(math.radians(50))
        m = structured_triangle_mesh(T, 8)
        assert m.n_nodes == 45
        assert abs(triangle_areas(m).sum() - T.area) < 1e-12
        # reflection about the axis maps the node set to itself
        ref = m.nodes.copy()
        ref[:, 0] = 1.0 - ref[:, 0]
        d = np.abs(ref[:, None, :] - m.nodes[None, :, :]).sum(axis=2).min(axis=1)
        assert d.max() < 1e-12

    def test_quality_is_triangle_quality(self):
        T = isosceles_triangle(math.radians(50))
        m = structured_triangle_mesh(T, 6)
        assert abs(m.min_angle() - math.degrees(T.angles.min())) < 1e-9


class TestSizeFunction:
    def test_h0_is_h_without_a_graded_vertex(self):
        for P in (unit_square(), isosceles_triangle(math.radians(49.75))):
            assert _SizeFunction(P, 0.1).h0 == 0.1

    def test_h0_is_the_size_off_the_reflex_vertex(self):
        # the floor 0.2 binds at h = 0.1 and 0.01, not at 0.3
        for h in (0.3, 0.1, 0.01):
            size = _SizeFunction(_L_SHAPE, h)
            off = _L_SHAPE.vertices[3] + [0.1 * h, 0.0]
            assert size.h0 == pytest.approx(size(off[None, :])[0], rel=1e-12)
            assert size.h0 < h


class TestDisplacementRule:
    def test_few_triangulations_and_quality_on_graded_and_nonconvex_meshes(self, monkeypatch):
        """``relax`` triangulates again only after some node has moved 0.1
        of its own target size, so every mesh, graded and non-convex ones
        included, needs at most 25 ``Delaunay`` calls, and still conforms
        and meets the quality bound."""
        rng = np.random.default_rng(5)
        cases = [(unit_square(), 0.1),
                 (isosceles_triangle(math.radians(49.75)), None),
                 (_L_SHAPE, 0.1)]
        for _ in range(6):
            P = random_simple_polygon(rng, int(rng.integers(4, 8)))
            cases.append((P, P.diameter / 18))
        calls = []
        real = mesh_mod.Delaunay
        monkeypatch.setattr(mesh_mod, "Delaunay", lambda p: calls.append(1) or real(p))
        for P, h in cases:
            calls.clear()
            m = triangulate(P, P.diameter / 20 if h is None else h)
            mesh_mod._check_conforming(m)
            bound = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(P.angles.min()))
            assert m.min_angle() >= bound
            assert len(calls) <= 25


class TestQualityRepair:
    @pytest.mark.parametrize("apex, k", [
        ([0.5651869653156042, 0.2170850362062705], 10),    # one repair round
        ([0.20657750052733936, 0.3165136875195867], 26),   # drops and centroid inserts
    ])
    def test_repair_rounds_meet_the_angle_bound(self, monkeypatch, apex, k):
        """Triangles whose relaxed mesh has a triangle below the quality
        bound: the repair loop runs more than one round (each round measures
        the triangle angles once) and ends above the bound."""
        P = Polygon([[0, 0], [1, 0], apex])
        rounds = []
        real = mesh_mod._min_angles
        monkeypatch.setattr(mesh_mod, "_min_angles",
                            lambda *a: rounds.append(1) or real(*a))
        m = triangulate(P, P.diameter / k)
        mesh_mod._check_conforming(m)
        bound = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(P.angles.min()))
        assert len(rounds) > 1
        assert m.min_angle() >= bound


class TestQualityBoundDefect:
    """Plain triangles with a smallest angle near 21 deg on which the repair
    loop stops just short of the quality bound (0.9 of that angle): the
    38th random_triangle and the 32nd random_obtuse_triangle of a
    default_rng(12345) sweep.  The bound is a correctness check and stays;
    these pass once the repair loop meets it."""

    @pytest.mark.xfail(strict=True, raises=MeshingError,
                       reason="repair loop ends below the quality bound")
    @pytest.mark.parametrize("vertices, k", [
        ([[0.3162813744514972, -0.5276728231642052],
          [-0.30442689999193684, -0.6227702455390458],
          [0.34657560609690297, -0.7624637952199209]], 18),     # 18.50 < 18.74 deg
        ([[0, 0], [1, 0], [0.7183740639447392, 0.2911275800215663]], 18),  # 19.40 < 19.85
        ([[0, 0], [1, 0], [0.7183740639447392, 0.2911275800215663]], 26),  # 19.54 < 19.85
    ], ids=["acute-18", "obtuse-18", "obtuse-26"])
    def test_meets_the_angle_bound(self, vertices, k):
        P = Polygon(vertices)
        m = triangulate(P, P.diameter / k)
        bound = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(P.angles.min()))
        assert m.min_angle() >= bound


class TestBoundaryChain:
    """``boundary_edges`` is one chain: sides in polygon order, each from its
    ``vertex_map`` node, each edge starting where the previous one ends."""

    def test_refined_mesh_keeps_the_chain(self, square_mesh):
        _check_conforming(refine(square_mesh))

    @pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
    def test_broken_chain_raises(self, square_mesh, reorder):
        be = square_mesh.boundary_edges
        if reorder == "reversed":           # the same chain walked backwards
            be = be[::-1][:, [1, 0, 2]]
        else:
            be = be[np.random.default_rng(0).permutation(len(be))]
        with pytest.raises(MeshingError, match="one chain"):
            _check_conforming(dataclasses.replace(square_mesh, boundary_edges=be))

    def test_dropped_triangle_raises(self, square_mesh):
        with pytest.raises(MeshingError, match="non-conforming mesh"):
            _check_conforming(dataclasses.replace(square_mesh,
                                                  triangles=square_mesh.triangles[1:]))

    def test_side_node_off_its_side_raises(self, square_mesh):
        # the end of side 0's first chain edge, moved 1e-6 outward
        node, side = square_mesh.boundary_edges[0, 1:]
        nodes = square_mesh.nodes.copy()
        nodes[node] += 1e-6 * square_mesh.polygon.side_normals[side]
        with pytest.raises(MeshingError, match=f"boundary node {node} off side {side}"):
            _check_conforming(dataclasses.replace(square_mesh, nodes=nodes))


class TestUniqueEdges:
    def test_matches_lexicographic_unique(self, square_mesh):
        t = square_mesh.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        uniq, inv = np.unique(e, axis=0, return_inverse=True)
        got, got_inv = _unique_edges(t, square_mesh.n_nodes, return_inverse=True)
        assert np.array_equal(got, uniq)
        assert np.array_equal(got_inv, inv.ravel())


def _same_mesh(a, b) -> bool:
    return (a.nodes.tobytes() == b.nodes.tobytes()
            and a.triangles.tobytes() == b.triangles.tobytes()
            and a.boundary_edges.tobytes() == b.boundary_edges.tobytes()
            and a.vertex_map.tobytes() == b.vertex_map.tobytes()
            and a.h == b.h and a.origin == b.origin)


def _breaking_path():
    T = isosceles_triangle(math.radians(50))
    e = 0
    a, sv = T.vertices[e], T.side_vectors[e]
    return breaking_family(T, e, (a + 0.3 * sv, a + 0.7 * sv), 0.01 * float(T.side_lengths[e]))


def _angle_bound(P) -> float:
    return min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(float(P.angles.min())))


def _carried_pair():
    """P(0.25) of the breaking path, h, a fresh mesh m0 of P(0.2) and m0
    carried onto P(0.25) at h."""
    path = _breaking_path()
    P0, P1 = path.polygon_at(0.2), path.polygon_at(0.25)
    h = P1.diameter / 20.5
    m0 = triangulate(P0, P0.diameter / 20)
    return P1, h, m0, triangulate(P1, h, warm_start=m0)


class TestWarmStart:
    """``triangulate(P, h, warm_start=m)`` carries m onto a nearby polygon."""

    @pytest.fixture(scope="class")
    def pair(self):
        return _carried_pair()

    def test_warm_mesh_is_conforming_on_the_new_polygon(self, pair):
        P, h, m0, m = pair
        assert m0.origin == "fresh" and m.origin == "warm"
        assert m0.fallback is None and m.fallback is None
        mesh_mod._check_conforming(m)
        assert np.array_equal(m.nodes[m.vertex_map], P.vertices)
        for a, b, sid in m.boundary_edges:
            for nid in (a, b):
                assert P.distance_to_side(m.nodes[nid], sid) <= 1e-12 * P.diameter
        assert abs(triangle_areas(m).sum() - P.area) < 1e-10 * P.area

    def test_meets_angle_bound_and_keeps_connectivity(self, pair):
        P, h, m0, m = pair
        assert np.all(triangle_areas(m) > 0)
        assert m.min_angle() >= _angle_bound(P)
        assert np.array_equal(m.triangles, m0.triangles)
        assert np.array_equal(m.boundary_edges, m0.boundary_edges)
        assert np.array_equal(m.vertex_map, m0.vertex_map)
        assert not np.array_equal(m.nodes, m0.nodes)

    def test_h_grade_and_size_are_the_requested_ones(self, pair):
        P, h, m0, m = pair
        assert m.h == h != m0.h
        assert m.level == 0 and m.size_fn.h == h and m.size_fn.P is P
        assert np.array_equal(m.size_fn.grade, default_grading(P))
        # each side keeps a node count within one of what h asks for
        segments = mesh_mod._boundary_stations(P, m.size_fn)[1]
        counts = np.bincount(m.boundary_edges[:, 2], minlength=P.n)
        assert np.all(np.abs(counts - segments) < 1)

    def test_vertex_count_change_meshes_afresh(self, pair):
        P, h, m0, m = pair
        T = isosceles_triangle(math.radians(50))
        fresh = triangulate(T, T.diameter / 20)
        carried = triangulate(T, T.diameter / 20, warm_start=m)
        assert _same_mesh(carried, fresh)
        assert fresh.origin == "fresh" and fresh.fallback is None
        assert carried.fallback == "vertex count"

    def test_grade_change_is_carried_and_refined_mesh_meshes_afresh(self, pair):
        P, h, m0, m = pair
        # two L-shapes whose reflex angles differ, so 1 - pi/beta differs:
        # each carries onto the other, held by the side counts and the bound
        L = Polygon([[0, 0], [2, 0], [2, 1], [1.1, 1], [1, 2], [0, 2]])
        for A, B in ((_L_SHAPE, L), (L, _L_SHAPE)):
            assert not np.array_equal(default_grading(A), default_grading(B))
            carried = triangulate(B, 0.2, warm_start=triangulate(A, 0.2))
            assert carried.origin == "warm" and carried.fallback is None
            assert carried.min_angle() >= _angle_bound(B)
            _check_conforming(carried)
            segments = mesh_mod._boundary_stations(B, carried.size_fn)[1]
            counts = np.bincount(carried.boundary_edges[:, 2], minlength=B.n)
            assert np.all(np.abs(counts - segments) < 1)
        finer = triangulate(P, h, warm_start=refine(m0))
        assert _same_mesh(finer, triangulate(P, h)) and finer.fallback == "side count"

    @staticmethod
    def _rhombus(deg):
        # a rhombus with the unit square's sides: every side gets the same
        # node count, so only the angle bound can refuse the carried mesh
        a = math.radians(deg)
        return Polygon([[0, 0], [1, 0], [1 + math.cos(a), math.sin(a)],
                        [math.cos(a), math.sin(a)]])

    def test_failed_angle_bound_gets_a_second_chance(self, monkeypatch):
        R = self._rhombus(35)
        warm = triangulate(unit_square(), 0.2)
        nodes = warm.nodes.copy()
        size = mesh_mod._SizeFunction(R, 0.2)
        stations, segments = mesh_mod._boundary_stations(R, size)
        carried, reason = mesh_mod._transported(warm, size, stations, segments, 0.0)
        assert reason is None and np.array_equal(carried.triangles, warm.triangles)
        assert np.all(triangle_areas(carried) > 0)
        assert carried.min_angle() < 20.0
        # at the real bound the carried triangles fail, and the smoothed
        # carried nodes triangulated afresh meet it
        carves = []
        carve = mesh_mod._carve
        monkeypatch.setattr(mesh_mod, "_carve", lambda *a: carves.append(a) or carve(*a))
        m = triangulate(R, 0.2, warm_start=warm)
        assert len(carves) == 1
        assert m.origin == "warm" and m.fallback is None
        assert m.n_nodes == warm.n_nodes and len(np.unique(m.triangles)) == m.n_nodes
        assert np.all(triangle_areas(m) > 0) and m.min_angle() >= 20.0
        _check_conforming(m)
        assert abs(triangle_areas(m).sum() - R.area) < 1e-10 * R.area
        assert np.array_equal(warm.nodes, nodes)

    def test_failed_second_chance_meshes_afresh(self):
        R = self._rhombus(30)
        m = triangulate(R, 0.2, warm_start=triangulate(unit_square(), 0.2))
        assert _same_mesh(m, triangulate(R, 0.2))
        assert m.origin == "fresh" and m.fallback == "angle bound"

    def test_turned_triangle_is_a_carried_fault(self):
        R = self._rhombus(35)
        size = mesh_mod._SizeFunction(R, 0.2)
        stations, segments = mesh_mod._boundary_stations(R, size)
        carried, _ = mesh_mod._transported(triangulate(unit_square(), 0.2), size, stations,
                                           segments, 0.0)
        t = carried.triangles.copy()
        assert mesh_mod._carried_fault(carried.nodes, t, 0.0) is None
        assert mesh_mod._carried_fault(carried.nodes, t, 20.0) == "angle bound"
        t[7] = t[7, ::-1]
        assert mesh_mod._carried_fault(carried.nodes, t, 0.0) == "turned triangle"

    def test_turned_triangle_whose_second_chance_fails_meshes_afresh(self, monkeypatch):
        # vertex 0 of the regular pentagon pushed in past the chord of its
        # neighbours: the harmonic carry turns a triangle over at the dent,
        # and the carried nodes triangulated afresh fail too
        pentagon = regular_polygon(5)
        V = pentagon.vertices.copy()
        V[0] += 1.2 * ((V[1] + V[4]) / 2 - V[0])
        dented = Polygon(V)
        faults = []
        fault = mesh_mod._carried_fault
        monkeypatch.setattr(mesh_mod, "_carried_fault",
                            lambda *a: faults.append(fault(*a)) or faults[-1])
        m = triangulate(dented, 0.15, warm_start=triangulate(pentagon, 0.15))
        assert faults == ["turned triangle"]
        assert _same_mesh(m, triangulate(dented, 0.15))
        assert m.origin == "fresh" and m.fallback == "turned triangle"

    @pytest.fixture(scope="class")
    def edited(self, pair):
        """P(0.3) at diam/20 and two warm meshes of P(0.2): the fixture's m0
        (diam/20) has one chain edge too few on side 0, a mesh at diam/20.5
        one too many on side 1."""
        path = _breaking_path()
        P0, P = path.polygon_at(0.2), path.polygon_at(0.3)
        return P, P.diameter / 20, {"one-station-more": pair[2],
                                    "one-station-fewer": triangulate(P0, P0.diameter / 20.5)}

    @pytest.mark.parametrize("edit, side, change",
                             [("one-station-more", 0, 1), ("one-station-fewer", 1, -1)])
    def test_one_edge_side_change_is_edited(self, monkeypatch, edited, edit, side, change):
        # the side takes the fresh stations and the carried nodes are
        # triangulated afresh, once
        P, h, warms = edited
        warm = warms[edit]
        carves = []
        carve = mesh_mod._carve
        monkeypatch.setattr(mesh_mod, "_carve", lambda *a: carves.append(a) or carve(*a))
        m = triangulate(P, h, warm_start=warm)
        assert len(carves) == 1
        assert m.origin == "warm" and m.fallback is None
        assert len(np.unique(m.triangles)) == m.n_nodes
        stations = mesh_mod._boundary_stations(P, m.size_fn)[0]
        counts = np.bincount(m.boundary_edges[:, 2], minlength=P.n)
        assert np.array_equal(counts, [len(f) + 1 for f in stations])
        before = np.bincount(warm.boundary_edges[:, 2], minlength=P.n)
        assert np.array_equal(counts - before, change * np.eye(P.n, dtype=int)[side])
        assert m.n_nodes - warm.n_nodes == change and m.n_triangles - warm.n_triangles == change
        # the edited side's nodes sit at the fresh stations
        chain = m.boundary_edges[m.boundary_edges[:, 2] == side, 1][:-1]
        assert np.allclose(m.nodes[chain], P.vertices[side] + np.outer(stations[side],
                                                                       P.side_vectors[side]),
                           rtol=0, atol=1e-14)
        assert np.all(triangle_areas(m) > 0) and m.min_angle() >= _angle_bound(P)
        _check_conforming(m)
        assert abs(triangle_areas(m).sum() - P.area) < 1e-10 * P.area

    def test_side_off_by_two_meshes_afresh(self, pair):
        m0 = pair[2]
        P = _breaking_path().polygon_at(0.45)
        h = P.diameter / 20
        m = triangulate(P, h, warm_start=m0)
        segments = mesh_mod._boundary_stations(P, m.size_fn)[1]
        assert np.max(np.abs(np.bincount(m0.boundary_edges[:, 2]) - segments)) >= 2
        assert _same_mesh(m, triangulate(P, h)) and m.fallback == "side count"

    def test_edited_side_whose_retriangulation_fails_meshes_afresh(self):
        # side 0 holds the chain v0, p, q, v1, one station more than h asks
        # for; its one fresh station (1.5, 0) lies straight below the
        # interior nodes c and y, so the carried nodes triangulated afresh
        # make slivers below the angle bound
        T = Polygon([[0, 0], [3, 0], [1.5, 2.6]])
        v0, v1, v2, p, q, y, c = range(7)
        warm = mesh_mod.Mesh(
            nodes=np.array([[0, 0], [3, 0], [1.5, 2.6], [1.2, 0], [1.8, 0], [1.5, 1.0],
                            [1.5, 0.35]]),
            triangles=np.array([(p, q, c), (q, y, c), (y, p, c), (v0, p, y), (q, v1, y),
                                (v1, v2, y), (v2, v0, y)]),
            boundary_edges=np.array([(v0, p, 0), (p, q, 0), (q, v1, 0), (v1, v2, 1),
                                     (v2, v0, 2)]),
            vertex_map=np.arange(3), polygon=T, size_fn=_SizeFunction(T, 1.8))
        _check_conforming(warm)
        # at h = 1.8 side 0 has room for 1.67 segments: one station over
        m = triangulate(T, 1.8, warm_start=warm)
        assert _same_mesh(m, triangulate(T, 1.8)) and m.fallback == "side count"

    def test_breaking_run_meshes_afresh_at_most_three_times(self, monkeypatch):
        """The n_membership triangle and t = 0 always mesh afresh; a carried
        mesh falls back once more at most, never for a side count."""
        import hotspots.continuation as cont
        meshes = []
        tri = cont.triangulate
        monkeypatch.setattr(cont, "triangulate",
                            lambda *a, **k: meshes.append(tri(*a, **k)) or meshes[-1])
        cont.breaking_experiment(isosceles_triangle(math.radians(49.75)), eps_rel=0.01,
                                 steps=10, h=lambda Q: Q.diameter / 20)
        fresh = [m.fallback for m in meshes if m.origin == "fresh"]
        assert 2 <= len(fresh) <= 3 and "side count" not in fresh
        assert fresh[:2] == [None, None]

    @pytest.mark.parametrize("scale, warm_h", [(1.2, 0.1), (2.0, 0.1), (1.0, 0.25)])
    def test_coarser_warm_mesh_meshes_afresh(self, scale, warm_h):
        # a scaled polygon at constant h, or a warm mesh built at a larger h:
        # angles and vertex count stay, so only the side node counts tell
        # that the warm mesh is coarser than h asks for
        S = unit_square()
        P = Polygon(scale * S.vertices)
        fresh = triangulate(P, 0.1)
        carried = triangulate(P, 0.1, warm_start=triangulate(S, warm_h))
        assert _same_mesh(carried, fresh) and carried.fallback == "side count"
        assert fresh.origin == "fresh"


class TestConnectivityRecord:
    """A plain carry shares its warm mesh's connectivity record; every other
    mesh makes its own."""

    @pytest.fixture(scope="class")
    def pair(self):
        return _carried_pair()

    def test_plain_carries_share_one_record(self, pair):
        P, h, m0, m = pair
        assert m._connectivity is m0._connectivity and m0._connectivity.shared
        # the carry of a carry stays on the chain's record
        Q = _breaking_path().polygon_at(0.255)
        m2 = triangulate(Q, h, warm_start=m)
        assert m2.origin == "warm" and np.array_equal(m2.triangles, m0.triangles)
        assert m2._connectivity is m0._connectivity

    def test_other_meshes_make_their_own(self, pair):
        P, h, m0, m = pair
        R = TestWarmStart._rhombus(35)
        warm = triangulate(unit_square(), 0.2)
        second = triangulate(R, 0.2, warm_start=warm)
        assert second.origin == "warm" and not np.array_equal(second.triangles, warm.triangles)
        T = isosceles_triangle(math.radians(50))
        afresh = triangulate(T, T.diameter / 20, warm_start=m)
        assert afresh.fallback == "vertex count"
        for mesh, source in ((second, warm), (afresh, m), (refine(m), m),
                             (dataclasses.replace(m), m)):
            assert mesh._connectivity is not source._connectivity
            assert not mesh._connectivity.shared
        assert not structured_triangle_mesh(T, 3)._connectivity.shared

    def test_carried_nodes_match_a_freshly_built_operator(self, pair):
        # the fixture's carry built m0's harmonic extension operator; a copy
        # of m0 has its own record and builds the operator afresh
        P, h, m0, m = pair
        assert "harmonic" in vars(m0._connectivity)
        again = triangulate(P, h, warm_start=dataclasses.replace(m0))
        assert again.nodes.tobytes() == m.nodes.tobytes()
        assert triangulate(P, h, warm_start=m0).nodes.tobytes() == m.nodes.tobytes()
