"""Mesh sweep: 814 fresh meshes of random and L-shaped polygons.

Run from the repository root as ``python3 tests/mesh_sweep.py``.  It meshes,
in this order, the polygons a ``default_rng(12345)`` draws: 150
``random_simple_polygon(rng, rng.integers(4, 9))``, then 60
``random_triangle`` and 60 ``random_obtuse_triangle``, each at diam/10,
diam/18 and diam/26; then the L-shape at h = 0.3, 0.2, 0.1 and 0.05.  It
prints one JSON summary: the ``MeshingError``s, percentiles of the meshes'
minimum angles, the node count, the ``Delaunay`` calls of graded and
ungraded meshes, and a SHA-256 over the nodes and triangles of every graded
and of every ungraded mesh.  It exits 1 when a mesh raises outside the three
known quality-bound triangles, when a mesh falls below its angle bound, or
when either SHA-256 differs from its pinned value (``PINNED``): a change that
moves meshes on purpose updates the pin and says why.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hotspots.mesh as mesh_mod
from hotspots.config import DEFAULTS
from hotspots.corpus import (random_simple_polygon, random_triangle,
                             random_obtuse_triangle)
from hotspots.geometry import Polygon

DIVISORS = (10, 18, 26)
L_SHAPE = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
L_SHAPE_H = (0.3, 0.2, 0.1, 0.05)
# (family, 1-based index, divisor): plain triangles on which the repair loop
# ends just short of the quality bound (tests/test_mesh.py
# TestQualityBoundDefect pins them)
KNOWN_FAILURES = {("random_triangle", 38, 18), ("random_obtuse_triangle", 32, 18),
                  ("random_obtuse_triangle", 32, 26)}
# the first 16 hex digits of each SHA-256, numpy 2.4.6 and scipy 1.17.1
PINNED = {"graded": "a07ff9a904baab26", "ungraded": "f707bdad1819da9f"}


def cases():
    """(family, 1-based index, divisor or None, polygon, h) for each mesh."""
    rng = np.random.default_rng(12345)
    families = [("random_simple_polygon",
                 [random_simple_polygon(rng, int(rng.integers(4, 9))) for _ in range(150)]),
                ("random_triangle", [random_triangle(rng) for _ in range(60)]),
                ("random_obtuse_triangle", [random_obtuse_triangle(rng) for _ in range(60)])]
    for family, polygons in families:
        for i, P in enumerate(polygons, 1):
            for k in DIVISORS:
                yield family, i, k, P, P.diameter / k
    for h in L_SHAPE_H:
        yield "L-shape", 1, None, L_SHAPE, h


def main() -> int:
    calls = []
    real = mesh_mod.Delaunay
    mesh_mod.Delaunay = lambda p: calls.append(1) or real(p)
    digests = {"graded": hashlib.sha256(), "ungraded": hashlib.sha256()}
    errors, unexpected, below = [], [], []
    angles, nodes = [], 0
    count = {"graded": [0, 0], "ungraded": [0, 0]}     # meshes, Delaunay calls
    for family, i, k, P, h in cases():
        calls.clear()
        graded = bool(np.any(mesh_mod.default_grading(P) > 0))
        key = "graded" if graded else "ungraded"
        try:
            m = mesh_mod.triangulate(P, h)
        except mesh_mod.MeshingError as e:
            errors.append([family, i, k])
            if (family, i, k) not in KNOWN_FAILURES:
                unexpected.append([family, i, k, str(e)])
            continue
        finally:
            count[key][0] += 1
            count[key][1] += len(calls)
        angle = m.min_angle()
        bound = min(DEFAULTS.mesh_quality_min_angle, 0.9 * math.degrees(P.angles.min()))
        if angle < bound:
            below.append([family, i, k, angle, bound])
        angles.append(angle)
        nodes += m.n_nodes
        digests[key].update(m.nodes.tobytes())
        digests[key].update(m.triangles.tobytes())
    summary = {
        "meshes": sum(c[0] for c in count.values()),
        "errors": errors,
        "unexpected_errors": unexpected,
        "below_angle_bound": below,
        "min_angle_percentiles": {f"p{q}": round(float(np.percentile(angles, q)), 4)
                                  for q in (1, 5, 50)},
        "nodes": nodes,
        "graded": {"meshes": count["graded"][0], "delaunay_calls": count["graded"][1]},
        "ungraded": {"meshes": count["ungraded"][0], "delaunay_calls": count["ungraded"][1]},
        "graded_sha256": digests["graded"].hexdigest()[:16],
        "ungraded_sha256": digests["ungraded"].hexdigest()[:16],
    }
    print(json.dumps(summary))
    moved = {key: summary[f"{key}_sha256"] for key in PINNED
             if summary[f"{key}_sha256"] != PINNED[key]}
    if moved:
        print(f"meshes moved: {moved}, pinned {PINNED}", file=sys.stderr)
    return 1 if unexpected or below or moved else 0


if __name__ == "__main__":
    sys.exit(main())
