"""Lip-1 sweep: the paper's second theorem on 24 random Lip-1 polygons.

Run from the repository root as ``python3 tests/lip1_sweep.py``.  It draws
polygons with ``random_simple_polygon(rng, rng.integers(4, 7))`` from
``default_rng(7)`` and keeps each one that is Lip-1, has no orthogonal sides
and has exactly two acute vertices, until it holds ``N_POLYGONS`` (392
draws).  On each it runs ``lip1_no_hotspots`` at its defaults, which tracks
the reduction path to an obtuse triangle with warm-started meshes, and
prints one JSON summary with, per polygon, the verdict, S(t), V(t), the
number of path events, the meshes ``continuation`` built fresh and warm, and
the reasons (``Mesh.fallback``) of the warm starts that meshed afresh.  It
exits 1 when any polygon fails the verdict or the 24 paths make more than
``MAX_FRESH`` fresh meshes in all.
"""
from __future__ import annotations

import collections
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hotspots.continuation as cont
from hotspots.config import DEFAULTS
from hotspots.corpus import random_simple_polygon
from hotspots.geometry import lip1_classify, orthogonal_side_pairs

N_POLYGONS = 24
# Measured: 38 fresh meshes over the 24 paths, 12 of them "side count" and 2
# "angle bound" fallbacks (a warm start is carried whatever its grading).
# The bound leaves two meshes of slack for platform roundoff.
MAX_FRESH = 40


def polygons():
    """The sweep's polygons, in draw order."""
    rng = np.random.default_rng(7)
    out = []
    while len(out) < N_POLYGONS:
        P = random_simple_polygon(rng, int(rng.integers(4, 7)))
        acute = np.sum(P.angles < math.pi / 2 - DEFAULTS.angle_tol)
        if lip1_classify(P).is_lip1 and not orthogonal_side_pairs(P) and acute == 2:
            out.append(P)
    return out


def main() -> int:
    meshes = []
    real = cont.triangulate

    def counted(P, h, *, warm_start=None):
        m = real(P, h, warm_start=warm_start)
        meshes.append(m)
        return m

    cont.triangulate = counted
    runs, failed, n_fresh = [], [], 0
    for i, P in enumerate(polygons()):
        meshes.clear()
        v = cont.lip1_no_hotspots(P)
        fresh = [m for m in meshes if m.origin == "fresh"]
        reasons = collections.Counter(m.fallback for m in fresh if m.fallback is not None)
        n_fresh += len(fresh)
        runs.append({"index": i, "n": P.n, "passed": v.passed, "S": v.run.S_values(),
                     "V": v.run.V_values(), "events": len(v.run.events),
                     "fresh": len(fresh), "warm": len(meshes) - len(fresh),
                     "fallbacks": dict(sorted(reasons.items()))})
        if not v.passed:
            failed.append(i)
    print(json.dumps({"polygons": len(runs), "passed": len(runs) - len(failed),
                      "fresh": n_fresh, "max_fresh": MAX_FRESH, "runs": runs,
                      "failed": failed}))
    return 1 if failed or n_fresh > MAX_FRESH else 0


if __name__ == "__main__":
    sys.exit(main())
