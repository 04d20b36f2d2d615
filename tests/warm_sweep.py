"""Warm-route sweep: how often a breaking run meshes afresh.

Run from the repository root as ``python3 tests/warm_sweep.py``.  It runs
``breaking_experiment`` on the isosceles triangles with apex 49.5, 49.6,
..., 50.0 degrees at the settings of the ``breaking`` benchmark workload
(eps_rel 0.01, 10 steps, h = diam/20), counts the meshes that
``continuation`` builds fresh and warm, and prints one JSON summary with,
per run, those counts and the reasons (``Mesh.fallback``) of the warm
starts that meshed afresh.  It exits 1 when a run makes more than
``MAX_FRESH`` fresh meshes or falls back for "side count".
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
from hotspots.geometry import isosceles_triangle

APEX_DEG = (49.5, 49.6, 49.7, 49.8, 49.9, 50.0)
# The n_membership triangle and t = 0 always mesh afresh.  Measured with one
# repair route (a side one to two off takes the fresh stations and the
# carried nodes are triangulated afresh): exactly 2 fresh meshes in each of
# 31 runs (these 6, 21 apexes evenly over [49.5, 50] and the 10 benchmark
# seeds).  The bound leaves one mesh of slack for platform roundoff.
MAX_FRESH = 3


def main() -> int:
    meshes = []
    real = cont.triangulate

    def counted(P, h, *, warm_start=None):
        m = real(P, h, warm_start=warm_start)
        meshes.append((m, warm_start))
        return m

    cont.triangulate = counted
    runs, bad, unshared = [], [], []
    for apex in APEX_DEG:
        meshes.clear()
        cont.breaking_experiment(isosceles_triangle(math.radians(apex)), eps_rel=0.01,
                                 steps=10, h=lambda Q: Q.diameter / 20)
        fresh = [m for m, _ in meshes if m.origin == "fresh"]
        reasons = collections.Counter(m.fallback for m in fresh if m.fallback is not None)
        plain = [m.origin == "warm" and np.array_equal(m.triangles, w.triangles)
                 for m, w in meshes]
        shares = [w is not None and m._connectivity is w._connectivity for m, w in meshes]
        runs.append({"apex_deg": apex, "fresh": len(fresh), "warm": len(meshes) - len(fresh),
                     "fallbacks": dict(sorted(reasons.items())), "plain_carries": sum(plain),
                     "sharing": sum(p and s for p, s in zip(plain, shares))})
        if len(fresh) > MAX_FRESH or reasons["side count"]:
            bad.append(apex)
        if plain != shares:
            unshared.append(apex)
    print(json.dumps({"max_fresh": MAX_FRESH, "runs": runs, "over_bound": bad,
                      "sharing_wrong": unshared}))
    return 1 if bad or unshared else 0


if __name__ == "__main__":
    sys.exit(main())
