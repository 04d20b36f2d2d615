"""Refinement sweep: the critical-point verdict of each `corpus` polygon at
its base mesh and two exact refinements of it.

Run from the repository root as ``python3 tests/refine_sweep.py``.  For each
polygon of the ``corpus`` benchmark seeds 1-5 (20 per seed, drawn as
``bench/workloads.py`` draws them), it meshes at h = diam/26, refines that
mesh twice with ``refine`` (level 0, 1, 2), and at each level solves for u
and runs ``find_critical_points`` and ``verify_index_formula``.

A level's verdict is the sorted list of ``[kind, id, index]`` entries, one
per reported critical point: ``id`` is the vertex or side number, and None
for an interior point; a degenerate locus adds ``[kind + " locus",
description, None]``.  So side points match by side and index, and interior
points by index alone, because their positions move under refinement.

It prints one line per polygon (the three verdicts and the identity's rhs at
each level) and then one JSON summary: how many base and level-1 verdicts
equal the level-2 verdict, and the identity violations and inconclusive
identities at each level (seed 5 item 11 is inconclusive at levels 1 and
2, where side 0 is reported as a degenerate locus).  The level-2 verdict is
a reference, not the truth: over the held-out seeds it still breaks the
identity.  It exits 1
when the totals of seeds 1-5 differ from ``PINNED`` (a change that moves a
verdict on purpose updates the pin and says why) or when the identity fails
at level 2.  ``--held-out`` runs seeds 11-25, 101-110 and 201-210 instead
(700 polygons, several minutes) and checks nothing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hotspots.corpus import random_simple_polygon
from hotspots.critical import find_critical_points, verify_index_formula
from hotspots.eigensolver import solve_second
from hotspots.mesh import refine, triangulate

SEEDS = (1, 2, 3, 4, 5)
HELD_OUT = (*range(11, 26), *range(101, 111), *range(201, 211))
CORPUS_SIZE = 20
LEVELS = 3
# numpy 2.4.6 and scipy 1.17.1
PINNED = {"polygons": 100, "base_equals_level2": 71, "level1_equals_level2": 85,
          "violations": [2, 0, 0], "inconclusive": [0, 1, 1]}


def corpus(seed: int):
    """The ``corpus`` workload's polygons for one seed, in item order."""
    rng = np.random.default_rng(seed)
    return [random_simple_polygon(rng, int(rng.integers(5, 8))) for _ in range(CORPUS_SIZE)]


def verdict(cs) -> list:
    """The matching key of a critical set (see the module docstring)."""
    entries = [[p.kind, None if p.kind == "interior" else p.locus[1], p.index]
               for p in cs.points]
    entries += [[f"{d.kind} locus", d.description, None] for d in cs.degenerate_loci]
    return sorted(entries, key=str)


def levels(P) -> list[tuple[list, int | None, bool | None]]:
    """(verdict, identity rhs, identity passed) at each refinement level."""
    mesh = triangulate(P, P.diameter / 26)
    out = []
    for level in range(LEVELS):
        if level:
            mesh = refine(mesh)
        sol = solve_second(mesh)
        cs = find_critical_points(sol)
        rep = verify_index_formula(sol, cs)
        out.append((verdict(cs), rep.rhs, rep.passed))
    return out


def main(argv: list[str]) -> int:
    held_out = "--held-out" in argv
    totals = {"polygons": 0, "base_equals_level2": 0, "level1_equals_level2": 0,
              "violations": [0] * LEVELS, "inconclusive": [0] * LEVELS}
    for seed in HELD_OUT if held_out else SEEDS:
        for item, P in enumerate(corpus(seed)):
            res = levels(P)
            ref = res[-1][0]
            totals["polygons"] += 1
            totals["base_equals_level2"] += res[0][0] == ref
            totals["level1_equals_level2"] += res[1][0] == ref
            for level, (_, _, passed) in enumerate(res):
                totals["violations"][level] += passed is False
                totals["inconclusive"][level] += passed is None
            print(f"seed {seed} item {item}: "
                  + " | ".join(f"L{level} {v} rhs {rhs}" for level, (v, rhs, _) in enumerate(res)),
                  flush=True)
    print(json.dumps(totals))
    if held_out:
        return 0
    if totals != PINNED:
        print(f"totals moved, pinned {json.dumps(PINNED)}", file=sys.stderr)
    return 1 if totals != PINNED or totals["violations"][-1] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
