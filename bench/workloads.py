"""Seeded workloads, their per-item pipelines and the checks on their verdicts.

Every item is one closed-loop unit of work: the benchmark calls the
library's public functions for it, waits for the answer, checks the answer
against the paper's verdicts and only then starts the next item. Inputs come
from the seed alone; the library sees only the generated polygons.

    corpus    20 random 5-7-gons at h = diam/26, one polygon per item:
              triangulate -> solve_second -> find_critical_points ->
              verify_index_formula -> trace(u).  Many small, unrelated
              analyses; nodal tracing and meshing dominate.
    breaking  one breaking experiment on an isosceles triangle with apex
              near 50 deg (eps_rel 0.01, 10 steps, h = diam/20).  Path
              tracking: repeated remeshing of near-identical polygons and
              rejected steps; no nodal trace.
    fine      3 obtuse triangles meshed at diam/21 and refined 4 times
              (about 83k P2 dofs each): solve_second ->
              find_critical_points -> verify_index_formula ->
              trace(L_side0 u).  One large eigensolve and gradient recovery
              per item.

BENCHMARK.json declares ``breaking`` and ``fine``; ``corpus`` is run by hand
(README.md says why).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import hotspots as hs
from hotspots.corpus import random_simple_polygon

# Errors the library raises for an input it cannot handle. An item that
# raises one of them is counted as failed and the run goes on.
LIBRARY_ERRORS = (hs.MeshingError, hs.SolverError, hs.FitError, hs.GeometryError)

CORPUS_SIZE = 20
FINE_SIZE = 3
FINE_REFINEMENTS = 4
# Apex angles in this band all pass n_membership and take the same sequence
# of accepted and rejected steps, so the seed moves the input without moving
# the amount of work.
BREAKING_APEX_DEG = (49.5, 50.0)
FINE_H_DIVISOR = 21
# Acute angles of the fine triangles; the band keeps the dof count steady.
FINE_ALPHA_DEG = (29.0, 31.0)
FINE_BETA_DEG = (34.0, 36.0)
FINE_MAX_RESIDUAL = 1e-8


@dataclass
class Item:
    """One unit of work. ``run`` returns the verdict record and the list of
    check failures (empty when the verdicts are right); ``inputs`` records
    what the library is given."""
    label: str
    run: Callable[[], tuple[dict, list[str]]]
    inputs: dict = field(default_factory=dict)


@dataclass
class ItemResult:
    label: str
    seconds: float
    verdict: dict
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_items(items: list[Item], clock) -> list[ItemResult]:
    """Run the items one after another. A library error or a failed check
    marks the item failed; any other exception propagates."""
    out = []
    for item in items:
        t0 = clock()
        try:
            verdict, problems = item.run()
        except LIBRARY_ERRORS as e:
            verdict, problems = {"error": type(e).__name__}, [f"{type(e).__name__}: {e}"]
        out.append(ItemResult(item.label, clock() - t0, verdict, problems))
    return out


def digest(results: list[ItemResult]) -> str:
    """Hash of the verdict records, in item order."""
    blob = json.dumps([r.verdict for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verdict records
# ---------------------------------------------------------------------------

def _mu(x: float) -> float:
    """Rounded to 1e-9 relative, so the digest ignores last-bit noise."""
    return float(f"{x:.9e}")


def _locus(locus) -> str:
    return locus if isinstance(locus, str) else f"{locus[0]}:{locus[1]}"


def _points(cset) -> list:
    return sorted(([_locus(p.locus), p.index] for p in cset.points),
                  key=lambda li: (li[0], str(li[1])))


def _analysis(sol, cset, identity) -> dict:
    return {"mu": _mu(sol.mu), "S": cset.S, "points": _points(cset),
            "identity": identity.passed, "identity_rhs": identity.rhs}


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def corpus_item(P) -> Item:
    def run():
        sol = hs.solve_second(hs.triangulate(P, P.diameter / 26))
        cset = hs.find_critical_points(sol)
        identity = hs.verify_index_formula(sol, cset)
        arc = hs.trace(hs.ScalarField.u(sol)).simple_arc_report()
        verdict = _analysis(sol, cset, identity)
        verdict.update(simple_arc=arc["is_simple_arc"],
                       ends=sorted(_locus(e) for e in arc["endpoint_loci"]))
        problems = []
        if identity.passed is False:
            problems.append(f"index identity violated: rhs {identity.rhs}")
        # criterion 7 as the acceptance suite states it
        if not (arc["n_degree_one"] == 2 and arc["is_simple_arc"]
                and len(set(arc["endpoint_sides"])) == 2):
            problems.append(f"Z(u) is not a simple arc between two sides: {arc}")
        return verdict, problems
    return Item(f"{P.n}-gon", run, {"vertices": P.vertices.tolist()})


def breaking_item(apex_deg: float) -> Item:
    def run():
        T = hs.isosceles_triangle(math.radians(apex_deg))
        rep = hs.breaking_experiment(T, eps_rel=0.01, steps=10,
                                     h=lambda Q: Q.diameter / 20)
        samples = rep.run.samples
        verdict = {"in_N": bool(rep.membership.in_N), "branch": rep.branch,
                   "window": None if rep.window is None
                   else [round(float(t), 12) for t in rep.window],
                   "eps": _mu(rep.eps),
                   "t": [round(s.t, 12) for s in samples],
                   "mu": [_mu(s.mu) for s in samples],
                   "S": [s.S for s in samples], "V": [s.V for s in samples],
                   "minus_one_side": [c["minus_one_side"] for c in rep.conditions]}
        # criterion 10, per resolution
        problems = []
        if not rep.membership.in_N:
            problems.append("triangle not in N")
        for c in rep.conditions:
            if not c["acute_extrema"]:
                problems.append(f"hypothesis (3) fails at t={c['t']}")
            if not c["nonzero_on_break_sides"]:
                problems.append(f"hypothesis (2) fails at t={c['t']}")
        first, last = rep.conditions[0], rep.conditions[-1]
        if first["n_minus_one"] != 1 or first["minus_one_side"] != "right":
            problems.append("condition (4) fails at t=0")
        if last["minus_one_side"] != "left":
            problems.append("condition (5) fails at t=1")
        if rep.branch not in ("blocking-instability", "interior-critical-point"):
            problems.append(f"unknown branch {rep.branch}")
        if rep.window is None:
            problems.append("no breaking window")
        return verdict, problems
    return Item(f"apex {apex_deg:.4f} deg", run, {"apex_deg": apex_deg})


def fine_item(alpha_deg: float, beta_deg: float) -> Item:
    def run():
        T = hs.triangle_from_angles(math.radians(alpha_deg), math.radians(beta_deg))
        mesh = hs.triangulate(T, T.diameter / FINE_H_DIVISOR)
        for _ in range(FINE_REFINEMENTS):
            mesh = hs.refine(mesh)
        sol = hs.solve_second(mesh)
        cset = hs.find_critical_points(sol)
        identity = hs.verify_index_formula(sol, cset)
        g = hs.trace(hs.ScalarField.side_directional(sol, 0))
        verdict = _analysis(sol, cset, identity)
        verdict.update(ndof=sol.space.ndof,
                       side0_graph={"nodes": len(g.nodes), "edges": len(g.edges),
                                    "zero_sides": list(g.zero_sides),
                                    "ends": sorted(_locus(n.locus)
                                                   for n in g.degree_one_nodes())})
        acute = sorted([f"vertex:{i}", 1] for i in range(3) if T.angles[i] < math.pi / 2)
        problems = []
        if verdict["points"] != acute:
            problems.append(f"critical set {verdict['points']} != acute vertices {acute}")
        if identity.passed is not True:
            problems.append(f"index identity not verified: rhs {identity.rhs}")
        if not sol.residual < FINE_MAX_RESIDUAL:
            problems.append(f"eigen-residual {sol.residual:.2e}")
        return verdict, problems
    return Item(f"triangle {alpha_deg:.3f}/{beta_deg:.3f} deg", run,
                {"alpha_deg": alpha_deg, "beta_deg": beta_deg})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = ("corpus", "breaking", "fine")


def build(name: str, seed: int) -> list[Item]:
    """The workload's items for this seed. Generation is not timed."""
    rng = np.random.default_rng(seed)
    if name == "corpus":
        # the way the test suite builds its corpus
        items = []
        for _ in range(CORPUS_SIZE):
            n = int(rng.integers(5, 8))
            items.append(corpus_item(random_simple_polygon(rng, n)))
        return items
    if name == "breaking":
        return [breaking_item(float(rng.uniform(*BREAKING_APEX_DEG)))]
    if name == "fine":
        return [fine_item(float(rng.uniform(*FINE_ALPHA_DEG)),
                          float(rng.uniform(*FINE_BETA_DEG)))
                for _ in range(FINE_SIZE)]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def warm_up():
    """One small analysis, so imports and lazy set-up finish before timing."""
    T = hs.triangle_from_angles(math.radians(30), math.radians(35))
    sol = hs.solve_second(hs.triangulate(T, T.diameter / 12))
    hs.verify_index_formula(sol, hs.find_critical_points(sol))
    hs.trace(hs.ScalarField.u(sol))


def coverage_problems(name: str, layer: dict, results: list[ItemResult]) -> list[str]:
    """Traced call counts against counts known from outside the library."""
    n = len(results)
    if name == "corpus":
        want = {"mesh.calls": n, "eigensolver.solve_calls": n, "nodal.trace_calls": n}
    elif name == "fine":
        want = {"mesh.calls": n * (1 + FINE_REFINEMENTS), "eigensolver.solve_calls": n,
                "nodal.trace_calls": n}
    else:
        # Each attempted sample meshes and solves once; how many samples are
        # attempted is the continuation's own business, so only the two
        # layers' counts are compared, and the accepted ones with the report.
        accepted = sum(len(r.verdict.get("t", [])) for r in results)
        want = {"eigensolver.solve_calls": layer["mesh.calls"],
                "continuation.accepted": accepted, "nodal.trace_calls": 0}
    problems = [f"traced {k} = {layer[k]}, expected {v}"
                for k, v in want.items() if layer[k] != v]
    if not layer["mesh.calls"]:
        problems.append("no mesh call traced")
    return problems
