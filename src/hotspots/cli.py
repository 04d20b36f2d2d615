"""Configuration-driven command line entry point.

Commands: solve, critical, nodal, lip1, path, break, verify-index.  Every
run writes report.json (and optional SVGs) into the output directory; errors
produce error.json and a nonzero exit status.

Spec file formats (JSON):
  polygon: {"vertices": [[x, y], ...]}   (other keys are ignored)
  path:    {"kind": "vertex-lerp", "from": [[x, y], ...], "to": [[x, y], ...]}
           {"kind": "breaking", "triangle": [[x, y], ...], "side": 0,
            "w0": 0.3, "w1": 0.7, "eps": 0.01}
           {"kind": "lip1-reduction", "polygon": [[x, y], ...]}
  x, y, w0, w1 and eps are finite numbers and side an integer (true is neither).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

from .geometry import (Polygon, DeformationPath, GeometryError,
                       lip1_classify, lip1_reduction_path, orthogonal_side_pairs,
                       breaking_family)
from .mesh import triangulate, MeshingError
from .eigensolver import solve_second, SolverError
from .bessel import fit_coefficients, FitError
from .nodal import ScalarField, trace
from .critical import find_critical_points, verify_index_formula
from .continuation import track, breaking_experiment
from .report import write_report, to_jsonable, SvgScene

COMMANDS = ("solve", "critical", "nodal", "lip1", "path", "break", "verify-index")


@dataclass
class RunConfig:
    command: str
    spec: str
    h: float = 0.05
    out: str = "hotspots-out"
    svg: bool = False
    steps: int = 12
    field: str = "u"
    eps: float = 0.01
    dump_mesh: bool = False

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}")
        for name in ("h", "eps"):
            if not getattr(self, name) > 0:   # NaN fails too
                raise ValueError(f"{name} must be positive")
        if self.steps <= 0:
            raise ValueError("steps must be positive")


def _load_json(path) -> dict:
    """A spec file's JSON object; ValueError for any other JSON value."""
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"spec {path} holds a JSON {type(d).__name__}, not an object")
    return d


def _is_number(x) -> bool:
    # a finite float's worth: no bool, NaN, Infinity or int beyond float range
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_points(v) -> bool:
    return isinstance(v, list) and all(isinstance(p, list) and len(p) == 2
                                       and all(map(_is_number, p)) for p in v)


_TYPES = {"points": (_is_points, "a list of [x, y] finite numbers"),
          "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
          "number": (_is_number, "a finite number")}


def _get(d, path, key, kind: str):
    """d[key] of ``kind`` (see ``_TYPES``); else a ValueError naming the key."""
    if key not in d:
        raise ValueError(f"spec {path} lacks key {key!r}")
    ok, what = _TYPES[kind]
    if not ok(d[key]):
        raise ValueError(f"spec {path}: {key!r} must be {what}, not {json.dumps(d[key])}")
    return d[key]


def _side(P: Polygon, i: int) -> int:
    if not 0 <= i < P.n:
        raise ValueError(f"side {i} is not a side of a {P.n}-gon (0..{P.n - 1})")
    return i


def _load_polygon(path) -> Polygon:
    return Polygon(_get(_load_json(path), path, "vertices", "points"))


def _load_path(path) -> DeformationPath:
    d = _load_json(path)
    kind = d.get("kind")
    if kind == "vertex-lerp":
        ends = [_get(d, path, k, "points") for k in ("from", "to")]
        return DeformationPath.from_breakpoints("vertex-lerp", [0.0, 1.0], ends)
    if kind == "breaking":
        T = Polygon(_get(d, path, "triangle", "points"))
        e = _side(T, _get(d, path, "side", "integer"))
        a, sv = T.vertices[e], T.side_vectors[e]
        w0, w1, eps = (float(_get(d, path, k, "number")) for k in ("w0", "w1", "eps"))
        return breaking_family(T, e, (a + w0 * sv, a + w1 * sv), eps * T.side_lengths[e])
    if kind == "lip1-reduction":
        return lip1_reduction_path(Polygon(_get(d, path, "polygon", "points")))
    raise ValueError(f"unknown path kind {kind!r}")


def _parse_field(P: Polygon, spec: str):
    """The --field spec, checked against P, as a function of the solution."""
    if spec == "u":
        return ScalarField.u
    if spec.startswith("L:"):
        return partial(ScalarField.directional, psi=math.radians(float(spec[2:])))
    if spec.startswith("side:"):
        return partial(ScalarField.side_directional, side=_side(P, int(spec[5:])))
    if spec.startswith("R:"):
        x, y = (float(v) for v in spec[2:].split(","))
        return partial(ScalarField.rotational, w=(x, y))
    raise ValueError("field must be 'u', 'L:<deg>', 'side:<i>' or 'R:<x>,<y>'")


def run(cfg: RunConfig) -> int:
    """Execute one command; writes report.json (+ SVGs) into cfg.out."""
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    payload = {"command": cfg.command, "config": to_jsonable(vars(cfg))}
    # every input is read and checked before the one mesh and solve
    if cfg.command == "path":
        path = _load_path(cfg.spec)
    else:
        P = _load_polygon(cfg.spec)
    if cfg.command == "nodal":
        field_of = _parse_field(P, cfg.field)
    if cfg.command in ("solve", "critical", "verify-index", "nodal"):
        mesh = triangulate(P, cfg.h)
        sol = solve_second(mesh)

    if cfg.command == "lip1":
        res = lip1_classify(P)
        pairs = orthogonal_side_pairs(P)
        payload["polygon"] = P.to_dict()
        payload["is_lip1"] = res.is_lip1
        payload["partition"] = res.partition
        payload["partition_count"] = res.partition_count
        payload["orthogonal_side_pairs"] = pairs
        if res.is_lip1 and not pairs:
            try:
                payload["reduction_legs"] = lip1_reduction_path(P).params.get("n_legs")
            except GeometryError as e:
                payload["reduction_error"] = str(e)

    elif cfg.command == "solve":
        payload["polygon"] = P.to_dict()
        payload["mesh"] = {"n_nodes": mesh.n_nodes, "n_triangles": mesh.n_triangles,
                           "min_angle_deg": mesh.min_angle()}
        payload["mu"] = sol.mu
        payload["gap"] = sol.gap
        payload["multiplicity_2_flag"] = sol.multiplicity_flag
        payload["solver"] = sol.diagnostics
        payload["vertex_expansions"] = [fit_coefficients(sol, i).to_dict()
                                        for i in range(P.n)]
        if cfg.dump_mesh:
            write_report(os.path.join(cfg.out, "mesh.json"), mesh.to_dict())

    elif cfg.command in ("critical", "verify-index"):
        cset = find_critical_points(sol)
        payload["mu"] = sol.mu
        payload["critical"] = cset.to_dict()
        rep = verify_index_formula(sol, cset)
        payload["index_formula"] = rep.to_dict()
        if cfg.svg:
            scene = SvgScene(P)
            scene.add_critical_set(cset)
            scene.write(os.path.join(cfg.out, "critical.svg"))
        if cfg.command == "verify-index" and rep.passed is False:
            payload["error"] = "index formula violated"

    elif cfg.command == "nodal":
        g = trace(field_of(sol))
        payload["mu"] = sol.mu
        payload["graph"] = g.to_dict()
        payload["simple_arc"] = g.simple_arc_report() if cfg.field == "u" else None
        if cfg.svg:
            scene = SvgScene(P)
            scene.add_nodal_graph(g)
            scene.write(os.path.join(cfg.out, "nodal.svg"))

    elif cfg.command == "path":
        run_ = track(path, steps=cfg.steps, h=cfg.h)
        payload["track"] = run_.to_dict()
        payload["summary"] = [{"t": s.t, "mu": s.mu, "S": s.S, "V": s.V}
                              for s in run_.samples]
        if cfg.svg:
            for k, s in enumerate(run_.samples):
                scene = SvgScene(s.polygon)
                scene.add_critical_set(s.critical)
                scene.write(os.path.join(cfg.out, f"frame_{k:03d}.svg"))

    elif cfg.command == "break":
        rep = breaking_experiment(P, eps_rel=cfg.eps, steps=cfg.steps,
                                  h=lambda P_: P_.diameter / max(8, round(P_.diameter / cfg.h)))
        payload["breaking"] = rep.to_dict()
        payload["summary"] = [{"t": c["t"], "minus_one_side": c["minus_one_side"],
                               "w_leading_ratio": c["w_leading_ratio"]}
                              for c in rep.conditions]

    write_report(os.path.join(cfg.out, "report.json"), payload)
    return 0 if "error" not in payload else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hotspots",
                                 description="Second Neumann eigenfunctions on polygons: "
                                             "solve, analyze, trace, run experiments.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--spec", required=True, help="polygon or path spec file (JSON)")
    ap.add_argument("--h", type=float, default=RunConfig.h, help="target mesh edge length")
    ap.add_argument("--out", default=RunConfig.out)
    ap.add_argument("--svg", action="store_true", help="emit SVG plots")
    ap.add_argument("--steps", type=int, default=RunConfig.steps)
    ap.add_argument("--field", default=RunConfig.field,
                    help="nodal field: u, L:<deg>, side:<i>, R:<x>,<y>")
    ap.add_argument("--eps", type=float, default=RunConfig.eps, help="relative break distance")
    ap.add_argument("--dump-mesh", action="store_true", help="write mesh.json (solve)")
    cfg = RunConfig(**vars(ap.parse_args(argv)))
    try:
        return run(cfg)
    except (GeometryError, MeshingError, SolverError, FitError, ValueError,
            FileNotFoundError, json.JSONDecodeError) as e:
        os.makedirs(cfg.out, exist_ok=True)
        write_report(os.path.join(cfg.out, "error.json"),
                     {"error": type(e).__name__, "message": str(e),
                      "command": cfg.command})
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
