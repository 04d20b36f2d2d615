import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hotspots.cli import main, run, RunConfig


@pytest.fixture()
def square_spec(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(p)


@pytest.fixture()
def obtuse_spec(tmp_path):
    from hotspots.geometry import triangle_from_angles
    T = triangle_from_angles(math.radians(30), math.radians(35))
    p = tmp_path / "obtuse.json"
    p.write_text(json.dumps(T.to_dict()))
    return str(p)


def _report(out):
    with open(os.path.join(out, "report.json")) as f:
        return json.load(f)


class TestCommands:
    def test_solve_square(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", square_spec, "--h", "0.08", "--out", out]) == 0
        rep = _report(out)
        assert abs(rep["mu"] - math.pi ** 2) / math.pi ** 2 < 1e-3
        assert rep["multiplicity_2_flag"] is True
        assert len(rep["vertex_expansions"]) == 4
        # the pair is near-double, so the expansions depend on the basis
        assert "basis" in rep["vertex_expansions_note"]

    def test_solve_obtuse_has_no_basis_note(self, obtuse_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", obtuse_spec, "--h", "0.06", "--out", out]) == 0
        rep = _report(out)
        assert rep["multiplicity_2_flag"] is False
        assert len(rep["vertex_expansions"]) == 3
        assert "vertex_expansions_note" not in rep

    def test_spec_holds_the_vertices_only(self, tmp_path):
        # a spec file's other keys, such as "labels", are ignored
        spec = tmp_path / "labelled.json"
        spec.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]],
                                    "labels": ["a", "b", "c"]}))
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", str(spec), "--h", "0.3", "--out", out]) == 0
        assert _report(out)["polygon"] == {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}

    def test_verify_index_obtuse(self, obtuse_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["verify-index", "--spec", obtuse_spec, "--h", "0.04",
                     "--out", out]) == 0
        rep = _report(out)
        assert rep["index_formula"]["passed"] is True
        assert rep["index_formula"]["rhs"] == 2

    def test_lip1_square(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["lip1", "--spec", square_spec, "--out", out]) == 0
        rep = _report(out)
        assert rep["is_lip1"] is True
        assert rep["partition_count"] >= 1
        assert len(rep["orthogonal_side_pairs"]) > 0

    def test_nodal_svg(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["nodal", "--spec", square_spec, "--h", "0.1", "--svg",
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "nodal.svg"))
        svg = Path(out, "nodal.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg or "polygon" in svg

    @pytest.mark.parametrize("field, tag", [
        ("L:30", {"kind": "L", "psi": math.radians(30)}),
        ("side:0", {"kind": "L", "psi": 0.0}),                # side 0 runs along +x
        ("R:0.5,0.25", {"kind": "R", "w": [0.5, 0.25]}),
    ])
    def test_nodal_derivative_fields(self, square_spec, tmp_path, field, tag):
        out = str(tmp_path / "out")
        assert main(["nodal", "--spec", square_spec, "--h", "0.1", "--field", field,
                     "--out", out]) == 0
        rep = _report(out)
        assert rep["graph"]["field"] == pytest.approx(tag, rel=1e-12)
        assert rep["simple_arc"] is None

    def test_critical_svg(self, obtuse_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["critical", "--spec", obtuse_spec, "--h", "0.06", "--svg",
                     "--out", out]) == 0
        assert Path(out, "critical.svg").read_text().startswith("<svg")
        assert _report(out)["index_formula"]["passed"] is True

    def test_solve_dump_mesh(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", square_spec, "--h", "0.2", "--dump-mesh",
                     "--out", out]) == 0
        mesh = json.loads(Path(out, "mesh.json").read_text())
        assert len(mesh["nodes"]) == _report(out)["mesh"]["n_nodes"]

    def test_lip1_quadrilateral_records_reduction_legs(self, tmp_path):
        from hotspots.geometry import triangle_from_angles, break_triangle
        T = triangle_from_angles(math.radians(30), math.radians(40))
        Q = break_triangle(T, 0, T.side_point(0, 0.5), 0.004)
        spec = tmp_path / "quad.json"
        spec.write_text(json.dumps(Q.to_dict()))
        out = str(tmp_path / "out")
        assert main(["lip1", "--spec", str(spec), "--out", out]) == 0
        rep = _report(out)
        assert rep["is_lip1"] is True and rep["orthogonal_side_pairs"] == []
        assert isinstance(rep["reduction_legs"], int) and rep["reduction_legs"] >= 1

    def test_path_vertex_lerp(self, tmp_path):
        from hotspots.geometry import triangle_from_angles
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(38), math.radians(30))
        spec = tmp_path / "path.json"
        spec.write_text(json.dumps({"kind": "vertex-lerp",
                                    "from": T0.vertices.tolist(),
                                    "to": T1.vertices.tolist()}))
        out = str(tmp_path / "out")
        assert main(["path", "--spec", str(spec), "--steps", "2", "--h", "0.09",
                     "--out", out]) == 0
        rep = _report(out)
        assert all(row["S"] == 2 and row["V"] == 0 for row in rep["summary"])

    def test_path_breaking(self, tmp_path):
        from hotspots.geometry import isosceles_triangle
        T = isosceles_triangle(math.radians(50))
        spec = tmp_path / "path.json"
        spec.write_text(json.dumps({"kind": "breaking", "triangle": T.vertices.tolist(),
                                    "side": 0, "w0": 0.3, "w1": 0.7, "eps": 0.01}))
        out = str(tmp_path / "out")
        assert main(["path", "--spec", str(spec), "--steps", "2", "--h", "0.1",
                     "--out", out]) == 0
        rep = _report(out)
        assert rep["track"]["path"] == {"kind": "breaking", "n_vertices": 4,
                                        "params": {"eps": 0.01, "side": 0}}
        rows = rep["summary"]
        assert rows[0]["t"] == 0.0 and rows[-1]["t"] == 1.0
        # both ends are the triangle itself, with the angle-pi vertex moved
        # from w0 to w1: mirror images in the triangle's axis
        from hotspots.cli import _load_path
        from hotspots.eigensolver import solve_second
        from hotspots.mesh import triangulate
        path = _load_path(str(spec))
        a, sv = T.vertices[0], T.side_vectors[0]
        for t, w in ((0.0, 0.3), (1.0, 0.7)):
            V = path.polygon_at(t).vertices
            assert np.allclose(V, [T.vertices[0], a + w * sv, T.vertices[1], T.vertices[2]],
                               rtol=0, atol=1e-12)
        # t = 0 is meshed afresh, so its mu is the mirror image's to the last
        # digits; t = 1 is carried along the path, a different mesh of the
        # same triangle
        mirror = solve_second(triangulate(path.polygon_at(1.0), 0.1)).mu
        assert rows[0]["mu"] == pytest.approx(mirror, rel=1e-9)
        assert rep["track"]["samples"][-1]["mesh"] == "warm"
        assert rows[-1]["mu"] == pytest.approx(rows[0]["mu"], rel=1e-5)

    def test_path_lip1_reduction(self, tmp_path):
        from hotspots.geometry import triangle_from_angles, break_triangle
        T = triangle_from_angles(math.radians(30), math.radians(40))
        Q = break_triangle(T, 0, T.side_point(0, 0.5), 0.004)
        spec = tmp_path / "path.json"
        spec.write_text(json.dumps({"kind": "lip1-reduction",
                                    "polygon": Q.vertices.tolist()}))
        out = str(tmp_path / "out")
        assert main(["path", "--spec", str(spec), "--steps", "2", "--h", "0.1",
                     "--out", out]) == 0
        rows = _report(out)["summary"]
        assert [row["t"] for row in rows] == [0.0, 0.5, 1.0]
        assert all(row["S"] == 2 and row["V"] == 0 for row in rows)

    def test_break_isosceles(self, tmp_path):
        from hotspots.geometry import isosceles_triangle
        spec = tmp_path / "iso.json"
        spec.write_text(json.dumps(isosceles_triangle(math.radians(50)).to_dict()))
        out = str(tmp_path / "out")
        assert main(["break", "--spec", str(spec), "--steps", "4", "--h", "0.08",
                     "--out", out]) == 0
        rep = _report(out)["breaking"]
        assert rep["branch"] == "blocking-instability"
        lo, hi = rep["window"]
        assert 0.0 < lo < 0.5 < hi < 1.0
        assert rep["membership"]["in_N"] is True

    def test_missing_spec_writes_error_record(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["solve", "--spec", str(tmp_path / "nope.json"), "--out", out])
        assert rc == 2
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command, spec, message", [
        ("solve", {"verts": [[0, 0], [1, 0], [0, 1]]}, "lacks key 'vertices'"),
        ("solve", [[0, 0], [1, 0], [0, 1]], "holds a JSON list, not an object"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]],
                  "w0": 0.3, "w1": 0.7, "eps": 0.01}, "lacks key 'side'"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]], "side": 3,
                  "w0": 0.3, "w1": 0.7, "eps": 0.01}, "side 3 is not a side of a 3-gon (0..2)"),
        ("solve", {"vertices": {"a": 1}},
         "'vertices' must be a list of [x, y] finite numbers, not {\"a\": 1}"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]], "side": 0,
                  "w0": None, "w1": 0.7, "eps": 0.01}, "'w0' must be a finite number, not null"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]], "side": 1.7,
                  "w0": 0.3, "w1": 0.7, "eps": 0.01}, "'side' must be an integer, not 1.7"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]], "side": True,
                  "w0": 0.3, "w1": 0.7, "eps": 0.01}, "'side' must be an integer, not true"),
        ("solve", {"vertices": [[0, 0], [1, 0], [float("nan"), 1]]},
         "'vertices' must be a list of [x, y] finite numbers, not [[0, 0], [1, 0], [NaN, 1]]"),
        ("path", {"kind": "breaking", "triangle": [[0, 0], [1, 0], [0.5, 1]], "side": 0,
                  "w0": 0.3, "w1": float("inf"), "eps": 0.01},
         "'w1' must be a finite number, not Infinity"),
        ("path", {"kind": "vertex-lerp", "from": [[0, 0], [1, 0], [0, 1]],
                  "to": [[0, 0], [10 ** 400, 0], [0, 1]]}, "'to' must be a list of [x, y]"),
    ], ids=["no-vertices-key", "top-level-list", "breaking-without-side", "breaking-side-3",
            "vertices-object", "breaking-w0-null", "breaking-side-1.7", "breaking-side-true",
            "vertex-nan", "breaking-w1-infinity", "lerp-int-beyond-float"])
    def test_malformed_spec_writes_error_record(self, tmp_path, command, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = str(tmp_path / "out")
        assert main([command, "--spec", str(path), "--out", out]) == 2
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "ValueError" and message in err["message"]
        assert not Path(out, "report.json").exists()

    @pytest.mark.parametrize("side", ["4", "-1"])
    def test_side_field_outside_the_polygon_rejected(self, square_spec, tmp_path, side):
        # side i of a square is 0..3; i mod 4 would trace another side
        out = str(tmp_path / "out")
        assert main(["nodal", "--spec", square_spec, "--h", "0.25", "--field", f"side:{side}",
                     "--out", out]) == 2
        err = json.loads(Path(out, "error.json").read_text())
        assert err["message"] == f"side {side} is not a side of a 4-gon (0..3)"

    @pytest.mark.parametrize("field, message", [
        ("side:7", "side 7 is not a side of a 5-gon (0..4)"),
        ("Q:1", "field must be 'u', 'L:<deg>', 'side:<i>' or 'R:<x>,<y>'"),
    ], ids=["side-7", "Q-1"])
    def test_bad_field_rejected_before_any_mesh(self, tmp_path, monkeypatch, field, message):
        from oracles import regular_polygon

        def triangulate(*args, **kwargs):
            raise AssertionError("a mesh was built for a bad --field")

        monkeypatch.setattr("hotspots.cli.triangulate", triangulate)
        spec = tmp_path / "pentagon.json"
        spec.write_text(json.dumps(regular_polygon(5).to_dict()))
        out = str(tmp_path / "out")
        assert main(["nodal", "--spec", str(spec), "--h", "0.02", "--field", field,
                     "--out", out]) == 2
        err = json.loads(Path(out, "error.json").read_text())
        assert (err["error"], err["message"], err["command"]) == ("ValueError", message, "nodal")
        assert not Path(out, "report.json").exists()

    def test_violated_index_formula_exits_1_with_a_report(self, obtuse_spec, tmp_path,
                                                         monkeypatch):
        from hotspots.critical import IndexFormulaReport
        failed = IndexFormulaReport(lhs=2, rhs=4, passed=False, terms={}, unresolved=0,
                                    degenerate=False)
        monkeypatch.setattr("hotspots.cli.verify_index_formula", lambda sol, cset: failed)
        out = str(tmp_path / "out")
        assert main(["verify-index", "--spec", obtuse_spec, "--h", "0.06", "--out", out]) == 1
        rep = _report(out)
        assert rep["error"] == "index formula violated"
        assert rep["index_formula"] == failed.to_dict()
        assert not Path(out, "error.json").exists()
        # critical records the same report without calling it an error
        out = str(tmp_path / "critical")
        assert main(["critical", "--spec", obtuse_spec, "--h", "0.06", "--out", out]) == 0
        assert "error" not in _report(out) and _report(out)["index_formula"]["passed"] is False

    def test_nodal_svg_dashes_the_zero_sides(self, tmp_path):
        # u_x of the 2 x 1 rectangle's mode cos(pi x / 2) vanishes on the
        # sides x = 0 and x = 2 (sides 3 and 1), which are drawn dashed
        spec = tmp_path / "rect.json"
        spec.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}))
        out = str(tmp_path / "out")
        assert main(["nodal", "--spec", str(spec), "--h", "0.12", "--field", "L:0", "--svg",
                     "--out", out]) == 0
        assert _report(out)["graph"]["zero_sides"] == [1, 3]
        dashed = [line for line in Path(out, "nodal.svg").read_text().splitlines()
                  if "stroke-dasharray" in line]
        assert len(dashed) == 2
        # the outline is 641 px wide (640 px span, 6 % margins): x = 0 and
        # x = 2 sit at the margins, 640 * 0.06 / 1.12 px in from either edge
        xs = sorted({float(pt.split(",")[0]) for line in dashed
                     for pt in line.split('points="')[1].split('"')[0].split()})
        assert xs == [34.29, 605.71]

    def test_path_svg_writes_one_frame_per_sample(self, tmp_path):
        from hotspots.geometry import triangle_from_angles
        T0 = triangle_from_angles(math.radians(30), math.radians(35))
        T1 = triangle_from_angles(math.radians(38), math.radians(30))
        spec = tmp_path / "path.json"
        spec.write_text(json.dumps({"kind": "vertex-lerp", "from": T0.vertices.tolist(),
                                    "to": T1.vertices.tolist()}))
        out = str(tmp_path / "out")
        assert main(["path", "--spec", str(spec), "--steps", "2", "--h", "0.09", "--svg",
                     "--out", out]) == 0
        samples = _report(out)["track"]["samples"]
        frames = sorted(Path(out).glob("frame_*.svg"))
        assert [f.name for f in frames] == [f"frame_{k:03d}.svg" for k in range(len(samples))]
        for frame, sample in zip(frames, samples):
            svg = frame.read_text()
            assert svg.startswith("<svg") and svg.count("<polygon") == 1
            # one dot and one index badge per critical point of the sample
            n_points = len(sample["critical"]["points"])
            assert svg.count("<circle") == svg.count("<text") == n_points > 0

    def test_cli_defaults_are_run_config_defaults(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["lip1", "--spec", square_spec, "--out", out]) == 0
        assert _report(out)["config"] == vars(RunConfig("lip1", square_spec, out=out))

    def test_invalid_config_rejected(self):
        cfg = RunConfig(command="solve", spec="x.json", h=-1.0)
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("name", ["h", "eps"])
    def test_nan_setting_rejected(self, name):
        # NaN <= 0 is false, so only "not > 0" keeps it from the mesh
        cfg = RunConfig(command="break", spec="x.json", **{name: math.nan})
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            cfg.validate()

    def test_report_records_defaults_and_version(self, square_spec, tmp_path):
        import hotspots
        from hotspots.config import DEFAULTS
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", square_spec, "--h", "0.2", "--out", out]) == 0
        rep = _report(out)
        assert rep["defaults"] == DEFAULTS.to_dict()
        assert rep["version"] == hotspots.__version__
        assert rep["schema_version"] == "1.0"

    def test_deterministic_reports(self, square_spec, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["solve", "--spec", square_spec, "--h", "0.1", "--out", out]) == 0
        r1 = Path(out1, "report.json").read_text()
        r2 = Path(out2, "report.json").read_text()
        r1 = r1.replace(out1, "OUT")
        r2 = r2.replace(out2, "OUT")
        assert r1 == r2


def test_report_values_are_plain_json():
    from hotspots.report import to_jsonable
    assert to_jsonable({1: (2.5, None, True, "s", float("inf"))}) == {"1": [2.5, None, True, "s", "inf"]}
    # a value of any other type would otherwise reach report.json as a string
    with pytest.raises(TypeError, match="ndarray"):
        to_jsonable({"a": [np.zeros(2)]})


def test_polyline_of_fewer_than_two_points_is_not_drawn():
    from hotspots.geometry import unit_square
    from hotspots.report import SvgScene
    scene = SvgScene(unit_square())
    before = list(scene.items)
    scene.add_polyline(np.zeros((1, 2)))
    scene.add_polyline(np.zeros((0, 2)))
    assert scene.items == before
    scene.add_polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert len(scene.items) == len(before) + 1 and scene.items[-1].startswith("<polyline")
