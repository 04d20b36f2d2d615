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

    def test_missing_spec_writes_error_record(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["solve", "--spec", str(tmp_path / "nope.json"), "--out", out])
        assert rc == 2
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "FileNotFoundError"

    def test_cli_defaults_are_run_config_defaults(self, square_spec, tmp_path):
        out = str(tmp_path / "out")
        assert main(["lip1", "--spec", square_spec, "--out", out]) == 0
        assert _report(out)["config"] == vars(RunConfig("lip1", square_spec, out=out))

    def test_invalid_config_rejected(self):
        cfg = RunConfig(command="solve", spec="x.json", h=-1.0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_deterministic_reports(self, square_spec, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["solve", "--spec", square_spec, "--h", "0.1",
                         "--seed", "3", "--out", out]) == 0
        r1 = Path(out1, "report.json").read_text()
        r2 = Path(out2, "report.json").read_text()
        r1 = r1.replace(out1, "OUT")
        r2 = r2.replace(out2, "OUT")
        assert r1 == r2
