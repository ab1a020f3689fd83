import csv
import json

import numpy as np
import pytest

import simplexrast as sr
from simplexrast.cli import (
    BENCH_CSV_HEADER,
    EXIT_DIVERGED,
    TRAJECTORY_CSV_HEADER,
    main,
)

UNIT_TRIANGLE = {"dim": 2, "degree": 2,
                 "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                 "elements": [[0, 1, 2]], "densities": [1.0]}
SQUARE = [[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7]]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestRasterizeCommand:
    def test_triangle_mean_is_mass(self, tmp_path, capsys):
        mesh = write_json(tmp_path / "tri.json", UNIT_TRIANGLE)
        out = tmp_path / "tri.f32"
        code = main(["rasterize", "--mesh", mesh, "--res", "32", "--out", str(out)])
        assert code == 0
        raster = sr.load_raster(out)
        assert abs(raster.values.mean() - 0.5) <= 1e-6
        meta = json.loads((tmp_path / "tri.f32.json").read_text())
        assert meta == {"dim": 2, "resolution": 32, "channels": 1}

    def test_auxnode_matches_triangulated_square(self, tmp_path):
        boundary = {"dim": 2, "degree": 1, "vertices": SQUARE,
                    "elements": [[0, 1], [1, 2], [2, 3], [3, 0]],
                    "densities": [1.0, 1.0, 1.0, 1.0]}
        tris = {"dim": 2, "degree": 2, "vertices": SQUARE,
                "elements": [[0, 1, 2], [0, 2, 3]], "densities": [1.0, 1.0]}
        pa = tmp_path / "a.f32"
        pb = tmp_path / "b.f32"
        assert main(["rasterize", "--mesh", write_json(tmp_path / "b.json", boundary),
                     "--res", "32", "--mode", "auxnode", "--out", str(pa)]) == 0
        assert main(["rasterize", "--mesh", write_json(tmp_path / "t.json", tris),
                     "--res", "32", "--out", str(pb)]) == 0
        a = sr.load_raster(pa).values
        b = sr.load_raster(pb).values
        assert np.abs(a - b).max() < 1e-7

    def test_pgm_output(self, tmp_path):
        mesh = write_json(tmp_path / "tri.json", UNIT_TRIANGLE)
        pgm = tmp_path / "img.pgm"
        code = main(["rasterize", "--mesh", mesh, "--res", "16",
                     "--out", str(tmp_path / "o.f32"), "--pgm", str(pgm)])
        assert code == 0
        assert pgm.read_bytes().startswith(b"P5 16 16 255\n")

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["rasterize", "--mesh", str(bad), "--res", "8",
                     "--out", str(tmp_path / "o.f32")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["rasterize", "--mesh", str(tmp_path / "nope.json"),
                     "--res", "8", "--out", str(tmp_path / "o.f32")]) == 1

    def test_strict_validation_exit_2(self, tmp_path, capsys):
        broken = dict(UNIT_TRIANGLE, elements=[[0, 1, 7]])
        mesh = write_json(tmp_path / "broken.json", broken)
        code = main(["rasterize", "--mesh", mesh, "--res", "8", "--strict",
                     "--out", str(tmp_path / "o.f32")])
        assert code == 2
        assert "validation" in capsys.readouterr().err


    def test_out_of_range_index_exit_2_without_strict(self, tmp_path, capsys):
        for bad in (-1, 7):
            broken = dict(UNIT_TRIANGLE, elements=[[0, 1, bad]])
            mesh = write_json(tmp_path / "broken.json", broken)
            code = main(["rasterize", "--mesh", mesh, "--res", "8",
                         "--out", str(tmp_path / "o.f32")])
            assert code == 2
            assert "out of range" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code = main(["gradcheck", "--j", "2", "--d", "2", "--points", "12",
                     "--res", "8", "--seed", "0", "--h", "1e-6", "--tol", "1e-5"])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out

    def test_point_cloud_passes(self):
        assert main(["gradcheck", "--j", "0", "--d", "3", "--points", "8",
                     "--res", "4"]) == 0

    def test_zero_tolerance_fails_exit_3(self):
        assert main(["gradcheck", "--j", "1", "--d", "2", "--points", "6",
                     "--res", "4", "--tol", "0"]) == 3

    def test_deterministic_given_seed(self, capsys):
        main(["gradcheck", "--j", "1", "--d", "2", "--points", "6", "--res", "4",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["gradcheck", "--j", "1", "--d", "2", "--points", "6", "--res", "4",
              "--seed", "5"])
        assert capsys.readouterr().out == first


class TestBenchCommand:
    def test_csv_schema_and_single_rep_std(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--j", "1,2", "--points", "5", "--res", "4",
                     "--reps", "1", "--d", "2", "--csv", str(out),
                     "--single-thread"])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_CSV_HEADER
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row[6]) == 0.0 and float(row[8]) == 0.0  # std with 1 rep
            assert float(row[5]) > 0 and float(row[7]) > 0
        assert "speedup" in capsys.readouterr().out

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--j", "1", "--points", "4:8:4", "--res", "4",
                     "--reps", "1", "--d", "2", "--csv", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[2]) for r in rows[1:]] == [4, 8]


class TestFitCommand:
    def make_problem(self, tmp_path, shift):
        init = {"dim": 2, "degree": 1, "vertices": SQUARE,
                "elements": [[0, 1], [1, 2], [2, 3], [3, 0]],
                "densities": [1.0, 1.0, 1.0, 1.0]}
        target = dict(init, vertices=(np.array(SQUARE) + shift).tolist())
        problem = {
            "variable": "vertices", "loss": "l2", "mode": "auxnode",
            "mesh": write_json(tmp_path / "init.json", init),
            "target_mesh": write_json(tmp_path / "target.json", target),
            "resolution": 16, "step": 3e-3, "max_iters": 150,
            "snapshot_every": 50,
        }
        return write_json(tmp_path / "problem.json", problem)

    def test_identity_fit_single_row(self, tmp_path):
        path = self.make_problem(tmp_path, (0.0, 0.0))
        out = tmp_path / "run"
        assert main(["fit", "--problem", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAJECTORY_CSV_HEADER
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.0
        assert (out / "final.json").exists()

    def test_translated_fit_outputs(self, tmp_path):
        path = self.make_problem(tmp_path, (0.05, 0.0))
        out = tmp_path / "run"
        assert main(["fit", "--problem", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        losses = [float(r[1]) for r in rows[1:]]
        assert losses[-1] < 0.05 * losses[0]
        assert (out / "snapshot_000050.json").exists()
        final = sr.load_mesh(out / "final.json")
        assert np.abs(final.vertices - (np.array(SQUARE) + [0.05, 0.0])).max() < 0.01

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
    def test_diverged_fit_exit_4(self, tmp_path, capsys):
        self.make_problem(tmp_path, (0.05, 0.0))
        problem = json.loads((tmp_path / "problem.json").read_text())
        path = write_json(tmp_path / "huge_step.json", dict(problem, step=1e300))
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "fit diverged: non-finite loss" in err
        assert "Traceback" not in err

    def test_missing_target_exit_1(self, tmp_path):
        problem = {"variable": "vertices", "loss": "l2",
                   "mesh": write_json(tmp_path / "init.json", UNIT_TRIANGLE),
                   "target_mesh": str(tmp_path / "missing.json")}
        path = write_json(tmp_path / "p.json", problem)
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1


class TestSubdivideCommand:
    def test_doubles_vertices(self, tmp_path):
        poly = write_json(tmp_path / "poly.json", {"polygon": SQUARE})
        out = tmp_path / "refined.json"
        assert main(["subdivide", "--polygon", poly, "--delta", "0.0",
                     "--out", str(out)]) == 0
        refined = json.loads(out.read_text())["polygon"]
        assert len(refined) == 8
        assert np.allclose(refined[0::2], SQUARE)

    def test_per_edge_deltas_file(self, tmp_path):
        poly = write_json(tmp_path / "poly.json", {"polygon": SQUARE})
        deltas = write_json(tmp_path / "d.json", [0.05, 0.05, 0.05, 0.05])
        out = tmp_path / "refined.json"
        assert main(["subdivide", "--polygon", poly, "--deltas", deltas,
                     "--out", str(out)]) == 0
        refined = np.asarray(json.loads(out.read_text())["polygon"])
        assert sr.polygon_signed_area(refined) > sr.polygon_signed_area(np.asarray(SQUARE))

    def test_wrong_delta_count_exit_1(self, tmp_path):
        poly = write_json(tmp_path / "poly.json", {"polygon": SQUARE})
        deltas = write_json(tmp_path / "d.json", [0.0, 0.0])
        assert main(["subdivide", "--polygon", poly, "--deltas", deltas,
                     "--out", str(tmp_path / "o.json")]) == 1
