import csv
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_non_finite_coordinate_exit_2(self, tmp_path, capsys):
        # json reads the overflowing literal 1e400 as inf
        mesh = tmp_path / "huge.json"
        mesh.write_text(json.dumps(UNIT_TRIANGLE).replace("1.0, 0.0]", "1e400, 0.0]", 1))
        assert sr.load_mesh(mesh).vertices[1, 0] == np.inf
        code = main(["rasterize", "--mesh", str(mesh), "--res", "8",
                     "--out", str(tmp_path / "o.f32")])
        assert code == 2
        assert "non-finite vertex coordinates" in capsys.readouterr().err


    @pytest.mark.parametrize("change,code", [
        ({"elements": [[0.5, 1, 2]]}, 2),                          # was cast to index 0
        ({"degree": 5, "elements": [[0, 1, 2, 0, 1, 2]]}, 2),      # was an all-zero raster
        ({"densities": [[[1.0]]]}, 1),                             # was an einsum error
        ({"degree": 0, "vertices": [], "elements": [[0]]}, 2),     # was a point at the origin
        ({"elements": [[True, False, True]]}, 1),                  # was read as [1, 0, 1]
        ({"elements": [[0, True, 2]]}, 1),
        ({"vertices": [[0.1, 0.1], [True, 0.1], [0.1, 0.9]]}, 1),
    ])
    def test_structural_errors(self, tmp_path, capsys, change, code):
        mesh = write_json(tmp_path / "bad.json", dict(UNIT_TRIANGLE, **change))
        assert main(["rasterize", "--mesh", mesh, "--res", "8",
                     "--out", str(tmp_path / "o.f32")]) == code
        assert "error" in capsys.readouterr().err

    def test_top_level_array_exit_1(self, tmp_path, capsys):
        mesh = write_json(tmp_path / "list.json", [1, 2, 3])
        assert main(["rasterize", "--mesh", mesh, "--res", "8",
                     "--out", str(tmp_path / "o.f32")]) == 1
        assert "must be an object" in capsys.readouterr().err


VALID_MESH = {"dim": 2, "degree": 2, "vertices": [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9]],
              "elements": [[0, 1, 2]], "densities": [1.0]}
# values that no key of a mesh accepts
WRONG_KIND = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _array_of_shape(draw, key):
    """A nested list of a random shape that is not a valid shape for ``key``."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=4)))
    values = np.asarray(draw(st.lists(st.integers(0, 2) if key == "elements"
                                      else st.floats(0.0, 1.0),
                                      min_size=1, max_size=1)) * max(1, int(np.prod(shape))))
    nested = values[:int(np.prod(shape))].reshape(shape).tolist()
    actual = np.asarray(nested).shape
    valid = {"vertices": len(actual) == 2 and actual[0] >= 3 and actual[1] == 2,
             "elements": actual in ((1, 3), (3,)),
             "densities": actual == (1,) or (len(actual) == 2 and actual[0] == 1 and actual[1] > 0)}
    if valid[key]:
        nested = [nested, nested]  # two copies: a row count or a rank that does not fit
    return nested


def _malformed_meshes():
    keys = st.sampled_from(sorted(VALID_MESH))
    non_integral = st.floats(-5, 5).filter(lambda x: not x.is_integer())
    return st.one_of(
        st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(max_size=3),
                  st.none()),                                    # not an object
        keys.map(lambda k: {q: v for q, v in VALID_MESH.items() if q != k}),  # missing key
        st.tuples(keys, WRONG_KIND).map(lambda kv: dict(VALID_MESH, **{kv[0]: kv[1]})),
        st.tuples(st.integers(0, 2), non_integral | st.booleans()).map(
            lambda iv: dict(VALID_MESH, elements=[[iv[1] if i == iv[0] else i for i in range(3)]])),
        st.lists(st.booleans(), min_size=3, max_size=3).map(
            lambda b: dict(VALID_MESH, elements=[b])),
        st.sampled_from([-1, 3, 4, 5, 6]).map(      # degree unsupported or above dim
            lambda d: dict(VALID_MESH, degree=d, elements=[[i % 3 for i in range(d + 1)]])),
        st.sampled_from([0, 1, 4, 5]).map(          # dimension unsupported
            lambda d: dict(VALID_MESH, dim=d, vertices=[[0.5] * d] * 3)),
        st.sampled_from(["vertices", "elements", "densities"]).flatmap(
            lambda k: _array_of_shape(k).map(lambda a: dict(VALID_MESH, **{k: a}))),
    )


@settings(max_examples=200, deadline=None)
@given(_malformed_meshes())
def test_malformed_mesh_never_exit_0(payload):
    """Any malformed mesh document gives exit 1 or 2 from the CLI: never a
    raster, never an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        mesh = write_json(Path(tmp) / "mesh.json", payload)
        code = main(["rasterize", "--mesh", mesh, "--res", "4",
                     "--out", str(Path(tmp) / "o.f32")])
    assert code in (1, 2)


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

    @pytest.mark.parametrize("which", ["init.json", "target.json"])
    def test_non_finite_mesh_exit_2(self, tmp_path, capsys, which):
        self.make_problem(tmp_path, (0.05, 0.0))
        path = tmp_path / which
        path.write_text(path.read_text().replace("0.7", "1e400", 1))  # read as inf
        code = main(["fit", "--problem", str(tmp_path / "problem.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "non-finite vertex coordinates" in capsys.readouterr().err

    def test_missing_target_exit_1(self, tmp_path):
        problem = {"variable": "vertices", "loss": "l2",
                   "mesh": write_json(tmp_path / "init.json", UNIT_TRIANGLE),
                   "target_mesh": str(tmp_path / "missing.json")}
        path = write_json(tmp_path / "p.json", problem)
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1


    @pytest.mark.parametrize("role", ["mesh", "target_mesh"])
    def test_mres_loop_out_of_order_exit_2(self, tmp_path, capsys, role):
        """A boundary stored as p0, p2, p1, p3 and wired p0-p1-p2-p3 is a
        valid square, but not the loop of its vertex list."""
        self.make_problem(tmp_path, (0.0, 0.0))
        permuted = {"dim": 2, "degree": 1, "vertices": [SQUARE[i] for i in (0, 2, 1, 3)],
                    "elements": [[0, 2], [2, 1], [1, 3], [3, 0]], "densities": [1.0] * 4}
        problem = json.loads((tmp_path / "problem.json").read_text())
        problem.update({"loss": "mres_smooth", "mres_resolutions": [32], "max_iters": 2,
                        role: write_json(tmp_path / "permuted.json", permuted)})
        path = write_json(tmp_path / "mres.json", problem)
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 2
        assert "edges" in capsys.readouterr().err


def _square_fit_spec(tmp):
    """A two-iteration square fit at R=8 whose every file lives in ``tmp``."""
    init = {"dim": 2, "degree": 1, "vertices": SQUARE,
            "elements": [[0, 1], [1, 2], [2, 3], [3, 0]], "densities": [1.0] * 4}
    target = dict(init, vertices=(np.array(SQUARE) + [0.05, 0.0]).tolist())
    return {"variable": "vertices", "loss": "l2", "mode": "auxnode",
            "mesh": write_json(Path(tmp) / "init.json", init),
            "target_mesh": write_json(Path(tmp) / "target.json", target),
            "resolution": 8, "step": 1e-3, "max_iters": 2,
            "rig": {"centers": [[0.5, 0.5]]}, "pose": {"q": [1, 0, 0, 0]},
            "mres_resolutions": [8]}


class TestMalformedInput:
    """Values of the wrong type in a fit, raster or polygon JSON are input
    errors (exit 1), not tracebacks."""

    @pytest.mark.parametrize("change", [
        {"mres_resolutions": 16, "loss": "mres_smooth"},
        {"resolution": [16]},
        {"step": None},
        {"resolution": 1e999},                      # read as inf
        {"snapshot_every": None},
        {"pose": 5, "variable": "pose"},
        {"rig": 5, "variable": "rig"},
    ])
    def test_fit_field_of_wrong_type_exit_1(self, tmp_path, capsys, change):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(_square_fit_spec(tmp_path), **change)))
        assert main(["fit", "--problem", str(path), "--out", str(tmp_path / "run")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("field", ["filter_width", "step", "tol", "smooth_weight"])
    def test_non_finite_fit_number_exit_1(self, tmp_path, capsys, field, value):
        path = write_json(tmp_path / "p.json", dict(_square_fit_spec(tmp_path), **{field: value}))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["fit", "--problem", path, "--out", str(tmp_path / "run")])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("change,named", [
        ({"filter_width": 1e200}, "filter_width"),
        ({"pose": {"q": [[1, 0], [0, 1]]}}, "pose q"),
        ({"pose": {"q": [1, 0, 0, 0], "pivot": [0.5, 0.5]}}, "pose pivot"),
        # values the library would have to round, parse or coerce
        ({"resolution": 8.5}, "resolution"),
        ({"max_iters": 2.7}, "max_iters"),
        ({"mres_resolutions": [8.9, 16]}, "mres_resolutions"),
        ({"resolution": "16"}, "resolution"),
        ({"backtrack": "false"}, "backtrack"),
        ({"filter_width": "2"}, "filter_width"),
        ({"snapshot_every": 2.5}, "snapshot_every"),
        ({"step": "1e-3"}, "step"),
        ({"tol": [0.0]}, "tol"),
        ({"smooth_weight": "0.5"}, "smooth_weight"),
    ])
    def test_out_of_range_fit_value_exit_1(self, tmp_path, capsys, change, named):
        path = write_json(tmp_path / "p.json", dict(_square_fit_spec(tmp_path), **change))
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_pose_on_2d_mesh_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", dict(_square_fit_spec(tmp_path), variable="pose"))
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1
        assert "pose variable needs a 3D mesh, got dim=2" in capsys.readouterr().err

    def test_rig_on_3d_mesh_exit_1(self, tmp_path, capsys):
        tet = {"dim": 3, "degree": 3, "elements": [[0, 1, 2, 3]], "densities": [1.0],
               "vertices": [[0.2, 0.2, 0.2], [0.7, 0.2, 0.2], [0.2, 0.7, 0.2], [0.2, 0.2, 0.7]]}
        spec = dict(_square_fit_spec(tmp_path), variable="rig", mode="simplex",
                    mesh=write_json(tmp_path / "tet.json", tet),
                    target_mesh=write_json(tmp_path / "tet.json", tet),
                    # weight rows that fit the 12 coordinates read as 6 planar vertices
                    rig={"centers": [[0.5, 0.5]], "weights": [[1.0]] * 6})
        path = write_json(tmp_path / "p.json", spec)
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1
        assert "rest_vertices must be an (n, 2) array, got shape (4, 3)" in capsys.readouterr().err

    def test_fit_top_level_array_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", [1, 2])
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_raster_sidecar_array_exit_1(self, tmp_path, capsys):
        spec = _square_fit_spec(tmp_path)
        del spec["target_mesh"]
        (tmp_path / "t.f32").write_bytes(bytes(4 * 64))
        write_json(tmp_path / "t.f32.json", [1])
        path = write_json(tmp_path / "p.json", dict(spec, target_raster=str(tmp_path / "t.f32")))
        assert main(["fit", "--problem", path, "--out", str(tmp_path / "run")]) == 1
        assert "sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("polygon,deltas", [
        ({"polygon": 5}, None),
        ([1, 2], None),
        ({"polygon": SQUARE}, {"a": 1}),
    ])
    def test_subdivide_wrong_type_exit_1(self, tmp_path, capsys, polygon, deltas):
        args = ["subdivide", "--polygon", write_json(tmp_path / "poly.json", polygon),
                "--out", str(tmp_path / "o.json")]
        if deltas is not None:
            args += ["--deltas", write_json(tmp_path / "d.json", deltas)]
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("polygon,deltas", [
        ([[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, float("nan")]], None),
        (SQUARE, [0.05, float("inf"), 0.05, 0.05]),
    ])
    def test_subdivide_non_finite_exit_1_without_output(self, tmp_path, capsys, polygon,
                                                        deltas):
        out = tmp_path / "o.json"
        args = ["subdivide", "--polygon", write_json(tmp_path / "poly.json", {"polygon": polygon}),
                "--out", str(out)]
        if deltas is not None:
            args += ["--deltas", write_json(tmp_path / "d.json", deltas)]
        assert main(args) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


FIT_KEYS = ["mesh", "target_mesh", "target_raster", "resolution", "filter_width", "mode",
            "step", "max_iters", "tol", "backtrack", "snapshot_every", "rig", "pose",
            "variable", "loss", "smooth_weight", "mres_resolutions"]
# JSON values of every kind; numbers stay small so a fit stays at most 2 iterations
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2.9, 2.9),
    st.sampled_from([float("nan"), float("inf")]), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["centers", "controls", "weights", "q", "t", "pivot"]),
                    st.integers(0, 2) | st.lists(st.floats(-1, 1), max_size=4), max_size=3))


@settings(max_examples=150, deadline=None)
@given(variable=st.sampled_from(["vertices", "rig", "pose"]),
       loss=st.sampled_from(["l1", "l2", "mres_smooth"]),
       changes=st.dictionaries(st.sampled_from(FIT_KEYS), JSON_VALUES, min_size=1, max_size=2))
def test_malformed_fit_spec_never_uncaught(variable, loss, changes):
    """Any value in any field of a fit spec gives a documented exit code:
    never an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = {**_square_fit_spec(tmp), "variable": variable, "loss": loss, **changes}
        path = write_json(Path(tmp) / "p.json", spec)
        code = main(["fit", "--problem", path, "--out", str(Path(tmp) / "run")])
    assert code in (0, 1, 2, 4)


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
