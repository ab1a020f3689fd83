import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

import simplexrast as sr

SQUARE = np.array([[0.35, 0.35], [0.65, 0.35], [0.65, 0.65], [0.35, 0.65]])


class TestIou:
    def test_identical(self):
        r = sr.Raster(2, 4, np.ones((4, 4, 1)))
        assert sr.iou(r, r) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 1))
        a[:2] = 1.0
        b = np.zeros((4, 4, 1))
        b[2:] = 1.0
        assert sr.iou(a, b) == 0.0

    def test_half_overlap_is_one_third(self):
        a = np.zeros((4, 4, 1))
        a[:, :2] = 1.0
        b = np.zeros((4, 4, 1))
        b[:, 1:3] = 1.0
        assert sr.iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        z = np.zeros((4, 4, 1))
        assert sr.iou(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sr.iou(np.zeros((4, 4, 1)), np.zeros((8, 8, 1)))

    def test_non_finite_rejected(self):
        nan = np.full((4, 4, 1), np.nan)
        for a, b in ((nan, nan), (nan, np.ones((4, 4, 1))), (np.zeros((4, 4, 1)), -nan)):
            with pytest.raises(ValueError, match="finite"):
                sr.iou(a, b)


class TestSchedule:
    @pytest.mark.parametrize("max_iters", [-1, 2.5, 3.0, True, float("nan"), "3"])
    def test_max_iters_must_be_non_negative_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            sr.Schedule(step=1e-3, max_iters=max_iters)

    def test_integer_max_iters_accepted(self):
        assert sr.Schedule(step=1e-3, max_iters=np.int32(0)).max_iters == 0


def square_problem(shift=(0.1, 0.0), step=1e-3, max_iters=100, resolution=16,
                   loss="l2", tol=0.0):
    target = sr.polygon_boundary_mesh(SQUARE + list(shift))
    cfg = sr.RasterizeConfig(resolution=resolution, mode="auxnode")
    return sr.FitProblem(
        mesh=sr.polygon_boundary_mesh(SQUARE), target=target, config=cfg,
        schedule=sr.Schedule(step=step, max_iters=max_iters, tol=tol), loss=loss)


class TestFit:
    def test_identity_fit_single_row(self):
        problem = square_problem(shift=(0.0, 0.0))
        result = sr.fit(problem)
        assert len(result.trajectory) == 1
        assert result.trajectory[0].loss == 0.0
        assert result.converged

    def test_translated_square_loss_collapses(self):
        problem = square_problem(max_iters=120)
        result = sr.fit(problem)
        assert result.trajectory[-1].loss < 0.01 * result.trajectory[0].loss

    def test_backtracking_keeps_losses_non_increasing(self):
        problem = square_problem(step=0.05, max_iters=60)  # oversized step
        result = sr.fit(problem)
        assert np.all(np.diff(result.losses) <= 0.0)

    def test_raster_target_matches_mesh_target(self):
        """A target given as its raster fits exactly as the mesh it came from."""
        problem = square_problem(max_iters=15)
        from_mesh = sr.fit(problem)
        raster = sr.rasterize(problem.target, problem.config)
        from_raster = sr.fit(replace(problem, target=raster))
        assert from_raster.losses.tolist() == from_mesh.losses.tolist()

    def test_halving_budget_stops_the_fit(self, monkeypatch):
        monkeypatch.setattr(sr.optimizer, "_MAX_HALVINGS", 0)
        result = sr.fit(square_problem(step=0.05, max_iters=60))  # the first step overshoots
        assert result.converged
        assert result.message == "no descent direction within the halving budget"
        assert len(result.trajectory) == 1

    def test_deterministic(self):
        a = sr.fit(square_problem(max_iters=25))
        b = sr.fit(square_problem(max_iters=25))
        assert np.array_equal(a.state, b.state)
        assert a.losses.tolist() == b.losses.tolist()

    def test_pose_fit_identical_at_every_worker_count(self, monkeypatch):
        """The backward adds fixed reduction lanes in lane order, so a fit's
        trajectory does not depend on DDSL_WORKERS.  A small tile budget
        gives the pose fit more mode tiles than lanes, and four CPUs are
        reported, so that three workers start three threads."""
        monkeypatch.setattr(sr.nuft, "_TILE_PAIRS", 64)
        monkeypatch.setattr(sr.nuft.os, "cpu_count", lambda: 4)
        assert len(sr.nuft._tiles(6, sr.build_grid(3, 8).n_modes)[1]) - 1 > sr.nuft._LANES
        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("DDSL_WORKERS", workers)
            runs.append(sr.fit(box_pose_problem()))
        assert len(runs[0].trajectory) > 2
        for run in runs[1:]:
            assert run.losses.tolist() == runs[0].losses.tolist()
            assert np.array_equal([p.state for p in run.trajectory],
                                  [p.state for p in runs[0].trajectory])

    def test_tolerance_stop(self):
        problem = square_problem(max_iters=400, tol=1e-3)
        result = sr.fit(problem)
        assert result.converged
        assert result.trajectory[-1].iteration < 400

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostic(self):
        mesh = sr.polygon_boundary_mesh(SQUARE)
        bad = mesh.with_vertices(mesh.vertices * np.nan)
        problem = sr.FitProblem(
            mesh=bad, target=sr.polygon_boundary_mesh(SQUARE),
            config=sr.RasterizeConfig(resolution=8, mode="auxnode"),
            schedule=sr.Schedule(step=1e-3, max_iters=5))
        with pytest.raises(sr.FitDivergedError):
            sr.fit(problem)

    def test_target_resolution_mismatch(self):
        target = sr.rasterize(sr.polygon_boundary_mesh(SQUARE),
                              sr.RasterizeConfig(resolution=8, mode="auxnode"))
        problem = sr.FitProblem(
            mesh=sr.polygon_boundary_mesh(SQUARE), target=target,
            config=sr.RasterizeConfig(resolution=16, mode="auxnode"),
            schedule=sr.Schedule(step=1e-3))
        with pytest.raises(ValueError):
            sr.fit(problem)

    @pytest.mark.parametrize("mesh_channels, kind, target_channels", [
        (3, "Raster", 1), (1, "Raster", 3), (1, "SimplexMesh", 3), (2, "SimplexMesh", 1)])
    def test_target_channel_mismatch(self, mesh_channels, kind, target_channels):
        """A target with another channel count than the mesh is rejected where
        the objective is built, naming the target and both counts."""
        def square(channels):
            mesh = sr.polygon_boundary_mesh(SQUARE)
            return sr.SimplexMesh(2, 1, mesh.vertices, mesh.elements, np.ones((4, channels)))

        cfg = sr.RasterizeConfig(resolution=8, mode="auxnode")
        target = square(target_channels)
        if kind == "Raster":
            target = sr.rasterize(target, cfg)
        problem = sr.FitProblem(mesh=square(mesh_channels), target=target, config=cfg,
                                schedule=sr.Schedule(step=1e-3, max_iters=2))
        message = f"target {kind} has {target_channels} channel(s), mesh has {mesh_channels}"
        for call in (sr.make_objective, sr.fit):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(problem)

    def test_rig_variable_descends(self):
        result = sr.fit(rig_problem(max_iters=40))
        assert result.trajectory[-1].loss < 0.5 * result.trajectory[0].loss

    def test_mres_smooth_composite(self):
        target = SQUARE + [0.05, 0.0]
        problem = sr.FitProblem(
            mesh=sr.polygon_boundary_mesh(SQUARE),
            target=sr.polygon_boundary_mesh(target),
            config=sr.RasterizeConfig(resolution=16, mode="auxnode"),
            schedule=sr.Schedule(step=2e-4, max_iters=30),
            loss="mres_smooth", mres_resolutions=(16, 8), smooth_weight=0.01)
        result = sr.fit(problem)
        assert result.trajectory[-1].loss < result.trajectory[0].loss

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            sr.FitProblem(mesh=sr.polygon_boundary_mesh(SQUARE),
                          target=None, config=sr.RasterizeConfig(resolution=8),
                          schedule=sr.Schedule(step=1e-3), variable="nope")
        with pytest.raises(ValueError):
            sr.Schedule(step=0.0)
        with pytest.raises(ValueError):
            sr.FitProblem(mesh=sr.polygon_boundary_mesh(SQUARE),
                          target=None, config=sr.RasterizeConfig(resolution=8),
                          schedule=sr.Schedule(step=1e-3), variable="pose")

    def test_mres_smooth_raster_target_rejected(self):
        """A raster has one resolution, so it cannot be the target of a
        multi-resolution loss."""
        config = sr.RasterizeConfig(resolution=16, mode="auxnode")
        raster = sr.rasterize(sr.polygon_boundary_mesh(SQUARE), config)
        with pytest.raises(ValueError, match="mres_smooth target must be a polygon"):
            sr.FitProblem(mesh=sr.polygon_boundary_mesh(SQUARE), target=raster, config=config,
                          schedule=sr.Schedule(step=1e-3), loss="mres_smooth",
                          mres_resolutions=(16,))

    def test_variable_needs_its_mesh_dimension(self):
        tet = sr.SimplexMesh(3, 3, np.eye(4)[:, 1:] * 0.5 + 0.2, np.array([[0, 1, 2, 3]]),
                             np.ones(1))
        common = dict(target=None, config=sr.RasterizeConfig(resolution=8),
                      schedule=sr.Schedule(step=1e-3))
        with pytest.raises(ValueError, match="pose variable needs a 3D mesh, got dim=2"):
            sr.FitProblem(mesh=sr.polygon_boundary_mesh(SQUARE), variable="pose",
                          pose=sr.PoseQuat([1, 0, 0, 0], [0, 0, 0]), **common)
        with pytest.raises(ValueError, match="rig variable needs a 2D mesh, got dim=3"):
            sr.FitProblem(mesh=tet, variable="rig",
                          rig=sr.make_rig(SQUARE, centers=[[0.5, 0.5]]), **common)

    def test_rig_must_rest_on_the_mesh_vertices(self):
        rig = sr.make_rig(np.vstack([SQUARE, SQUARE + 0.01]), centers=[[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"rig rest vertices \(8, 2\) are not"):
            sr.FitProblem(mesh=sr.polygon_boundary_mesh(SQUARE), variable="rig", rig=rig,
                          target=None, config=sr.RasterizeConfig(resolution=8),
                          schedule=sr.Schedule(step=1e-3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field, make", [
        ("filter_width", lambda v: sr.RasterizeConfig(resolution=8, filter_width=v)),
        ("filter width", lambda v: sr.gaussian_filter(sr.build_grid(2, 8), v)),
        ("step", lambda v: sr.Schedule(step=v)),
        ("tol", lambda v: sr.Schedule(step=1e-3, tol=v)),
        ("smooth_weight", lambda v: sr.FitProblem(
            mesh=sr.polygon_boundary_mesh(SQUARE), target=None,
            config=sr.RasterizeConfig(resolution=8), schedule=sr.Schedule(step=1e-3),
            smooth_weight=v)),
    ], ids=["RasterizeConfig", "gaussian_filter", "step", "tol", "smooth_weight"])
    def test_non_finite_numbers_rejected(self, field, make, value):
        with pytest.raises(ValueError, match=field):
            make(value)


class TestLoopCheck:
    """``mres_smooth`` reads a boundary mesh as the loop of its vertex list,
    so a mesh wired in another vertex order is refused, not fitted as a
    different shape."""

    # the square's corners stored as p0, p2, p1, p3, wired p0-p1-p2-p3
    PERMUTED = sr.SimplexMesh(2, 1, SQUARE[[0, 2, 1, 3]], [[0, 2], [2, 1], [1, 3], [3, 0]],
                              np.ones(4))

    def problem(self, mesh, target):
        return sr.FitProblem(
            mesh=mesh, target=target, config=sr.RasterizeConfig(resolution=32, mode="auxnode"),
            schedule=sr.Schedule(step=2e-4, max_iters=2), loss="mres_smooth",
            mres_resolutions=(32,))

    def test_permuted_mesh_is_a_valid_boundary(self):
        raster = sr.rasterize(self.PERMUTED, sr.RasterizeConfig(resolution=32, mode="auxnode"))
        assert raster.values.mean() == pytest.approx(0.09, abs=1e-6)

    @pytest.mark.parametrize("role", ["start", "target"])
    def test_out_of_order_loop_rejected(self, role):
        plain = sr.polygon_boundary_mesh(SQUARE)
        meshes = (self.PERMUTED, plain) if role == "start" else (plain, self.PERMUTED)
        with pytest.raises(sr.MeshValidationError, match="edges"):
            sr.make_objective(self.problem(*meshes))

    def test_loop_wired_in_any_order_and_direction(self):
        shuffled = sr.SimplexMesh(2, 1, SQUARE, [[2, 1], [0, 3], [1, 0], [3, 2]], np.ones(4))
        value, grad = sr.make_objective(self.problem(shuffled, shuffled))(
            SQUARE.reshape(-1).copy())
        assert value == 0.0 and np.all(grad == 0.0)


def mres_problem(start, max_iters=30, step=2e-4):
    return sr.FitProblem(
        mesh=sr.polygon_boundary_mesh(start),
        target=sr.polygon_boundary_mesh(SQUARE + [0.05, 0.0]),
        config=sr.RasterizeConfig(resolution=16, mode="auxnode"),
        schedule=sr.Schedule(step=step, max_iters=max_iters),
        loss="mres_smooth", mres_resolutions=(16, 8), smooth_weight=0.01)


def box_pose_problem(max_iters=4):
    """An l1 pose fit of a box cut into 6 tetrahedra, at R=8."""
    corners = 0.35 + 0.25 * np.array(list(itertools.product((0, 1), repeat=3)))
    tets = [np.cumsum([0] + [4 >> axis for axis in order])
            for order in itertools.permutations(range(3))]
    box = sr.SimplexMesh(3, 3, corners, tets, np.ones(6))
    turn = np.deg2rad(10.0)
    target = box.with_vertices(sr.quat_apply(
        sr.PoseQuat([np.cos(turn / 2), 0.0, 0.0, np.sin(turn / 2)], [0.02, 0, 0]),
        box.vertices))
    return sr.FitProblem(mesh=box, target=target, config=sr.RasterizeConfig(resolution=8),
                         schedule=sr.Schedule(step=2e-3, max_iters=max_iters),
                         variable="pose", loss="l1", pose=sr.PoseQuat([1, 0, 0, 0], [0, 0, 0]))


def rig_problem(max_iters=10):
    return sr.FitProblem(
        mesh=sr.polygon_boundary_mesh(SQUARE),
        target=sr.polygon_boundary_mesh(SQUARE + [0.06, 0.0]),
        config=sr.RasterizeConfig(resolution=16, mode="auxnode"),
        schedule=sr.Schedule(step=1e-4, max_iters=max_iters),
        variable="rig", rig=sr.make_rig(SQUARE, centers=[[0.35, 0.5], [0.65, 0.5]]))


@pytest.fixture
def pass_counts(monkeypatch):
    """Counts of the auxnode forward and backward passes."""
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sr.pipeline, "forward_auxnode",
                        counted("forward", sr.pipeline.forward_auxnode))
    monkeypatch.setattr(sr.pipeline, "backward_auxnode",
                        counted("backward", sr.pipeline.backward_auxnode))
    return calls


def without_memo(make_objective):
    """``make_objective`` whose probes and gradient calls go to two separate
    objectives, so no gradient call can reuse a probe's rasters."""
    def make(problem):
        probe, gradient = make_objective(problem), make_objective(problem)

        def objective(state, need_grad=True):
            return (gradient if need_grad else probe)(state, need_grad)
        return objective
    return make


class TestObjective:
    def test_calls_per_resolution(self, pass_counts):
        """A probe runs one forward for all resolutions; a gradient call at
        the probed state runs only one backward, once; any other gradient call
        runs both."""
        problem = mres_problem(SQUARE)
        objective = sr.make_objective(problem)
        assert pass_counts == {"forward": 1, "backward": 0}  # the target once
        state = problem.initial_state()
        for call_state, need_grad, forward, backward in (
                (state, False, 1, 0),  # probe
                (state, True, 0, 1),  # gradient at the probed state
                (state, True, 1, 1),  # again: the probe's rasters are used up
                (state + 0.01, True, 1, 1)):  # a new state
            pass_counts.update(forward=0, backward=0)
            _, grad = objective(call_state, need_grad=need_grad)
            assert (grad is not None) == need_grad
            assert pass_counts == {"forward": forward, "backward": backward}

    def test_fit_rasterizes_each_candidate_once(self, pass_counts, monkeypatch):
        """One forward for the target, the start and each line-search
        candidate, and one backward per accepted state, whatever the number
        of resolutions: accepting a candidate costs no forward."""
        probes = []
        make_objective = sr.optimizer.make_objective

        def counted(problem):
            objective = make_objective(problem)

            def call(state, need_grad=True):
                probes.append(not need_grad)
                return objective(state, need_grad)
            return call

        monkeypatch.setattr(sr.optimizer, "make_objective", counted)
        problem = mres_problem(SQUARE, max_iters=8, step=2e-3)  # oversized: some halve
        result = sr.fit(problem)
        accepted, candidates = len(result.trajectory) - 1, sum(probes)
        assert accepted == 8 and candidates > accepted
        assert pass_counts == {"forward": 1 + 1 + candidates, "backward": 1 + accepted}

    @pytest.mark.parametrize("make", [
        lambda: square_problem(step=0.05, max_iters=10),
        rig_problem,
        box_pose_problem,
        lambda: mres_problem(SQUARE, max_iters=8, step=2e-3),
    ], ids=["l2-vertices", "rig", "l1-pose", "mres_smooth"])
    def test_fit_bit_identical_without_memo(self, make, monkeypatch):
        with_memo = sr.fit(make())
        monkeypatch.setattr(sr.optimizer, "make_objective",
                            without_memo(sr.optimizer.make_objective))
        plain = sr.fit(make())
        assert len(with_memo.trajectory) > 2
        assert with_memo.losses.tolist() == plain.losses.tolist()
        assert np.array_equal([p.grad_norm for p in with_memo.trajectory],
                              [p.grad_norm for p in plain.trajectory])
        for a, b in zip(with_memo.trajectory, plain.trajectory):
            assert np.array_equal(a.state, b.state)

    @staticmethod
    def assert_same(result, expected):
        assert result[0] == expected[0]
        assert np.array_equal(result[1], expected[1])

    def test_state_edited_in_place_after_probe(self, pass_counts):
        problem = mres_problem(SQUARE)
        objective, state = sr.make_objective(problem), problem.initial_state()
        objective(state, need_grad=False)
        state[0] += 0.01
        pass_counts.update(forward=0)
        result = objective(state)
        assert pass_counts["forward"] == 1
        self.assert_same(result, sr.make_objective(problem)(state.copy()))

    def test_gradient_at_another_state_after_probe(self):
        problem = rig_problem()
        objective, state = sr.make_objective(problem), problem.initial_state()
        objective(state, need_grad=False)
        moved = state + 0.01
        self.assert_same(objective(moved), sr.make_objective(problem)(moved))

    def test_nan_probe_after_finite_probe(self, pass_counts):
        problem = mres_problem(SQUARE)
        objective, state = sr.make_objective(problem), problem.initial_state()
        objective(state, need_grad=False)
        value, grad = objective(np.full_like(state, np.nan), need_grad=False)
        assert np.isnan(value) and grad is None
        pass_counts.update(forward=0)
        result = objective(state)  # the finite probe's rasters are gone
        assert pass_counts["forward"] == 1
        self.assert_same(result, sr.make_objective(problem)(state))

    def test_value_equals_per_resolution_terms(self, rng):
        """At fixed states the objective's value is, bit for bit, the sum of
        the per-resolution raster terms from separate ``rasterize`` calls."""
        problem = mres_problem(SQUARE)
        objective, start = sr.make_objective(problem), problem.initial_state()
        target = sr.pipeline._ccw_loop(problem.target.vertices)
        configs = [replace(problem.config, resolution=r) for r in problem.mres_resolutions]
        for state in [start] + [start + rng.uniform(-0.02, 0.02, start.shape)
                                for _ in range(5)]:
            mesh = problem.geometry(state)
            expected = 0.0
            for cfg in configs:
                diff = sr.rasterize(mesh, cfg).values - sr.rasterize(target, cfg).values
                expected += sr.optimizer._raster_loss(diff, squared=False)[0]
            expected += problem.smooth_weight * sr.loss_smooth(mesh.vertices)[0]
            assert objective(state, need_grad=False)[0] == expected
            assert objective(state)[0] == expected

    def test_clockwise_start_matches_ccw_twin(self):
        cw = sr.fit(mres_problem(SQUARE[::-1] + [0.01, 0.02], max_iters=15))
        ccw = sr.fit(mres_problem(SQUARE + [0.01, 0.02], max_iters=15))
        assert len(cw.losses) == len(ccw.losses) == 16
        assert np.allclose(cw.losses, ccw.losses, rtol=1e-12, atol=0.0)
        assert np.allclose(cw.state.reshape(-1, 2)[::-1], ccw.state.reshape(-1, 2),
                           rtol=1e-12, atol=0.0)

    def test_matches_public_losses(self):
        start = SQUARE[::-1] + [[0.01, 0.0], [0.0, 0.02], [-0.01, 0.0], [0.0, 0.0]]
        problem = mres_problem(start)
        value, grad = sr.make_objective(problem)(problem.initial_state())
        target = SQUARE + [0.05, 0.0]
        mres, mres_grads = sr.loss_mres([(start, 16), (start, 8)], target, problem.config)
        smooth, smooth_grad = sr.loss_smooth(start)
        expected = mres + 0.01 * smooth
        expected_grad = mres_grads[0] + mres_grads[1] + 0.01 * smooth_grad
        assert abs(value - expected) <= 1e-12 * abs(expected)
        assert np.max(np.abs(grad - expected_grad.reshape(-1))) \
            <= 1e-12 * np.max(np.abs(expected_grad))
