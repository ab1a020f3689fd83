from dataclasses import replace

import numpy as np
import pytest

import simplexrast as sr
from simplexrast.deform import inverse_square_weights
import oracles


@pytest.fixture
def verts(rng):
    return rng.uniform(0.2, 0.8, (7, 2))


class TestLbsApply:
    def test_identity_at_rest(self, verts):
        rig = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.6]])
        assert np.abs(sr.lbs_apply(rig) - verts).max() <= 1e-12

    def test_pure_translation(self, verts):
        rig = sr.make_rig(verts, centers=[[0.5, 0.5]], controls=[[0.1, 0.0, 0.0]],
                          weights=np.ones((len(verts), 1)))
        assert np.abs(sr.lbs_apply(rig) - (verts + [0.1, 0.0])).max() <= 1e-12

    def test_pure_rotation_about_center(self, verts):
        c = np.array([0.4, 0.45])
        rig = sr.make_rig(verts, centers=[c], controls=[[0.0, 0.0, np.pi / 2]],
                          weights=np.ones((len(verts), 1)))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = (verts - c) @ rot.T + c
        assert np.abs(sr.lbs_apply(rig) - expected).max() <= 1e-12

    def test_shared_transform_equals_global(self, verts, rng):
        # weights sum to 1, so one transform on every control acts globally
        control = np.array([0.05, -0.08, 0.6])
        rig = sr.make_rig(verts, centers=[[0.3, 0.3], [0.6, 0.7], [0.8, 0.2]])
        rig = replace(rig, controls=np.tile(control, (3, 1)))
        out = sr.lbs_apply(rig)
        parts = []
        for m in range(3):
            single = sr.make_rig(verts, centers=rig.centers[m:m + 1],
                                 controls=control[None],
                                 weights=np.ones((len(verts), 1)))
            parts.append(sr.lbs_apply(single))
        blended = np.einsum("vm,mvd->vd", rig.weights, np.stack(parts))
        assert np.abs(out - blended).max() <= 1e-12

    def test_weight_validation(self, verts):
        bad = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.7]])
        bad = replace(bad, weights=bad.weights * 0.5)
        with pytest.raises(ValueError):
            sr.lbs_apply(bad)
        negative = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.7]])
        w = negative.weights.copy()
        w[0] = [1.5, -0.5]
        with pytest.raises(ValueError):
            sr.lbs_apply(replace(negative, weights=w))

    @pytest.mark.parametrize("rest", [np.zeros((4, 3)), np.zeros(12), np.zeros((2, 3, 2))],
                             ids=["3d", "flat", "stacked"])
    def test_rest_vertices_not_reshaped(self, rest):
        # 12 coordinates are not 6 planar vertices
        with pytest.raises(ValueError, match=r"rest_vertices .* got shape"):
            sr.ControlRig(np.zeros((1, 3)), [[0.5, 0.5]], np.ones((6, 1)), rest)
        with pytest.raises(ValueError, match=r"rest_vertices .* got shape"):
            sr.make_rig(rest, centers=[[0.5, 0.5]], weights=np.ones((6, 1)))

    @pytest.mark.parametrize("centers,controls,field", [
        ([[0.1, 0.2, 0.3, 0.4]], None, "centers"),  # four numbers are not two centers
        ([0.5, 0.5], None, "centers"),
        ([[0.5, 0.5]], [0.0, 0.0, 0.1], "controls"),
        ([[0.5, 0.5], [0.2, 0.2]], [[0.0, 0.0, 0.1, 0.2, 0.0, 0.0]], "controls"),
    ])
    def test_controls_and_centers_not_reshaped(self, verts, centers, controls, field):
        message = rf"{field} must be an \(n, [23]\) array, got shape"
        with pytest.raises(ValueError, match=message):
            sr.make_rig(verts, centers, controls=controls)
        with pytest.raises(ValueError, match=message):
            sr.ControlRig(np.zeros((1, 3)) if controls is None else controls, centers,
                          np.ones((len(verts), 1)), verts)

    def test_default_weights_normalized(self, verts):
        w = inverse_square_weights(verts, np.array([[0.2, 0.2], [0.8, 0.8]]))
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestLbsJacobian:
    def test_matches_finite_differences(self, verts, rng):
        rig = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.6], [0.2, 0.8]],
                          controls=rng.uniform(-0.3, 0.3, (3, 3)))
        h = 1e-6
        for v in (0, 4):
            jac = oracles.lbs_jacobian(rig, v)
            for m in range(3):
                for dof in range(3):
                    plus = rig.controls.copy()
                    plus[m, dof] += h
                    minus = rig.controls.copy()
                    minus[m, dof] -= h
                    fd = (sr.lbs_apply(replace(rig, controls=plus))[v]
                          - sr.lbs_apply(replace(rig, controls=minus))[v]) / (2 * h)
                    assert np.abs(jac[m, :, dof] - fd).max() <= 1e-6

    def test_zero_weight_zero_block(self, verts):
        weights = np.zeros((len(verts), 2))
        weights[:, 0] = 1.0
        rig = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.7]], weights=weights)
        jac = oracles.lbs_jacobian(rig, 2)
        assert np.all(jac[1] == 0.0)

    def test_rotation_column_perpendicular_at_rest(self, verts):
        rig = sr.make_rig(verts, centers=[[0.3, 0.3]], weights=np.ones((len(verts), 1)))
        jac = oracles.lbs_jacobian(rig, 0)
        rel = verts[0] - np.array([0.3, 0.3])
        assert jac[0, :, 2] @ rel == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(jac[0, :, 2], [-rel[1], rel[0]])


class TestLbsPullback:
    def test_zero_cotangent(self, verts):
        rig = sr.make_rig(verts, centers=[[0.3, 0.3], [0.7, 0.7]])
        assert np.all(sr.lbs_pullback(rig, np.zeros_like(verts)) == 0.0)

    def test_matches_finite_differences(self, verts, rng):
        rig = sr.make_rig(verts, centers=[[0.25, 0.3], [0.7, 0.65], [0.5, 0.15]],
                          controls=rng.uniform(-0.4, 0.4, (3, 3)))
        dv = rng.standard_normal(verts.shape)
        pull = sr.lbs_pullback(rig, dv)
        h = 1e-6
        fd = np.zeros((3, 3))
        for m in range(3):
            for dof in range(3):
                plus = rig.controls.copy()
                plus[m, dof] += h
                minus = rig.controls.copy()
                minus[m, dof] -= h
                fd[m, dof] = (np.sum(sr.lbs_apply(replace(rig, controls=plus)) * dv)
                              - np.sum(sr.lbs_apply(replace(rig, controls=minus)) * dv)) / (2 * h)
        assert np.abs(pull - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1.0)

    def test_uniform_cotangent_translation_rows(self, verts):
        rig = sr.make_rig(verts, centers=[[0.5, 0.5]], weights=np.ones((len(verts), 1)))
        dv = np.tile([1.0, 2.0], (len(verts), 1))
        pull = sr.lbs_pullback(rig, dv)
        assert pull[0, 0] == pytest.approx(len(verts) * 1.0)
        assert pull[0, 1] == pytest.approx(len(verts) * 2.0)


class TestQuat:
    def test_identity(self, rng):
        v = rng.uniform(0, 1, (9, 3))
        pose = sr.PoseQuat([1, 0, 0, 0], [0, 0, 0])
        assert np.array_equal(sr.quat_apply(pose, v), v)

    def test_quarter_turn_about_z(self, rng):
        v = rng.uniform(0, 1, (9, 3))
        a = np.cos(np.pi / 4)
        pose = sr.PoseQuat([a, 0, 0, np.sin(np.pi / 4)], [0, 0, 0])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = (v - 0.5) @ rot.T + 0.5
        assert np.abs(sr.quat_apply(pose, v) - expected).max() <= 1e-12

    def test_rigid_motion_preserves_distances(self, rng):
        v = rng.uniform(0, 1, (9, 3))
        pose = sr.PoseQuat(rng.standard_normal(4), rng.standard_normal(3))
        out = sr.quat_apply(pose, v)
        d0 = np.linalg.norm(v[:, None] - v[None], axis=-1)
        d1 = np.linalg.norm(out[:, None] - out[None], axis=-1)
        assert np.abs(d0 - d1).max() <= 1e-10

    def test_unnormalized_quaternion_normalized_internally(self, rng):
        v = rng.uniform(0, 1, (5, 3))
        pose_a = sr.PoseQuat([2, 0, 0, 0], [0, 0, 0])
        assert np.abs(sr.quat_apply(pose_a, v) - v).max() <= 1e-12

    @pytest.mark.parametrize("field,value", [
        ("q", np.eye(2)), ("q", [1, 0, 0]), ("q", [np.nan, 0, 0, 1]), ("q", [[1, 0, 0, 0]]),
        ("t", [0, 0]), ("t", [0, np.inf, 0]), ("pivot", np.zeros((3, 1))),
        ("pivot", [0.5, 0.5, np.nan]),
    ])
    def test_pose_shape_and_finiteness(self, field, value):
        args = {"q": [1, 0, 0, 0], "t": [0, 0, 0], "pivot": None, field: value}
        with pytest.raises(ValueError, match=f"pose {field} must be"):
            sr.PoseQuat(**args)

    def test_tiny_norm_rejected(self, rng):
        with pytest.raises(ValueError):
            sr.quat_apply(sr.PoseQuat([1e-9, 0, 0, 0], [0, 0, 0]), rng.random((3, 3)))

    def test_pullback_matches_finite_differences(self, rng):
        v = rng.uniform(0, 1, (9, 3))
        pose = sr.PoseQuat(rng.standard_normal(4), 0.1 * rng.standard_normal(3))
        dv = rng.standard_normal(v.shape)
        d_q, d_t = sr.quat_pullback(pose, v, dv)

        def loss(q, t):
            return float(np.sum(sr.quat_apply(sr.PoseQuat(q, t, pose.pivot), v) * dv))

        h = 1e-6
        for i in range(4):
            plus = pose.q.copy()
            plus[i] += h
            minus = pose.q.copy()
            minus[i] -= h
            fd = (loss(plus, pose.t) - loss(minus, pose.t)) / (2 * h)
            assert d_q[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        for i in range(3):
            plus = pose.t.copy()
            plus[i] += h
            minus = pose.t.copy()
            minus[i] -= h
            fd = (loss(pose.q, plus) - loss(pose.q, minus)) / (2 * h)
            assert d_t[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_custom_pivot(self, rng):
        v = rng.uniform(0, 1, (5, 3))
        pivot = np.array([0.2, 0.1, 0.9])
        a = np.cos(np.pi / 4)
        pose = sr.PoseQuat([a, 0, 0, np.sin(np.pi / 4)], [0, 0, 0], pivot)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = (v - pivot) @ rot.T + pivot
        assert np.abs(sr.quat_apply(pose, v) - expected).max() <= 1e-12
