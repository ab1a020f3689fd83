import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexrast as sr
from simplexrast.meshcore import _batch_content, _element_weights, _weight_gradients
import oracles
from conftest import random_rotation

UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def make_triangle_mesh():
    return sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 2]], [1.0])


class TestContent:
    def test_right_triangle_area(self):
        assert sr.content(UNIT_TRIANGLE) == pytest.approx(0.5, rel=1e-12)

    def test_segment_length(self):
        assert sr.content([[0, 0], [3, 4]]) == pytest.approx(5.0, rel=1e-12)

    def test_unit_orthogonal_tet(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert sr.content(pts) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_point_convention(self):
        assert sr.content([[0.3, 0.7]]) == 1.0

    def test_degenerate_clamps_to_zero(self):
        assert sr.content([[0, 0], [1, 0], [2, 0]]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sr.content([[0, 0], [1, 0], [0, 1], [1, 1]])  # j=3 in 2D

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sr.content([[0, np.nan], [1, 0]])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            j = rng.integers(1, 4)
            d = int(rng.integers(max(2, j), 4))
            pts = rng.uniform(0, 1, (j + 1, d))
            rot = random_rotation(d, rng)
            t = rng.uniform(-2, 2, d)
            c0 = sr.content(pts)
            c1 = sr.content(pts @ rot.T + t)
            assert abs(c1 - c0) <= 1e-9 * max(c0, 1e-12)

    def test_matches_edge_matrix_determinant_when_j_equals_d(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            j = int(rng.integers(2, 4))
            pts = rng.uniform(0, 1, (j + 1, j))
            edges = pts[1:] - pts[0]
            ref = abs(np.linalg.det(edges)) / math.factorial(j)
            if ref < 1e-6:
                continue
            assert sr.content(pts) == pytest.approx(ref, rel=1e-12)


class TestDistortion:
    def test_unit_orthogonal_triangle(self):
        assert oracles.distortion_factor(UNIT_TRIANGLE) == pytest.approx(1.0, rel=1e-12)

    def test_area_one_triangle(self):
        pts = [[0, 0], [2, 0], [0, 1]]  # area 1
        assert oracles.distortion_factor(pts) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate(self):
        assert oracles.distortion_factor([[0, 0], [1, 0], [2, 0]]) == 0.0


class TestSignedDistortion:
    def test_identity_jacobian(self):
        assert oracles.signed_distortion([[1, 0], [0, 1]]) == pytest.approx(2.0)

    def test_swapped_rows_negate(self):
        assert oracles.signed_distortion([[0, 1], [1, 0]]) == pytest.approx(-2.0)

    def test_unit_axes_3d(self):
        assert oracles.signed_distortion(np.eye(3)) == pytest.approx(6.0)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            oracles.signed_distortion([[1, 0, 0], [0, 1, 0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10_000))
    def test_transposition_flips_sign(self, j, seed):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-1, 1, (j, j))
        a, b = rng.choice(j, size=2, replace=False)
        swapped = offsets.copy()
        swapped[[a, b]] = swapped[[b, a]]
        assert oracles.signed_distortion(swapped) == pytest.approx(
            -oracles.signed_distortion(offsets), rel=1e-9, abs=1e-12)

    def test_magnitude_is_factorial_times_distortion(self):
        # The auxiliary simplex (origin, rows) has distortion |det|; the
        # signed value carries the extra j! of its defining formula.
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = int(rng.integers(2, 4))
            offsets = rng.uniform(-1, 1, (j, j))
            aux = np.vstack([np.zeros(j), offsets])
            gamma = oracles.distortion_factor(aux)
            assert abs(oracles.signed_distortion(offsets)) == pytest.approx(
                math.factorial(j) * gamma, rel=1e-9)


class TestGeometry:
    def test_element_geometry_fields(self):
        geo = oracles.element_geometry(UNIT_TRIANGLE)
        assert geo.content == pytest.approx(0.5)
        assert geo.distortion == pytest.approx(1.0)
        b = geo.cayley_menger
        assert b.shape == (4, 4)
        assert np.allclose(b, b.T)
        assert np.all(np.diag(b) == 0)
        assert np.all(b[0, 1:] == 1)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            a = rng.standard_normal((n, n))
            adj = oracles.adjugate(a)
            assert np.allclose(a @ adj, np.linalg.det(a) * np.eye(n), atol=1e-9)

    def test_adjugate_singular_fallback(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])  # rank 2
        adj = oracles.adjugate(a)
        assert np.allclose(a @ adj, np.zeros((3, 3)), atol=1e-12)
        assert not np.allclose(adj, 0)


@pytest.mark.parametrize("j, d, auxnode", [
    (0, 2, False), (1, 2, False), (2, 2, False),
    (0, 3, False), (1, 3, False), (2, 3, False), (3, 3, False),
    (2, 2, True), (3, 3, True)])
def test_weights_match_cayley_menger_oracle(j, d, auxnode):
    """Element weights and their vertex gradients against the Cayley-Menger
    oracle.  An auxiliary simplex's weight det J is the signed distortion of
    (origin, x_1..x_j), and its slots are the oracle's slots 1..j."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (60, j + 1 - auxnode, d))
    full = np.concatenate([np.zeros((60, 1, d)), pts], axis=1) if auxnode else pts
    keep = [oracles.cm_content(p) > 1e-3 for p in full]
    pts, full = pts[keep], full[keep]
    weights = _element_weights(pts, auxnode)
    dweights, degenerate = _weight_gradients(pts, weights, auxnode)
    assert not degenerate.any()
    for e in range(len(pts)):
        sign = np.sign(weights[e]) if auxnode else 1.0
        gamma = oracles.cm_distortion(full[e])
        assert abs(sign * weights[e] - gamma) <= 1e-10 * gamma
        ref = np.array([sign * oracles.dgamma_dx(full[e], p + auxnode)
                        for p in range(pts.shape[1])])
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(dweights[e] - ref).max() <= 1e-10 * scale


class TestValidate:
    def test_well_formed(self):
        assert sr.validate(make_triangle_mesh()) == []

    def test_out_of_range_index(self):
        mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 3]], [1.0])
        violations = sr.validate(mesh)
        assert len(violations) == 1
        assert "out of range" in violations[0]

    def test_degenerate_strict_only(self):
        mesh = sr.SimplexMesh(2, 2, [[0, 0], [0.5, 0.0], [1, 0]], [[0, 1, 2]], [1.0])
        assert sr.validate(mesh) == []
        violations = sr.validate(mesh, strict=True)
        assert len(violations) == 1
        assert "degenerate" in violations[0]

    def test_repeated_vertex(self):
        mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 1]], [1.0])
        assert any("repeated" in v for v in sr.validate(mesh))

    def test_degree_exceeds_dim(self):
        mesh = sr.SimplexMesh(2, 3, UNIT_TRIANGLE[[0, 1, 2, 0]],
                              [[0, 1, 2, 3]], [1.0])
        assert any("exceeds dimension" in v for v in sr.validate(mesh))

    def test_outside_unit_box_flagged(self):
        mesh = sr.SimplexMesh(2, 2, [[0, 0], [1.5, 0], [0, 1]], [[0, 1, 2]], [1.0])
        assert any("unit box" in v for v in sr.validate(mesh))

    def test_boundary_coordinate_allowed(self):
        # exactly 1.0 aliases periodically to 0.0, not a violation
        assert sr.validate(make_triangle_mesh()) == []

    def test_nonfinite_vertex(self):
        mesh = sr.SimplexMesh(2, 2, [[0, 0], [np.inf, 0], [0, 1]], [[0, 1, 2]], [1.0])
        assert any("non-finite" in v for v in sr.validate(mesh))


class TestMeshJson:
    def test_roundtrip(self, tmp_path):
        mesh = make_triangle_mesh()
        path = tmp_path / "tri.json"
        sr.save_mesh(mesh, path)
        loaded = sr.load_mesh(path)
        assert loaded.dim == 2 and loaded.degree == 2
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.elements, mesh.elements)
        assert np.array_equal(loaded.densities, mesh.densities)

    def test_scalar_densities_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "dim": 2, "degree": 0, "vertices": [[0.1, 0.2], [0.3, 0.4]],
            "elements": [[0], [1]], "densities": [1.0, 2.0]}))
        mesh = sr.load_mesh(path)
        assert mesh.densities.shape == (2, 1)

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "degree": 0, "vertices": [[NaN, 0.0]], '
                        '"elements": [[0]], "densities": [1.0]}')
        with pytest.raises(ValueError):
            sr.load_mesh(path)

    def test_multichannel_roundtrip(self, tmp_path):
        mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 2]], [[1.0, 2.0]])
        path = tmp_path / "mc.json"
        sr.save_mesh(mesh, path)
        assert sr.load_mesh(path).densities.shape == (1, 2)


def test_total_mass():
    mesh = sr.SimplexMesh(2, 2, UNIT_TRIANGLE, [[0, 1, 2]], [[2.0]])
    assert oracles.total_mass(mesh)[0] == pytest.approx(1.0)


def test_element_contents_batch_matches_scalar():
    rng = np.random.default_rng(5)
    mesh = sr.random_mesh(2, 3, 12, rng)
    pts = mesh.element_points()
    batch = _batch_content(pts)
    singles = [sr.content(pts[i]) for i in range(mesh.n_elements)]
    assert np.allclose(batch, singles, rtol=1e-12)


class TestRandomMesh:
    @pytest.mark.parametrize("seed, degree, dim, n_points", [(11, 3, 3, 4), (67, 2, 2, 3)])
    def test_no_admissible_element_raises(self, seed, degree, dim, n_points):
        """Points whose every element is at or below ``REJECT_CONTENT`` stop
        the draw after ``REJECT_RUN`` rejections in a row, with an error
        naming the degree, the points and the threshold."""
        message = (rf"no degree-{degree} element of the {n_points} drawn points has "
                   rf"content above 0\.001")
        with pytest.raises(ValueError, match=message):
            sr.random_mesh(degree, dim, n_points, np.random.default_rng(seed))

    def test_draw_sequence_kept(self):
        """A mesh that can be drawn is the one drawn before the cap existed."""
        mesh = sr.random_mesh(3, 3, 4, np.random.default_rng(12))
        assert mesh.elements.tolist() == [[1, 2, 0, 3], [2, 3, 1, 0], [2, 1, 0, 3], [0, 2, 1, 3]]
        digest = hashlib.sha256(mesh.vertices.tobytes() + mesh.densities.tobytes())
        assert digest.hexdigest()[:12] == "22383597bb61"
