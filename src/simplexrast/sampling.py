"""Seeded generators for test meshes, polygons, and cotangents.

Random meshes keep vertices in [0.1, 0.9]^d so nothing sits near the
periodic wrap, draw element index tuples independently with degenerate
rejects, and sample densities in [0.5, 1.5].
"""

from __future__ import annotations

import numpy as np

from .meshcore import SimplexMesh, _batch_content

#: elements with content at or below this are redrawn
REJECT_CONTENT = 1e-3


def random_mesh(degree: int, dim: int, n_points: int, rng: np.random.Generator,
                channels: int = 1, n_elements: int | None = None) -> SimplexMesh:
    if degree > dim:
        raise ValueError("degree cannot exceed dimension")
    if n_points < degree + 1:
        raise ValueError("need at least degree+1 points")
    vertices = rng.uniform(0.1, 0.9, size=(n_points, dim))
    n_e = n_points if n_elements is None else n_elements
    rows = []
    while len(rows) < n_e:
        cand = rng.integers(0, n_points, size=degree + 1)
        if degree >= 1 and len(set(cand.tolist())) != degree + 1:
            continue
        if degree >= 1:
            c = float(_batch_content(vertices[cand][None])[0])
            if c <= REJECT_CONTENT:
                continue
        rows.append(cand)
    densities = rng.uniform(0.5, 1.5, size=(n_e, channels))
    return SimplexMesh(dim, degree, vertices, np.asarray(rows), densities)


def random_convex_polygon(n: int, rng: np.random.Generator) -> np.ndarray:
    """Convex CCW polygon: sorted angles on a random ellipse about (0.5, 0.5)."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) > 0.05:
            break
    a = rng.uniform(0.15, 0.35)
    b = rng.uniform(0.15, 0.35)
    return np.stack([0.5 + a * np.cos(angles), 0.5 + b * np.sin(angles)], axis=1)


def random_simple_polygon(n: int, rng: np.random.Generator) -> np.ndarray:
    """Star-shaped (hence simple) CCW polygon with random per-vertex radii."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) > 0.03:
            break
    radii = rng.uniform(0.12, 0.35, size=n)
    return np.stack([0.5 + radii * np.cos(angles), 0.5 + radii * np.sin(angles)], axis=1)


def random_raster_cotangent(dim: int, resolution: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(size=(resolution,) * dim + (1,))

