"""Frequency grids, Gaussian spectral filtering, and grid/raster transforms.

Conventions (declared, since they fix every numeric contract downstream):

* Modes are integer vectors; the last axis keeps only 0..floor(R/2)
  (Hermitian half-spectrum, numpy ``rfftn`` layout), other axes span one
  full period with the Nyquist value taken positive.  Wavevectors are
  ``k = 2 pi m`` per unit domain length.
* Coefficients are Fourier-series coefficients of the unit-periodic
  signal: synthesis is a plain sum (no 1/N), so raster values carry
  density units directly and the raster mean equals the DC coefficient.
* Raster samples sit at cell corners ``x = idx / R``.
* Fold weights w(m) count how often a stored mode appears in the implied
  full spectrum: 1 where the conjugate partner is itself a stored mode
  (last axis 0 or Nyquist), else 2.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class SpectralGrid:
    """Uniform half-spectrum mode layout for a cubic R^d raster."""

    dim: int
    resolution: int
    modes: np.ndarray = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @functools.cached_property
    def wavevectors(self) -> np.ndarray:
        return 2.0 * np.pi * self.modes.astype(np.float64)

    @functools.cached_property
    def fold_weights(self) -> np.ndarray:
        """Full-spectrum multiplicity of each stored mode (1 or 2)."""
        last = self.modes[:, -1]
        return np.where((2 * last) % self.resolution == 0, 1.0, 2.0)

    @property
    def half_shape(self) -> tuple[int, ...]:
        return (self.resolution,) * (self.dim - 1) + (self.resolution // 2 + 1,)

    def matches(self, other: "SpectralGrid") -> bool:
        return self.dim == other.dim and self.resolution == other.resolution


@functools.lru_cache(maxsize=64)
def build_grid(dim: int, resolution: int) -> SpectralGrid:
    """Half-spectrum grid with R^(d-1) * (floor(R/2)+1) modes."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    r = resolution
    # index q along a full axis carries frequency q, folded to (-(R-1)//2 .. R//2]
    full_axis = np.array([q if q <= r // 2 else q - r for q in range(r)], dtype=np.int64)
    half_axis = np.arange(r // 2 + 1, dtype=np.int64)
    axes = [full_axis] * (dim - 1) + [half_axis]
    mesh = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return SpectralGrid(dim=dim, resolution=r, modes=modes)


@dataclass
class SpectralField:
    """Complex coefficients on a grid, one column per density channel."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim == 1:
            self.coeffs = self.coeffs[:, None]
        if self.coeffs.shape[0] != self.grid.n_modes:
            raise ValueError(
                f"{self.coeffs.shape[0]} coefficients for {self.grid.n_modes} modes")

    @property
    def channels(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dc(self) -> np.ndarray:
        """DC coefficient per channel (the mode vector is all-zero)."""
        idx = np.nonzero(~self.modes_nonzero)[0]
        return self.coeffs[idx[0]]

    @functools.cached_property
    def modes_nonzero(self) -> np.ndarray:
        return np.any(self.grid.modes != 0, axis=1)


@dataclass
class Raster:
    """Real-valued R^d grid of filtered signal densities (trailing channel axis)."""

    dim: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.resolution,) * self.dim
        if self.values.shape == expected:
            self.values = self.values[..., None]
        if self.values.shape[:-1] != expected:
            raise ValueError(f"raster shape {self.values.shape} != {expected} + (channels,)")

    @property
    def channels(self) -> int:
        return self.values.shape[-1]


@dataclass
class GaussianFilter:
    """Low-pass gains exp(-2 pi^2 g^2 |m|^2 / R^2); unit gain at DC."""

    width_cells: float
    gains: np.ndarray


def gaussian_filter(grid: SpectralGrid, width_cells: float) -> GaussianFilter:
    if width_cells <= 0:
        raise ValueError("filter width must be positive")
    m2 = np.einsum("md,md->m", grid.modes, grid.modes).astype(np.float64)
    gains = np.exp(-2.0 * np.pi ** 2 * width_cells ** 2 * m2 / grid.resolution ** 2)
    return GaussianFilter(width_cells=width_cells, gains=gains)


def apply_filter(f: SpectralField, filt: GaussianFilter) -> SpectralField:
    if filt.gains.shape[0] != f.grid.n_modes:
        raise ValueError("filter was built for a different grid")
    return SpectralField(f.grid, f.coeffs * filt.gains[:, None])


# ---------------------------------------------------------------------------
# grid <-> raster transforms

def inverse_transform(f: SpectralField) -> Raster:
    """Synthesize the raster from the half-spectrum (fast transform path).

    values[idx] = Re sum_m F(m) exp(+2 pi i m . idx / R) over the full
    spectrum, the dropped half reconstructed by conjugation.
    """
    grid = f.grid
    r, d = grid.resolution, grid.dim
    half = f.coeffs.reshape(grid.half_shape + (f.channels,))
    half = np.moveaxis(half, -1, 0)  # channels first for the fft calls
    values = np.fft.irfftn(half, s=(r,) * d, axes=tuple(range(1, d + 1))) * float(r ** d)
    return Raster(dim=d, resolution=r, values=np.moveaxis(values, 0, -1))


def adjoint_transform(raster_values, grid: SpectralGrid) -> SpectralField:
    """Exact adjoint of :func:`inverse_transform` under the fold-weighted pairing.

    For every field F and raster g:
    ``sum_x inverse_transform(F) * g == sum_m w(m) Re[conj(A(m)) F(m)]``
    with A = adjoint_transform(g).  Concretely A(m) = sum_x g(x)
    exp(-2 pi i m . x / R), i.e. an unnormalized forward FFT.
    """
    if isinstance(raster_values, Raster):
        values = raster_values.values
    else:
        values = np.asarray(raster_values, dtype=np.float64)
    expected = (grid.resolution,) * grid.dim
    if values.shape == expected:
        values = values[..., None]
    if values.shape[:-1] != expected:
        raise ValueError(f"raster shape {values.shape} does not match grid {expected}")
    spec = np.fft.rfftn(np.moveaxis(values, -1, 0), axes=tuple(range(1, grid.dim + 1)))
    coeffs = np.moveaxis(spec, 0, -1).reshape(grid.n_modes, values.shape[-1])
    return SpectralField(grid, coeffs)


def spectral_inner(f: SpectralField, g: SpectralField) -> float:
    """Fold-weighted real pairing sum_m w(m) Re[conj(g) f], summed over channels."""
    if not f.grid.matches(g.grid):
        raise ValueError("fields live on different grids")
    w = f.grid.fold_weights
    return float(np.einsum("m,mc->", w, (np.conj(g.coeffs) * f.coeffs).real))


# ---------------------------------------------------------------------------
# raster files: raw little-endian float32 plus a JSON sidecar

def save_raster(raster: Raster, path) -> Path:
    path = Path(path)
    raster.values.astype("<f4").tofile(path)
    sidecar = path.with_name(path.name + ".json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"dim": raster.dim, "resolution": raster.resolution,
                   "channels": raster.channels}, fh)
        fh.write("\n")
    return sidecar


def load_raster(path) -> Raster:
    path = Path(path)
    sidecar = path.with_name(path.name + ".json")
    with open(sidecar, encoding="utf-8") as fh:
        meta = json.load(fh)
    dim, res, channels = int(meta["dim"]), int(meta["resolution"]), int(meta["channels"])
    values = np.fromfile(path, dtype="<f4").astype(np.float64)
    values = values.reshape((res,) * dim + (channels,))
    return Raster(dim=dim, resolution=res, values=values)


def save_pgm(raster: Raster, path) -> None:
    """8-bit PGM export of a 2D single-channel raster, clamped to [0, 1]."""
    if raster.dim != 2 or raster.channels != 1:
        raise ValueError("PGM export needs a 2D single-channel raster")
    img = np.clip(raster.values[..., 0], 0.0, 1.0)
    img = np.round(img * 255.0).astype(np.uint8)
    with open(Path(path), "wb") as fh:
        fh.write(f"P5 {img.shape[1]} {img.shape[0]} 255\n".encode("ascii"))
        fh.write(img.tobytes())
