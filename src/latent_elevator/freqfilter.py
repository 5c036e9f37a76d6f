"""Frequency-domain low-pass filtering of latent videos.

The temporal filter multiplies the DFT along the frame axis, independently
per channel and pixel, by a conjugate-symmetric gain mask and transforms
back; the optional spatial variant does the same over (H, W) per frame and
channel. Gains are capped at 1 and the DC gain is pinned to
1, so filtering never amplifies and never moves the per-pixel mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import _check_symmetric

TEMPORAL = "temporal"
SPATIAL = "spatial"


@dataclass(frozen=True)
class LowPassMask:
    """Per-bin gains along the frame axis, optionally also over (H, W)."""

    gains: np.ndarray
    spatial_gains: np.ndarray | None = None

    def __post_init__(self):
        for name in ("gains", "spatial_gains"):
            g = getattr(self, name)
            if g is None and name == "spatial_gains":
                continue
            g = np.asarray(g, dtype=np.float64)
            g.setflags(write=False)
            object.__setattr__(self, name, g)
            if g.flat[0] != 1.0:
                raise ValueError(f"{name}: gain at zero frequency must be 1")
            if np.any(g < 0) or np.any(g > 1):
                raise ValueError(f"{name}: gains must lie in [0, 1]")
            if not _check_symmetric(g):
                raise ValueError(f"{name}: gains must be conjugate-symmetric")

    @property
    def frames(self) -> int:
        return self.gains.shape[0]


def gaussian_mask(
    frames: int,
    d0: float,
    spatial_shape: tuple | None = None,
) -> LowPassMask:
    """Gaussian gains ``exp(-f^2 / (2 d0^2))`` over normalized frequency.

    ``spatial_shape=(H, W)`` adds 2-D gains with the same cutoff, which
    make ``lpff`` filter over (H, W) as well.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if not d0 > 0:
        raise ValueError(f"invalid d0: {d0}")
    f = np.fft.fftfreq(frames)
    spatial = None
    # A tiny d0 overflows the exponent to -inf, or underflows d0**2 to 0
    # and divides by it; both give the DC-only limit once DC is pinned to 1.
    # Squared as a numpy scalar, a huge d0 overflows d0**2 to inf, as d0 =
    # inf does, where a Python float's square would raise: every gain is
    # then 1. Both take the same pow, so a finite square keeps its bits.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        width = 2.0 * np.float64(d0) ** 2
        gains = np.exp(-(f ** 2) / width)
        if spatial_shape is not None:
            h, w = spatial_shape
            fy = np.fft.fftfreq(h)
            fx = np.fft.fftfreq(w)
            f2 = fy[:, None] ** 2 + fx[None, :] ** 2
            spatial = np.exp(-f2 / width)
            spatial[0, 0] = 1.0
    gains[0] = 1.0
    return LowPassMask(gains=gains, spatial_gains=spatial)


def check_axes(axes) -> tuple:
    """The filter axes as a tuple: temporal, optionally also spatial."""
    axes = tuple(axes)
    if TEMPORAL not in axes or not set(axes) <= {TEMPORAL, SPATIAL}:
        raise ValueError(f"axes must be (temporal,) or (temporal, spatial), got {axes}")
    return axes


def lpff(video: np.ndarray, mask: LowPassMask) -> np.ndarray:
    """Apply the mask along the frame axis, then over (H, W) when it has
    spatial gains; output is real, same shape.

    Symmetric gains make the temporal filter a real circulant F x F matrix,
    built from the filtered unit impulses and applied as one GEMM over all
    channels and pixels. At the recipe's 16 x 4 x 16 x 16 latent on a
    2-core host that took about 30 us, where a complex FFT and inverse over
    frames took 180 to 270 us and two latent-sized complex arrays. The
    spatial pass keeps numpy's 2-D FFT."""
    if video.ndim != 4:
        raise ValueError(f"expected (F, C, H, W) video, got shape {video.shape}")
    if mask.gains.shape[0] != video.shape[0]:
        raise ValueError(
            f"mask shape mismatch: {mask.gains.shape[0]} gains vs {video.shape[0]} frames"
        )
    if mask.spatial_gains is not None and mask.spatial_gains.shape != video.shape[2:]:
        raise ValueError(
            f"mask shape mismatch: spatial gains {mask.spatial_gains.shape} "
            f"vs frame {video.shape[2:]}"
        )
    frames = video.shape[0]
    circulant = np.fft.ifft(mask.gains[:, None] * np.fft.fft(np.eye(frames), axis=0), axis=0).real
    out = (circulant @ video.reshape(frames, -1)).reshape(video.shape)
    if mask.spatial_gains is not None:
        freq = np.fft.fft2(out, axes=(-2, -1))
        freq *= mask.spatial_gains
        out = np.fft.ifft2(freq, axes=(-2, -1)).real
    return out
