"""Latent-space evaluation metrics for (F, C, H, W) videos.

These are desk-scale analogs computed directly on latents: adjacent-frame
cosine similarity for temporal consistency, temporal high-band energy
fraction for flicker, spatial high-band energy fraction for detail, and
an L1 distance between normalized spatial spectra for domain similarity.
Perceptual or embedding-based scores are deliberately absent. Every
metric is a scale-free ratio, taken on the latent rescaled by a power of
two so that any finite, nonzero scale measures the same.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .synth import GaussianPrior, spatial_frequency_grid

# The one threshold of each banded metric, so every run's metrics compare:
# the temporal frequency magnitude (cycles per frame) above which energy
# counts as flicker, and the spatial one (cycles per pixel) above which it
# counts as detail. Each leaves DC below it and some bin above it at every
# accepted shape (F >= 2, H, W >= 2).
FLICKER_CUTOFF = 0.15
DETAIL_BAND = 0.10


@dataclass(frozen=True)
class MetricReport:
    frame_consistency: float
    flicker_energy: float
    spatial_detail: float
    spectrum_distance_t2i: float
    spectrum_distance_t2v: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def field_names() -> list:
        return [f.name for f in fields(MetricReport)]


def _unit_scale(v: np.ndarray, by: np.ndarray | None = None) -> np.ndarray:
    """``v`` times ``2**-e``, where ``2**e`` is the power of two just above
    ``max|by|`` (``by`` defaults to ``v``). Scaling by a power of two is
    exact, so a scale-free metric reads the same on the result bit for bit,
    while no sum of squares at a tiny or huge scale underflows or
    overflows. An all-zero ``v`` stays all-zero, and its metrics raise."""
    return np.ldexp(v, -_exponent(v if by is None else by))


def _exponent(v: np.ndarray) -> int:
    """The ``e`` of the power of two ``2**e`` just above ``max|v|``."""
    return int(np.frexp(np.max(np.abs(v)))[1])


def _relative_error(v: np.ndarray, ref: np.ndarray) -> float:
    """``||v - ref|| / ||ref||``, both scaled by ``ref``'s power of two,
    with ``einsum`` sums: unlike ``np.linalg.norm``'s BLAS dot they start no
    threads."""
    r = _unit_scale(ref).ravel()
    d = _unit_scale(v, ref).ravel() - r
    return float(np.sqrt(np.einsum("i,i->", d, d) / np.einsum("i,i->", r, r)))


def frame_consistency(v: np.ndarray) -> float:
    """Mean cosine similarity between flattened adjacent frames."""
    return _frame_consistency(_unit_scale(v))


def _frame_consistency(v: np.ndarray) -> float:
    """``frame_consistency`` on ``v``'s own scale. The per-frame sums of
    products are ``einsum`` reductions, which hold no product array and,
    unlike ``np.dot``, never start BLAS threads."""
    if v.shape[0] < 2:
        raise ValueError("too few frames: need F >= 2")
    flat = v.reshape(v.shape[0], -1)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if np.any(norms == 0):
        raise ValueError("zero frame: cosine similarity undefined")
    dots = np.einsum("ij,ij->i", flat[:-1], flat[1:])
    return float(np.mean(dots / (norms[:-1] * norms[1:])))


def flicker_energy(v: np.ndarray, cutoff: float = FLICKER_CUTOFF) -> float:
    """Fraction of temporal-DFT energy above ``cutoff``, energy-weighted
    over channels and pixels; 0 for a constant-in-time video."""
    return _flicker_energy(_unit_scale(v), cutoff)


def _flicker_energy(v: np.ndarray, cutoff: float) -> float:
    if v.shape[0] < 2:
        raise ValueError("too few frames: need F >= 2")
    freq = np.fft.fft(v, axis=0)
    energy = np.abs(freq) ** 2
    total = energy.sum()
    if total == 0:
        raise ValueError("degenerate input: all-zero video")
    high = np.abs(np.fft.fftfreq(v.shape[0])) > cutoff
    return float(energy[high].sum() / total)


def spatial_detail(v: np.ndarray, band: float = DETAIL_BAND) -> float:
    """Per-frame fraction of spatial-DFT energy beyond frequency magnitude
    ``band``, averaged over frames."""
    return _spatial_detail(_bin_energy(_unit_scale(v)), band)


def spectrum_distance(v: np.ndarray, prior: GaussianPrior) -> float:
    """L1 distance between the video's normalized mean per-bin spatial
    energy and the prior's normalized spectrum."""
    return _spectrum_distance(_bin_energy(_unit_scale(v)), prior)


def _bin_energy(v: np.ndarray) -> np.ndarray:
    """Spatial-DFT energy per frame and bin, channels pooled: ``(F, H, W)``.
    The spatial metrics are ratios of its sums, so its scale is free. A real
    frame's spectrum has ``|X[-k]| == |X[k]|``, so the columns past ``W // 2``
    mirror the half spectrum's."""
    h, w = v.shape[-2:]
    half = (np.abs(np.fft.rfft2(v, axes=(-2, -1))) ** 2).sum(axis=1)
    mirror = half[:, -np.arange(h) % h][:, :, w - np.arange(w // 2 + 1, w)]
    return np.concatenate([half, mirror], axis=-1)


def _spatial_detail(energy: np.ndarray, band: float) -> float:
    if energy.shape[1] < 2 or energy.shape[2] < 2:
        raise ValueError("frames must be at least 2x2")
    per_frame_total = energy.sum(axis=(1, 2))
    if np.any(per_frame_total == 0):
        raise ValueError("degenerate input: all-zero frame")
    high = spatial_frequency_grid(*energy.shape[1:]) > band
    per_frame_high = energy[:, high].sum(axis=1)
    return float(np.mean(per_frame_high / per_frame_total))


def _spectrum_distance(energy: np.ndarray, prior: GaussianPrior) -> float:
    if energy.shape[1:] != prior.spatial_spectrum.shape:
        raise ValueError(
            f"shape mismatch: video {energy.shape[1:]} vs spectrum {prior.spatial_spectrum.shape}"
        )
    energy = energy.sum(axis=0)  # (H, W)
    total = energy.sum()
    if total == 0:
        raise ValueError("degenerate input: all-zero video")
    spec = prior.spatial_spectrum
    return float(np.abs(energy / total - spec / spec.sum()).sum())


def compute_report(v: np.ndarray, t2v_prior: GaussianPrior,
                   t2i_prior: GaussianPrior) -> MetricReport:
    """Every metric of ``v`` at the fixed thresholds, on one power-of-two
    rescaling of it; the spatial ones share one spatial spectrum."""
    v = _unit_scale(v)
    energy = _bin_energy(v)
    return MetricReport(
        frame_consistency=_frame_consistency(v),
        flicker_energy=_flicker_energy(v, FLICKER_CUTOFF),
        spatial_detail=_spatial_detail(energy, DETAIL_BAND),
        spectrum_distance_t2i=_spectrum_distance(energy, t2i_prior),
        spectrum_distance_t2v=_spectrum_distance(energy, t2v_prior),
    )
