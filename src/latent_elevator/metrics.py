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
    _, e = np.frexp(np.max(np.abs(v if by is None else by)))
    return np.ldexp(v, -e)


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


def flicker_energy(v: np.ndarray, cutoff: float = 0.15) -> float:
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


def spatial_detail(v: np.ndarray, band: float = 0.10) -> float:
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


def check_thresholds(shape, flicker_cutoff: float, detail_band: float) -> None:
    """Reject a threshold that measures nothing at an (F, C, H, W) shape:
    each must keep DC below it (``>= 0``) and some bin above it (below the
    largest frequency magnitude it thresholds)."""
    f, _, h, w = shape
    for name, value, top in (
        ("flicker_cutoff", flicker_cutoff, np.abs(np.fft.fftfreq(f)).max()),
        ("detail_band", detail_band, spatial_frequency_grid(h, w).max()),
    ):
        if not 0 <= value < top:
            raise ValueError(f"{name} must lie in [0, {top:.4g}) at shape {tuple(shape)}, "
                             f"got {value}")


def compute_report(
    v: np.ndarray,
    t2v_prior: GaussianPrior,
    t2i_prior: GaussianPrior,
    cutoff: float = 0.15,
    band: float = 0.10,
) -> MetricReport:
    """Every metric of ``v``, on one power-of-two rescaling of it; the
    spatial ones share one spatial spectrum."""
    v = _unit_scale(v)
    energy = _bin_energy(v)
    return MetricReport(
        frame_consistency=_frame_consistency(v),
        flicker_energy=_flicker_energy(v, cutoff),
        spatial_detail=_spatial_detail(energy, band),
        spectrum_distance_t2i=_spectrum_distance(energy, t2i_prior),
        spectrum_distance_t2v=_spectrum_distance(energy, t2v_prior),
    )
