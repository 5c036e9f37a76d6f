"""Synthetic latent-video priors: separable Gaussian fields over (F, C, H, W).

The covariance factorizes as ``variance_scale * (AR1(F) x I_C x C_spatial)``:
an order-1 autoregressive process with lag-1 correlation ``temporal_rho``
across frames, independent channels, and a stationary spatial field whose
covariance is diagonal in the 2-D DFT basis with per-frequency variance
``spatial_spectrum``. Both factors have unit marginal variance (the
spectrum is normalized to mean 1), so every pixel of a sample has variance
``variance_scale``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPECTRUM_KINDS = ("lowpass", "broadband", "flat")

_SPECTRUM_KNEE = {"lowpass": 0.1, "broadband": 0.35}


def spatial_frequency_grid(height: int, width: int) -> np.ndarray:
    """Magnitude of the normalized 2-D frequency per DFT bin, in [0, ~0.707]."""
    fy = np.fft.fftfreq(height)
    fx = np.fft.fftfreq(width)
    return np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)


def spectrum_from_kind(kind: str, height: int, width: int) -> np.ndarray:
    """Per-frequency variance of one of the named spatial field families,
    normalized to unit pixel variance (mean over bins equals 1)."""
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"invalid params: unknown spectrum kind {kind!r}")
    f = spatial_frequency_grid(height, width)
    if kind == "flat":
        spec = np.ones_like(f)
    else:
        spec = 1.0 / (1.0 + (f / _SPECTRUM_KNEE[kind]) ** 4)
    return spec / spec.mean()


def _check_symmetric(a: np.ndarray) -> bool:
    """Whether ``a[k] == a[-k]`` on every axis, to 1e-12: the symmetry
    under frequency negation that keeps a spectrum's field real."""
    mirrored = a[np.ix_(*((-np.arange(n)) % n for n in a.shape))]
    return np.allclose(a, mirrored, rtol=0, atol=1e-12)


@dataclass(frozen=True)
class GaussianPrior:
    """Mean plus separable covariance of a latent-video distribution."""

    shape: tuple
    mean: np.ndarray
    temporal_rho: float
    spatial_spectrum: np.ndarray
    variance_scale: float

    def __post_init__(self):
        shape = tuple(int(x) for x in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != 4 or any(d < 1 for d in shape):
            raise ValueError(f"invalid prior: shape must be 4 positive ints, got {shape}")
        mean = np.asarray(self.mean, dtype=np.float64)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        if mean.shape != shape:
            raise ValueError(f"invalid prior: mean shape {mean.shape} != {shape}")
        spec = np.asarray(self.spatial_spectrum, dtype=np.float64)
        spec.setflags(write=False)
        object.__setattr__(self, "spatial_spectrum", spec)
        if spec.shape != shape[2:]:
            raise ValueError(f"invalid prior: spectrum shape {spec.shape} != {shape[2:]}")
        if np.any(spec <= 0):
            raise ValueError("invalid prior: spectrum entries must be > 0")
        if not _check_symmetric(spec):
            raise ValueError("invalid prior: spectrum must satisfy S[k] == S[-k]")
        if not abs(self.temporal_rho) < 1:
            raise ValueError("invalid prior: |temporal_rho| must be < 1")
        if not 0 <= self.variance_scale < np.inf:
            raise ValueError("invalid prior: variance_scale must be finite and >= 0")


def make_gp_prior(
    frames: int,
    channels: int,
    height: int,
    width: int,
    rho: float = 0.0,
    spectrum_kind="flat",
    variance_scale: float = 1.0,
    mean: np.ndarray | None = None,
) -> GaussianPrior:
    """Construct a prior from a named spectrum kind or an explicit spectrum."""
    if isinstance(spectrum_kind, str):
        spec = spectrum_from_kind(spectrum_kind, height, width)
    else:
        spec = np.asarray(spectrum_kind, dtype=np.float64)
    shape = (frames, channels, height, width)
    if mean is None:
        mean = np.zeros(shape)
    return GaussianPrior(
        shape=shape,
        mean=mean,
        temporal_rho=float(rho),
        spatial_spectrum=spec,
        variance_scale=float(variance_scale),
    )


def ar1_covariance(frames: int, rho: float) -> np.ndarray:
    """Frame-by-frame covariance ``rho ** |i - j|`` (unit marginals)."""
    idx = np.arange(frames)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _shape_spatial(white: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    # Apply the symmetric square root of the spatial covariance: filter the
    # white field by sqrt(spectrum) in the unitary DFT basis.
    freq = np.fft.fft2(white, axes=(-2, -1), norm="ortho")
    freq *= np.sqrt(spectrum)
    return np.fft.ifft2(freq, axes=(-2, -1), norm="ortho").real


def sample_prior(prior: GaussianPrior, rng: np.random.Generator) -> np.ndarray:
    """Exact draw from the prior via AR(1) recursion and spectral shaping."""
    F, C, H, W = prior.shape
    eps = rng.standard_normal((F, C, H, W))
    rho = prior.temporal_rho
    ar = np.empty_like(eps)
    ar[0] = eps[0]
    scale = np.sqrt(1.0 - rho * rho)
    for f in range(1, F):
        ar[f] = rho * ar[f - 1] + scale * eps[f]
    shaped = _shape_spatial(ar, prior.spatial_spectrum)
    return prior.mean + np.sqrt(prior.variance_scale) * shaped
