"""Noise-prediction denoisers with exact Gaussian posteriors.

The ``Denoiser`` interface is the epsilon-prediction convention: given a
noisy latent at timestep ``t``, predict the unit Gaussian noise that the
forward process injected. ``AnalyticDenoiser`` is the Bayes-optimal such
predictor for a ``GaussianPrior``, evaluated exactly in the prior's
eigenbasis (AR(1) eigenvectors across frames, 2-D DFT across space), so
sampler and orchestration code can be verified against closed forms
without any trained network.

A text prompt enters only through the prior's mean. The prediction is
affine in that mean, so the classifier-free blend
``eps_m0 + w * (eps_m1 - eps_m0)`` at any weight ``w`` is exactly the
prediction of the prior with mean ``m0 + w * (m1 - m0)``: a conditioned
model is just another prior, and no sampler needs a conditioning path.
"""
from __future__ import annotations

from typing import Protocol

import numpy as np

from .schedule import NoiseSchedule, _check_timestep
from .synth import GaussianPrior, ar1_covariance


class Denoiser(Protocol):
    def predict_eps(self, z: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
        """Predict the injected unit noise; output shape equals input shape."""
        ...


class AnalyticDenoiser:
    """Exact posterior noise predictor for a separable Gaussian prior.

    With eigenvalues ``lam`` of the prior covariance, the prediction in the
    eigenbasis is ``eps_gain(ab)`` (``sqrt(1 - ab) / (ab * lam + 1 - ab)``)
    applied to ``z - sqrt(ab) * mean``. This form has no division by
    ``sqrt(1 - ab)`` and tends to zero as ``ab -> 1``, matching the
    noiseless limit. ``to_modes`` and ``from_modes`` are the orthonormal
    eigenbasis transform pair, on the half spectrum of the real 2-D DFT:
    the prior's ``S[k] == S[-k]`` symmetry makes those columns hold every
    distinct eigenvalue.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, prior: GaussianPrior):
        self.prior = prior
        F, _, _, W = prior.shape
        lam_t, u = np.linalg.eigh(ar1_covariance(F, prior.temporal_rho))
        # (F, F) orthogonal eigenvectors; at rho == 0 the covariance is
        # exactly the identity, and so is u, so the rotation is skipped.
        self._u = None if prior.temporal_rho == 0 else u
        # Combined eigenvalues broadcast over the (F, C, H, W // 2 + 1) modes.
        self._lam = (
            prior.variance_scale
            * lam_t[:, None, None, None]
            * prior.spatial_spectrum[None, None, :, : W // 2 + 1]
        )

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of ``v`` in the prior's eigenbasis."""
        m = np.fft.rfft2(v, axes=(-2, -1), norm="ortho")
        return m if self._u is None else _rotate(self._u.T, m)

    def from_modes(self, m: np.ndarray) -> np.ndarray:
        """The real latent with eigenbasis coordinates ``m``."""
        if self._u is not None:
            m = _rotate(self._u, m)
        return np.fft.irfft2(m, s=self.prior.shape[2:], axes=(-2, -1), norm="ortho")

    def eps_gain(self, ab: float) -> np.ndarray:
        """Per-mode noise-prediction gain at signal level ``ab``."""
        return np.sqrt(1.0 - ab) / (ab * self._lam + (1.0 - ab))

    def _check_shape(self, z: np.ndarray) -> None:
        if z.shape != self.prior.shape:
            raise ValueError(f"shape mismatch: {z.shape} vs prior {self.prior.shape}")

    def predict_eps(self, z: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
        self._check_shape(z)
        _check_timestep(s, t, lo=1)
        ab = s.alpha_bar[t]
        modes = self.to_modes(z - np.sqrt(ab) * self.prior.mean)
        modes *= self.eps_gain(ab)
        return self.from_modes(modes)


def _rotate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``u`` applied along the frame axis of the complex stack ``m``: one
    real GEMM on its interleaved (real, imaginary) float64 view."""
    flat = np.ascontiguousarray(m).view(np.float64).reshape(m.shape[0], -1)
    return (u @ flat).reshape(*m.shape[:-1], -1).view(np.complex128)
