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
    eigenbasis is ``sqrt(1 - ab) / (ab * lam + 1 - ab)`` applied to
    ``z - sqrt(ab) * mean``. This form has no division by ``sqrt(1 - ab)``
    and tends to zero as ``ab -> 1``, matching the noiseless limit.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, prior: GaussianPrior):
        self.prior = prior
        F = prior.shape[0]
        lam_t, u = np.linalg.eigh(ar1_covariance(F, prior.temporal_rho))
        self._u = u  # (F, F) orthogonal eigenvectors
        # Combined eigenvalues broadcast over (F, C, H, W).
        self._lam = (
            prior.variance_scale
            * lam_t[:, None, None, None]
            * prior.spatial_spectrum[None, None, :, :]
        )

    def predict_eps(self, z: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
        if z.shape != self.prior.shape:
            raise ValueError(f"shape mismatch: {z.shape} vs prior {self.prior.shape}")
        _check_timestep(s, t, lo=1)
        ab = s.alpha_bar[t]
        v = z - np.sqrt(ab) * self.prior.mean
        freq = np.fft.fft2(v, axes=(-2, -1), norm="ortho")
        modes = np.tensordot(self._u.T, freq, axes=(1, 0))
        modes *= np.sqrt(1.0 - ab) / (ab * self._lam + (1.0 - ab))
        back = np.tensordot(self._u, modes, axes=(1, 0))
        return np.fft.ifft2(back, axes=(-2, -1), norm="ortho").real

