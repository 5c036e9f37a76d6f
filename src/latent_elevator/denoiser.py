"""Noise-prediction denoisers with exact Gaussian posteriors.

The ``Denoiser`` interface is the epsilon-prediction convention: given a
noisy latent at timestep ``t``, predict the unit Gaussian noise that the
forward process injected. ``AnalyticDenoiser`` is the Bayes-optimal such
predictor for a ``GaussianPrior``, evaluated exactly in the prior's
eigenbasis (AR(1) eigenvectors across frames, 2-D DFT across space), so
sampler and orchestration code can be verified against closed forms
without any trained network.

Conditioning is a mean shift: a conditioned prediction is the analytic
posterior of the prior with its mean translated by ``Condition.shift``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .schedule import NoiseSchedule, _check_timestep
from .synth import GaussianPrior, ar1_covariance, make_gp_prior


@dataclass(frozen=True)
class Condition:
    """Optional mean-shift conditioning plus a guidance weight.

    ``shift is None`` denotes the null condition.
    """

    shift: np.ndarray | None = None
    guidance_scale: float = 1.0

    def __post_init__(self):
        if self.shift is not None:
            shift = np.asarray(self.shift, dtype=np.float64)
            shift.setflags(write=False)
            object.__setattr__(self, "shift", shift)
        if self.guidance_scale < 0:
            raise ValueError("guidance_scale must be >= 0")

    @property
    def is_null(self) -> bool:
        return self.shift is None


NULL_CONDITION = Condition()


class Denoiser(Protocol):
    def predict_eps(
        self, z: np.ndarray, t: int, cond: Condition, s: NoiseSchedule
    ) -> np.ndarray:
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
        self._lam_t = lam_t       # (F,) eigenvalues of the temporal factor
        self._u = u               # (F, F) orthogonal eigenvectors
        # Combined eigenvalues broadcast over (F, C, H, W).
        self._lam = (
            prior.variance_scale
            * lam_t[:, None, None, None]
            * prior.spatial_spectrum[None, None, :, :]
        )

    def predict_eps(
        self, z: np.ndarray, t: int, cond: Condition | None, s: NoiseSchedule
    ) -> np.ndarray:
        if z.shape != self.prior.shape:
            raise ValueError(f"shape mismatch: {z.shape} vs prior {self.prior.shape}")
        _check_timestep(s, t, lo=1)
        mean = self.prior.mean
        if cond is not None and cond.shift is not None:
            if cond.shift.shape != self.prior.shape:
                raise ValueError("shape mismatch: condition shift vs prior shape")
            mean = mean + cond.shift
        ab = s.alpha_bar[t]
        v = z - np.sqrt(ab) * mean
        freq = np.fft.fft2(v, axes=(-2, -1), norm="ortho")
        modes = np.tensordot(self._u.T, freq, axes=(1, 0))
        modes *= np.sqrt(1.0 - ab) / (ab * self._lam + (1.0 - ab))
        back = np.tensordot(self._u, modes, axes=(1, 0))
        return np.fft.ifft2(back, axes=(-2, -1), norm="ortho").real


def cfg_eps(
    model: Denoiser,
    z_t: np.ndarray,
    t: int,
    cond: Condition | None,
    s: NoiseSchedule,
) -> np.ndarray:
    """Classifier-free guidance: ``eps(null) + w * (eps(cond) - eps(null))``.

    ``w == 1`` is the plain conditional prediction, ``w == 0`` the
    unconditional one; a null condition always reduces to one call.
    """
    if cond is None or cond.is_null:
        return model.predict_eps(z_t, t, NULL_CONDITION, s)
    w = cond.guidance_scale
    if w == 1.0:
        return model.predict_eps(z_t, t, cond, s)
    eps_uncond = model.predict_eps(z_t, t, NULL_CONDITION, s)
    if w == 0.0:
        return eps_uncond
    eps_cond = model.predict_eps(z_t, t, cond, s)
    return eps_uncond + w * (eps_cond - eps_uncond)


def make_t2v_toy(
    frames: int,
    channels: int,
    height: int,
    width: int,
    rho: float = 0.9,
    spectrum="lowpass",
    variance_scale: float = 1.0,
) -> AnalyticDenoiser:
    """Temporally coherent, spatially blurry toy video model: strong frame
    correlation, power concentrated at low spatial frequencies."""
    prior = make_gp_prior(frames, channels, height, width, rho, spectrum, variance_scale)
    return AnalyticDenoiser(prior)


def make_t2i_toy(
    frames: int,
    channels: int,
    height: int,
    width: int,
    spectrum="broadband",
    variance_scale: float = 1.0,
) -> AnalyticDenoiser:
    """Per-frame, detail-rich toy image model: independent frames, much more
    high-spatial-frequency power than the video toy."""
    prior = make_gp_prior(frames, channels, height, width, 0.0, spectrum, variance_scale)
    return AnalyticDenoiser(prior)
