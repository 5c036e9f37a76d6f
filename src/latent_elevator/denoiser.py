"""Noise-prediction denoisers with exact Gaussian posteriors.

The ``Denoiser`` interface is the epsilon-prediction convention: given a
noisy latent at timestep ``t``, predict the unit Gaussian noise that the
forward process injected. A denoiser owns the ``NoiseSchedule`` it was
trained on, and ``t`` indexes that schedule, so no caller hands a model a
schedule. ``AnalyticDenoiser`` is the Bayes-optimal such
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
from .workspace import _scratch


class Denoiser(Protocol):
    schedule: NoiseSchedule

    def predict_eps(self, z: np.ndarray, t: int) -> np.ndarray:
        """Predict the noise injected at timestep ``t`` of ``schedule``;
        output shape equals input shape."""
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
    distinct eigenvalue. Modes are laid out ``(F, C, W // 2 + 1, H)``, the
    half-spectrum axis before the height axis, so that every FFT pass runs
    along a contiguous axis. Timesteps index ``schedule``.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, prior: GaussianPrior, schedule: NoiseSchedule):
        self.prior = prior
        self.schedule = schedule
        F, C, H, W = prior.shape
        self._half_shape = (F, C, H, W // 2 + 1)  # after the rfft over W
        self._modes_shape = (F, C, W // 2 + 1, H)
        lam_t, u = np.linalg.eigh(ar1_covariance(F, prior.temporal_rho))
        # (F, F) orthogonal eigenvectors; at rho == 0 the covariance is
        # exactly the identity, and so is u, so the rotation is skipped.
        self._u = None if prior.temporal_rho == 0 else u
        # Combined eigenvalues broadcast over the (F, C, W // 2 + 1, H) modes.
        # A variance_scale near the float64 maximum, which the config
        # accepts, overflows some to inf, where eps_gain is exactly 0.
        with np.errstate(over="ignore"):
            self._lam = (
                prior.variance_scale
                * lam_t[:, None, None, None]
                * prior.spatial_spectrum[None, None, :, : W // 2 + 1].swapaxes(2, 3)
            )
        # Modes of the prior mean, None for the all-zero mean of every
        # configured prior: the affine part of predict_eps and of the
        # sampler's closed-form chains.
        self.mean_modes = None
        if np.any(prior.mean):
            self.mean_modes = self.to_modes(prior.mean)
            self.mean_modes.setflags(write=False)

    # numpy's FFT over the strided H axis of an (F, C, H, W // 2 + 1) half
    # spectrum took about 1.4 times as long as a transposing copy plus the
    # same pass along the contiguous last axis, with bit-identical results.
    # The passes run in two buffers of the calling thread's workspace,
    # "half" and "modes", of one size; the frame rotation writes into
    # whichever its input is not in. The public pair returns fresh arrays.
    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of ``v`` in the prior's eigenbasis."""
        return self._to_modes(v).copy()

    def _to_modes(self, v: np.ndarray) -> np.ndarray:
        """``to_modes`` in this thread's workspace: the result is valid until
        the thread's next transform."""
        half = _scratch("half", self._half_shape, np.complex128)
        np.fft.rfft(v, axis=-1, norm="ortho", out=half)
        m = _scratch("modes", self._modes_shape, np.complex128)
        np.copyto(m, half.swapaxes(2, 3))
        np.fft.fft(m, axis=-1, norm="ortho", out=m)
        if self._u is None:
            return m
        return _rotate(self._u.T, m, _scratch("half", self._modes_shape, np.complex128))

    def from_modes(self, m: np.ndarray) -> np.ndarray:
        """The real latent with eigenbasis coordinates ``m``, which may be
        ``_to_modes``'s workspace result."""
        spatial = _scratch("modes", self._modes_shape, np.complex128)
        if self._u is not None:
            m = _rotate(self._u, m, spatial)
        np.fft.ifft(m, axis=-1, norm="ortho", out=spatial)
        half = _scratch("half", self._half_shape, np.complex128)
        np.copyto(half, spatial.swapaxes(2, 3))
        return np.fft.irfft(half, n=self.prior.shape[3], axis=-1, norm="ortho")

    def eps_gain(self, ab: float) -> np.ndarray:
        """Per-mode noise-prediction gain at signal level ``ab``."""
        return np.sqrt(1.0 - ab) / (ab * self._lam + (1.0 - ab))

    def _check_shape(self, z: np.ndarray) -> None:
        if z.shape != self.prior.shape:
            raise ValueError(f"shape mismatch: {z.shape} vs prior {self.prior.shape}")

    def predict_eps(self, z: np.ndarray, t: int) -> np.ndarray:
        self._check_shape(z)
        _check_timestep(self.schedule, t, lo=1)
        ab = self.schedule.alpha_bar[t]
        modes = self._to_modes(z)
        if self.mean_modes is not None:
            modes -= np.sqrt(ab) * self.mean_modes
        modes *= self.eps_gain(ab)
        return self.from_modes(modes)


def _rotate(u: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``u`` applied along the frame axis of the complex stack ``m``, into the
    contiguous ``out``: one real GEMM on their interleaved (real, imaginary)
    float64 views."""
    flat = np.ascontiguousarray(m).view(np.float64).reshape(m.shape[0], -1)
    np.matmul(u, flat, out=out.view(np.float64).reshape(m.shape[0], -1))
    return out
