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
    distinct eigenvalue. Each DFT pass is a real GEMM with a precomputed
    matrix. Modes are laid out ``(F, C, W // 2 + 1, H)``, the
    half-spectrum axis before the height axis, so that every pass runs
    along a contiguous axis. Timesteps index ``schedule``.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, prior: GaussianPrior, schedule: NoiseSchedule):
        self.prior = prior
        self.schedule = schedule
        F, C, H, W = prior.shape
        self._half_shape = (F, C, H, W // 2 + 1)  # after the W pass
        self._modes_shape = (F, C, W // 2 + 1, H)
        re, im = _dft(W, W // 2 + 1)
        # Hermitian weights: DC, and Nyquist at an even W, stand for one
        # column of the full spectrum, every other column for two. Their
        # sine rows are exactly 0, so like irfft the inverse ignores their
        # imaginary parts.
        k = np.arange(W // 2 + 1)[:, None]
        weight = np.where((k == 0) | (2 * k == W), 1.0, 2.0)
        self._rdft_w = np.stack([re, im], -1).reshape(W, -1)
        self._irdft_w = np.stack([weight * re.T, weight * im.T], 1).reshape(-1, W)
        re, im = _dft(H, H)
        self._dft_h, self._idft_h = _block(re, im), _block(re, -im)
        for a in (self._rdft_w, self._irdft_w, self._dft_h, self._idft_h):
            a.setflags(write=False)
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

    # Each DFT pass is one real GEMM with a matrix built once per model by
    # ``_dft``. The W pass maps real rows straight into the float64 view of
    # the complex half spectrum, and its inverse weighs the half spectrum's
    # columns as irfft does. The H pass runs along a contiguous axis after a
    # transposing copy, as the (2H, 2H) real block form of the complex DFT
    # on the interleaved view (a complex GEMM ran on two BLAS threads and
    # was slower). At 16 x 16 frames the four GEMMs take about 65 us of a
    # prediction where numpy's FFT passes took about 150 us (see README).
    # The passes run in two buffers of the calling thread's workspace,
    # "half" and "modes", of one size; each pass or frame rotation writes
    # into whichever its input is not in. The public pair returns fresh
    # arrays.
    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of ``v`` in the prior's eigenbasis."""
        return self._to_modes(v).copy()

    def _to_modes(self, v: np.ndarray) -> np.ndarray:
        """``to_modes`` in this thread's workspace: the result is valid until
        the thread's next transform."""
        half = _scratch("half", self._half_shape, np.complex128)
        np.matmul(v.reshape(-1, self.prior.shape[3]), self._rdft_w, out=_rows(half))
        m = _scratch("modes", self._modes_shape, np.complex128)
        np.copyto(m, half.swapaxes(2, 3))
        out = _scratch("half", self._modes_shape, np.complex128)
        np.matmul(_rows(m), self._dft_h, out=_rows(out))
        if self._u is None:
            return out
        return _rotate(self._u.T, out, m)

    def from_modes(self, m: np.ndarray) -> np.ndarray:
        """The real latent with eigenbasis coordinates ``m``, which may be
        ``_to_modes``'s workspace result."""
        if self._u is not None:
            m = _rotate(self._u, m, _scratch("half", self._modes_shape, np.complex128))
        spatial = _scratch("modes", self._modes_shape, np.complex128)
        np.matmul(_rows(m), self._idft_h, out=_rows(spatial))
        half = _scratch("half", self._half_shape, np.complex128)
        np.copyto(half, spatial.swapaxes(2, 3))
        return (_rows(half) @ self._irdft_w).reshape(self.prior.shape)

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


def _rows(a: np.ndarray) -> np.ndarray:
    """The complex stack ``a`` as rows of its interleaved (real, imaginary)
    float64 view along the last axis; a view when ``a`` is contiguous
    complex128, as every workspace buffer is."""
    a = np.ascontiguousarray(a, np.complex128)
    return a.view(np.float64).reshape(-1, 2 * a.shape[-1])


def _dft(n: int, cols: int) -> tuple:
    """Real and imaginary parts of the unitary DFT matrix
    ``exp(-2j pi j k / n) / sqrt(n)`` for ``j < n`` and ``k < cols``, from the
    exactly reduced angle index ``j k mod n``: exact 0 and +-1 at quarter
    turns."""
    r = np.outer(np.arange(n), np.arange(cols)) % n
    quarter, rest = np.divmod(4 * r, n)
    angle = 2.0 * np.pi * r / n
    cos = np.where(rest == 0, np.array([1.0, 0.0, -1.0, 0.0])[quarter], np.cos(angle))
    sin = np.where(rest == 0, np.array([0.0, 1.0, 0.0, -1.0])[quarter], np.sin(angle))
    return cos / np.sqrt(n), -sin / np.sqrt(n)


def _block(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real (2n, 2n) matrix that right-multiplies interleaved rows as the
    complex matrix ``re + 1j * im`` right-multiplies complex rows."""
    return np.stack([np.stack([re, im], -1), np.stack([-im, re], -1)], 1).reshape(
        2 * re.shape[0], -1)

