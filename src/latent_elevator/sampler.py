"""DDIM stepping, inversion, sampling chains, and partial re-noising.

``ddim_step`` is the one denoising step for any ``Denoiser``: it projects
to clean with the model's noise estimate and re-noises to its target with
that same estimate, deterministically. The chains ``ddim_sample``,
``ddim_invert`` and ``sdedit_chain`` walk a ``TimestepGrid`` and take an
``AnalyticDenoiser``: under it every step and inversion hop is affine and
diagonal in the prior's eigenbasis, so each chain composes into one gain
and offset per eigenmode and calls no model. The paper's method works with
any denoiser; the chains rely on this repo's video model and uninflated
image posterior being analytic, while the inflated image model and the
baselines step with ``ddim_step``. Randomness enters only through the
``numpy.random.Generator`` that ``sdedit_chain`` draws its forward noise
from.
"""
from __future__ import annotations

import numpy as np

from .denoiser import AnalyticDenoiser, Denoiser
from .schedule import (
    NoiseSchedule,
    TimestepGrid,
    _check_floor,
    _check_same_shape,
    forward_diffuse,
)


def _check_order(hi: int, lo: int, s: NoiseSchedule) -> None:
    if not hi > lo >= 0:
        raise ValueError(f"timestep order violation: need {hi} > {lo} >= 0")
    if hi > s.total_steps:
        raise ValueError(f"timestep out of range: {hi} > {s.total_steps}")


def _hop(s: NoiseSchedule, a: int, b: int) -> tuple:
    """``(r_b / r_a, k)`` with ``k = q_b - r_b * q_a / r_a``, where ``r =
    sqrt(ab)`` and ``q = sqrt(1 - ab)``: a hop from ``a`` to ``b`` that
    projects to clean and re-noises with one noise estimate ``eps`` maps
    ``z`` to ``(r_b / r_a) * z + k * eps``. Refuses an ``a`` below the
    alpha_bar floor, as the clean projection does."""
    _check_floor(s, a)
    r_a, q_a = np.sqrt(s.alpha_bar[a]), np.sqrt(1.0 - s.alpha_bar[a])
    r_b, q_b = np.sqrt(s.alpha_bar[b]), np.sqrt(1.0 - s.alpha_bar[b])
    return r_b / r_a, q_b - r_b * q_a / r_a


def ddim_step(
    model: Denoiser,
    z_t: np.ndarray,
    t: int,
    t_prev: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """One deterministic denoising step from ``t`` down to ``t_prev``:
    ``sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev) * eps_hat``, with the
    noise estimate evaluated at ``t``. Computed as the hop ``(r_b / r_a) *
    z + k * eps`` (see ``_hop``) in one fresh array, leaving the model's
    returned ``eps`` unwritten."""
    _check_order(t, t_prev, s)
    eps = model.predict_eps(z_t, t, s)
    _check_same_shape(z_t, eps)
    z_gain, k = _hop(s, t, t_prev)
    out = np.multiply(z_t, z_gain)
    out += k * eps
    return out


def ddim_sample(
    model: AnalyticDenoiser,
    z_init: np.ndarray,
    grid: TimestepGrid,
    s: NoiseSchedule,
) -> np.ndarray:
    """Run the full chain from ``grid.steps[0]`` down to a clean latent, in
    closed form."""
    return _chain(model, z_init, list(grid.hops()), s, invert=False)


def ddim_invert(
    model: AnalyticDenoiser,
    z0: np.ndarray,
    grid: TimestepGrid,
    target_t: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """Invert a clean latent up the grid to ``target_t`` in closed form,
    calling no model. The hops ascend the grid from 0; each projects to
    clean and re-noises with one noise estimate, the model's at the hop's
    target on its current latent."""
    ascending = [0, *reversed(grid.steps[grid.index_of(target_t):])]
    return _chain(model, z0, list(zip(ascending[:-1], ascending[1:])), s, invert=True)


def _chain(
    model: AnalyticDenoiser,
    z: np.ndarray,
    hops: list,
    s: NoiseSchedule,
    invert: bool,
) -> np.ndarray:
    """Inversion (``invert``) or denoising hops ``(a, b)`` from ``a`` to
    ``b`` in turn, composed into one map per eigenmode; no model call.

    With ``r = sqrt(ab)``, ``q = sqrt(1 - ab)`` and ``g = eps_gain(ab_e)`` at
    the noisier end ``e = max(a, b)``, a hop re-noises with ``eps = g * (z -
    r_e * mu)`` per eigenmode and maps ``z`` to ``(r_b / r_a + k * g) * z - k
    * g * r_e * mu`` with ``k = q_b - r_b * q_a / r_a``. At ``a = 0``
    (``r_a = 1``, ``q_a = 0``) that is exactly the inversion hop that takes
    ``z`` itself as the clean estimate. So the chain is ``gain * m + offset
    * mu`` per eigenmode, where ``m`` and ``mu`` are the modes of ``z`` and
    of the prior mean.
    """
    if not hops:
        return z
    model._check_shape(z)
    gain, offset = 1.0, 0.0
    for a, b in hops:
        e, lo = (b, a) if invert else (a, b)
        _check_order(e, lo, s)
        z_gain, k = _hop(s, a, b)
        kg = k * model.eps_gain(s.alpha_bar[e])
        hop_gain = z_gain + kg
        gain, offset = hop_gain * gain, hop_gain * offset - kg * np.sqrt(s.alpha_bar[e])
    modes = model.to_modes(z)
    modes *= gain
    if model.mean_modes is not None:
        modes += offset * model.mean_modes
    return model.from_modes(modes)


def sdedit_chain(
    model: AnalyticDenoiser,
    z_clean: np.ndarray,
    chain: list,
    s: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple:
    """Forward-diffuse to ``chain[0]`` with fresh noise, then step down the
    remaining chain (last entry may be 0) in closed form. Returns
    ``(latent, t_out)``."""
    if not chain:
        return z_clean, 0
    eps = rng.standard_normal(z_clean.shape)
    z = forward_diffuse(z_clean, chain[0], eps, s)
    return _chain(model, z, list(zip(chain[:-1], chain[1:])), s, invert=False), chain[-1]
