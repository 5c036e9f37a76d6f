"""DDIM stepping, inversion, sampling loops, and partial re-noising.

All loops walk a ``TimestepGrid`` and are parameterized by a schedule and
a denoiser. Every denoising step and inversion hop is deterministic and
draws nothing: it projects to clean with the model's noise estimate and
re-noises to its target with that same estimate. Randomness enters only
through the ``numpy.random.Generator`` that ``sdedit_chain`` draws its
forward noise from.

Under an ``AnalyticDenoiser`` every step and inversion hop is affine and
diagonal in the prior's eigenbasis, so ``ddim_sample``, ``ddim_invert`` and
the denoising part of ``sdedit_chain`` compose their whole chain into one
gain and offset per eigenmode and evaluate no model.
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


def ddim_step(
    model: Denoiser,
    z_t: np.ndarray,
    t: int,
    t_prev: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """One deterministic denoising step from ``t`` down to ``t_prev``:
    ``sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev) * eps_hat``, with the
    noise estimate evaluated at ``t``."""
    _check_order(t, t_prev, s)
    return _apply_hop(z_t, model.predict_eps(z_t, t, s), t, t_prev, s)


def ddim_invert_step(
    model: Denoiser,
    z: np.ndarray,
    t_from: int,
    t_to: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """One deterministic inversion hop from ``t_from`` up to ``t_to``.

    The noise estimate is the model's prediction at the target timestep of
    the hop, evaluated on the current latent; the same estimate is used
    both to project the current latent to clean and to re-noise it.
    """
    _check_order(t_to, t_from, s)
    return _apply_hop(z, model.predict_eps(z, t_to, s), t_from, t_to, s)


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


def _apply_hop(z: np.ndarray, eps: np.ndarray, a: int, b: int, s: NoiseSchedule) -> np.ndarray:
    """``forward_diffuse(project_clean(z, eps, a, s), b, eps, s)`` (``z`` itself
    as the clean estimate at ``a = 0``) in one fresh array, leaving ``eps``
    unwritten."""
    _check_same_shape(z, eps)
    z_gain, k = _hop(s, a, b)
    out = np.multiply(z, z_gain)
    out += k * eps
    return out


def ddim_sample(
    model: Denoiser,
    z_init: np.ndarray,
    grid: TimestepGrid,
    s: NoiseSchedule,
) -> np.ndarray:
    """Run the full chain from ``grid.steps[0]`` down to a clean latent; in
    closed form for an ``AnalyticDenoiser``."""
    return _chain(model, z_init, list(grid.hops()), s, invert=False)


def ddim_invert(
    model: Denoiser,
    z0: np.ndarray,
    grid: TimestepGrid,
    target_t: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """Invert a clean latent up the grid to ``target_t``, traversing it
    ascending from 0 with ``ddim_invert_step`` hops; in closed form for an
    ``AnalyticDenoiser``."""
    ascending = [0, *reversed(grid.steps[grid.index_of(target_t):])]
    return _chain(model, z0, list(zip(ascending[:-1], ascending[1:])), s, invert=True)


def _chain(
    model: Denoiser,
    z: np.ndarray,
    hops: list,
    s: NoiseSchedule,
    invert: bool,
) -> np.ndarray:
    """``ddim_invert_step`` (``invert``) or ``ddim_step`` hops ``(a, b)``
    from ``a`` to ``b`` in turn, composed into one map for an
    ``AnalyticDenoiser``.

    With ``r = sqrt(ab)``, ``q = sqrt(1 - ab)`` and ``g = eps_gain(ab_e)`` at
    the noisier end ``e = max(a, b)``, a hop re-noises with ``eps = g * (z -
    r_e * mu)`` per eigenmode and maps ``z`` to ``(r_b / r_a + k * g) * z - k
    * g * r_e * mu`` with ``k = q_b - r_b * q_a / r_a``. At ``a = 0``
    (``r_a = 1``, ``q_a = 0``) that is exactly the inversion hop that takes
    ``z`` itself as the clean estimate. So the chain is ``gain * m + offset
    * mu`` per eigenmode, where ``m`` and ``mu`` are the modes of ``z`` and
    of the prior mean, and it evaluates no model.
    """
    if not hops or not isinstance(model, AnalyticDenoiser):
        step = ddim_invert_step if invert else ddim_step
        for a, b in hops:
            z = step(model, z, a, b, s)
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
    model: Denoiser,
    z_clean: np.ndarray,
    chain: list,
    s: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple:
    """Forward-diffuse to ``chain[0]`` with fresh noise, then step down the
    remaining chain (last entry may be 0), in closed form for an
    ``AnalyticDenoiser``. Returns ``(latent, t_out)``."""
    if not chain:
        return z_clean, 0
    eps = rng.standard_normal(z_clean.shape)
    z = forward_diffuse(z_clean, chain[0], eps, s)
    return _chain(model, z, list(zip(chain[:-1], chain[1:])), s, invert=False), chain[-1]
