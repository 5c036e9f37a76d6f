"""DDIM stepping, inversion, sampling chains, and partial re-noising.

``ddim_step`` is the one denoising step for any ``Denoiser``: it projects
to clean with the model's noise estimate and re-noises to its target with
that same estimate, deterministically. Every step and chain runs under
the stepping model's own schedule, ``model.schedule``, and none takes a
schedule of its own; only the schedule-level helpers (``_hop``,
``_check_order``, ``forward_diffuse``) do. The chains ``ddim_sample``,
``ddim_invert`` and ``sdedit_chain`` each walk one whole ``TimestepGrid``
and take an ``AnalyticDenoiser``: under it every step and inversion hop
is affine and diagonal in the prior's eigenbasis, so each chain composes
into one gain and offset per eigenmode and calls no model. The paper's
method works with any denoiser; the chains rely on this repo's video
model and uninflated image posterior being analytic, while the inflated
image model and the baselines step with ``ddim_step``. Randomness enters
only through the ``numpy.random.Generator`` that ``sdedit_chain`` draws
its forward noise from.
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
from .workspace import _scratch


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


def ddim_step(model: Denoiser, z_t: np.ndarray, t: int, t_prev: int) -> np.ndarray:
    """One deterministic denoising step from ``t`` down to ``t_prev``:
    ``sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev) * eps_hat``, with the
    noise estimate evaluated at ``t``. Computed as the hop ``(r_b / r_a) *
    z + k * eps`` (see ``_hop``) in one fresh array, with ``k * eps`` in
    the calling thread's workspace, leaving the model's returned ``eps``
    unwritten."""
    s = model.schedule
    _check_order(t, t_prev, s)
    eps = model.predict_eps(z_t, t)
    _check_same_shape(z_t, eps)
    z_gain, k = _hop(s, t, t_prev)
    out = np.multiply(z_t, z_gain)
    out += np.multiply(eps, k, out=_scratch("latent", eps.shape, np.result_type(eps, k)))
    return out


def ddim_sample(model: AnalyticDenoiser, z_init: np.ndarray, grid: TimestepGrid) -> np.ndarray:
    """Run the full chain from ``grid.steps[0]`` down to a clean latent, in
    closed form; on a one-step grid that is the clean projection, and an
    empty grid returns ``z_init`` itself."""
    return _chain(model, z_init, grid, invert=False)


def ddim_invert(model: AnalyticDenoiser, z0: np.ndarray, grid: TimestepGrid) -> np.ndarray:
    """Invert a clean latent up the whole grid to ``grid.steps[0]`` in
    closed form, calling no model: ``ddim_sample``'s hops walked upward
    from 0, each projecting to clean and re-noising with one noise
    estimate, the model's at the hop's target on its current latent."""
    return _chain(model, z0, grid, invert=True)


def _chain(model: AnalyticDenoiser, z: np.ndarray, grid: TimestepGrid, invert: bool) -> np.ndarray:
    """The grid's hops ``(a, b)`` from ``a`` to ``b`` composed into one map
    per eigenmode, no model call: ``grid.hops()`` down to 0, or (``invert``)
    the same hops reversed, each with its ends swapped, up from 0.

    With ``r = sqrt(ab)``, ``q = sqrt(1 - ab)`` and ``g = eps_gain(ab_e)`` at
    the noisier end ``e = max(a, b)``, a hop re-noises with ``eps = g * (z -
    r_e * mu)`` per eigenmode and maps ``z`` to ``(r_b / r_a + k * g) * z - k
    * g * r_e * mu`` with ``k = q_b - r_b * q_a / r_a``. At ``a = 0``
    (``r_a = 1``, ``q_a = 0``) that is exactly the inversion hop that takes
    ``z`` itself as the clean estimate. So the chain is ``gain * m + offset
    * mu`` per eigenmode, where ``m`` and ``mu`` are the modes of ``z`` and
    of the prior mean.

    A denoising hop has ``k < 0``, and under a prior of tiny variance its
    two gain terms cancel to rounding. Its gain is taken in the equal form
    ``(r_b / r_a) * f + q_b * g`` with ``f = ab_a * lam / (ab_a * lam + 1 -
    ab_a)``, whose terms are all non-negative; ``f`` is written ``1 / (1 +
    ((1 - ab_a) / ab_a) / lam)``, which reads 1 for an eigenvalue that
    overflowed to inf and 0 for one that underflowed to 0. An inversion
    hop has ``k > 0`` and keeps the first form. The offset is composed
    only for a prior with a nonzero mean.
    """
    if not grid.steps:
        return z
    model._check_shape(z)
    s = model.schedule
    _check_order(grid.steps[0], 0, s)  # a grid's steps descend, so this bounds every hop
    hops = [(b, a) for a, b in reversed(list(grid.hops()))] if invert else grid.hops()
    gain, offset = 1.0, 0.0
    for a, b in hops:
        e = max(a, b)
        z_gain, k = _hop(s, a, b)
        g = model.eps_gain(s.alpha_bar[e])
        if invert:
            hop_gain = z_gain + k * g
        else:
            ab_a = s.alpha_bar[a]
            with np.errstate(divide="ignore", over="ignore"):
                f = 1.0 / (1.0 + (1.0 - ab_a) / ab_a / model._lam)
            hop_gain = z_gain * f + np.sqrt(1.0 - s.alpha_bar[b]) * g
        gain = hop_gain * gain
        if model.mean_modes is not None:
            offset = hop_gain * offset - k * g * np.sqrt(s.alpha_bar[e])
    modes = model._to_modes(z)
    modes *= gain
    if model.mean_modes is not None:
        modes += offset * model.mean_modes
    return model.from_modes(modes)


def sdedit_chain(
    model: AnalyticDenoiser, z_clean: np.ndarray, grid: TimestepGrid, rng: np.random.Generator
) -> np.ndarray:
    """SDEdit: forward-diffuse to ``grid.steps[0]`` with one fresh draw of
    noise, then denoise down the whole grid to a clean latent in closed
    form."""
    eps = rng.standard_normal(z_clean.shape)
    return ddim_sample(model, forward_diffuse(z_clean, grid.steps[0], eps, model.schedule), grid)
