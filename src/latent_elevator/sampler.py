"""DDIM stepping, inversion, sampling loops, and partial re-noising.

All loops walk a ``TimestepGrid`` and are parameterized by a schedule and
a denoiser. Randomness enters only through an explicitly passed
``numpy.random.Generator``; with ``eta == 0`` no random numbers are drawn
at all, so deterministic runs are seed-independent by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser
from .schedule import NoiseSchedule, TimestepGrid, forward_diffuse, project_clean


@dataclass(frozen=True)
class SamplerConfig:
    """Stochasticity of one model's steps.

    ``eta`` scales the per-step noise: 0 is the deterministic sampler, 1
    recovers ancestral sampling.
    """

    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


def step_sigma(s: NoiseSchedule, t: int, t_prev: int, eta: float) -> float:
    """Noise scale of one stochastic step; zero when ``eta == 0`` or the
    step lands on a clean latent."""
    ab_t = s.alpha_bar[t]
    ab_prev = s.alpha_bar[t_prev]
    return float(
        eta * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t)) * np.sqrt(1.0 - ab_t / ab_prev)
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
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One denoising step from ``t`` down to ``t_prev``.

    Deterministic part: ``sqrt(ab_prev) * z0_hat +
    sqrt(1 - ab_prev - sigma^2) * eps_hat``; the remaining ``sigma``
    portion of the variance is filled with fresh noise.
    """
    _check_order(t, t_prev, s)
    eps_hat = model.predict_eps(z_t, t, s)
    z0_hat = project_clean(z_t, eps_hat, t, s)
    sigma = step_sigma(s, t, t_prev, cfg.eta)
    ab_prev = s.alpha_bar[t_prev]
    dir_coef = np.sqrt(max(1.0 - ab_prev - sigma * sigma, 0.0))
    out = np.sqrt(ab_prev) * z0_hat + dir_coef * eps_hat
    if sigma > 0.0:
        if rng is None:
            raise ValueError("eta > 0 requires a random generator")
        out = out + sigma * rng.standard_normal(z_t.shape)
    return out


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
    eps_hat = model.predict_eps(z, t_to, s)
    z0_hat = z if t_from == 0 else project_clean(z, eps_hat, t_from, s)
    return forward_diffuse(z0_hat, t_to, eps_hat, s)


def ddim_sample(
    model: Denoiser,
    z_init: np.ndarray,
    grid: TimestepGrid,
    s: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Run the full chain from ``grid.steps[0]`` down to a clean latent."""
    z = z_init
    for t, t_prev in grid.hops():
        z = ddim_step(model, z, t, t_prev, s, cfg, rng)
    return z


def ddim_invert(
    model: Denoiser,
    z0: np.ndarray,
    grid: TimestepGrid,
    target_t: int,
    s: NoiseSchedule,
) -> np.ndarray:
    """Invert a clean latent up the grid to ``target_t``, traversing it
    ascending from 0."""
    ascending = [0, *reversed(grid.steps[grid.index_of(target_t):])]
    z = z0
    for a, b in zip(ascending[:-1], ascending[1:]):
        z = ddim_invert_step(model, z, a, b, s)
    return z


def sdedit_chain(
    model: Denoiser,
    z_clean: np.ndarray,
    chain: list,
    s: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple:
    """Forward-diffuse to ``chain[0]`` with fresh noise, then step down the
    remaining chain (last entry may be 0). Returns ``(latent, t_out)``."""
    if not chain:
        return z_clean, 0
    t0 = chain[0]
    eps = rng.standard_normal(z_clean.shape)
    z = forward_diffuse(z_clean, t0, eps, s)
    cur = t0
    for nxt in chain[1:]:
        z = ddim_step(model, z, cur, nxt, s, cfg, rng)
        cur = nxt
    return z, cur

