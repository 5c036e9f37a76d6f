"""Noise schedules, the forward diffusion process, and timestep grids.

A latent video is a plain ``numpy`` array of shape ``(F, C, H, W)``
(frames, channels, height, width), float64, frame-major. Every function
here is pure; schedules and grids are immutable after construction.

Conventions:

- ``alpha_bar[t]`` is the cumulative signal coefficient at integer
  timestep ``t`` in ``[0, T]``, with ``alpha_bar[0] == 1`` exactly and
  ``alpha_bar`` strictly decreasing.
- The forward process draws ``z_t = sqrt(alpha_bar[t]) * z0 +
  sqrt(1 - alpha_bar[t]) * eps`` for ``eps ~ N(0, I)``.
- The clean-latent projection inverts that relation for a given noise
  estimate: ``z0_hat = (z_t - sqrt(1 - alpha_bar[t]) * eps_hat) /
  sqrt(alpha_bar[t])``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the params each schedule kind reads
SCHEDULE_PARAMS = {
    "linear_beta": ("beta_start", "beta_end"),
    "scaled_linear_beta": ("beta_start", "beta_end"),
    "cosine": (),
}

# alpha_bar floor below which the clean projection is refused rather than
# returning huge, meaningless values.
ALPHA_BAR_FLOOR = 1e-8


def _betas_for(kind: str, total_steps: int, **params) -> np.ndarray:
    if kind == "linear_beta":
        b0, b1 = params["beta_start"], params["beta_end"]
        _check_beta_range(b0, b1)
        return np.linspace(b0, b1, total_steps)
    if kind == "scaled_linear_beta":
        b0, b1 = params["beta_start"], params["beta_end"]
        _check_beta_range(b0, b1)
        return np.linspace(math.sqrt(b0), math.sqrt(b1), total_steps) ** 2
    if kind == "cosine":
        s = 0.008  # the offset of Nichol & Dhariwal 2021
        ts = np.arange(total_steps + 1) / total_steps
        bar = np.cos((ts + s) / (1 + s) * math.pi / 2) ** 2
        bar = bar / bar[0]
        betas = 1.0 - bar[1:] / bar[:-1]
        return np.clip(betas, 1e-8, 0.999)


def _check_beta_range(b0: float, b1: float) -> None:
    if not (0.0 < b0 < b1 < 1.0):
        raise ValueError(
            f"invalid params: need 0 < beta_start < beta_end < 1, got ({b0}, {b1})"
        )


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal coefficients ``alpha_bar[0..T]`` for one model."""

    total_steps: int
    alpha_bar: np.ndarray
    kind: str

    def __post_init__(self):
        bar = np.asarray(self.alpha_bar, dtype=np.float64)
        bar.setflags(write=False)
        object.__setattr__(self, "alpha_bar", bar)
        if self.total_steps < 1:
            raise ValueError("invalid params: total_steps must be >= 1")
        if bar.shape != (self.total_steps + 1,):
            raise ValueError("alpha_bar must have total_steps + 1 entries")
        if bar[0] != 1.0:
            raise ValueError("alpha_bar[0] must be exactly 1")
        if np.any(np.diff(bar) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if np.any(bar <= 0) or np.any(bar > 1):
            raise ValueError("alpha_bar entries must lie in (0, 1]")


@dataclass(frozen=True)
class TimestepGrid:
    """A strictly decreasing sampling subsequence plus its refining subset."""

    steps: tuple
    refine_set: frozenset = frozenset()

    def __post_init__(self):
        steps = tuple(int(t) for t in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "refine_set", frozenset(int(t) for t in self.refine_set))
        if any(t < 1 for t in steps):
            raise ValueError("grid steps must be >= 1")
        if any(nxt >= prev for prev, nxt in zip(steps[:-1], steps[1:])):
            raise ValueError("grid steps must be strictly decreasing")
        if not self.refine_set <= set(steps):
            raise ValueError("refine_set must be a subset of steps")

    def index_of(self, t: int) -> int:
        try:
            return self.steps.index(t)
        except ValueError:
            raise ValueError(f"timestep {t} is not on the grid") from None

    def hops(self):
        """``(t, t_prev)`` pairs down the grid, the last one ending at 0."""
        return zip(self.steps, self.steps[1:] + (0,))


def make_schedule(kind: str, total_steps: int, **params) -> NoiseSchedule:
    """Build a schedule of the given kind from exactly the params that kind
    reads; ``alpha_bar[t]`` is the running product of ``1 - beta_s`` for
    ``s <= t``."""
    if total_steps < 1:
        raise ValueError("invalid params: total_steps must be >= 1")
    if kind not in SCHEDULE_PARAMS:
        raise ValueError(f"invalid params: unknown schedule kind {kind!r}")
    if set(params) != set(SCHEDULE_PARAMS[kind]):
        raise ValueError(f"invalid params: kind {kind!r} reads {list(SCHEDULE_PARAMS[kind])}, "
                         f"got {sorted(params)}")
    betas = _betas_for(kind, total_steps, **params)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(total_steps=total_steps, alpha_bar=alpha_bar, kind=kind)


def _check_timestep(s: NoiseSchedule, t: int, lo: int) -> None:
    if not lo <= t <= s.total_steps:
        raise ValueError(f"timestep out of range: {t} not in [{lo}, {s.total_steps}]")


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def forward_diffuse(z0: np.ndarray, t: int, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Noise a clean latent to timestep ``t`` with the given unit noise."""
    _check_same_shape(z0, eps)
    _check_timestep(s, t, lo=0)
    ab = s.alpha_bar[t]
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def project_clean(z_t: np.ndarray, eps_pred: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
    """Estimate the clean latent from a noisy one and a noise prediction."""
    _check_same_shape(z_t, eps_pred)
    _check_timestep(s, t, lo=1)
    ab = s.alpha_bar[t]
    if ab < ALPHA_BAR_FLOOR:
        raise ValueError(f"degenerate alpha_bar at t={t}: {ab} below floor {ALPHA_BAR_FLOOR}")
    return (z_t - np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(ab)


def _spread_indices(count: int, k: int) -> list:
    # k indices spread evenly over [0, count-1], always including 0.
    if k == 1:
        return [0]
    return [int(math.floor(j * (count - 1) / (k - 1) + 0.5)) for j in range(k)]


def select_timesteps(s: NoiseSchedule, num_steps: int) -> TimestepGrid:
    """Evenly spaced descending grid: include T, stride T / num_steps."""
    T = s.total_steps
    if not 1 <= num_steps <= T:
        raise ValueError(f"num_steps out of range: {num_steps} not in [1, {T}]")
    steps = tuple(
        int(math.floor(T * (num_steps - i) / num_steps + 0.5)) for i in range(num_steps)
    )
    return TimestepGrid(steps=steps)


def select_refine_steps(grid: TimestepGrid, k: int) -> TimestepGrid:
    """Mark ``k`` steps for temporal motion refining.

    The refining steps are spread evenly from the start of the grid over
    its high-noise half (the whole grid when ``k`` exceeds that half), so
    the first, noisiest step is always refined: motion is formed early in
    the chain.
    """
    n = len(grid.steps)
    if not 0 <= k <= n:
        raise ValueError(f"refine count out of range: {k} not in [0, {n}]")
    if k == 0:
        return TimestepGrid(steps=grid.steps)
    pool = grid.steps[: max(1, math.ceil(n / 2))]
    if k > len(pool):
        pool = grid.steps
    chosen = frozenset(pool[i] for i in _spread_indices(len(pool), k))
    return TimestepGrid(steps=grid.steps, refine_set=chosen)


def snr(s: NoiseSchedule, t: int) -> float:
    """Signal-to-noise ratio ``alpha_bar / (1 - alpha_bar)`` at ``t``."""
    _check_timestep(s, t, lo=1)
    ab = s.alpha_bar[t]
    return float(ab / (1.0 - ab))


def snr_matched_timestep(src: NoiseSchedule, dst: NoiseSchedule, t: int) -> int:
    """Timestep on ``dst`` whose SNR is closest (in log space) to ``src`` at ``t``.

    Identity when the schedules coincide. Used by the optional SNR-matched
    cross-schedule remapping; the default correspondence is index identity.
    """
    _check_timestep(src, t, lo=1)
    target = math.log(snr(src, t))
    bars = dst.alpha_bar[1:]
    logsnr = np.log(bars / (1.0 - bars))
    return int(np.argmin(np.abs(logsnr - target))) + 1
