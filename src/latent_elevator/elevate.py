"""Decomposed two-model sampling: temporal motion refining + spatial
quality elevating.

Each selected step of the chain is split in two. Temporal motion refining
hands the current latent to the video model: project to clean, low-pass
filter along the frame axis, partially re-noise and denoise to clean under
the video model's schedule (SDEdit), then deterministically invert back up
to the current timestep under the image model's schedule.
Spatial quality elevating then runs one ordinary denoising step with the
cross-frame-inflated image model. Unselected steps run only the latter.

Each model carries its own noise schedule, and every step runs under the
stepping model's. Latents cross between the two models exclusively
through clean projections, which is what makes two different noise
schedules interoperable; the emitted trace records every phase so that this
hand-off discipline is mechanically checkable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import CrossFrameDenoiser
from .denoiser import AnalyticDenoiser
from .freqfilter import LowPassMask, lpff
from .metrics import _exponent, _frame_consistency
from .sampler import ddim_invert, ddim_sample, ddim_step, sdedit_chain
from .schedule import ALPHA_BAR_FLOOR, TimestepGrid, forward_diffuse
from .workspace import _scratch

INVERSION_STRATEGIES = ("ddim", "same_noise", "random_noise")


@dataclass(frozen=True)
class ElevatorPlan:
    """Everything one elevated sampling run needs, immutably.

    ``harness.build_plan`` is the one place a plan is built from a config;
    derive variants of a plan with ``dataclasses.replace``. The latent
    shape is the video prior's, which the image prior must share; a plan
    with no refining steps is the image-model baseline.
    """

    t2v_model: AnalyticDenoiser
    t2i_model: CrossFrameDenoiser
    grid: TimestepGrid
    n_sdedit: int
    filter_mask: LowPassMask
    seed: int
    inversion: str

    def __post_init__(self):
        if self.t2i_model.base.prior.shape != self.shape:
            raise ValueError(f"plan invalid: image prior shape {self.t2i_model.base.prior.shape} "
                             f"!= video prior shape {self.shape}")
        total_steps = self.t2v_model.schedule.total_steps
        if total_steps != self.t2i_model.schedule.total_steps:
            raise ValueError(
                "plan invalid: schedules must share total_steps for index alignment"
            )
        # every grid starts at T, where the first clean projection happens
        for name, sched in (("t2v", self.t2v_model.schedule), ("t2i", self.t2i_model.schedule)):
            ab_T = sched.alpha_bar[-1]
            if ab_T < ALPHA_BAR_FLOOR:
                raise ValueError(
                    f"plan invalid: {name} schedule {sched.kind!r} has alpha_bar[T] = "
                    f"{ab_T:.3g}, below the floor {ALPHA_BAR_FLOOR}"
                )
        if self.inversion not in INVERSION_STRATEGIES:
            raise ValueError(f"plan invalid: unknown inversion strategy {self.inversion!r}")
        if self.n_sdedit < 0:
            raise ValueError("plan invalid: n_sdedit must be >= 0")
        if self.filter_mask.frames != self.shape[0]:
            raise ValueError("plan invalid: filter mask length != frame count")
        spatial = self.filter_mask.spatial_gains
        if spatial is not None and spatial.shape != self.shape[2:]:
            raise ValueError(f"plan invalid: filter mask spatial gains {spatial.shape} "
                             f"!= frame shape {self.shape[2:]}")
        steps = self.grid.steps
        if not steps or steps[0] > total_steps:
            raise ValueError(f"plan invalid: grid must be nonempty and start at or below "
                             f"total_steps {total_steps}, got steps {steps[:1]}")

    @property
    def shape(self) -> tuple:
        return self.t2v_model.prior.shape


def _record(trace: list, t, phase, model, space, z) -> None:
    """Append one trace record. ``frame_corr`` is NaN where frame
    consistency is undefined (fewer than two frames, or a zero frame). The
    statistics are taken on ``z``'s own scale; where a sum of squares
    under- or overflows there (``std`` not in (0, inf), or ``frame_corr``
    NaN), they are taken again on ``z`` times the metrics' power of two,
    which is exact, and ``mean`` and ``std`` are scaled back."""
    mean, std, corr = _statistics(z)
    if not 0 < std < math.inf or math.isnan(corr):
        e = _exponent(z)
        mean, std, corr = _statistics(np.ldexp(z, -e))
        mean, std = float(np.ldexp(mean, e)), float(np.ldexp(std, e))
    trace.append({"timestep": int(t), "phase": phase, "model": model, "space": space,
                  "mean": mean, "std": std, "frame_corr": corr})


def _statistics(z: np.ndarray) -> tuple:
    """``z``'s mean, std and frame consistency (NaN where undefined).
    ``std`` is ``np.std``'s two passes, the squared deviations from the
    mean summed, with the deviations in the calling thread's workspace
    rather than a fresh latent."""
    try:
        corr = _frame_consistency(z)
    except ValueError:
        corr = float("nan")
    mean = z.mean()
    squares = np.subtract(z, mean, out=_scratch("latent", z.shape, np.float64))
    with np.errstate(over="ignore"):  # an infinite std is taken again, rescaled
        np.multiply(squares, squares, out=squares)
        total = squares.sum()
    return float(mean), float(np.sqrt(total / z.size)), corr


def refine_temporal(
    z_t: np.ndarray,
    t: int,
    plan: ElevatorPlan,
    rng: np.random.Generator,
    trace: list,
) -> np.ndarray:
    """Refine motion at timestep ``t`` and return a latent back in the
    image model's noise distribution at the same index.

    Each leg is one closed-form chain on the grid's steps from ``t`` down
    (``below``), so refining calls no model: the image model's projection
    at ``t``, the video model's SDEdit over at most ``n_sdedit`` hops of
    ``below`` and then to 0, and the image model's inversion up ``below``."""
    if t not in plan.grid.refine_set:
        raise ValueError(f"step not refinable: {t} not in refine_set")
    # The clean projection and the inversion use the uninflated posterior:
    # a clean projection divides by sqrt(alpha_bar), so any systematic
    # epsilon miscalibration (such as the cross-frame blend) is amplified
    # without bound as alpha_bar -> 0.
    projector = plan.t2i_model.base

    below = plan.grid.steps[plan.grid.index_of(t):]
    clean = ddim_sample(projector, z_t, TimestepGrid((t,)))
    _record(trace, t, "refine.project", "t2i", "clean", clean)

    clean = lpff(clean, plan.filter_mask)
    _record(trace, t, "refine.lpff", None, "clean", clean)

    if plan.n_sdedit > 0:
        clean = sdedit_chain(plan.t2v_model, clean, TimestepGrid(below[:plan.n_sdedit + 1]), rng)
        _record(trace, t, "refine.sdedit", "t2v", "clean", clean)

    if plan.inversion == "ddim":
        z_out = ddim_invert(projector, clean, TimestepGrid(below))
    elif plan.inversion == "random_noise":
        z_out = forward_diffuse(clean, t, rng.standard_normal(clean.shape), projector.schedule)
    else:  # same_noise: one draw shared by every frame
        noise = np.broadcast_to(
            rng.standard_normal((1,) + clean.shape[1:]), clean.shape
        )
        z_out = forward_diffuse(clean, t, noise, projector.schedule)
    _record(trace, t, f"refine.invert.{plan.inversion}", "t2i", "noise", z_out)
    return z_out


def elevate_spatial(
    z_t: np.ndarray,
    t: int,
    t_prev: int,
    plan: ElevatorPlan,
    trace: list,
) -> np.ndarray:
    """One denoising step under the inflated image model."""
    out = ddim_step(plan.t2i_model, z_t, t, t_prev)
    _record(trace, t_prev, "elevate.step", "t2i", "noise" if t_prev > 0 else "clean", out)
    return out


def _start(plan: ElevatorPlan) -> tuple:
    """Seeded noise, the generator that drew it and a trace holding the
    ``init`` record: the prologue every sampling chain shares."""
    rng = np.random.default_rng(plan.seed)
    z = rng.standard_normal(plan.shape)
    trace: list = []
    _record(trace, plan.grid.steps[0], "init", None, "noise", z)
    return z, rng, trace


def elevate_sample(plan: ElevatorPlan) -> tuple:
    """Run the full decomposed chain from seeded noise to a clean latent.

    Returns ``(latent, trace)`` where the trace holds one record per phase
    per step.
    """
    z, rng, trace = _start(plan)
    for t, t_prev in plan.grid.hops():
        if t in plan.grid.refine_set:
            z = refine_temporal(z, t, plan, rng, trace)
        z = elevate_spatial(z, t, t_prev, plan, trace)
    return z, trace


def baseline_sample(plan: ElevatorPlan) -> tuple:
    """Plain chain of the plan's video model over its grid (refining set
    ignored) from its seeded noise, same trace format, with a ``ddim_step``
    per step to record a trace entry per step; the latent matches
    ``ddim_sample``'s closed form to rounding. The image baseline is
    ``elevate_sample`` on a plan with no refining steps."""
    z, _, trace = _start(plan)
    for t, t_prev in plan.grid.hops():
        z = ddim_step(plan.t2v_model, z, t, t_prev)
        _record(trace, t_prev, "baseline.step", "t2v", "noise" if t_prev > 0 else "clean", z)
    return z, trace


def trace_violations(trace: list) -> list:
    """Structural violations in a trace: a latent may only move between
    the two models through a clean projection. Empty list means the run
    was well-formed. That each model consults only its own schedule holds
    by construction: a model carries its schedule, and no step takes
    another."""
    violations = []
    last_model = None
    clean_between = False
    for r in trace:
        if r["model"] is None:
            if r["space"] == "clean":
                clean_between = True
            continue
        if last_model is not None and r["model"] != last_model and not clean_between:
            violations.append(
                f"direct hand-off: {last_model} -> {r['model']} at {r['phase']} "
                f"t={r['timestep']} without a clean projection"
            )
        clean_between = r["space"] == "clean"
        last_model = r["model"]
    return violations
