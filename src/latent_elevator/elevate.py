"""Decomposed two-model sampling: temporal motion refining + spatial
quality elevating.

Each selected step of the chain is split in two. Temporal motion refining
hands the current latent to the video model: project to clean, low-pass
filter along the frame axis, partially re-noise and denoise under the
video model's schedule, project to clean again, then deterministically
invert back up to the current timestep under the image model's schedule.
Spatial quality elevating then runs one ordinary denoising step with the
cross-frame-inflated image model. Unselected steps run only the latter.

Latents cross between the two models exclusively through clean
projections, which is what makes two different noise schedules
interoperable; the emitted trace records every phase so that this
hand-off discipline is mechanically checkable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import CrossFrameDenoiser
from .denoiser import AnalyticDenoiser
from .freqfilter import LowPassMask, lpff
from .metrics import frame_consistency
from .sampler import ddim_invert, ddim_step, sdedit_chain
from .schedule import (
    ALPHA_BAR_FLOOR,
    NoiseSchedule,
    TimestepGrid,
    forward_diffuse,
    project_clean,
)

INVERSION_STRATEGIES = ("ddim", "same_noise", "random_noise")


@dataclass(frozen=True)
class ElevatorPlan:
    """Everything one elevated sampling run needs, immutably.

    ``harness.build_plan`` is the one place a plan is built from a config;
    derive variants of a plan with ``dataclasses.replace``.
    """

    shape: tuple
    t2v_model: AnalyticDenoiser
    t2v_schedule: NoiseSchedule
    t2i_model: CrossFrameDenoiser
    t2i_schedule: NoiseSchedule
    grid: TimestepGrid
    n_sdedit: int
    filter_mask: LowPassMask
    seed: int
    inversion: str

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if self.t2v_schedule.total_steps != self.t2i_schedule.total_steps:
            raise ValueError(
                "plan invalid: schedules must share total_steps for index alignment"
            )
        # every grid starts at T, where the first clean projection happens
        for name, sched in (("t2v", self.t2v_schedule), ("t2i", self.t2i_schedule)):
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
        steps = self.grid.steps
        for t in self.grid.refine_set:
            if self.n_sdedit > len(steps) - steps.index(t):
                raise ValueError(
                    f"plan invalid: n_sdedit {self.n_sdedit} exceeds grid depth below {t}"
                )


def _record(trace: list, t, phase, model, space, z, schedule=None) -> None:
    """Append one trace record; ``schedule`` defaults to the model's own,
    and ``frame_corr`` is NaN where frame consistency is undefined (fewer
    than two frames, or a zero frame)."""
    try:
        corr = frame_consistency(z)
    except ValueError:
        corr = float("nan")
    trace.append({"timestep": int(t), "phase": phase, "model": model,
                  "schedule": schedule or model, "space": space, "mean": float(z.mean()),
                  "std": float(z.std()), "frame_corr": corr})


def _sdedit_timesteps(plan: ElevatorPlan, t: int) -> list:
    """Descending chain the video-side partial re-noising walks: the grid's
    own steps from ``t``, read as video schedule indices (index identity)."""
    idx = plan.grid.index_of(t)
    return [*plan.grid.steps, 0][idx : idx + plan.n_sdedit + 1]


def refine_temporal(
    z_t: np.ndarray,
    t: int,
    plan: ElevatorPlan,
    rng: np.random.Generator,
    trace: list,
) -> np.ndarray:
    """Refine motion at timestep ``t`` and return a latent back in the
    image model's noise distribution at the same index."""
    if t not in plan.grid.refine_set:
        raise ValueError(f"step not refinable: {t} not in refine_set")
    s_i, s_v = plan.t2i_schedule, plan.t2v_schedule
    # The clean projection and the inversion use the uninflated posterior:
    # a clean projection divides by sqrt(alpha_bar), so any systematic
    # epsilon miscalibration (such as the cross-frame blend) is amplified
    # without bound as alpha_bar -> 0.
    projector = plan.t2i_model.base

    eps_i = projector.predict_eps(z_t, t, s_i)
    clean = project_clean(z_t, eps_i, t, s_i)
    _record(trace, t, "refine.project", "t2i", "clean", clean)

    clean = lpff(clean, plan.filter_mask)
    _record(trace, t, "refine.lpff", None, "clean", clean)

    if plan.n_sdedit > 0:
        chain = _sdedit_timesteps(plan, t)
        z_v, t_out = sdedit_chain(plan.t2v_model, clean, chain, s_v, rng)
        _record(trace, t_out, "refine.sdedit", "t2v", "noise", z_v)
        if t_out > 0:
            eps_v = plan.t2v_model.predict_eps(z_v, t_out, s_v)
            clean = project_clean(z_v, eps_v, t_out, s_v)
        else:
            clean = z_v
        _record(trace, t_out, "refine.project_t2v", "t2v", "clean", clean)

    if plan.inversion == "ddim":
        z_out = ddim_invert(projector, clean, plan.grid, t, s_i)
    elif plan.inversion == "random_noise":
        z_out = forward_diffuse(clean, t, rng.standard_normal(clean.shape), s_i)
    else:  # same_noise: one draw shared by every frame
        noise = np.broadcast_to(
            rng.standard_normal((1,) + clean.shape[1:]), clean.shape
        )
        z_out = forward_diffuse(clean, t, noise, s_i)
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
    out = ddim_step(plan.t2i_model, z_t, t, t_prev, plan.t2i_schedule)
    _record(trace, t_prev, "elevate.step", "t2i", "noise" if t_prev > 0 else "clean", out)
    return out


def _start(plan: ElevatorPlan, schedule: str) -> tuple:
    """Seeded noise, the generator that drew it and a trace holding the
    ``init`` record: the prologue every sampling chain shares."""
    rng = np.random.default_rng(plan.seed)
    z = rng.standard_normal(plan.shape)
    trace: list = []
    _record(trace, plan.grid.steps[0], "init", None, "noise", z, schedule)
    return z, rng, trace


def elevate_sample(plan: ElevatorPlan) -> tuple:
    """Run the full decomposed chain from seeded noise to a clean latent.

    Returns ``(latent, trace)`` where the trace holds one record per phase
    per step.
    """
    z, rng, trace = _start(plan, "t2i")
    for t, t_prev in plan.grid.hops():
        if t in plan.grid.refine_set:
            z = refine_temporal(z, t, plan, rng, trace)
        z = elevate_spatial(z, t, t_prev, plan, trace)
    return z, trace


def baseline_sample(plan: ElevatorPlan, model: str = "t2v") -> tuple:
    """Plain chain of the plan's ``"t2v"`` or ``"t2i"`` model over its grid
    (refining set ignored) from its seeded noise, same trace format. Both
    models step with ``ddim_step``, the one step for any ``Denoiser``, to
    record a trace entry per step; for the analytic ``"t2v"`` model the
    latent matches ``ddim_sample``'s closed form to rounding. The inflated
    ``"t2i"`` model is not analytic, so no closed-form chain serves it.
    """
    if model == "t2v":
        denoiser, s = plan.t2v_model, plan.t2v_schedule
    elif model == "t2i":
        denoiser, s = plan.t2i_model, plan.t2i_schedule
    else:
        raise ValueError(f"unknown baseline model {model!r}: expected 't2v' or 't2i'")
    z, _, trace = _start(plan, model)
    for t, t_prev in plan.grid.hops():
        z = ddim_step(denoiser, z, t, t_prev, s)
        _record(trace, t_prev, "baseline.step", model, "noise" if t_prev > 0 else "clean", z)
    return z, trace


def trace_violations(trace: list) -> list:
    """Structural violations in a trace: a latent may only move between
    the two models through a clean projection, and each model may consult
    only its own schedule. Empty list means the run was well-formed."""
    violations = []
    last_model = None
    clean_between = False
    for r in trace:
        if r["model"] in ("t2v", "t2i") and r["schedule"] != r["model"]:
            violations.append(
                f"schedule isolation: {r['phase']} used {r['schedule']} for {r['model']}"
            )
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
