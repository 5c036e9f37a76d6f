"""Batch experiment runner: config resolution, execution, manifest I/O.

A run is described by one JSON config; every omitted field takes a
documented default and the manifest records the fully resolved value, so
any manifest can be re-run bit for bit. Cells are independent and run on
``min(jobs, cells, CPUs)`` worker processes (in-process when that is 1),
each owning its random stream and output files.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .attention import CrossFrameDenoiser, make_attention_params
from .denoiser import AnalyticDenoiser
from .elevate import (
    ElevatorPlan,
    baseline_sample,
    elevate_sample,
    trace_violations,
)
from .freqfilter import SPATIAL, TEMPORAL, check_axes, gaussian_mask
from .metrics import MetricReport, _relative_error, compute_report
from .sampler import ddim_invert, ddim_sample
from .schedule import make_schedule, select_refine_steps, select_timesteps
from .synth import make_gp_prior, sample_prior
from .videoio import RENDER_CHANNELS, render_frames, save_latent, write_atomic

MODES = (
    "baseline_t2v",
    "baseline_t2i",
    "elevate",
    "ablate_filter",
    "ablate_inversion",
    "ablate_steps",
    "roundtrip",
)

# the seed of the random weights that stand in for trained attention, which
# no run varies
ATTENTION_SEED = 1234

DEFAULT_CONFIG = {
    "mode": "elevate",
    "seeds": [0],
    "output_dir": None,
    "render": True,
    "jobs": 1,
    "check": False,
    "shape": [16, 4, 16, 16],
    # each model's schedule kind, on one timestep axis both index
    "schedules": {"total_steps": 1000, "t2i": "linear_beta", "t2v": "scaled_linear_beta"},
    "priors": {
        "t2v": {"rho": 0.9, "spectrum_kind": "lowpass", "variance_scale": 1.0},
        "t2i": {"rho": 0.0, "spectrum_kind": "broadband", "variance_scale": 1.0},
    },
    "plan": {
        "num_steps": 50,
        "num_refine_steps": 5,
        "n_sdedit": 9,
        "filter": {"d0": 0.25, "axes": ["temporal"]},
        "crossframe_mix": 0.3,
        "inversion": "ddim",
    },
    "ablate_steps": {"step_counts": [50, 100]},
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"invalid config: unknown key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"invalid config: {where} must be a mapping, got {value!r}")
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = _leaf(base[key], value, where)
    return out


def _leaf(default, value, where: str):
    """``value`` as a leaf of ``default``'s type: a bool is not an int, an
    int or the string ``"inf"`` (a manifest's infinity) stands for a float,
    a list takes a list or tuple of its default's element type, and the
    ``None`` output_dir takes a string."""
    if isinstance(default, list):
        if isinstance(value, (list, tuple)):
            return [_leaf(default[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif isinstance(default, float):
        if value == "inf":
            return math.inf
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif default is None:
        if value is None or isinstance(value, str):
            return value
    elif type(value) is type(default):
        return value
    raise ValueError(f"invalid config: {where} must have the type of its default "
                     f"{default!r}, got {value!r}")


def resolve_config(config: dict | None = None) -> dict:
    """Materialize every default; reject, before any compute, unknown keys
    and any value a run would fail on. Every variant's plan is built once,
    for the first seed, so a plan error surfaces here rather than mid-run."""
    return _resolve(config)[0]


def _resolve(config: dict | None) -> tuple:
    """``resolve_config``'s resolved config, and each variant paired with
    the plan built for it: ``run`` derives every cell's plan from these,
    and ``make_default_plan`` its one plan."""
    config = {} if config is None else config
    if not isinstance(config, dict):
        raise ValueError(f"invalid config: the config must be a mapping, got {config!r}")
    resolved = _deep_merge(DEFAULT_CONFIG, config)
    if resolved["mode"] not in MODES:
        raise ValueError(f"invalid config: unknown mode {resolved['mode']!r}")
    seeds = resolved["seeds"]
    if not seeds or min(seeds) < 0:
        raise ValueError(f"invalid config: seeds must be nonempty and >= 0, got {seeds}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"invalid config: duplicate seeds in {seeds} would share output files")
    if resolved["jobs"] < 1:
        raise ValueError(f"invalid config: jobs must be >= 1, got {resolved['jobs']}")
    shape = resolved["shape"]
    if len(shape) != 4:
        raise ValueError(f"invalid config: shape must be [F, C, H, W], got {shape}")
    frames, channels, height, width = shape
    if frames < 2:
        raise ValueError(f"invalid config: shape needs >= 2 frames, got {frames}")
    if channels < 1 or min(height, width) < 2:
        raise ValueError(f"invalid config: shape needs C >= 1 and H, W >= 2, got {shape}")
    if resolved["render"] and channels not in RENDER_CHANNELS:
        raise ValueError(
            f"invalid config: render needs channels in {RENDER_CHANNELS}, got {channels}"
        )
    for name, prior in resolved["priors"].items():
        # zero mean: a zero variance gives all-zero latents, an infinite one
        # degenerate ones, and a subnormal one underflows the exact latent
        if not np.finfo(float).tiny <= prior["variance_scale"] < math.inf:
            raise ValueError(f"invalid config: priors.{name}.variance_scale must be finite "
                             f"and >= {np.finfo(float).tiny} (the smallest normal float64), "
                             f"got {prior['variance_scale']}")
    counts = resolved["ablate_steps"]["step_counts"]
    if resolved["mode"] == "ablate_steps" and (len(counts) < 2 or len(set(counts)) < len(counts)):
        raise ValueError(
            f"invalid config: ablate_steps.step_counts needs >= 2 distinct counts, got {counts}"
        )
    variants = []
    for variant in _variants_for(resolved):
        try:
            plan = build_plan(_deep_merge(resolved, {"plan": variant["plan"]}), seeds[0])
        except (TypeError, ValueError, MemoryError) as err:
            raise ValueError(f"invalid config: {variant['name']}: {err}") from err
        variants.append((variant, plan))
    return resolved, variants


def build_plan(resolved: dict, seed: int) -> ElevatorPlan:
    """Build the models and the full plan from a resolved config, the JSON
    form of an ElevatorPlan. A variant's cell passes the config with the
    variant's ``plan`` override merged over it."""
    f, c, h, w = resolved["shape"]
    plan_cfg, filt = resolved["plan"], resolved["plan"]["filter"]
    pv, pi = resolved["priors"]["t2v"], resolved["priors"]["t2i"]
    sched = resolved["schedules"]
    t2v_prior = make_gp_prior(f, c, h, w, pv["rho"], pv["spectrum_kind"], pv["variance_scale"])
    t2i_prior = make_gp_prior(f, c, h, w, pi["rho"], pi["spectrum_kind"], pi["variance_scale"])
    params = make_attention_params(c, seed=ATTENTION_SEED)
    t2i_base = AnalyticDenoiser(t2i_prior, make_schedule(sched["t2i"], sched["total_steps"]))
    grid = select_refine_steps(select_timesteps(t2i_base.schedule, plan_cfg["num_steps"]),
                               plan_cfg["num_refine_steps"])
    # spatial gains are what makes lpff filter over (H, W) too
    spatial = SPATIAL in check_axes(filt["axes"])
    mask = gaussian_mask(f, filt["d0"], spatial_shape=(h, w) if spatial else None)
    return ElevatorPlan(
        t2v_model=AnalyticDenoiser(t2v_prior, make_schedule(sched["t2v"], sched["total_steps"])),
        t2i_model=CrossFrameDenoiser(t2i_base, params, plan_cfg["crossframe_mix"]),
        grid=grid,
        n_sdedit=plan_cfg["n_sdedit"],
        filter_mask=mask,
        seed=seed,
        inversion=plan_cfg["inversion"],
    )


def make_default_plan(seed: int = 0, shape=None, **plan) -> ElevatorPlan:
    """The ``DEFAULT_CONFIG`` recipe as a plan; ``shape`` and the keys of
    ``DEFAULT_CONFIG["plan"]`` override it through the config. It is the
    plan ``resolve_config`` builds to validate the config, with ``seed``."""
    # a plan renders nothing, so the render channel check does not apply
    config = {"render": False, "plan": plan}
    if shape is not None:
        config["shape"] = shape
    [(_, built)] = _resolve(config)[1]
    return replace(built, seed=seed)


def _variants_for(resolved: dict) -> list:
    """The cells of one seed: each variant's name, kind and the ``plan``
    override it runs with over the resolved config. The image baseline is
    an ``elevate`` cell on a plan with no refining steps."""
    mode, plain = resolved["mode"], {"num_refine_steps": 0}  # only elevate refines
    if mode == "baseline_t2v":
        return [{"name": mode, "kind": "baseline", "plan": plain}]
    if mode == "roundtrip":
        return [{"name": mode, "kind": "roundtrip", "plan": plain}]
    if mode == "ablate_steps":
        counts = resolved["ablate_steps"]["step_counts"]
        k = counts[0]
        return [
            *({"name": f"baseline_t2v_{n}", "kind": "baseline",
               "plan": {**plain, "num_steps": n}} for n in counts),
            {"name": f"baseline_t2i_{k}", "kind": "elevate", "plan": {**plain, "num_steps": k}},
            {"name": f"elevate_{k}", "kind": "elevate", "plan": {"num_steps": k}},
        ]
    arms = {
        "elevate": {"elevate": {}},
        "baseline_t2i": {"baseline_t2i": plain},
        "ablate_filter": {"no_lpff": {"filter": {"d0": math.inf}},
                          "temporal": {"filter": {"axes": [TEMPORAL]}},
                          "spatial_temporal": {"filter": {"axes": [TEMPORAL, SPATIAL]}}},
        "ablate_inversion": {name: {"inversion": name}
                             for name in ("same_noise", "ddim", "random_noise")},
    }[mode]
    return [{"name": name, "kind": "elevate", "plan": plan} for name, plan in arms.items()]


def _run_one(resolved: dict, variant: dict, plan: ElevatorPlan, out_dir: str) -> dict:
    """Execute one (variant, seed) cell, whose plan is ``plan``, and write
    its artifacts."""
    t_start = time.perf_counter()
    seed = plan.seed
    extra: dict = {}
    if variant["kind"] == "elevate":
        z, trace = elevate_sample(plan)
    elif variant["kind"] == "baseline":
        z, trace = baseline_sample(plan)
    elif variant["kind"] == "roundtrip":
        model, grid = plan.t2i_model.base, plan.grid
        z0 = sample_prior(model.prior, np.random.default_rng(seed))
        z = ddim_sample(model, ddim_invert(model, z0, grid), grid)
        extra["roundtrip_rel_err"] = _relative_error(z, z0)
        trace = []
    else:
        raise ValueError(f"unknown variant kind {variant['kind']!r}")

    stem = f"{variant['name']}_seed{seed:04d}"
    out = Path(out_dir)
    save_latent(z, out / f"{stem}.elvt")
    write_atomic(out / f"{stem}.trace.jsonl",
                 "".join(json.dumps(record) + "\n" for record in trace).encode())
    report = compute_report(z, plan.t2v_model.prior, plan.t2i_model.base.prior)
    renders, render_norm = [], None
    if resolved["render"]:
        vmin, vmax = float(z.min()), float(z.max())
        renders = render_frames(z, out / stem, vmin=vmin, vmax=vmax)
        render_norm = {"vmin": vmin, "vmax": vmax}
    return {
        "variant": variant["name"],
        "seed": seed,
        "latent": f"{stem}.elvt",
        "trace": f"{stem}.trace.jsonl",
        "trace_violations": trace_violations(trace),
        "renders": [Path(p).name for p in renders],
        "render_norm": render_norm,
        "metrics": report.to_dict(),
        "extra": extra,
        "wall_clock_s": time.perf_counter() - t_start,
    }


def _aggregate(runs: list) -> dict:
    by_variant: dict = {}
    for r in runs:
        by_variant.setdefault(r["variant"], []).append(r)
    agg = {}
    for name, rows in by_variant.items():
        agg[name] = {
            m: float(np.median([r["metrics"][m] for r in rows]))
            for m in MetricReport.field_names()
        }
        for key in rows[0]["extra"]:
            agg[name][f"median_{key}"] = float(np.median([r["extra"][key] for r in rows]))
            agg[name][f"max_{key}"] = float(np.max([r["extra"][key] for r in rows]))
    return agg


def _run_checks(resolved: dict, agg: dict, runs: list) -> dict:
    """Mode-specific pass/fail conditions over the aggregate medians."""
    mode = resolved["mode"]
    failures = []

    def expect(label, ok):
        if not ok:
            failures.append(label)

    for r in runs:
        for v in r["trace_violations"]:
            failures.append(f"{r['variant']} seed {r['seed']}: {v}")
    if mode == "ablate_inversion":
        fc = {k: agg[k]["frame_consistency"] for k in ("same_noise", "ddim", "random_noise")}
        expect("frame_consistency: same_noise >= ddim", fc["same_noise"] >= fc["ddim"])
        expect("frame_consistency: ddim >= random_noise", fc["ddim"] >= fc["random_noise"])
        expect(
            "frame_consistency: same_noise - random_noise > 0.02",
            fc["same_noise"] - fc["random_noise"] > 0.02,
        )
    elif mode == "ablate_filter":
        expect(
            "flicker_energy: temporal < no_lpff",
            agg["temporal"]["flicker_energy"] < agg["no_lpff"]["flicker_energy"],
        )
        expect(
            "spatial_detail: temporal > spatial_temporal",
            agg["temporal"]["spatial_detail"] > agg["spatial_temporal"]["spatial_detail"],
        )
    elif mode == "ablate_steps":
        counts = resolved["ablate_steps"]["step_counts"]
        b0, b1 = f"baseline_t2v_{counts[0]}", f"baseline_t2v_{counts[1]}"
        elev = f"elevate_{counts[0]}"
        t2i = f"baseline_t2i_{counts[0]}"
        for metric, baseline in (
            ("spectrum_distance_t2i", b0),
            ("frame_consistency", t2i),
        ):
            improvement = abs(agg[elev][metric] - agg[baseline][metric])
            drift = abs(agg[b1][metric] - agg[b0][metric])
            expect(
                f"{metric}: step-count drift {drift:.4f} < half improvement "
                f"{improvement / 2:.4f}",
                drift < improvement / 2,
            )
        expect(
            "spectrum_distance_t2i: elevate < baseline_t2v",
            agg[elev]["spectrum_distance_t2i"] < agg[b0]["spectrum_distance_t2i"],
        )
        expect(
            "frame_consistency: elevate > baseline_t2i",
            agg[elev]["frame_consistency"] > agg[t2i]["frame_consistency"],
        )
    elif mode == "roundtrip":
        expect(
            "roundtrip: max relative error < 1e-3",
            agg["roundtrip"]["max_roundtrip_rel_err"] < 1e-3,
        )
    return {"enabled": True, "passed": not failures, "failures": failures}


def _strict_json(value):
    """``value`` with each infinite float leaf as the string ``"inf"``,
    which ``_leaf`` reads back, so the manifest stays standard JSON."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return "inf" if value == math.inf else value


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cpu_count() -> int:
    """The CPUs this process may run on, or all of them without an affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: dict | None = None, output_dir=None) -> dict:
    """Execute a config over all its seeds; returns the manifest dict. A
    variant's plans differ across seeds only in ``seed``, so each cell's
    plan is the one ``resolve_config`` built for its variant, with the
    cell's seed."""
    resolved, variants = _resolve(config)
    out = Path(output_dir or resolved["output_dir"] or ".")
    out.mkdir(parents=True, exist_ok=True)
    resolved["output_dir"] = str(out)

    t_start = time.perf_counter()
    cells = [(variant, replace(plan, seed=seed))
             for variant, plan in variants for seed in resolved["seeds"]]
    workers = min(resolved["jobs"], len(cells), _cpu_count())  # a pool forks all up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one, resolved, variant, plan, str(out))
                for variant, plan in cells
            ]
            runs = [f.result() for f in futures]
    else:
        runs = [_run_one(resolved, variant, plan, str(out)) for variant, plan in cells]

    agg = _aggregate(runs)
    checks = _run_checks(resolved, agg, runs) if resolved["check"] else {"enabled": False}

    csv_path = out / "metrics.csv"
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(["variant", "seed"] + MetricReport.field_names())
    for r in runs:
        writer.writerow(
            [r["variant"], r["seed"]]
            + [r["metrics"][m] for m in MetricReport.field_names()]
        )
    write_atomic(csv_path, table.getvalue().encode())

    first = variants[0][1]
    manifest = {
        "tool": {"name": "latent-elevator", "version": __version__},
        "mode": resolved["mode"],
        "resolved_config": _strict_json(resolved),
        # the schedules every cell ran, which variants do not vary: each one's
        # kind and length, which make_schedule rebuilds it from, its terminal
        # alpha_bar, which the plan's floor check decides on, and the sha256
        # of its alpha_bar as little-endian float64 bytes, to audit a rebuild
        "schedules": {
            name: {"kind": s.kind, "total_steps": s.total_steps,
                   "alpha_bar_T": float(s.alpha_bar[-1]),
                   "alpha_bar_sha256": hashlib.sha256(s.alpha_bar.astype("<f8")).hexdigest()}
            for name, s in (("t2i", first.t2i_model.schedule), ("t2v", first.t2v_model.schedule))
        },
        "runs": runs,
        "aggregate": agg,
        "checks": checks,
        "wall_clock_s": time.perf_counter() - t_start,
        "files": {},
    }
    names = [csv_path.name]
    for r in runs:
        names += [r["latent"], r["trace"], *r["renders"]]
    for name in sorted(names):
        manifest["files"][name] = sha256_file(out / name)
    write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, allow_nan=False).encode())
    return manifest

