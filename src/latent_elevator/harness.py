"""Batch experiment runner: config resolution, execution, manifest I/O.

A run is described by one JSON config; every omitted field takes a
documented default and the manifest records the fully resolved value, so
any manifest can be re-run bit for bit. Cells are independent and run on
``min(jobs, cells)`` worker processes (in-process when that is 1), each
owning its random stream and output files.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
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
from .metrics import MetricReport, check_thresholds, compute_report
from .sampler import ddim_invert, ddim_sample
from .schedule import SCHEDULE_PARAMS, make_schedule, select_refine_steps, select_timesteps
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

DEFAULT_CONFIG = {
    "mode": "elevate",
    "seeds": [0],
    "output_dir": None,
    "render": True,
    "jobs": 1,
    "check": False,
    "shape": [16, 4, 16, 16],
    "schedules": {
        "t2i": {
            "kind": "linear_beta",
            "total_steps": 1000,
            "params": {"beta_start": 1e-4, "beta_end": 2e-2},
        },
        "t2v": {
            "kind": "scaled_linear_beta",
            "total_steps": 1000,
            "params": {"beta_start": 1e-4, "beta_end": 2e-2},
        },
    },
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
        "attention_seed": 1234,
        "inversion": "ddim",
    },
    "metrics": {"flicker_cutoff": 0.15, "detail_band": 0.10},
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
    for the first seed, so a plan error surfaces here rather than mid-run.
    A schedule keeps the default params its kind reads and those the
    config sets, which ``make_schedule`` rejects if its kind does not."""
    config = {} if config is None else config
    if not isinstance(config, dict):
        raise ValueError(f"invalid config: the config must be a mapping, got {config!r}")
    resolved = _deep_merge(DEFAULT_CONFIG, config)
    for name, sched in resolved["schedules"].items():
        given = config.get("schedules", {}).get(name, {}).get("params", {})
        reads = SCHEDULE_PARAMS.get(sched["kind"], ())
        sched["params"] = {k: v for k, v in sched["params"].items() if k in reads or k in given}
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
        # zero mean: a zero variance gives all-zero latents, an infinite one degenerate ones
        if not 0 < prior["variance_scale"] < math.inf:
            raise ValueError(f"invalid config: priors.{name}.variance_scale must be finite "
                             f"and > 0, got {prior['variance_scale']}")
    try:
        check_thresholds(shape, **resolved["metrics"])
    except ValueError as err:
        raise ValueError(f"invalid config: metrics.{err}") from err
    counts = resolved["ablate_steps"]["step_counts"]
    if resolved["mode"] == "ablate_steps" and (len(counts) < 2 or len(set(counts)) < len(counts)):
        raise ValueError(
            f"invalid config: ablate_steps.step_counts needs >= 2 distinct counts, got {counts}"
        )
    for variant in _variants_for(resolved):
        try:
            build_plan(_deep_merge(resolved, {"plan": variant["plan"]}), seeds[0])
        except (TypeError, ValueError) as err:
            raise ValueError(f"invalid config: {variant['name']}: {err}") from err
    return resolved


def _build_schedule(cfg: dict):
    return make_schedule(cfg["kind"], cfg["total_steps"], **cfg["params"])


def build_plan(resolved: dict, seed: int) -> ElevatorPlan:
    """Build the models and the full plan from a resolved config, the JSON
    form of an ElevatorPlan. A variant's cell passes the config with the
    variant's ``plan`` override merged over it."""
    f, c, h, w = resolved["shape"]
    plan_cfg, filt = resolved["plan"], resolved["plan"]["filter"]
    pv, pi = resolved["priors"]["t2v"], resolved["priors"]["t2i"]
    t2v_prior = make_gp_prior(f, c, h, w, pv["rho"], pv["spectrum_kind"], pv["variance_scale"])
    t2i_prior = make_gp_prior(f, c, h, w, pi["rho"], pi["spectrum_kind"], pi["variance_scale"])
    params = make_attention_params(c, seed=plan_cfg["attention_seed"])
    t2i_schedule = _build_schedule(resolved["schedules"]["t2i"])
    grid = select_refine_steps(select_timesteps(t2i_schedule, plan_cfg["num_steps"]),
                               plan_cfg["num_refine_steps"])
    # spatial gains are what makes lpff filter over (H, W) too
    spatial = SPATIAL in check_axes(filt["axes"])
    mask = gaussian_mask(f, filt["d0"], spatial_shape=(h, w) if spatial else None)
    return ElevatorPlan(
        shape=(f, c, h, w),
        t2v_model=AnalyticDenoiser(t2v_prior),
        t2v_schedule=_build_schedule(resolved["schedules"]["t2v"]),
        t2i_model=CrossFrameDenoiser(AnalyticDenoiser(t2i_prior), params,
                                     plan_cfg["crossframe_mix"]),
        t2i_schedule=t2i_schedule,
        grid=grid,
        n_sdedit=plan_cfg["n_sdedit"],
        filter_mask=mask,
        seed=seed,
        inversion=plan_cfg["inversion"],
    )


def make_default_plan(seed: int = 0, shape=None, **plan) -> ElevatorPlan:
    """The ``DEFAULT_CONFIG`` recipe as a plan; ``shape`` and the keys of
    ``DEFAULT_CONFIG["plan"]`` override it through the config."""
    # a plan renders nothing, so the render channel check does not apply
    config = {"render": False, "plan": plan}
    if shape is not None:
        config["shape"] = shape
    return build_plan(resolve_config(config), seed)


def _variants_for(resolved: dict) -> list:
    """The cells of one seed: each variant's name, kind, baseline model and
    the ``plan`` override it runs with over the resolved config."""
    mode, plain = resolved["mode"], {"num_refine_steps": 0}  # only elevate refines
    if mode in ("baseline_t2v", "baseline_t2i"):
        return [{"name": mode, "kind": "baseline", "model": mode.removeprefix("baseline_"),
                 "plan": plain}]
    if mode == "roundtrip":
        return [{"name": mode, "kind": "roundtrip", "plan": plain}]
    if mode == "ablate_steps":
        counts = resolved["ablate_steps"]["step_counts"]
        k = counts[0]
        return [
            *({"name": f"baseline_t2v_{n}", "kind": "baseline", "model": "t2v",
               "plan": {**plain, "num_steps": n}} for n in counts),
            {"name": f"baseline_t2i_{k}", "kind": "baseline", "model": "t2i",
             "plan": {**plain, "num_steps": k}},
            {"name": f"elevate_{k}", "kind": "elevate", "plan": {"num_steps": k}},
        ]
    arms = {
        "elevate": {"elevate": {}},
        "ablate_filter": {"no_lpff": {"filter": {"d0": math.inf}},
                          "temporal": {"filter": {"axes": [TEMPORAL]}},
                          "spatial_temporal": {"filter": {"axes": [TEMPORAL, SPATIAL]}}},
        "ablate_inversion": {name: {"inversion": name}
                             for name in ("same_noise", "ddim", "random_noise")},
    }[mode]
    return [{"name": name, "kind": "elevate", "plan": plan} for name, plan in arms.items()]


def _run_one(resolved: dict, variant: dict, seed: int, out_dir: str) -> dict:
    """Execute one (variant, seed) cell and write its artifacts."""
    t_start = time.perf_counter()
    plan = build_plan(_deep_merge(resolved, {"plan": variant["plan"]}), seed)
    extra: dict = {}
    if variant["kind"] == "elevate":
        z, trace = elevate_sample(plan)
    elif variant["kind"] == "baseline":
        z, trace = baseline_sample(plan, variant["model"])
    elif variant["kind"] == "roundtrip":
        model, sched, grid = plan.t2i_model.base, plan.t2i_schedule, plan.grid
        z0 = sample_prior(model.prior, np.random.default_rng(seed))
        z_top = ddim_invert(model, z0, grid, grid.steps[0], sched)
        z = ddim_sample(model, z_top, grid, sched)
        extra["roundtrip_rel_err"] = float(
            np.linalg.norm(z - z0) / np.linalg.norm(z0)
        )
        trace = []
    else:
        raise ValueError(f"unknown variant kind {variant['kind']!r}")

    stem = f"{variant['name']}_seed{seed:04d}"
    out = Path(out_dir)
    save_latent(z, out / f"{stem}.elvt")
    write_atomic(out / f"{stem}.trace.jsonl",
                 "".join(json.dumps(record) + "\n" for record in trace).encode())
    report = compute_report(
        z,
        plan.t2v_model.prior,
        plan.t2i_model.base.prior,
        cutoff=resolved["metrics"]["flicker_cutoff"],
        band=resolved["metrics"]["detail_band"],
    )
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


def run(config: dict | None = None, output_dir=None) -> dict:
    """Execute a config over all its seeds; returns the manifest dict."""
    resolved = resolve_config(config)
    out = Path(output_dir or resolved["output_dir"] or ".")
    out.mkdir(parents=True, exist_ok=True)
    resolved["output_dir"] = str(out)

    t_start = time.perf_counter()
    variants = _variants_for(resolved)
    cells = [(variant, seed) for variant in variants for seed in resolved["seeds"]]
    workers = min(resolved["jobs"], len(cells))  # a pool forks every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one, resolved, variant, seed, str(out))
                for variant, seed in cells
            ]
            runs = [f.result() for f in futures]
    else:
        runs = [_run_one(resolved, variant, seed, str(out)) for variant, seed in cells]

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

    manifest = {
        "tool": {"name": "latent-elevator", "version": __version__},
        "mode": resolved["mode"],
        "resolved_config": _strict_json(resolved),
        # each resolved schedule config with its full coefficient array, so a
        # foreign implementation can audit the exact schedules this run used
        "schedules": {
            name: {**cfg, "alpha_bar": _build_schedule(cfg).alpha_bar.tolist()}
            for name, cfg in resolved["schedules"].items()
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
    write_atomic(out / "manifest.json", _manifest_json(manifest).encode())
    return manifest


def _manifest_json(manifest: dict) -> str:
    """The manifest as JSON indented by 2, but each schedule's ``alpha_bar``
    on one line: ``indent`` forces json's pure-Python encoder, which spends
    most of a manifest's encoding time on those 2 x (T + 1) floats, so
    they are encoded apart by its C encoder and spliced in for stand-ins.
    A stand-in starts with NUL, which no other string of a manifest holds:
    the output directory could not have been created with one."""
    schedules = manifest["schedules"]
    stand_ins = {name: f"\0alpha_bar of {name}" for name in schedules}
    text = json.dumps(
        {**manifest, "schedules": {name: {**cfg, "alpha_bar": stand_ins[name]}
                                   for name, cfg in schedules.items()}},
        indent=2, allow_nan=False)
    for name, cfg in schedules.items():
        text = text.replace(json.dumps(stand_ins[name]),
                            json.dumps(cfg["alpha_bar"], allow_nan=False))
    return text
