"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
wall-clock budget and prints a single PASS/FAIL line (run with ``-s`` to
see them as they complete).

Criterion 2 checks that 50-step ``ddim_invert`` is the correct discretized
inverse of ``ddim_sample`` on the same grid. A stateless one-call-per-hop
inversion does not reconstruct exactly: its round-trip error is first
order, O(1/K), in the grid size K (1.868e-2 at K = 50 on the detail-rich
image prior, 9.44e-3 at K = 100, 4.75e-3 at K = 200). On an analytic
Gaussian denoiser the round trip is a per-eigenmode scalar gain, so the
test compares it, to 1e-6, with a closed-form product of hop gains built
from the schedule and the prior's spectrum alone, and reports the
measured error against ``z0`` as that closed form's floor.
"""
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from latent_elevator import (
    AnalyticDenoiser,
    CrossFrameDenoiser,
    baseline_sample,
    ddim_invert,
    ddim_sample,
    ddim_step,
    elevate_sample,
    forward_diffuse,
    gaussian_mask,
    lpff,
    make_attention_params,
    make_default_plan,
    make_schedule,
    select_timesteps,
)
from latent_elevator.attention import attention
from latent_elevator.harness import DEFAULT_CONFIG, run as harness_run
from latent_elevator.metrics import MetricReport, compute_report, frame_consistency
from latent_elevator.schedule import NoiseSchedule
from latent_elevator.synth import make_gp_prior, sample_prior

from conftest import dft_matrix, project_clean, recipe_denoiser, sample_by_hops
from test_attention import bound_at, f32_atol, naive_attention
from test_denoiser import oracle_eps
from test_freqfilter import dft_filter_oracle


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


SEEDS = range(20)
SHAPE = (16, 4, 16, 16)


class RunsCache:
    """Lazily built library of pipeline outputs shared by criteria 4-7."""

    def __init__(self):
        self._latents = {}
        self.prior_v = make_gp_prior(*SHAPE, rho=0.9, spectrum_kind="lowpass")
        self.prior_i = make_gp_prior(*SHAPE, rho=0.0, spectrum_kind="broadband")

    def _build(self, variant, seed):
        if variant in ("elevate", "same_noise", "random_noise"):
            inversion = "ddim" if variant == "elevate" else variant
            plan = make_default_plan(seed=seed, inversion=inversion)
            z, _ = elevate_sample(plan)
            return z
        if variant == "no_lpff":
            plan = make_default_plan(seed=seed, filter={"d0": float("inf")})
            z, _ = elevate_sample(plan)
            return z
        if variant == "spatial_temporal":
            plan = make_default_plan(seed=seed,
                                     filter={"axes": ["temporal", "spatial"]})
            z, _ = elevate_sample(plan)
            return z
        if variant == "t2v50":
            z, _ = baseline_sample(make_default_plan(seed=seed))
        elif variant == "t2v100":
            z, _ = baseline_sample(make_default_plan(seed=seed, num_steps=100))
        elif variant == "t2i50":
            z, _ = elevate_sample(make_default_plan(seed=seed, num_refine_steps=0))
        else:
            raise KeyError(variant)
        return z

    def latent(self, variant, seed):
        key = (variant, seed)
        if key not in self._latents:
            self._latents[key] = self._build(variant, seed)
        return self._latents[key]

    def median_metric(self, variant, name):
        values = []
        for seed in SEEDS:
            report = compute_report(self.latent(variant, seed),
                                    self.prior_v, self.prior_i)
            values.append(getattr(report, name))
        return float(np.median(values))


@pytest.fixture(scope="module")
def cache():
    return RunsCache()


def test_criterion_1_equation_oracles(sched_t2i):
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    # forward/project round trip, 1e-6
    for _ in range(50):
        t = int(rng.integers(1, 1001))
        z0 = rng.standard_normal((4, 2, 4, 4))
        eps = rng.standard_normal((4, 2, 4, 4))
        z_t = forward_diffuse(z0, t, eps, sched_t2i)
        np.testing.assert_allclose(project_clean(z_t, eps, t, sched_t2i), z0,
                                   rtol=1e-6, atol=1e-9)

    # ddim_step hand arithmetic, 1e-6
    s = NoiseSchedule(alpha_bar=np.array([1.0, 0.81, 0.25]), kind="linear_beta")

    class Ones:
        schedule = s

        def predict_eps(self, z, t):
            return np.ones_like(z)

    out = ddim_step(Ones(), np.ones((1, 1, 2, 2)), 2, 1)
    assert abs(out[0, 0, 0, 0] - 0.6770441675420776) < 1e-6
    zero_out = ddim_step(Ones(), np.ones((1, 1, 2, 2)) * 0 + 1, 2, 1)
    assert abs(zero_out[0, 0, 0, 0] - (0.9 * (1 - np.sqrt(0.75)) / 0.5
                                       + np.sqrt(0.19))) < 1e-6

    # lpff vs direct DFT oracle, 1e-6
    video = rng.standard_normal((8, 2, 4, 4))
    mask = gaussian_mask(8, 0.2)
    np.testing.assert_allclose(lpff(video, mask),
                               dft_filter_oracle(video, mask.gains).real,
                               rtol=1e-6, atol=1e-9)

    # attention vs naive oracle: float32 blocks within their rounding bound
    # on 100 draws, float64 blocks to 1e-12 on a draw between the limits
    for _ in range(100):
        q, k, v = (rng.standard_normal((5, 4)), rng.standard_normal((7, 4)),
                   rng.standard_normal((7, 4)))
        np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                                   rtol=0, atol=f32_atol(q, k, v))
    q, k, v = bound_at(rng, 300.0)
    np.testing.assert_allclose(attention(q, k, v), naive_attention(q, k, v),
                               rtol=1e-12, atol=0)

    # analytic noise prediction vs dense posterior oracle, 1e-5, 100 pairs
    prior = make_gp_prior(4, 2, 4, 4, rho=0.7, spectrum_kind="broadband",
                          variance_scale=1.2)
    den = AnalyticDenoiser(prior, sched_t2i)
    for _ in range(100):
        t = int(rng.integers(1, 1001))
        z = rng.standard_normal((4, 2, 4, 4))
        np.testing.assert_allclose(
            den.predict_eps(z, t),
            oracle_eps(prior, z, t, sched_t2i),
            rtol=1e-5, atol=1e-8,
        )

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(1, ok, f"all equation oracles matched; {elapsed:.1f}s (budget 10s)")
    assert ok


def _roundtrip_gain(alpha_bar, steps, lam):
    """Closed-form per-mode gain of invert-up-then-sample-down on ``steps``.

    For a zero-mean Gaussian prior with covariance eigenvalue ``lam`` the
    optimal noise prediction at ``ab`` is ``sqrt(1 - ab) / (ab * lam + 1 -
    ab)`` times the mode, so every hop scales the mode by a scalar. Both
    the inversion hop up a grid interval and the sampling step back down
    it evaluate the model at the interval's upper end; the round trip is
    the product of all those hop gains.
    """
    def hop(ab_from, ab_to, eps_gain):
        # project to clean at ab_from, re-noise to ab_to, same noise estimate
        return (np.sqrt(ab_to / ab_from) * (1.0 - np.sqrt(1.0 - ab_from) * eps_gain)
                + np.sqrt(1.0 - ab_to) * eps_gain)

    gain = np.ones_like(lam)
    up = [0] + sorted(steps)
    for lo, hi in zip(up[:-1], up[1:]):
        ab_lo, ab_hi = alpha_bar[lo], alpha_bar[hi]
        eps_gain = np.sqrt(1.0 - ab_hi) / (ab_hi * lam + 1.0 - ab_hi)
        gain = gain * hop(ab_lo, ab_hi, eps_gain) * hop(ab_hi, ab_lo, eps_gain)
    return gain


def test_criterion_2_inversion_reconstruction(sched_t2i):
    start = time.perf_counter()
    prior = make_gp_prior(16, 4, 8, 8, rho=0.0, spectrum_kind="broadband")
    den = AnalyticDenoiser(prior, sched_t2i)
    grid = select_timesteps(sched_t2i, 50)
    # rho == 0: every temporal eigenvalue is 1, so the covariance is
    # diagonal in the 2-D DFT basis with the scaled spatial spectrum.
    lam = prior.variance_scale * prior.spatial_spectrum
    gain = _roundtrip_gain(sched_t2i.alpha_bar, grid.steps, lam).ravel()
    f2 = np.kron(dft_matrix(8), dft_matrix(8))
    oracle_map = (f2.conj().T @ np.diag(gain) @ f2).real
    errs, floors, mismatches = [], [], []
    for seed in SEEDS:
        z0 = sample_prior(prior, np.random.default_rng(seed))
        top = ddim_invert(den, z0, grid)
        back = ddim_sample(den, top, grid)
        expected = (z0.reshape(-1, 64) @ oracle_map.T).reshape(z0.shape)
        norm = np.linalg.norm(z0)
        errs.append(float(np.linalg.norm(back - z0) / norm))
        floors.append(float(np.linalg.norm(expected - z0) / norm))
        mismatches.append(float(np.linalg.norm(back - expected) / norm))
    elapsed = time.perf_counter() - start
    mismatch = max(mismatches)
    ok = mismatch < 1e-6 and elapsed < 30.0
    _report(2, ok, f"max rel reconstruction err {max(errs):.3e} over 20 seeds "
                   f"(closed-form floor {max(floors):.3e}); oracle mismatch "
                   f"{mismatch:.1e} (tolerance 1e-6), {elapsed:.1f}s "
                   f"(budget 30s)")
    assert elapsed < 30.0
    assert mismatch < 1e-6, (
        f"invert-then-sample deviates from the closed-form per-mode gain "
        f"product by {mismatch:.3e} (relative to ||z0||)"
    )


def test_criterion_3_sampling_fidelity(sched_t2i):
    start = time.perf_counter()
    n_samples, base_c = 2000, 2
    # samples folded into the channel axis: channels are independent and
    # identically distributed under the flat prior
    prior = make_gp_prior(4, base_c * n_samples, 4, 4, spectrum_kind="flat")
    den = AnalyticDenoiser(prior, sched_t2i)
    grid = select_timesteps(sched_t2i, 50)
    rng = np.random.default_rng(42)
    z = rng.standard_normal(prior.shape)
    out = ddim_sample(den, z, grid)
    samples = out.reshape(4, n_samples, base_c, 4, 4).transpose(1, 0, 2, 3, 4)
    bias = samples.mean(axis=0)
    var = samples.var(axis=0)
    mean_abs_bias = float(np.abs(bias).mean())
    mean_var = float(var.mean())
    elapsed = time.perf_counter() - start
    ok = mean_abs_bias < 0.05 and 0.9 <= mean_var <= 1.1 and elapsed < 120.0
    _report(3, ok, f"per-dim |bias| mean {mean_abs_bias:.4f} (<0.05), variance "
                   f"mean {mean_var:.4f} (within 10% of 1), {elapsed:.1f}s "
                   f"(budget 120s)")
    assert mean_abs_bias < 0.05
    assert 0.9 <= mean_var <= 1.1
    assert elapsed < 120.0


def test_criterion_4_inversion_strategy_ordering(cache):
    start = time.perf_counter()
    fc = {v: cache.median_metric(v, "frame_consistency")
          for v in ("same_noise", "elevate", "random_noise")}
    elapsed = time.perf_counter() - start
    ordered = fc["same_noise"] >= fc["elevate"] >= fc["random_noise"]
    separated = fc["same_noise"] - fc["random_noise"] > 0.02
    ok = ordered and separated and elapsed < 300.0
    _report(4, ok, f"frame consistency same={fc['same_noise']:.4f} >= "
                   f"ddim={fc['elevate']:.4f} >= random={fc['random_noise']:.4f}, "
                   f"separation {fc['same_noise'] - fc['random_noise']:.4f} (>0.02), "
                   f"{elapsed:.0f}s (budget 300s)")
    assert ordered and separated
    assert elapsed < 300.0


def test_criterion_5_filter_ordering(cache):
    start = time.perf_counter()
    flicker_with = cache.median_metric("elevate", "flicker_energy")
    flicker_without = cache.median_metric("no_lpff", "flicker_energy")
    detail_temporal = cache.median_metric("elevate", "spatial_detail")
    detail_spatiotemporal = cache.median_metric("spatial_temporal", "spatial_detail")
    elapsed = time.perf_counter() - start
    ok = (flicker_with < flicker_without
          and detail_temporal > detail_spatiotemporal
          and elapsed < 300.0)
    _report(5, ok, f"flicker with/without LPFF {flicker_with:.4f}/"
                   f"{flicker_without:.4f}, detail temporal/spatial-temporal "
                   f"{detail_temporal:.4f}/{detail_spatiotemporal:.4f}, "
                   f"{elapsed:.0f}s (budget 300s)")
    assert flicker_with < flicker_without
    assert detail_temporal > detail_spatiotemporal
    assert elapsed < 300.0


def test_criterion_6_elevation_effect(cache):
    start = time.perf_counter()
    sd_elev = cache.median_metric("elevate", "spectrum_distance_t2i")
    sd_t2v = cache.median_metric("t2v50", "spectrum_distance_t2i")
    fc_elev = cache.median_metric("elevate", "frame_consistency")
    fc_t2i = cache.median_metric("t2i50", "frame_consistency")
    elapsed = time.perf_counter() - start
    ok = sd_elev < sd_t2v and fc_elev > fc_t2i and elapsed < 600.0
    _report(6, ok, f"spectrum distance to image prior elevated/t2v "
                   f"{sd_elev:.4f}/{sd_t2v:.4f}, frame consistency elevated/t2i "
                   f"{fc_elev:.4f}/{fc_t2i:.4f}, {elapsed:.0f}s (budget 600s)")
    assert sd_elev < sd_t2v
    assert fc_elev > fc_t2i
    assert elapsed < 600.0


def test_criterion_7_step_count_insensitivity(cache):
    start = time.perf_counter()
    improvements = {
        "spectrum_distance_t2i": abs(
            cache.median_metric("elevate", "spectrum_distance_t2i")
            - cache.median_metric("t2v50", "spectrum_distance_t2i")
        ),
        "frame_consistency": abs(
            cache.median_metric("elevate", "frame_consistency")
            - cache.median_metric("t2i50", "frame_consistency")
        ),
    }
    drifts = {
        name: abs(cache.median_metric("t2v100", name)
                  - cache.median_metric("t2v50", name))
        for name in improvements
    }
    elapsed = time.perf_counter() - start
    ok = all(drifts[n] < improvements[n] / 2 for n in improvements)
    ok = ok and elapsed < 600.0
    detail = ", ".join(f"{n}: drift {drifts[n]:.4f} < half-improvement "
                       f"{improvements[n] / 2:.4f}" for n in improvements)
    _report(7, ok, f"{detail}, {elapsed:.0f}s (budget 600s)")
    for name in improvements:
        assert drifts[name] < improvements[name] / 2, name
    assert elapsed < 600.0


def test_criterion_8_degenerate_equivalences(sched_t2i):
    # refine-free elevation is bit-identical to the inflated image model's
    # plain chain of ddim_step hops from the same seeded noise
    plan = make_default_plan(shape=(8, 2, 8, 8), num_refine_steps=0, seed=13)
    z_elev, _ = elevate_sample(plan)
    z_hops = sample_by_hops(plan.t2i_model,
                            np.random.default_rng(13).standard_normal(plan.shape),
                            [*plan.grid.steps, 0])
    bit_identical = np.array_equal(z_elev, z_hops)

    # a zero-mix wrapper is bit-identical to its base
    base = recipe_denoiser("t2i", (4, 4, 8, 8))
    wrapped = CrossFrameDenoiser(base, make_attention_params(4), mix=0.0)
    z = np.random.default_rng(3).standard_normal((4, 4, 8, 8))
    wrapper_identity = np.array_equal(
        wrapped.predict_eps(z, 500),
        base.predict_eps(z, 500),
    )

    # deterministic sampling ignores the global random stream, the only one
    # a generator-free sampler could read
    den = AnalyticDenoiser(make_gp_prior(4, 2, 4, 4, spectrum_kind="flat"), sched_t2i)
    grid = select_timesteps(sched_t2i, 25)
    z0 = np.random.default_rng(1).standard_normal((4, 2, 4, 4))
    np.random.seed(111)
    a = ddim_sample(den, z0, grid)
    np.random.seed(222)
    b = ddim_sample(den, z0, grid)
    seed_independent = np.array_equal(a, b)

    ok = bit_identical and wrapper_identity and seed_independent
    _report(8, ok, f"refine-free==image chain {bit_identical}, mix0==base "
                   f"{wrapper_identity}, sampler global-seed-independent {seed_independent}")
    assert bit_identical and wrapper_identity and seed_independent


def test_criterion_9_manifest_reproducibility(tmp_path):
    config = {
        "mode": "elevate",
        "seeds": [0, 1],
        "shape": [4, 4, 8, 8],
        "plan": {"num_steps": 8, "num_refine_steps": 2, "n_sdedit": 2},
    }
    first = harness_run(config, output_dir=tmp_path / "a")
    replay = json.loads(json.dumps(first["resolved_config"]))
    replay["output_dir"] = None
    second = harness_run(replay, output_dir=tmp_path / "b")
    ok = first["files"] == second["files"]
    _report(9, ok, f"{len(first['files'])} artifacts, checksums "
                   f"{'identical' if ok else 'DIFFER'} across re-run")
    assert ok


def test_criterion_10_stylistic_synthesis(cache):
    """A personalized image model is the recipe's image prior with a style
    mean ``m``, a static diagonal cosine in every frame and channel. Each
    latent is scored by its style coefficient ``<z, m> / <m, m>``.
    Elevation carries the style, which the video model alone lacks, and
    keeps the video model's frame consistency, which the styled image
    baseline (refine-free ``elevate``) loses. The thresholds hold on every
    seed; over seeds 0-19 the per-seed extremes were a style coefficient of
    at least 0.599 for ``elevate`` and at most 0.069 in size for
    ``baseline_t2v``, and a frame-consistency gain of at least 0.735."""
    start = time.perf_counter()
    h, w = SHAPE[2:]
    y, x = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    style = np.broadcast_to(np.cos(2 * np.pi * (2 * y + 3 * x)), SHAPE)
    p, sched = DEFAULT_CONFIG["priors"]["t2i"], DEFAULT_CONFIG["schedules"]
    styled = AnalyticDenoiser(make_gp_prior(*SHAPE, p["rho"], p["spectrum_kind"],
                                            p["variance_scale"], mean=style),
                              make_schedule(sched["t2i"], sched["total_steps"]))

    def coefficient(z):
        return float(np.vdot(z, style) / np.vdot(style, style))

    def styled_sample(seed, **plan):
        default = make_default_plan(seed=seed, **plan)
        inflated = default.t2i_model
        return elevate_sample(replace(default, t2i_model=CrossFrameDenoiser(
            styled, inflated.params, inflated.mix)))[0]

    elev_style, video_style, consistency_gain = [], [], []
    for seed in SEEDS:
        z_elev = styled_sample(seed)
        z_image = styled_sample(seed, num_refine_steps=0)
        elev_style.append(coefficient(z_elev))
        video_style.append(abs(coefficient(cache.latent("t2v50", seed))))
        consistency_gain.append(frame_consistency(z_elev) - frame_consistency(z_image))
    elapsed = time.perf_counter() - start
    margins = {"elevate style >= 0.5": min(elev_style) - 0.5,
               "|baseline_t2v style| <= 0.1": 0.1 - max(video_style),
               "consistency gain over image baseline >= 0.5": min(consistency_gain) - 0.5}
    ok = all(m > 0 for m in margins.values()) and elapsed < 120.0
    _report(10, ok, f"per-seed style coefficient elevate min {min(elev_style):.4f}, "
                    f"|baseline_t2v| max {max(video_style):.4f}, frame consistency "
                    f"gain over styled image baseline min {min(consistency_gain):.4f}; "
                    "margins " + ", ".join(f"{k}: {m:.4f}" for k, m in margins.items())
                    + f"; {elapsed:.0f}s (budget 120s)")
    for name, margin in margins.items():
        assert margin > 0, name
    assert elapsed < 120.0


SWEEP_COUNTS = (1, 2, 3, 5, 10, 25, 26, 50)
SWEEP_SEEDS = range(6)


def test_refining_count_sweep(cache):
    """The refining count as a reported trade-off, not a criterion: one
    ``SWEEP`` line per count with the seed 0-5 medians of every metric and
    the seeds on which ``elevate`` beats the video baseline on frame
    consistency and the image baseline on spectrum distance to the image
    prior, losing counts included. Up to 25 of the 50 steps the refining
    steps spread over the grid's high-noise half, from 26 over the whole
    grid, where the last steps' SDEdit chains stop at its end. Asserted is
    only that every count builds and runs."""
    start = time.perf_counter()
    recipe = DEFAULT_CONFIG["plan"]["num_refine_steps"]

    def reports(latents):
        return [compute_report(z, cache.prior_v, cache.prior_i) for z in latents]

    def medians(rows):
        return ", ".join(f"{name} {np.median([getattr(r, name) for r in rows]):.4f}"
                         for name in MetricReport.field_names())

    video, image = (reports(cache.latent(v, seed) for seed in SWEEP_SEEDS)
                    for v in ("t2v50", "t2i50"))
    print(f"\nSWEEP baseline_t2v: {medians(video)}")
    print(f"SWEEP baseline_t2i: {medians(image)}")
    for count in SWEEP_COUNTS:
        if count == recipe:
            latents = [cache.latent("elevate", seed) for seed in SWEEP_SEEDS]
        else:
            latents = [elevate_sample(make_default_plan(seed=seed, num_refine_steps=count))[0]
                       for seed in SWEEP_SEEDS]
        rows = reports(latents)
        fc_wins = sum(r.frame_consistency > v.frame_consistency for r, v in zip(rows, video))
        sd_wins = sum(r.spectrum_distance_t2i < i.spectrum_distance_t2i
                      for r, i in zip(rows, image))
        print(f"SWEEP num_refine_steps {count}: {medians(rows)}; frame consistency above "
              f"baseline_t2v on {fc_wins}/{len(rows)} seeds, spectrum distance to the image "
              f"prior below baseline_t2i on {sd_wins}/{len(rows)} seeds")
    print(f"SWEEP {len(SWEEP_COUNTS)} counts x {len(SWEEP_SEEDS)} seeds, "
          f"{time.perf_counter() - start:.1f}s")
