import importlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from latent_elevator import (
    AnalyticDenoiser,
    CrossFrameDenoiser,
    TimestepGrid,
    baseline_sample,
    ddim_sample,
    ddim_step,
    elevate_sample,
    elevate_spatial,
    forward_diffuse,
    gaussian_mask,
    make_default_plan,
    make_schedule,
    refine_temporal,
    trace_violations,
)
from latent_elevator.elevate import _record
from latent_elevator.freqfilter import lpff
from latent_elevator.harness import build_plan, resolve_config
from latent_elevator.metrics import frame_consistency, spatial_detail
from latent_elevator.sampler import sdedit_chain
from latent_elevator.synth import make_gp_prior, sample_prior

from conftest import invert_by_hops, project_clean, recipe_denoiser, sample_by_hops

SMALL = (8, 2, 8, 8)


@pytest.fixture(scope="module")
def small_plan():
    return make_default_plan(shape=SMALL)


@pytest.fixture(scope="module")
def refine_free_plan():
    """The image baseline: the small plan with no refining steps."""
    return make_default_plan(shape=SMALL, num_refine_steps=0)


def seeded_noise(plan):
    return np.random.default_rng(plan.seed).standard_normal(plan.shape)


def sample_down(model, z, t, grid):
    return ddim_sample(model, z, TimestepGrid(steps=tuple(u for u in grid.steps if u <= t)))


class TestPlanValidation:
    def test_mismatched_total_steps(self, small_plan):
        video = AnalyticDenoiser(small_plan.t2v_model.prior,
                                 make_schedule("scaled_linear_beta", 500))
        with pytest.raises(ValueError, match="share total_steps"):
            replace(small_plan, t2v_model=video)

    def test_unknown_inversion(self, small_plan):
        with pytest.raises(ValueError, match="inversion strategy"):
            replace(small_plan, inversion="oracle")

    def test_sdedit_depth(self, small_plan):
        """An SDEdit chain stops at the grid's end: on a plan that refines
        only the grid's last step (depth 1), an ``n_sdedit`` past that depth
        is the same plan as one equal to it, latent and trace bit for bit."""
        deep = frozenset({small_plan.grid.steps[-1]})
        grid = TimestepGrid(steps=small_plan.grid.steps, refine_set=deep)
        z, trace = elevate_sample(replace(small_plan, grid=grid, n_sdedit=1))
        for n_sdedit in (2, 9):
            z_deep, trace_deep = elevate_sample(replace(small_plan, grid=grid,
                                                        n_sdedit=n_sdedit))
            assert np.array_equal(z_deep, z)
            assert trace_deep == trace

    def test_image_prior_shape(self, small_plan):
        other = CrossFrameDenoiser(recipe_denoiser("t2i", (4, 2, 8, 8)),
                                   small_plan.t2i_model.params, small_plan.t2i_model.mix)
        with pytest.raises(ValueError, match=r"image prior shape \(4, 2, 8, 8\) != "
                                             r"video prior shape \(8, 2, 8, 8\)"):
            replace(small_plan, t2i_model=other)

    def test_shape_is_the_video_priors(self, small_plan):
        assert "shape" not in {f.name for f in fields(small_plan)}
        assert small_plan.shape == small_plan.t2v_model.prior.shape == SMALL

    def test_mask_length(self, small_plan):
        with pytest.raises(ValueError, match="mask length"):
            replace(small_plan, filter_mask=gaussian_mask(4, math.inf))

    def test_mask_spatial_shape(self):
        """Spatial gains that do not fit the frame are rejected with the
        plan, not at the first refining step's filter."""
        plan = make_default_plan(shape=[4, 4, 8, 8], num_steps=8, num_refine_steps=2,
                                 n_sdedit=2)
        mask = gaussian_mask(4, 0.25, spatial_shape=(6, 6))
        with pytest.raises(ValueError, match=r"spatial gains \(6, 6\) != frame shape \(8, 8\)"):
            replace(plan, filter_mask=mask)
        fitting = replace(plan, filter_mask=gaussian_mask(4, 0.25, spatial_shape=(8, 8)))
        assert np.all(np.isfinite(elevate_sample(fitting)[0]))

    def test_grid_within_the_schedules(self):
        """A grid must have a first step, at or below ``total_steps``, where
        sampling starts: a plan that breaks that is rejected when built,
        not in its first refining projection or its ``init`` record."""
        plan = make_default_plan(shape=[4, 4, 8, 8], num_steps=8, num_refine_steps=2,
                                 n_sdedit=2)
        top, *rest = plan.grid.steps
        assert top == 1000 and top in plan.grid.refine_set
        beyond = TimestepGrid(steps=(1500, *rest),
                              refine_set=plan.grid.refine_set - {top} | {1500})
        with pytest.raises(ValueError, match=r"start at or below total_steps 1000, "
                                             r"got steps \(1500,\)"):
            replace(plan, grid=beyond)
        with pytest.raises(ValueError, match="grid must be nonempty"):
            replace(plan, grid=TimestepGrid(steps=()))


class TestRefineTemporal:
    def test_requires_refinable_step(self, small_plan, rng):
        t = small_plan.grid.steps[1]
        assert t not in small_plan.grid.refine_set
        with pytest.raises(ValueError, match="not refinable"):
            refine_temporal(rng.standard_normal(SMALL), t, small_plan, rng, [])

    def test_degenerate_plan_preserves_handoff_content(self, sched_t2i):
        """With no video-model iterations and an identity filter, refining
        reduces to project -> invert; sampling the result back down must
        reconstruct the projected content within the inversion error
        (stateless one-call-per-hop inversion reconstructs with an error
        that is first order, O(1/K); on this 50-step grid that is about
        1.5e-2)."""
        plan = make_default_plan(shape=SMALL, n_sdedit=0, filter={"d0": math.inf})
        exact = plan.t2i_model.base
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            t = max(plan.grid.refine_set)
            z_t = rng.standard_normal(SMALL)
            clean_in = project_clean(
                z_t, exact.predict_eps(z_t, t), t, sched_t2i
            )
            z_back = sample_down(exact, refine_temporal(z_t, t, plan, rng, []), t,
                                 plan.grid)
            errs.append(np.linalg.norm(z_back - clean_in) / np.linalg.norm(clean_in))
        assert max(errs) < 0.03

    def test_full_refine_preserves_refined_content(self, sched_t2i):
        """The inversion hand-off transports exactly the video-model-refined
        clean content: replaying the same partial re-noising outside the
        refiner and sampling the refined latent back down agree to the
        inversion error."""
        plan = make_default_plan(shape=SMALL)
        exact = plan.t2i_model.base
        t = max(plan.grid.refine_set)
        for seed in (0, 1):
            z_t = np.random.default_rng(seed).standard_normal(SMALL)
            z_tilde = refine_temporal(z_t, t, plan, np.random.default_rng(seed + 50), [])

            # replay the refiner's internals with an identical stream
            rng2 = np.random.default_rng(seed + 50)
            clean = project_clean(
                z_t, exact.predict_eps(z_t, t), t, sched_t2i
            )
            clean = lpff(clean, plan.filter_mask)
            below = plan.grid.steps[plan.grid.index_of(t):]
            clean2 = sdedit_chain(plan.t2v_model, clean,
                                  TimestepGrid(below[:plan.n_sdedit + 1]), rng2)

            z_back = sample_down(exact, z_tilde, t, plan.grid)
            err = np.linalg.norm(z_back - clean2) / np.linalg.norm(clean2)
            assert err < 0.03

    def test_sdedit_chain_down_to_timestep_zero(self):
        """An SDEdit chain as deep as the grid below its refining step runs
        to timestep 0, where the video model's latent is already clean; a
        deeper ``n_sdedit`` stops there too, bit for bit."""
        shape = (4, 4, 8, 8)
        knobs = {"num_steps": 8, "num_refine_steps": 1}
        plan = make_default_plan(shape=shape, n_sdedit=8, **knobs)
        (t,) = plan.grid.refine_set
        assert plan.grid.steps.index(t) + plan.n_sdedit == len(plan.grid.steps)
        z, trace = elevate_sample(plan)
        assert [(r["timestep"], r["space"]) for r in trace
                if r["phase"] == "refine.sdedit"] == [(t, "clean")]
        assert trace_violations(trace) == []
        assert np.all(np.isfinite(z))
        for n_sdedit in (9, 60):
            z_deep, trace_deep = elevate_sample(
                make_default_plan(shape=shape, n_sdedit=n_sdedit, **knobs))
            assert np.array_equal(z_deep, z)
            assert trace_deep == trace

    @pytest.mark.parametrize("shape, knobs", [
        (SMALL, {}),
        ((4, 4, 8, 8), {"num_steps": 8, "num_refine_steps": 1, "n_sdedit": 8}),
        ((3, 2, 5, 7), {"num_steps": 12, "num_refine_steps": 3, "n_sdedit": 2}),
    ])
    def test_exact_replay(self, shape, knobs):
        """A refining step is exactly its recipe replayed by hand from the
        step-by-step oracles: the image model's clean projection, the
        filter, one forward draw from a generator of the same seed and the
        video model's ``ddim_step`` chain over ``n_sdedit`` grid hops and
        then to 0, and the image model's hop-by-hop inversion up the grid
        from 0 to ``t``. Its trace is the four phases, all at ``t``."""
        plan = make_default_plan(shape=shape, **knobs)
        s_i, s_v = plan.t2i_model.schedule, plan.t2v_model.schedule
        base = plan.t2i_model.base
        worst = 0.0
        for t in plan.grid.refine_set:
            below = plan.grid.steps[plan.grid.index_of(t):]
            for seed in range(3):
                z_t = np.random.default_rng(seed + 20).standard_normal(shape)
                trace = []
                got = refine_temporal(z_t, t, plan, np.random.default_rng(seed), trace)
                clean = lpff(project_clean(z_t, base.predict_eps(z_t, t), t, s_i),
                             plan.filter_mask)
                eps = np.random.default_rng(seed).standard_normal(shape)
                clean = sample_by_hops(plan.t2v_model, forward_diffuse(clean, t, eps, s_v),
                                       [*below[:plan.n_sdedit + 1], 0])
                expected = invert_by_hops(base, clean, TimestepGrid(steps=below))
                worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
                assert [(r["phase"], r["timestep"]) for r in trace] == [
                    ("refine.project", t), ("refine.lpff", t), ("refine.sdedit", t),
                    ("refine.invert.ddim", t)]
        assert worst < 1e-12, worst

    def test_refine_raises_temporal_correlation(self, sched_t2i):
        plan = make_default_plan(shape=SMALL)
        exact = plan.t2i_model.base
        prior_i = make_gp_prior(*SMALL, rho=0.0, spectrum_kind="broadband")
        t = max(plan.grid.refine_set)
        gains = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z0 = sample_prior(prior_i, rng)
            z_t = forward_diffuse(z0, t, rng.standard_normal(SMALL), sched_t2i)
            clean_in = project_clean(
                z_t, exact.predict_eps(z_t, t), t, sched_t2i
            )
            z_tilde = refine_temporal(z_t, t, plan, rng, [])
            clean_out = project_clean(
                z_tilde, exact.predict_eps(z_tilde, t), t, sched_t2i
            )
            gains.append(frame_consistency(clean_out) - frame_consistency(clean_in))
        assert np.median(gains) > 0

    def test_inversion_strategy_draws(self, small_plan, rng):
        # the noise-based strategies produce fresh latents at t; same_noise
        # shares one draw across frames
        t = max(small_plan.grid.refine_set)
        z_t = rng.standard_normal(SMALL)
        for strategy in ("same_noise", "random_noise"):
            plan = replace(small_plan, inversion=strategy)
            out = refine_temporal(z_t, t, plan, np.random.default_rng(3), [])
            assert out.shape == SMALL
            assert np.all(np.isfinite(out))
        plan = replace(small_plan, inversion="same_noise", n_sdedit=0,
                       filter_mask=gaussian_mask(SMALL[0], math.inf))
        out = refine_temporal(z_t, t, plan, np.random.default_rng(3), [])
        # shared forward noise: frame differences carry only the clean content
        s = plan.t2i_model.schedule
        exact = plan.t2i_model.base
        clean = project_clean(z_t, exact.predict_eps(z_t, t), t, s)
        resid = out - np.sqrt(s.alpha_bar[t]) * clean
        np.testing.assert_allclose(resid[1:], resid[:-1], rtol=1e-9, atol=1e-12)


class TestElevateSpatial:
    def test_exact_delegation(self, small_plan, rng):
        t, t_prev = small_plan.grid.steps[3], small_plan.grid.steps[4]
        z = rng.standard_normal(SMALL)
        np.testing.assert_array_equal(
            elevate_spatial(z, t, t_prev, small_plan, []),
            ddim_step(small_plan.t2i_model, z, t, t_prev),
        )

    def test_detail_injection_at_mid_chain(self, small_plan, sched_t2i):
        prior_v = make_gp_prior(*SMALL, rho=0.9, spectrum_kind="lowpass")
        exact = small_plan.t2i_model.base
        steps = small_plan.grid.steps
        i_mid = len(steps) // 2
        t, t_prev = steps[i_mid], steps[i_mid + 1]
        diffs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            zv = sample_prior(prior_v, rng)
            z_t = forward_diffuse(zv, t, rng.standard_normal(SMALL), sched_t2i)
            before = spatial_detail(project_clean(
                z_t, exact.predict_eps(z_t, t), t, sched_t2i))
            z_next = elevate_spatial(z_t, t, t_prev, small_plan, [])
            after = spatial_detail(project_clean(
                z_next, exact.predict_eps(z_next, t_prev),
                t_prev, sched_t2i))
            diffs.append(after - before)
        assert np.median(diffs) > 0


class TestElevateSample:
    def test_no_refine_equals_t2i_baseline_bitwise(self, refine_free_plan):
        """Refine-free elevation is the image baseline: the inflated image
        model's chain of ``ddim_step`` hops from the seeded noise."""
        plan = replace(refine_free_plan, seed=11)
        z_elev, _ = elevate_sample(plan)
        z_ref = sample_by_hops(plan.t2i_model, seeded_noise(plan),
                               [*plan.grid.steps, 0])
        np.testing.assert_array_equal(z_elev, z_ref)

    def test_same_seed_bitwise_reproducible(self):
        plan = make_default_plan(shape=SMALL, seed=5)
        a, trace_a = elevate_sample(plan)
        b, trace_b = elevate_sample(plan)
        np.testing.assert_array_equal(a, b)
        assert trace_a == trace_b

    def test_two_axis_improvement_small(self, refine_free_plan):
        # reduced-seed version of the full elevation-effect criterion
        pv = make_gp_prior(*SMALL, rho=0.9, spectrum_kind="lowpass")
        pi = make_gp_prior(*SMALL, rho=0.0, spectrum_kind="broadband")
        from latent_elevator.metrics import spectrum_distance
        elev_sd, t2v_sd, elev_fc, t2i_fc = [], [], [], []
        for seed in range(5):
            plan = make_default_plan(shape=SMALL, seed=seed)
            z, _ = elevate_sample(plan)
            elev_sd.append(spectrum_distance(z, pi))
            elev_fc.append(frame_consistency(z))
            zb, _ = baseline_sample(plan)
            t2v_sd.append(spectrum_distance(zb, pi))
            zb, _ = elevate_sample(replace(refine_free_plan, seed=seed))
            t2i_fc.append(frame_consistency(zb))
        assert np.median(elev_sd) < np.median(t2v_sd)
        assert np.median(elev_fc) > np.median(t2i_fc)

    def test_trace_structure(self):
        plan = make_default_plan(shape=SMALL, seed=1)
        _, trace = elevate_sample(plan)
        assert trace_violations(trace) == []
        phases = {r["phase"] for r in trace}
        assert phases == {"init", "refine.project", "refine.lpff", "refine.sdedit",
                          "refine.invert.ddim", "elevate.step"}
        assert len(trace) == 1 + len(plan.grid.steps) + 4 * len(plan.grid.refine_set)
        # one elevate record per grid step plus refine sub-phases
        assert sum(p == "elevate.step" for p in (r["phase"] for r in trace)) == len(
            plan.grid.steps
        )
        for r in trace:
            assert set(r) == {"timestep", "phase", "model", "space", "mean", "std",
                              "frame_corr"}
            assert np.isfinite(r["mean"]) and np.isfinite(r["std"])
        # one recipe per refining step: filter, then an SDEdit chain that
        # ends in the video model's clean latent at the refining step
        refined = sorted(plan.grid.refine_set, reverse=True)
        assert [r["timestep"] for r in trace if r["phase"] == "refine.lpff"] == refined
        assert [(r["timestep"], r["space"]) for r in trace
                if r["phase"] == "refine.sdedit"] == [(t, "clean") for t in refined]

    def test_trace_violation_detection(self):
        bad = [
            {"timestep": 500, "phase": "a", "model": "t2i", "space": "noise",
             "mean": 0.0, "std": 1.0, "frame_corr": 0.0},
            {"timestep": 500, "phase": "b", "model": "t2v", "space": "noise",
             "mean": 0.0, "std": 1.0, "frame_corr": 0.0},
        ]
        assert any("direct hand-off" in v for v in trace_violations(bad))


class TestTinyVideoPriorVariance:
    """Both refining projections are closed-form hops whose gains have no
    cancelling terms, so shrinking the video prior's variance below where
    a projection ``(z - q * eps) / r`` cancels (about 1e-16) leaves the
    default recipe's output measuring the same, to the float32 rounding of
    its attention blocks (at most 8.4e-12 here). That attention scales its
    values by a power of two first; without it, the eps values of about
    1e-99 that reach it at 1e-100 underflow float32 and move the measure by
    8.3e-5."""

    @staticmethod
    def consistency(variance):
        config = resolve_config({"render": False,
                                 "priors": {"t2v": {"variance_scale": variance}}})
        z, _ = elevate_sample(build_plan(config, seed=0))
        return frame_consistency(z)

    @pytest.fixture(scope="class")
    def reference(self):
        return self.consistency(1e-14)

    @pytest.mark.parametrize("variance", [1e-17, 1e-100, 1e-300])
    def test_frame_consistency_matches_1e_14(self, reference, variance):
        assert abs(self.consistency(variance) - reference) <= 1e-10


class TestBaseline:
    def test_equals_ddim_sample_bitwise(self, small_plan):
        plan = replace(small_plan, seed=3)
        z, trace = baseline_sample(plan)
        z_ref = sample_by_hops(plan.t2v_model, seeded_noise(plan),
                               [*plan.grid.steps, 0])
        np.testing.assert_array_equal(z, z_ref)
        assert trace_violations(trace) == []
        assert {r["phase"] for r in trace} == {"init", "baseline.step"}

    def test_t2v_more_consistent_than_t2i(self, small_plan, refine_free_plan):
        fc_v, fc_i = [], []
        for seed in range(5):
            zv, _ = baseline_sample(replace(small_plan, seed=seed))
            zi, _ = elevate_sample(replace(refine_free_plan, seed=seed))
            fc_v.append(frame_consistency(zv))
            fc_i.append(frame_consistency(zi))
        assert np.median(fc_v) > np.median(fc_i)


class TestRecord:
    def test_record_keys(self):
        """A record names the model, whose own schedule it ran on, and no
        schedule of its own."""
        trace: list = []
        _record(trace, 5, "x", "t2v", "noise", np.ones((2, 1, 2, 2)))
        assert list(trace[0]) == ["timestep", "phase", "model", "space", "mean", "std",
                                  "frame_corr"]
        assert trace[0]["frame_corr"] == 1.0

    def test_single_frame_corr_is_nan(self):
        trace: list = []
        _record(trace, 5, "x", "t2i", "noise", np.ones((1, 2, 4, 4)))
        assert math.isnan(trace[0]["frame_corr"])

    def test_zero_frame_corr_is_nan(self, rng):
        z = rng.standard_normal((4, 2, 4, 4))
        z[2] = 0.0
        trace: list = []
        _record(trace, 5, "x", "t2i", "noise", z)
        assert math.isnan(trace[0]["frame_corr"])

    @pytest.mark.parametrize("shape", [(2, 1, 2, 2), (16, 4, 16, 16)])
    def test_constant_frames_correlate_exactly(self, shape):
        trace: list = []
        _record(trace, 5, "x", "t2v", "noise", np.ones(shape))
        assert trace[0]["frame_corr"] == 1.0

    @pytest.mark.parametrize("offset", [0.0, 1e4], ids=["centered", "offset"])
    @pytest.mark.parametrize("seed", range(3))
    def test_statistics_match_numpy(self, offset, seed):
        """At a 1e4 offset a one-pass variance, ``E[z^2] - E[z]^2``, loses
        about 8 of its 16 digits; the record's two passes keep them all.
        ``frame_corr`` is a mean of cosines, each in [-1, 1], so its error
        is measured against that scale: on independent frames it is near 0."""
        z = offset + np.random.default_rng(seed).standard_normal((16, 4, 16, 16))
        trace: list = []
        _record(trace, 5, "x", "t2v", "noise", z)
        record = trace[0]
        assert abs(record["mean"] - np.mean(z)) <= 1e-14 * abs(np.mean(z))
        assert abs(record["std"] - np.std(z)) <= 1e-14 * np.std(z)
        flat = z.reshape(16, -1)
        norms = np.linalg.norm(flat, axis=1)
        cosines = np.sum(flat[:-1] * flat[1:], axis=1) / (norms[:-1] * norms[1:])
        assert record["frame_corr"] == frame_consistency(z)
        assert abs(record["frame_corr"] - np.mean(cosines)) <= 1e-14


    @pytest.mark.parametrize("k", [-700, 0, 508, 600])
    def test_power_of_two_scaling_scales_mean_and_std(self, k):
        """At 2**-700 times a unit latent every square underflows to 0; at
        2**508 times it the squares are finite but their sums overflow, and
        at 2**600 the squares overflow too. The record still holds the unit
        latent's statistics, ``mean`` and ``std`` scaled by the same power
        of two."""
        z = np.random.default_rng(0).standard_normal((16, 4, 16, 16))
        trace: list = []
        _record(trace, 5, "x", "t2v", "noise", z)
        _record(trace, 5, "x", "t2v", "noise", np.ldexp(z, k))
        unit, scaled = trace
        assert scaled["mean"] == math.ldexp(unit["mean"], k)
        assert scaled["std"] == math.ldexp(unit["std"], k)
        assert scaled["frame_corr"] == unit["frame_corr"]


class TestDefaultPlan:
    def test_default_geometry(self):
        plan = make_default_plan()
        assert plan.shape == (16, 4, 16, 16)
        assert len(plan.grid.steps) == 50
        assert len(plan.grid.refine_set) == 5
        assert plan.n_sdedit == 9
        assert plan.grid.steps[0] in plan.grid.refine_set
        assert plan.t2v_model.schedule.kind == "scaled_linear_beta"
        assert plan.t2i_model.schedule.kind == "linear_beta"

    def test_override_plumbing(self):
        plan = make_default_plan(shape=SMALL, num_steps=10, num_refine_steps=2,
                                 n_sdedit=3, seed=9)
        assert len(plan.grid.steps) == 10
        assert len(plan.grid.refine_set) == 2
        assert plan.n_sdedit == 3
        assert plan.seed == 9

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'plan.t2v_model'"):
            make_default_plan(shape=SMALL, t2v_model=None)


class TestEvaluationCounts:
    """Denoiser evaluations and attention calls of a default sample, counted
    by wrapping the model and the kernel from outside the program. Under the
    analytic models ``ddim_invert``, the SDEdit steps and both refining
    projections are closed form and evaluate no model, so a regression to
    hop-by-hop inversion (295 evaluations), SDEdit steps (105) or model-call
    projections (60) shows here."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"predict_eps": 0, "attention": 0}
        attention = importlib.import_module("latent_elevator.attention")

        def counting(owner, name, key):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(AnalyticDenoiser, "predict_eps", "predict_eps")
        counting(attention, "first_only_cross_frame", "attention")
        return counts

    def test_elevate_sample(self, counts):
        elevate_sample(make_default_plan())
        # the 50 elevating steps; refining evaluates no model
        assert counts == {"predict_eps": 50, "attention": 50}

    def test_baseline_sample(self, counts):
        baseline_sample(make_default_plan())
        assert counts == {"predict_eps": 50, "attention": 0}
