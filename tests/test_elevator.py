import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from latent_elevator import (
    AnalyticDenoiser,
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
    project_clean,
    refine_temporal,
    trace_violations,
)
from latent_elevator.elevate import _record, _sdedit_timesteps
from latent_elevator.metrics import frame_consistency, spatial_detail
from latent_elevator.sampler import sdedit_chain
from latent_elevator.synth import make_gp_prior, sample_prior

from conftest import sample_by_hops

SMALL = (8, 2, 8, 8)


@pytest.fixture(scope="module")
def small_plan():
    return make_default_plan(shape=SMALL)


def sample_down(model, z, t, grid, s):
    return ddim_sample(model, z, TimestepGrid(steps=tuple(u for u in grid.steps if u <= t)), s)


class TestPlanValidation:
    def test_mismatched_total_steps(self, small_plan):
        other = make_schedule("linear_beta", 500, beta_start=1e-4, beta_end=2e-2)
        with pytest.raises(ValueError, match="share total_steps"):
            replace(small_plan, t2v_schedule=other)

    def test_unknown_inversion(self, small_plan):
        with pytest.raises(ValueError, match="inversion strategy"):
            replace(small_plan, inversion="oracle")

    def test_sdedit_depth(self, small_plan):
        deep = frozenset({small_plan.grid.steps[-1]})
        grid = TimestepGrid(steps=small_plan.grid.steps, refine_set=deep)
        with pytest.raises(ValueError, match="exceeds grid depth"):
            replace(small_plan, grid=grid)

    def test_mask_length(self, small_plan):
        with pytest.raises(ValueError, match="mask length"):
            replace(small_plan, filter_mask=gaussian_mask(4, math.inf))


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
                z_t, exact.predict_eps(z_t, t, sched_t2i), t, sched_t2i
            )
            z_back = sample_down(exact, refine_temporal(z_t, t, plan, rng, []), t,
                                 plan.grid, sched_t2i)
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
                z_t, exact.predict_eps(z_t, t, sched_t2i), t, sched_t2i
            )
            from latent_elevator.freqfilter import lpff
            clean = lpff(clean, plan.filter_mask)
            idx = plan.grid.index_of(t)
            chain = list(plan.grid.steps[idx: idx + plan.n_sdedit + 1])
            z_v, t_out = sdedit_chain(plan.t2v_model, clean, chain,
                                      plan.t2v_schedule, rng2)
            eps_v = plan.t2v_model.predict_eps(z_v, t_out, plan.t2v_schedule)
            clean2 = project_clean(z_v, eps_v, t_out, plan.t2v_schedule)

            z_back = sample_down(exact, z_tilde, t, plan.grid, sched_t2i)
            err = np.linalg.norm(z_back - clean2) / np.linalg.norm(clean2)
            assert err < 0.03

    def test_sdedit_chain_down_to_timestep_zero(self):
        """An SDEdit chain as deep as the grid below its refining step runs
        to timestep 0, where the video model's latent is already clean."""
        shape = (4, 4, 8, 8)
        knobs = {"num_steps": 8, "num_refine_steps": 1}
        plan = make_default_plan(shape=shape, n_sdedit=8, **knobs)
        (t,) = plan.grid.refine_set
        assert _sdedit_timesteps(plan, t) == [*plan.grid.steps, 0]
        z, trace = elevate_sample(plan)
        for phase in ("refine.sdedit", "refine.project_t2v"):
            assert [r["timestep"] for r in trace if r["phase"] == phase] == [0]
        assert trace_violations(trace) == []
        assert np.all(np.isfinite(z))
        with pytest.raises(ValueError, match="exceeds grid depth"):
            make_default_plan(shape=shape, n_sdedit=9, **knobs)

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
                z_t, exact.predict_eps(z_t, t, sched_t2i), t, sched_t2i
            )
            z_tilde = refine_temporal(z_t, t, plan, rng, [])
            clean_out = project_clean(
                z_tilde, exact.predict_eps(z_tilde, t, sched_t2i), t, sched_t2i
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
        s = plan.t2i_schedule
        exact = plan.t2i_model.base
        clean = project_clean(z_t, exact.predict_eps(z_t, t, s), t, s)
        resid = out - np.sqrt(s.alpha_bar[t]) * clean
        np.testing.assert_allclose(resid[1:], resid[:-1], rtol=1e-9, atol=1e-12)


class TestElevateSpatial:
    def test_exact_delegation(self, small_plan, rng):
        t, t_prev = small_plan.grid.steps[3], small_plan.grid.steps[4]
        z = rng.standard_normal(SMALL)
        np.testing.assert_array_equal(
            elevate_spatial(z, t, t_prev, small_plan, []),
            ddim_step(small_plan.t2i_model, z, t, t_prev, small_plan.t2i_schedule),
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
                z_t, exact.predict_eps(z_t, t, sched_t2i), t, sched_t2i))
            z_next = elevate_spatial(z_t, t, t_prev, small_plan, [])
            after = spatial_detail(project_clean(
                z_next, exact.predict_eps(z_next, t_prev, sched_t2i),
                t_prev, sched_t2i))
            diffs.append(after - before)
        assert np.median(diffs) > 0


class TestElevateSample:
    def test_no_refine_equals_t2i_baseline_bitwise(self):
        plan = make_default_plan(shape=SMALL, num_refine_steps=0, seed=11)
        z_elev, _ = elevate_sample(plan)
        z_base, _ = baseline_sample(plan, "t2i")
        np.testing.assert_array_equal(z_elev, z_base)

    def test_same_seed_bitwise_reproducible(self):
        plan = make_default_plan(shape=SMALL, seed=5)
        a, trace_a = elevate_sample(plan)
        b, trace_b = elevate_sample(plan)
        np.testing.assert_array_equal(a, b)
        assert trace_a == trace_b

    def test_two_axis_improvement_small(self, sched_t2i):
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
            zb, _ = baseline_sample(plan, "t2v")
            t2v_sd.append(spectrum_distance(zb, pi))
            zb, _ = baseline_sample(plan, "t2i")
            t2i_fc.append(frame_consistency(zb))
        assert np.median(elev_sd) < np.median(t2v_sd)
        assert np.median(elev_fc) > np.median(t2i_fc)

    def test_trace_structure(self):
        plan = make_default_plan(shape=SMALL, seed=1)
        _, trace = elevate_sample(plan)
        assert trace_violations(trace) == []
        phases = {r["phase"] for r in trace}
        assert {"init", "refine.project", "refine.lpff", "refine.sdedit",
                "refine.project_t2v", "refine.invert.ddim",
                "elevate.step"} <= phases
        # one elevate record per grid step plus refine sub-phases
        assert sum(p == "elevate.step" for p in (r["phase"] for r in trace)) == len(
            plan.grid.steps
        )
        for r in trace:
            assert set(r) == {"timestep", "phase", "model", "schedule", "space",
                              "mean", "std", "frame_corr"}
            assert np.isfinite(r["mean"]) and np.isfinite(r["std"])
        # one recipe per refining step: filter, then an SDEdit chain
        # n_sdedit grid steps deep on the video schedule
        refined = sorted(plan.grid.refine_set, reverse=True)
        chain, steps = [*plan.grid.steps, 0], plan.grid.steps
        assert [r["timestep"] for r in trace if r["phase"] == "refine.lpff"] == refined
        assert [r["timestep"] for r in trace if r["phase"] == "refine.sdedit"] == [
            chain[steps.index(t) + plan.n_sdedit] for t in refined
        ]

    def test_trace_violation_detection(self):
        bad = [
            {"timestep": 500, "phase": "x", "model": "t2v", "schedule": "t2i",
             "space": "noise", "mean": 0.0, "std": 1.0, "frame_corr": 0.0},
        ]
        assert any("schedule isolation" in v for v in trace_violations(bad))
        bad = [
            {"timestep": 500, "phase": "a", "model": "t2i", "schedule": "t2i",
             "space": "noise", "mean": 0.0, "std": 1.0, "frame_corr": 0.0},
            {"timestep": 500, "phase": "b", "model": "t2v", "schedule": "t2v",
             "space": "noise", "mean": 0.0, "std": 1.0, "frame_corr": 0.0},
        ]
        assert any("direct hand-off" in v for v in trace_violations(bad))


class TestBaseline:
    def test_equals_ddim_sample_bitwise(self, small_plan, sched_t2i):
        z, trace = baseline_sample(replace(small_plan, seed=3), "t2i")
        z_ref = sample_by_hops(small_plan.t2i_model,
                               np.random.default_rng(3).standard_normal(SMALL),
                               [*small_plan.grid.steps, 0], sched_t2i)
        np.testing.assert_array_equal(z, z_ref)
        assert trace_violations(trace) == []

    def test_zero_refine_t2i_equals_elevate_but_for_phase(self):
        plan = make_default_plan(shape=SMALL, num_refine_steps=0, seed=6)
        z_elev, trace_elev = elevate_sample(plan)
        z_base, trace_base = baseline_sample(plan, "t2i")
        np.testing.assert_array_equal(z_base, z_elev)

        def without_phase(trace):
            return [{k: v for k, v in r.items() if k != "phase"} for r in trace]

        assert without_phase(trace_base) == without_phase(trace_elev)
        assert {r["phase"] for r in trace_base} == {"init", "baseline.step"}

    def test_unknown_model_rejected(self, small_plan):
        with pytest.raises(ValueError, match="unknown baseline model"):
            baseline_sample(small_plan, "t2x")

    def test_t2v_more_consistent_than_t2i(self, small_plan):
        fc_v, fc_i = [], []
        for seed in range(5):
            plan = replace(small_plan, seed=seed)
            zv, _ = baseline_sample(plan, "t2v")
            zi, _ = baseline_sample(plan, "t2i")
            fc_v.append(frame_consistency(zv))
            fc_i.append(frame_consistency(zi))
        assert np.median(fc_v) > np.median(fc_i)


class TestRecord:
    def test_schedule_defaults_to_the_model(self):
        trace: list = []
        _record(trace, 5, "x", "t2v", "noise", np.ones((2, 1, 2, 2)))
        _record(trace, 5, "init", None, "noise", np.ones((2, 1, 2, 2)), "t2i")
        assert [r["schedule"] for r in trace] == ["t2v", "t2i"]
        assert trace[0]["frame_corr"] == 1.0

    def test_single_frame_corr_is_nan(self):
        trace: list = []
        _record(trace, 5, "x", "t2i", "noise", np.ones((1, 2, 4, 4)))
        assert math.isnan(trace[0]["frame_corr"])


class TestDefaultPlan:
    def test_default_geometry(self):
        plan = make_default_plan()
        assert plan.shape == (16, 4, 16, 16)
        assert len(plan.grid.steps) == 50
        assert len(plan.grid.refine_set) == 5
        assert plan.n_sdedit == 9
        assert plan.grid.steps[0] in plan.grid.refine_set
        assert plan.t2v_schedule.kind == "scaled_linear_beta"
        assert plan.t2i_schedule.kind == "linear_beta"

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
    analytic models ``ddim_invert`` and the SDEdit steps are closed form and
    evaluate no model, so a regression to hop-by-hop inversion (295
    evaluations) or SDEdit steps (105) shows here."""

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
        # 50 elevating steps + 5 refining steps x (image projection, video
        # projection)
        assert counts == {"predict_eps": 60, "attention": 50}

    def test_baseline_sample(self, counts):
        baseline_sample(make_default_plan())
        assert counts == {"predict_eps": 50, "attention": 0}
