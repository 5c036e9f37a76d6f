import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latent_elevator.harness as harness
from latent_elevator.cli import main, parse_seeds
from latent_elevator.elevate import elevate_sample
from latent_elevator.harness import (
    DEFAULT_CONFIG,
    MODES,
    build_plan,
    resolve_config,
    run,
    sha256_file,
)
from latent_elevator.schedule import make_schedule
from latent_elevator.videoio import load_latent, save_latent

from conftest import sample_by_hops, with_video_variance

NAN = float("nan")

# Small, fast configuration exercised by most harness tests.
TINY = {
    "shape": [4, 4, 8, 8],
    "seeds": [0, 1],
    "render": True,
    "plan": {"num_steps": 8, "num_refine_steps": 2, "n_sdedit": 2},
}


def tiny(mode, **extra):
    cfg = json.loads(json.dumps(TINY))
    cfg["mode"] = mode
    for key, value in extra.items():
        cfg[key] = value
    return cfg


def schedule_entry(kind, total_steps) -> dict:
    """The manifest's record of the schedule ``make_schedule`` builds: its
    terminal alpha_bar and the sha256 of its little-endian float64 bytes."""
    alpha_bar = make_schedule(kind, total_steps).alpha_bar
    return {"kind": kind, "total_steps": total_steps, "alpha_bar_T": float(alpha_bar[-1]),
            "alpha_bar_sha256": hashlib.sha256(alpha_bar.astype("<f8")).hexdigest()}


class TestConfig:
    def test_defaults_materialize(self):
        resolved = resolve_config({})
        assert resolved["plan"]["num_steps"] == 50
        assert resolved["schedules"] == {"total_steps": 1000, "t2i": "linear_beta",
                                         "t2v": "scaled_linear_beta"}

    @pytest.mark.parametrize("mode", MODES)
    def test_num_steps_sets_every_variant_grid(self, mode):
        """``plan.num_steps`` alone sets how many steps each variant takes:
        raising it lengthens every variant's grid, the doubled video
        baseline of ``ablate_steps`` too."""
        def grid_lengths(num_steps):
            cfg = tiny(mode, seeds=[0], render=False)
            cfg["plan"]["num_steps"] = num_steps
            return [len(plan.grid.steps) for _, plan in harness._resolve(cfg)[1]]

        short, long = grid_lengths(8), grid_lengths(12)
        assert len(short) == len(long)
        assert all(a < b for a, b in zip(short, long))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            resolve_config({"plan": {"n_sdedi": 3}})

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            resolve_config({"mode": "train"})

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            resolve_config({"seeds": []})

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            resolve_config({"jobs": jobs})

    def test_duplicate_seeds(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            resolve_config({"seeds": [0, 0]})

    def test_single_frame_shape(self):
        with pytest.raises(ValueError, match="frames"):
            resolve_config({"shape": [1, 4, 8, 8], "render": False})

    def test_render_needs_supported_channels(self):
        with pytest.raises(ValueError, match="channels"):
            resolve_config({"shape": [4, 2, 8, 8]})
        resolve_config({"shape": [4, 2, 8, 8], "render": False})

    @pytest.mark.parametrize("key", [
        "guidance_scale",  # guidance is a mean shift of the prior, not a plan setting
        # the video chain walks the grid's own steps, and lpff runs at every
        # refining step
        "snr_match",
        "filter.apply_every_refine",
        # every DDIM step is deterministic
        "eta_t2v",
        "eta_t2i",
        # the random weights that stand in for trained attention are fixed
        "attention_seed",
    ])
    def test_guidance_scale_is_not_a_knob(self, key):
        *parents, leaf = key.split(".")
        plan = {leaf: 3.0}
        for name in reversed(parents):
            plan = {name: plan}
        with pytest.raises(ValueError, match=f"unknown key 'plan.{key}'"):
            resolve_config({"plan": plan})

    @pytest.mark.parametrize("config,path", [
        # metric thresholds are fixed
        ({"metrics": {}}, "metrics"),
        ({"metrics": {"flicker_cutoff": 0.15}}, "metrics"),
        # ablate_steps runs the plan's num_steps and twice it
        ({"ablate_steps": {}}, "ablate_steps"),
        ({"mode": "ablate_steps", "ablate_steps": {"step_counts": [50, 100]}},
         "ablate_steps"),
        # an image model's frames are independent
        ({"priors": {"t2i": {"rho": 0.0}}}, "priors.t2i.rho"),
        # latents are unit variance, so no prior variance is a setting: not
        # out-of-range ones
        *[({"priors": {name: {"variance_scale": value}}}, f"priors.{name}.variance_scale")
          for name, value in (("t2i", 0), ("t2v", NAN), ("t2v", math.inf),
                              ("t2i", -math.inf), ("t2v", 1e-310))],
        # and not those that ran: a roundtrip at 1e76 stopped in save_latent
        # and one at 1e-250 in compute_report, both leaving files behind; an
        # elevate run at 1e-100 saved an all-zero latent and measured it;
        # and a video baseline at 1e-30 reported a negative frame consistency
        *[({"mode": mode, "shape": [4, 4, 8, 8], "render": False,
            "priors": {name: {"variance_scale": value}}},
           f"priors.{name}.variance_scale")
          for mode, name, value in (("roundtrip", "t2i", 1e76), ("roundtrip", "t2i", 1e-250),
                                    ("elevate", "t2v", 1e-100),
                                    ("baseline_t2v", "t2v", 1e-30))],
    ], ids=["metrics", "metrics.flicker_cutoff", "ablate_steps", "ablate_steps.step_counts",
            "priors.t2i.rho", "variance-zero", "variance-nan", "variance-inf",
            "variance-minus-inf", "variance-subnormal", "roundtrip-t2i-1e76",
            "roundtrip-t2i-1e-250", "elevate-t2v-1e-100", "baseline_t2v-t2v-1e-30"])
    def test_removed_leaves_are_unknown_keys(self, config, path, tmp_path):
        match = f"invalid config: unknown key '{path}'"
        with pytest.raises(ValueError, match=match):
            resolve_config(config)
        with pytest.raises(ValueError, match=match):
            run(config, output_dir=tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("schedule,value", [
        ("t2v", {"params": {"beta_start": 1e-4, "beta_end": 2e-2}}),
        ("t2v", {"kind": "scaled_linear_beta", "total_steps": 1000}),
        ("t2i", {"total_steps": 400}),
        ("t2i", {"kind": "cosine"}),
    ], ids=["schedules.t2v.params", "schedules.t2v", "schedules.t2i.total_steps",
            "schedules.t2i.kind"])
    def test_old_schedule_shape_is_rejected(self, schedule, value):
        # a schedule is its kind alone; the betas are fixed and both share
        # schedules.total_steps
        default = DEFAULT_CONFIG["schedules"][schedule]
        with pytest.raises(ValueError, match=f"invalid config: schedules.{schedule} must have "
                                             f"the type of its default '{default}'"):
            resolve_config({"schedules": {schedule: value}})

    def test_unknown_schedule_kind_is_named(self):
        with pytest.raises(ValueError, match="elevate: invalid params: unknown schedule kind "
                                             "'quadratic'"):
            resolve_config({"schedules": {"t2v": "quadratic"}})

    def test_cosine_schedule_rejected_up_front(self):
        # alpha_bar[T] of the 1000-step cosine schedule is 2.4e-9, below the
        # clean-projection floor, and every grid starts at T
        with pytest.raises(ValueError, match="t2i schedule 'cosine'"):
            resolve_config({"schedules": {"t2i": "cosine"}})

    def test_short_cosine_schedule_runs(self, tmp_path):
        cfg = tiny("elevate", seeds=[0], render=False)
        cfg["schedules"] = {"t2i": "cosine", "total_steps": 400}
        manifest = run(cfg, output_dir=tmp_path)
        assert manifest["runs"][0]["trace_violations"] == []

    @pytest.mark.parametrize("mode", ["elevate", "ablate_inversion"])
    def test_manifest_schedules_are_the_plans(self, mode, tmp_path):
        """Each model of a plan ``resolve_config`` built carries the schedule
        the config names, the inflated image model its base's, and the
        manifest records those schedules, which every variant shares."""
        cfg = tiny(mode, seeds=[0], render=False)
        cfg["schedules"] = {"t2i": "cosine", "total_steps": 400}
        manifest = run(cfg, output_dir=tmp_path)
        kinds = {"t2i": "cosine", "t2v": "scaled_linear_beta"}
        for _, plan in harness._resolve(cfg)[1]:
            assert plan.t2i_model.schedule is plan.t2i_model.base.schedule
            for name, model in (("t2i", plan.t2i_model.base), ("t2v", plan.t2v_model)):
                s = model.schedule
                assert (s.kind, s.total_steps) == (kinds[name], 400)
                assert manifest["schedules"][name] == schedule_entry(kinds[name], 400)

    def test_ablate_steps_beyond_schedule_writes_nothing(self, tmp_path):
        # 600 steps fit the 1000-step schedule, their double does not
        cfg = tiny("ablate_steps", seeds=[0], render=False)
        cfg["plan"]["num_steps"] = 600
        with pytest.raises(ValueError, match="baseline_t2v_1200: num_steps out of range"):
            run(cfg, output_dir=tmp_path / "out")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("plan,match", [
        ({"crossframe_mix": 2.0}, "mix"),
        ({"n_sdedit": -1}, "n_sdedit"),
        ({"filter": {"d0": 0}}, "d0"),
        ({"filter": {"axes": ["spatial"]}}, "axes"),
    ])
    def test_plan_errors_rejected_up_front(self, plan, match):
        with pytest.raises(ValueError, match=f"invalid config: elevate: .*{match}"):
            resolve_config({"plan": plan})

    @pytest.mark.parametrize("config,match", [
        ({"seeds": "0"}, "seeds"),
        ({"seeds": 3}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"seeds": [0, True]}, r"seeds\[1\]"),
        ({"plan": {"n_sdedit": 2.5}}, "plan.n_sdedit"),
        ({"render": "no"}, "render"),
        ({"jobs": True}, "jobs"),
        ({"plan": {"filter": 0.25}}, "plan.filter must be a mapping"),
        ({"output_dir": 7}, "output_dir"),
        ({"shape": [4, 4, 1, 8]}, "H, W >= 2"),
        ({"shape": [4, 4, 8, 1]}, "H, W >= 2"),
        # float() of it raises OverflowError
        ({"plan": {"crossframe_mix": 10 ** 400}}, "plan.crossframe_mix must be a float"),
        # its file names would be too long for the file system
        ({"seeds": [0, 10 ** 300]}, "seeds .*< 2\\*\\*64"),
        ([1], "must be a mapping"),
        ("x", "must be a mapping"),
        (3, "must be a mapping"),
    ], ids=["seeds-str", "seeds-int", "seeds-negative", "seeds-bool", "n_sdedit-float",
            "render-str", "jobs-bool", "filter-not-mapping", "output_dir-int", "height-1",
            "width-1", "float-beyond-range", "seed-too-large", "config-list", "config-str",
            "config-int"])
    def test_configs_that_would_crash_mid_run(self, config, match):
        with pytest.raises(ValueError, match=f"invalid config: .*{match}"):
            resolve_config(config)

    def test_leaf_types_accepted(self):
        resolved = resolve_config({"shape": (4, 4, 8, 8), "output_dir": "runs/x",
                                   "plan": {"filter": {"d0": 1}, "crossframe_mix": 0}})
        assert resolved["shape"] == [4, 4, 8, 8]
        assert resolved["plan"]["filter"]["d0"] == 1.0
        assert isinstance(resolved["plan"]["crossframe_mix"], float)

    def test_defaults_not_mutated(self):
        before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
        resolve_config({"plan": {"num_steps": 30}})
        # 3 steps cannot hold the default 5 refining steps: rejected, and
        # the rejection leaves the defaults alone too
        with pytest.raises(ValueError, match="refine count"):
            resolve_config({"plan": {"num_steps": 3}})
        assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before

    def test_plan_roundtrips_through_config(self):
        resolved = resolve_config(tiny("elevate"))
        plan_a = build_plan(resolved, seed=0)
        plan_b = build_plan(resolved, seed=0)
        assert plan_a.grid == plan_b.grid
        np.testing.assert_array_equal(plan_a.filter_mask.gains,
                                      plan_b.filter_mask.gains)
        from latent_elevator import elevate_sample

        za, _ = elevate_sample(plan_a)
        zb, _ = elevate_sample(plan_b)
        np.testing.assert_array_equal(za, zb)


def config_leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


# One alternative value per leaf of DEFAULT_CONFIG["plan"].
KNOB_ALTERNATIVES = {
    "num_steps": 20,
    "num_refine_steps": 3,
    "n_sdedit": 4,
    "crossframe_mix": 0.6,
    "inversion": "same_noise",
    "filter.d0": 0.1,
    "filter.axes": ["temporal", "spatial"],
}

# One alternative per prior leaf, which neither default prior takes.
PRIOR_ALTERNATIVES = {"rho": 0.5, "spectrum_kind": "flat"}

# One alternative per leaf of DEFAULT_CONFIG's schedules and priors, as a
# config override, named for what it changes.
SAMPLING_ALTERNATIVES = {
    "schedules.t2i.kind": {"schedules": {"t2i": "scaled_linear_beta"}},
    "schedules.t2v.kind": {"schedules": {"t2v": "linear_beta"}},
    "schedules.total_steps": {"schedules": {"total_steps": 500}},
    **{f"priors.{name}.{key}": {"priors": {name: {key: PRIOR_ALTERNATIVES[key]}}}
       for name, prior in DEFAULT_CONFIG["priors"].items() for key in prior},
}


class TestNoDeadKnobs:
    KNOB_CONFIG = {"mode": "elevate", "shape": [4, 4, 8, 8], "seeds": [0], "render": False}

    def latent_checksum(self, out, **override):
        return run({**self.KNOB_CONFIG, **override}, output_dir=out)["files"][
            "elevate_seed0000.elvt"]

    @pytest.fixture(scope="class")
    def default_checksum(self, tmp_path_factory):
        return self.latent_checksum(tmp_path_factory.mktemp("default"))

    def test_every_plan_leaf_has_an_alternative(self):
        assert set(KNOB_ALTERNATIVES) == set(config_leaves(DEFAULT_CONFIG["plan"]))

    def test_every_sampling_leaf_has_an_alternative(self):
        covered = [leaf for override in SAMPLING_ALTERNATIVES.values()
                   for leaf in config_leaves(override)]
        sampling = {key: DEFAULT_CONFIG[key] for key in ("schedules", "priors")}
        assert sorted(covered) == sorted(config_leaves(sampling))

    @pytest.mark.parametrize("leaf", sorted(KNOB_ALTERNATIVES))
    def test_knob_changes_the_latent(self, leaf, default_checksum, tmp_path):
        plan: dict = {}
        *parents, key = leaf.split(".")
        node = plan
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = KNOB_ALTERNATIVES[leaf]
        assert self.latent_checksum(tmp_path, plan=plan) != default_checksum

    @pytest.mark.parametrize("leaf", sorted(SAMPLING_ALTERNATIVES))
    def test_sampling_knob_changes_the_latent(self, leaf, default_checksum, tmp_path):
        override = SAMPLING_ALTERNATIVES[leaf]
        assert self.latent_checksum(tmp_path, **override) != default_checksum


# The one setting each ablation arm changes, as the plain run it equals:
# (arm, plain mode, plan override over the resolved config).
ARMS = {
    "ablate_filter": [
        ("no_lpff", "elevate", {"filter": {"d0": math.inf}}),
        ("temporal", "elevate", {"filter": {"axes": ["temporal"]}}),
        ("spatial_temporal", "elevate", {"filter": {"axes": ["temporal", "spatial"]}}),
    ],
    "ablate_inversion": [
        (name, "elevate", {"inversion": name})
        for name in ("same_noise", "ddim", "random_noise")
    ],
    "ablate_steps": [
        ("baseline_t2v_8", "baseline_t2v", {"num_steps": 8}),
        ("baseline_t2v_16", "baseline_t2v", {"num_steps": 16}),
        ("baseline_t2i_8", "baseline_t2i", {"num_steps": 8}),
        ("elevate_8", "elevate", {"num_steps": 8}),
    ],
}


def merged_plan(plan, override):
    out = json.loads(json.dumps(plan))
    for key, value in override.items():
        if isinstance(value, dict):
            out[key] = merged_plan(out.get(key, {}), value)
        else:
            out[key] = value
    return out


class TestAblationArmsAreOverrides:
    # a base whose filter axes and inversion differ from some arm's
    BASE = dict(tiny("elevate", seeds=[0], render=False),
                plan={**TINY["plan"], "inversion": "random_noise",
                      "filter": {"axes": ["temporal", "spatial"], "d0": 0.2}})

    @pytest.fixture(scope="class")
    def ablation_files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ablations")
        return {mode: run(dict(self.BASE, mode=mode), output_dir=out / mode)["files"]
                for mode in ARMS}

    @pytest.mark.parametrize("mode,arm,plain,override", [
        (mode, *arm) for mode, arms in ARMS.items() for arm in arms
    ], ids=[f"{mode}-{arm[0]}" for mode, arms in ARMS.items() for arm in arms])
    def test_arm_equals_plain_run_with_override(self, mode, arm, plain, override,
                                                ablation_files, tmp_path):
        cfg = dict(self.BASE, mode=plain, plan=merged_plan(self.BASE["plan"], override))
        files = run(cfg, output_dir=tmp_path)["files"]
        assert ablation_files[mode][f"{arm}_seed0000.elvt"] == files[f"{plain}_seed0000.elvt"]


# (valid, invalid) values per config path; "valid" means the right type and
# in range on its own, invalid values include wrong types.
LEAF_VALUES = {
    ("plan", "num_steps"): ([2, 5, 8], [0, -1, 2.5, "8"]),
    ("plan", "num_refine_steps"): ([0, 1, 2, 8], [9, -1, 1.0, None]),
    ("plan", "n_sdedit"): ([0, 1, 2, 3, 9], [-1, 2.5]),
    ("plan", "crossframe_mix"): ([0.0, 0.3, 1.0], [2.0, -1.0, NAN, True]),
    ("plan", "inversion"): (["ddim", "same_noise", "random_noise"], ["exact", 0]),
    ("plan", "filter", "d0"): ([0.25, 0.05, 2, math.inf, 1e-300, 1e300],
                               [0, -1.0, NAN, "0.25"]),
    ("plan", "filter", "axes"): ([["temporal"], ["temporal", "spatial"], ("temporal",)],
                                 [["spatial"], [], "temporal", [1]]),
    ("priors", "t2v", "rho"): ([0.0, 0.5, 0.99, -0.5, 0.999999, -0.999999],
                              [1.0, -1.0, NAN]),
    ("priors", "t2v", "spectrum_kind"): (["lowpass", "broadband", "flat"], ["bogus"]),
    ("priors", "t2i", "spectrum_kind"): (["broadband", "flat", "lowpass"], ["bogus"]),
    ("schedules", "t2i"): (["linear_beta", "scaled_linear_beta", "cosine"], ["bogus"]),
    ("schedules", "t2v"): (["scaled_linear_beta", "linear_beta", "cosine"], ["bogus"]),
    ("seeds",): ([[0], [0, 1], [5]], [[-1], [0, 0], "0", 3]),
    ("render",): ([True, False], ["no"]),
    ("check",): ([True, False], [1]),
}
ALWAYS_SET = (("plan", "num_steps"), ("plan", "num_refine_steps"), ("plan", "n_sdedit"))
# The leaves small_configs draws from its own ranges, and those no config of
# it sets: where a run writes and how many workers it uses change no output.
DRAWN = (("mode",), ("shape",), ("schedules", "total_steps"))
NOT_FUZZED = (("output_dir",), ("jobs",))


def paths(config) -> list:
    return [tuple(leaf.split(".")) for leaf in config_leaves(config)]


def test_every_leaf_is_fuzzed_drawn_or_excluded():
    assert sorted([*LEAF_VALUES, *DRAWN, *NOT_FUZZED]) == sorted(paths(DEFAULT_CONFIG))


@st.composite
def small_configs(draw):
    """A config over F in {2, 3}, C in {1, 3, 4}, H, W in 1..4 and at most
    8 sampling steps, with the step counts and a random subset of the other
    leaves set; each value is invalid one time in eight."""

    def pick(valid, invalid):
        return draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 0 else valid))

    total_steps = draw(st.sampled_from([1000, 16, 8]))
    config = {
        "mode": draw(st.sampled_from(MODES)),
        "shape": [draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 3, 4])),
                  pick([2, 3, 4], [1]), pick([2, 3, 4], [1])],
        "schedules": {"total_steps": total_steps},
    }
    others = sorted(set(LEAF_VALUES) - set(ALWAYS_SET))
    for path in [*ALWAYS_SET, *draw(st.sets(st.sampled_from(others), max_size=4))]:
        node = config
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = pick(*LEAF_VALUES[path])
    return config


# a d0 whose square overflows a Python float once crashed resolve_config
@example(config={"mode": "ablate_filter", "shape": [2, 1, 2, 2],
                 "plan": {"num_steps": 2, "num_refine_steps": 1, "n_sdedit": 1,
                          "filter": {"d0": 1e300}}})
@given(config=small_configs())
@settings(max_examples=150, deadline=None)
def test_config_is_rejected_or_runs_clean(config):
    """Any config is either rejected up front with ValueError, or it runs to
    completion with no trace violation and a manifest listing exactly the
    files on disk, whose file is standard JSON that reads back as it."""
    assert set(paths(config)) <= {*LEAF_VALUES, *DRAWN}
    try:
        resolve_config(config)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run(config, output_dir=tmp)
        assert all(r["trace_violations"] == [] for r in manifest["runs"])
        on_disk = {p.name for p in Path(tmp).iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == on_disk
        text = (Path(tmp) / "manifest.json").read_text()
        assert json.loads(text, parse_constant=refuse) == manifest


def refuse(constant):
    """A ``parse_constant`` for ``json.loads`` that admits only standard JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


class TestRunModes:
    def test_elevate_artifacts_and_manifest(self, tmp_path):
        manifest = run(tiny("elevate"), output_dir=tmp_path)
        assert {r["seed"] for r in manifest["runs"]} == {0, 1}
        for r in manifest["runs"]:
            assert (tmp_path / r["latent"]).exists()
            assert (tmp_path / r["trace"]).exists()
            assert r["trace_violations"] == []
            assert len(r["renders"]) == 4
            assert set(r["metrics"]) == {
                "frame_consistency", "flicker_energy", "spatial_detail",
                "spectrum_distance_t2i", "spectrum_distance_t2v",
            }
        assert (tmp_path / "metrics.csv").exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per seed
        assert "elevate" in manifest["aggregate"]
        # the manifest carries auditable schedules: each one's kind and
        # length, which make_schedule rebuilds it from, and what a rebuild
        # is checked against
        schedules = manifest["resolved_config"]["schedules"]
        for name in ("t2i", "t2v"):
            entry = manifest["schedules"][name]
            assert list(entry) == ["kind", "total_steps", "alpha_bar_T", "alpha_bar_sha256"]
            assert (entry["kind"], entry["total_steps"]) == (schedules[name],
                                                             schedules["total_steps"])
            assert entry == schedule_entry(entry["kind"], entry["total_steps"])

    def test_manifest_file_reads_back_as_the_returned_manifest(self, tmp_path):
        manifest = run(tiny("elevate", seeds=[0]), output_dir=tmp_path)
        text = (tmp_path / "manifest.json").read_text()
        assert text == json.dumps(manifest, indent=2, allow_nan=False)
        assert json.loads(text) == manifest

    def test_manifest_lists_every_file_with_checksum(self, tmp_path):
        manifest = run(tiny("baseline_t2v", seeds=[0]), output_dir=tmp_path)
        on_disk = {
            str(p.relative_to(tmp_path))
            for p in tmp_path.rglob("*") if p.is_file()
        } - {"manifest.json"}
        assert set(manifest["files"]) == on_disk
        for rel, digest in manifest["files"].items():
            assert sha256_file(tmp_path / rel) == digest

    @pytest.mark.parametrize("mode", ["elevate", "baseline_t2v"])
    def test_manifest_digests_are_the_files_read_back(self, mode, tmp_path):
        # hashed here, not through the harness, so the digests stay checked
        # whichever way the harness comes by them
        manifest = run(tiny(mode, seeds=[0]), output_dir=tmp_path)
        assert len(manifest["files"]) == 2 + 4 + 1  # latent, trace, renders, csv
        for rel, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            run(tiny("baseline_t2v", seeds=[0]), output_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_names_only_artifacts(self, tmp_path):
        manifest = run(tiny("elevate", seeds=[0]), output_dir=tmp_path)
        on_disk = {p.name for p in tmp_path.iterdir()}
        assert on_disk == set(manifest["files"]) | {"manifest.json"}
        assert not any(name.startswith(".") or name.endswith(".tmp") for name in on_disk)

    def test_manifest_ignores_files_it_did_not_write(self, tmp_path):
        (tmp_path / "stale.txt").write_text("left over from an earlier run")
        manifest = run(tiny("baseline_t2v", seeds=[0]), output_dir=tmp_path)
        row = manifest["runs"][0]
        assert set(manifest["files"]) == {
            "metrics.csv", row["latent"], row["trace"], *row["renders"]}

    def test_reproducible_across_reruns(self, tmp_path):
        m1 = run(tiny("elevate", seeds=[3]), output_dir=tmp_path / "a")
        m2 = run(tiny("elevate", seeds=[3]), output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]

    def test_rerun_from_manifest_config(self, tmp_path):
        m1 = run(tiny("elevate", seeds=[5]), output_dir=tmp_path / "a")
        replay = json.loads(json.dumps(m1["resolved_config"]))
        replay["output_dir"] = None
        m2 = run(replay, output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]

    def test_manifest_is_strict_json_with_infinite_d0(self, tmp_path):
        cfg = tiny("elevate", seeds=[0], render=False,
                   plan=dict(TINY["plan"], filter={"d0": math.inf}))
        m1 = run(cfg, output_dir=tmp_path / "a")
        text = (tmp_path / "a" / "manifest.json").read_text()
        replay = json.loads(text, parse_constant=refuse)["resolved_config"]
        assert replay["plan"]["filter"]["d0"] == "inf"
        replay["output_dir"] = None
        m2 = run(replay, output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]

    def test_huge_d0_runs_as_infinite_d0(self, tmp_path):
        # a d0 whose square overflows a float gives every temporal and
        # spatial gain 1, as an infinite one does
        digests = [
            run(tiny("elevate", seeds=[0], render=False,
                     plan=dict(TINY["plan"], filter={"d0": d0, "axes": ["temporal", "spatial"]})),
                output_dir=tmp_path / str(d0))["files"]["elevate_seed0000.elvt"]
            for d0 in (1e300, math.inf)
        ]
        assert digests[0] == digests[1]

    def test_parallel_equals_serial(self, tmp_path):
        serial = run(tiny("elevate"), output_dir=tmp_path / "s")
        parallel = run(tiny("elevate", jobs=2), output_dir=tmp_path / "p")
        assert serial["files"] == parallel["files"]

    @staticmethod
    def pools_built(tmp_path, monkeypatch, cpus) -> list:
        """The worker count of each pool that ``jobs: 8`` runs of one and of
        three cells build on ``cpus`` CPUs."""
        built = []

        class InlinePool:
            """Records its worker count and runs each call in this process."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
        run(tiny("baseline_t2v", seeds=[0], jobs=8), output_dir=tmp_path / "one")
        manifest = run(tiny("baseline_t2v", seeds=[0, 1, 2], jobs=8),
                       output_dir=tmp_path / "three")
        assert [r["seed"] for r in manifest["runs"]] == [0, 1, 2]
        assert manifest["resolved_config"]["jobs"] == 8  # as asked, not as run
        return built

    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        assert self.pools_built(tmp_path, monkeypatch, cpus=4) == [3]

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, [])])
    def test_pool_has_at_most_one_worker_per_cpu(self, tmp_path, monkeypatch, cpus, pools):
        """A pool forks every worker at its first submit, so ``jobs`` far
        above the CPU count must not start that many; one worker runs the
        cells in-process."""
        assert self.pools_built(tmp_path, monkeypatch, cpus) == pools

    def test_no_refine_elevate_matches_t2i_baseline_checksums(self, tmp_path):
        cfg = tiny("elevate")
        cfg["plan"]["num_refine_steps"] = 0
        m_elev = run(cfg, output_dir=tmp_path / "e")
        m_base = run(tiny("baseline_t2i"), output_dir=tmp_path / "b")
        for seed in (0, 1):
            a = m_elev["files"][f"elevate_seed{seed:04d}.elvt"]
            b = m_base["files"][f"baseline_t2i_seed{seed:04d}.elvt"]
            assert a == b

    def test_t2i_baseline_is_the_image_chain(self, tmp_path):
        """A ``baseline_t2i`` cell is refine-free elevation: its latent is
        the inflated image model's ``ddim_step`` chain from the seeded
        noise, stored as float32, and every step is an ``elevate.step``."""
        manifest = run(tiny("baseline_t2i", seeds=[1], render=False), output_dir=tmp_path)
        # the oracle reads the plan's models, schedule and grid steps, which
        # the cell's refine-free override leaves as they are
        plan = build_plan(resolve_config(tiny("baseline_t2i")), seed=1)
        z = np.random.default_rng(1).standard_normal(plan.shape)
        oracle = sample_by_hops(plan.t2i_model, z, [*plan.grid.steps, 0])
        [row] = manifest["runs"]
        np.testing.assert_array_equal(load_latent(tmp_path / row["latent"]),
                                      oracle.astype(np.float32))
        trace = [json.loads(line) for line in (tmp_path / row["trace"]).read_text().splitlines()]
        assert {r["phase"] for r in trace} == {"init", "elevate.step"}
        assert row["trace_violations"] == []

    def test_every_step_refining_runs(self, tmp_path):
        """Refining at every sampling step runs clean, with the four
        refining records at each step: the SDEdit chains of the last steps,
        whose grid below is shallower than ``n_sdedit``, stop at its end."""
        cfg = tiny("elevate", seeds=[0], render=False)
        cfg["plan"] = {"num_steps": 8, "num_refine_steps": 8, "n_sdedit": 2}
        manifest = run(cfg, output_dir=tmp_path)
        [row] = manifest["runs"]
        assert row["trace_violations"] == []
        trace = [json.loads(line) for line in (tmp_path / row["trace"]).read_text().splitlines()]
        steps = build_plan(resolve_config(cfg), seed=0).grid.steps
        assert len(steps) == 8
        phases = ("refine.project", "refine.lpff", "refine.sdedit", "refine.invert.ddim")
        assert [(r["timestep"], r["phase"]) for r in trace if r["phase"].startswith("refine.")
                ] == [(t, phase) for t in steps for phase in phases]
        resolved = resolve_config({"plan": {"num_refine_steps": 50}})
        assert resolved["plan"]["num_refine_steps"] == 50

    def test_roundtrip_mode_reports_error_and_check_fails(self, tmp_path):
        # stateless first-order inversion cannot reach 1e-3 at 50 steps, so
        # the roundtrip check is expected to report a failure honestly
        cfg = {"mode": "roundtrip", "seeds": [0], "check": True,
               "shape": [4, 2, 8, 8], "render": False}
        manifest = run(cfg, output_dir=tmp_path)
        err = manifest["aggregate"]["roundtrip"]["max_roundtrip_rel_err"]
        assert 1e-4 < err < 0.05
        assert manifest["checks"]["enabled"]
        assert not manifest["checks"]["passed"]
        assert any("roundtrip" in f for f in manifest["checks"]["failures"])

    def test_tiny_video_prior_variance_cells_measure_finite(self, tmp_path):
        """At video-prior variance 1e-300, on a plan built directly, the
        video projection's gains are tiny but nonzero, so each cell's
        latent stays measurable."""
        cfg = {"shape": [5, 3, 3, 2], "render": False, "seeds": [0, 1],
               "schedules": {"total_steps": 10}, "priors": {"t2v": {"rho": 0.0}},
               "plan": {"num_steps": 2, "num_refine_steps": 1, "n_sdedit": 2,
                        "crossframe_mix": 1.0}}
        resolved, [(variant, plan)] = harness._resolve(cfg)
        for seed in resolved["seeds"]:
            cell = with_video_variance(replace(plan, seed=seed), 1e-300)
            row = harness._run_one(resolved, variant, cell, str(tmp_path))
            assert row["trace_violations"] == []
            assert all(math.isfinite(v) for v in row["metrics"].values())

    def test_tiny_video_prior_variance_traces_strict_json(self):
        """At video-prior variance 1e-200, on a plan built directly, the
        video model's latents have sums of squares that underflow to 0;
        their trace records are still taken, on a power-of-two rescaling,
        as finite standard JSON."""
        plan = with_video_variance(harness.make_default_plan(shape=[4, 4, 8, 8]), 1e-200)
        _, trace = elevate_sample(plan)
        json.dumps(trace, allow_nan=False)
        assert all(r["std"] > 0 for r in trace)

    def test_ablate_variants_present(self, tmp_path):
        cfg = tiny("ablate_inversion", seeds=[0], render=False)
        manifest = run(cfg, output_dir=tmp_path)
        assert set(manifest["aggregate"]) == {"same_noise", "ddim", "random_noise"}
        cfg = tiny("ablate_filter", seeds=[0], render=False)
        manifest = run(cfg, output_dir=tmp_path / "f")
        assert set(manifest["aggregate"]) == {"no_lpff", "temporal", "spatial_temporal"}

    def test_ablate_steps_variants(self, tmp_path):
        cfg = tiny("ablate_steps", seeds=[0], render=False)
        manifest = run(cfg, output_dir=tmp_path)
        assert set(manifest["aggregate"]) == {
            "baseline_t2v_8", "baseline_t2v_16", "baseline_t2i_8", "elevate_8",
        }


class TestPlanReuse:
    """``run`` builds each variant's plan once, when ``resolve_config``
    validates it, and runs every cell on that plan with the cell's seed."""

    @pytest.mark.parametrize("mode,seeds,builds", [
        ("baseline_t2v", [0], 1), ("elevate", [0, 1, 2], 1), ("ablate_inversion", [0], 3)])
    def test_one_build_per_variant(self, mode, seeds, builds, tmp_path, monkeypatch):
        calls = []

        def counting(resolved, seed):
            calls.append(seed)
            return build_plan(resolved, seed)

        monkeypatch.setattr(harness, "build_plan", counting)
        run(tiny(mode, seeds=seeds, render=False), output_dir=tmp_path)
        assert calls == [seeds[0]] * builds
        # a default plan is the one resolving its config builds, reseeded
        calls.clear()
        assert harness.make_default_plan(seed=7, shape=TINY["shape"]).seed == 7
        assert calls == [0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_equal_plans_built_per_seed(self, jobs, tmp_path):
        cfg = tiny("ablate_inversion", seeds=[0, 3], jobs=jobs)
        files = run(cfg, output_dir=tmp_path / "run")["files"]
        resolved = resolve_config(cfg)
        for variant in harness._variants_for(resolved):
            for seed in (0, 3):
                plan = build_plan(harness._deep_merge(resolved, {"plan": variant["plan"]}),
                                  seed)
                latent = tmp_path / f"{variant['name']}_seed{seed:04d}.elvt"
                save_latent(elevate_sample(plan)[0], latent)
                assert files[latent.name] == sha256_file(latent)


class TestCli:
    def test_parse_seeds_forms(self):
        assert parse_seeds("0,1,2") == [0, 1, 2]
        assert parse_seeds("0:4") == [0, 1, 2, 3]
        assert parse_seeds("7,0:2") == [7, 0, 1]
        with pytest.raises(ValueError):
            parse_seeds(" ")

    @pytest.mark.parametrize("spec", ["0:3:5", "1:x", "a", "", "0,5:3", "3:3,1"])
    def test_bad_seed_spec_is_named(self, spec, capsys, tmp_path):
        with pytest.raises(ValueError, match=f"--seeds '{spec}'"):
            parse_seeds(spec)
        assert main(["baseline_t2v", "--seeds", spec, "--output", str(tmp_path)]) == 2
        assert spec in capsys.readouterr().err

    def test_cli_run_with_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny("baseline_t2i", seeds=[0],
                                            render=False)))
        code = main(["baseline_t2i", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline_t2i" in out and "manifest" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_cli_env_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ELEVATOR_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny("baseline_t2v", seeds=[0],
                                            render=False)))
        assert main(["baseline_t2v", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()

    def test_cli_seed_and_jobs_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny("baseline_t2v", render=False)))
        code = main(["baseline_t2v", "--config", str(cfg_path), "--seeds", "0:2",
                     "--jobs", "2", "--output", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {r["seed"] for r in manifest["runs"]} == {0, 1}

    def test_cli_forwards_jobs_zero(self, tmp_path, capsys):
        assert main(["baseline_t2v", "--jobs", "0", "--output", str(tmp_path)]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_cli_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"plan": {"bogus": 1}}))
        assert main(["elevate", "--config", str(cfg_path),
                     "--output", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_list_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["elevate", "--config", str(cfg_path),
                     "--output", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_models_are_a_config_error(self, tmp_path, monkeypatch, capsys):
        """A variant whose models cannot be allocated is rejected up front
        like any other bad value: the CLI prints one ``error:`` line, exits
        2 and writes nothing."""
        def unallocatable(kind, total_steps):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(harness, "make_schedule", unallocatable)
        config = {"schedules": {"total_steps": 1000000000}}
        with pytest.raises(ValueError, match="invalid config: elevate: Unable to allocate"):
            resolve_config(config)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["baseline_t2v", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: invalid config: baseline_t2v: Unable to allocate 7.45 GiB for an array"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_cli_check_failure_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shape": [4, 2, 8, 8], "render": False}))
        code = main(["roundtrip", "--config", str(cfg_path), "--seeds", "0",
                     "--check", "--output", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert "check failed" in captured.err
        # the run wrote a manifest, so a failed check names it too
        assert f"manifest: {tmp_path / 'out' / 'manifest.json'}" in captured.out.splitlines()
