import json
import math
import tempfile
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latent_elevator.harness as harness
from latent_elevator.cli import main, parse_seeds
from latent_elevator.harness import (
    DEFAULT_CONFIG,
    MODES,
    build_plan,
    resolve_config,
    run,
    sha256_file,
)
from latent_elevator.schedule import make_schedule

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


class TestConfig:
    def test_defaults_materialize(self):
        resolved = resolve_config({})
        assert resolved["plan"]["num_steps"] == 50
        assert resolved["schedules"]["t2v"]["kind"] == "scaled_linear_beta"
        assert resolved["metrics"] == {"flicker_cutoff": 0.15, "detail_band": 0.10}

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

    def test_guidance_scale_is_not_a_knob(self):
        # guidance is a mean shift of the prior, not a plan setting
        with pytest.raises(ValueError, match="unknown key 'plan.guidance_scale'"):
            resolve_config({"plan": {"guidance_scale": 3.0}})

    def test_cosine_schedule_rejected_up_front(self):
        # alpha_bar[T] of the 1000-step cosine schedule is 2.4e-9, below the
        # clean-projection floor, and every grid starts at T
        with pytest.raises(ValueError, match="t2i schedule 'cosine'"):
            resolve_config({"schedules": {"t2i": {"kind": "cosine"}}})

    def test_short_cosine_schedule_runs(self, tmp_path):
        cfg = tiny("elevate", seeds=[0], render=False)
        cfg["schedules"] = {"t2i": {"kind": "cosine", "total_steps": 400},
                            "t2v": {"total_steps": 400}}
        manifest = run(cfg, output_dir=tmp_path)
        assert manifest["runs"][0]["trace_violations"] == []

    def test_schedule_params_follow_the_kind(self, tmp_path):
        cfg = tiny("elevate", seeds=[0], render=False)
        cfg["schedules"] = {"t2i": {"kind": "cosine", "total_steps": 400},
                            "t2v": {"total_steps": 400}}
        resolved = resolve_config(cfg)
        assert resolved["schedules"]["t2i"]["params"] == {}
        assert resolved["schedules"]["t2v"]["params"] == {"beta_start": 1e-4, "beta_end": 2e-2}
        manifest = run(cfg, output_dir=tmp_path)
        assert manifest["schedules"]["t2i"]["params"] == {}
        # cosine reads no betas: setting one is refused, not ignored
        cfg["schedules"]["t2i"]["params"] = {"beta_start": 1e-4}
        with pytest.raises(ValueError, match="invalid config: elevate: .*kind 'cosine' reads"):
            resolve_config(cfg)

    def test_ablate_steps_beyond_schedule_writes_nothing(self, tmp_path):
        cfg = tiny("ablate_steps", seeds=[0], render=False)
        cfg["ablate_steps"] = {"step_counts": [50, 2000]}
        with pytest.raises(ValueError, match="baseline_t2v_2000: num_steps out of range"):
            run(cfg, output_dir=tmp_path / "out")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("plan,match", [
        ({"eta_t2v": 1.5}, "eta"),
        ({"crossframe_mix": 2.0}, "mix"),
        ({"n_sdedit": 60}, "n_sdedit"),
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
        ({"mode": "ablate_steps", "ablate_steps": {"step_counts": []}}, "step_counts"),
        ({"mode": "ablate_steps", "ablate_steps": {"step_counts": [50]}}, "step_counts"),
        ({"mode": "ablate_steps", "ablate_steps": {"step_counts": [50, 50]}}, "step_counts"),
        ({"shape": [4, 4, 1, 8]}, "H, W >= 2"),
        ({"shape": [4, 4, 8, 1]}, "H, W >= 2"),
        ({"priors": {"t2i": {"variance_scale": 0}}}, "priors.t2i.variance_scale"),
        ({"priors": {"t2v": {"variance_scale": float("nan")}}}, "priors.t2v.variance_scale"),
        ({"priors": {"t2v": {"variance_scale": math.inf}}}, "priors.t2v.variance_scale"),
        ({"priors": {"t2i": {"variance_scale": -math.inf}}}, "priors.t2i.variance_scale"),
        ([1], "must be a mapping"),
        ("x", "must be a mapping"),
        (3, "must be a mapping"),
    ], ids=["seeds-str", "seeds-int", "seeds-negative", "seeds-bool", "n_sdedit-float",
            "render-str", "jobs-bool", "filter-not-mapping", "output_dir-int",
            "step_counts-empty", "step_counts-one", "step_counts-repeated", "height-1",
            "width-1", "variance-zero", "variance-nan", "variance-inf", "variance-minus-inf",
            "config-list", "config-str", "config-int"])
    def test_configs_that_would_crash_mid_run(self, config, match):
        with pytest.raises(ValueError, match=f"invalid config: .*{match}"):
            resolve_config(config)

    def test_leaf_types_accepted(self):
        resolved = resolve_config({"shape": (4, 4, 8, 8), "output_dir": "runs/x",
                                   "plan": {"filter": {"d0": 1}, "eta_t2v": 0}})
        assert resolved["shape"] == [4, 4, 8, 8]
        assert resolved["plan"]["filter"]["d0"] == 1.0
        assert isinstance(resolved["plan"]["eta_t2v"], float)

    @pytest.mark.parametrize("key", ["flicker_cutoff", "detail_band"])
    @pytest.mark.parametrize("value", [-1, 0.5, 2.0])
    def test_metric_thresholds_must_measure_something(self, key, value):
        # at 16 frames |f| <= 0.5 and on 16 x 16 frames |f| <= 0.707, so a
        # detail band of 0.5 still leaves the corner bins above it
        config = {"metrics": {key: value}}
        if key == "detail_band" and value == 0.5:
            resolve_config(config)
        else:
            with pytest.raises(ValueError, match=f"invalid config: metrics.{key}"):
                resolve_config(config)

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


def plan_leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from plan_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


# One alternative value per leaf of DEFAULT_CONFIG["plan"].
KNOB_ALTERNATIVES = {
    "num_steps": 20,
    "num_refine_steps": 3,
    "n_sdedit": 4,
    "eta_t2v": 0.5,
    "eta_t2i": 0.5,
    "crossframe_mix": 0.6,
    "attention_seed": 7,
    "inversion": "same_noise",
    "snr_match": True,
    "filter.d0": 0.1,
    "filter.axes": ["temporal", "spatial"],
    "filter.apply_every_refine": False,
}


class TestNoDeadKnobs:
    KNOB_CONFIG = {"mode": "elevate", "shape": [4, 4, 8, 8], "seeds": [0], "render": False}

    def latent_checksum(self, out, plan=None):
        cfg = dict(self.KNOB_CONFIG, plan=plan or {})
        return run(cfg, output_dir=out)["files"]["elevate_seed0000.elvt"]

    @pytest.fixture(scope="class")
    def default_checksum(self, tmp_path_factory):
        return self.latent_checksum(tmp_path_factory.mktemp("default"))

    def test_every_plan_leaf_has_an_alternative(self):
        assert set(KNOB_ALTERNATIVES) == set(plan_leaves(DEFAULT_CONFIG["plan"]))

    @pytest.mark.parametrize("leaf", sorted(KNOB_ALTERNATIVES))
    def test_knob_changes_the_latent(self, leaf, default_checksum, tmp_path):
        plan: dict = {}
        *parents, key = leaf.split(".")
        node = plan
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = KNOB_ALTERNATIVES[leaf]
        assert self.latent_checksum(tmp_path, plan) != default_checksum


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
                      "filter": {"axes": ["temporal", "spatial"], "d0": 0.2}},
                ablate_steps={"step_counts": [8, 16]})

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


NAN = float("nan")
# (valid, invalid) values per config path; "valid" means the right type and
# in range on its own, invalid values include wrong types.
LEAF_VALUES = {
    ("plan", "num_steps"): ([2, 5, 8], [0, -1, 2.5, "8"]),
    ("plan", "num_refine_steps"): ([0, 1, 2], [9, -1, 1.0, None]),
    ("plan", "n_sdedit"): ([0, 1, 2, 3], [9, -1, 2.5]),
    ("plan", "eta_t2v"): ([0.0, 0.5, 1], [1.5, -0.1, NAN, "0"]),
    ("plan", "eta_t2i"): ([0.0, 0.5], [1.5, NAN]),
    ("plan", "crossframe_mix"): ([0.0, 0.3, 1.0], [2.0, -1.0, NAN, True]),
    ("plan", "attention_seed"): ([0, 7], [-1, 1.5]),
    ("plan", "inversion"): (["ddim", "same_noise", "random_noise"], ["exact", 0]),
    ("plan", "snr_match"): ([False, True], [0, "yes"]),
    ("plan", "filter", "d0"): ([0.25, 0.05, 2, math.inf], [0, -1.0, NAN, "0.25"]),
    ("plan", "filter", "axes"): ([["temporal"], ["temporal", "spatial"], ("temporal",)],
                                 [["spatial"], [], "temporal", [1]]),
    ("plan", "filter", "apply_every_refine"): ([True, False], [1]),
    ("priors", "t2v", "rho"): ([0.0, 0.5, 0.99], [1.0, -0.5, NAN]),
    ("priors", "t2i", "variance_scale"): ([1.0, 0.5], [0.0, -1.0, NAN]),
    ("priors", "t2v", "variance_scale"): ([1.0, 2], [0, NAN]),
    ("priors", "t2i", "spectrum_kind"): (["broadband", "flat", "lowpass"], ["bogus"]),
    ("schedules", "t2i", "kind"): (["linear_beta", "scaled_linear_beta", "cosine"],
                                   ["bogus"]),
    ("schedules", "t2v", "params", "beta_end"): ([2e-2, 1e-3, 0.5], [2.0, -1.0]),
    ("metrics", "flicker_cutoff"): ([0.0, 0.15, 0.3], [0.5, -1, 2.0, NAN, "x"]),
    ("metrics", "detail_band"): ([0.0, 0.1, 0.5], [0.8, 2.0, -1, NAN]),
    ("seeds",): ([[0], [0, 1], [5]], [[-1], [0, 0], "0", 3]),
    ("render",): ([True, False], ["no"]),
    ("check",): ([True, False], [1]),
    ("ablate_steps", "step_counts"): ([[2, 4], [8, 1], [2, 8, 5]],
                                      [[3], [3, 3], [], [0, 2], [2, 2.5]]),
}
ALWAYS_SET = (("plan", "num_steps"), ("plan", "num_refine_steps"), ("plan", "n_sdedit"))


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
        "schedules": {"t2i": {"total_steps": total_steps},
                      "t2v": {"total_steps": total_steps}},
    }
    others = sorted(set(LEAF_VALUES) - set(ALWAYS_SET))
    for path in [*ALWAYS_SET, *draw(st.sets(st.sampled_from(others), max_size=4))]:
        node = config
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = pick(*LEAF_VALUES[path])
    return config


# found by this test: a NaN variance passed the prior's check and a zero one
# (the config's priors have zero mean) made all-zero latents no metric takes
@example(config={"mode": "baseline_t2i", "shape": [2, 1, 2, 2],
                 "plan": {"num_steps": 2, "num_refine_steps": 0, "n_sdedit": 0},
                 "priors": {"t2i": {"variance_scale": NAN}}})
@example(config={"mode": "baseline_t2v", "shape": [2, 1, 2, 2],
                 "plan": {"num_steps": 2, "num_refine_steps": 0, "n_sdedit": 0},
                 "priors": {"t2v": {"variance_scale": 0}}})
@given(config=small_configs())
@settings(max_examples=150, deadline=None)
def test_config_is_rejected_or_runs_clean(config):
    """Any config is either rejected up front with ValueError, or it runs to
    completion with no trace violation and a manifest listing exactly the
    files on disk."""
    try:
        resolve_config(config)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run(config, output_dir=tmp)
        assert all(r["trace_violations"] == [] for r in manifest["runs"])
        on_disk = {p.name for p in Path(tmp).iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == on_disk


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
        # the manifest carries auditable schedules: each resolved config
        # plus the full array, which make_schedule rebuilds exactly
        for name, cfg in manifest["resolved_config"]["schedules"].items():
            entry = manifest["schedules"][name]
            assert entry == {**cfg, "alpha_bar": entry["alpha_bar"]}
            assert list(entry) == ["kind", "total_steps", "params", "alpha_bar"]
            rebuilt = make_schedule(entry["kind"], entry["total_steps"], **entry["params"])
            assert rebuilt.alpha_bar.tolist() == entry["alpha_bar"]

    def test_manifest_lists_every_file_with_checksum(self, tmp_path):
        manifest = run(tiny("baseline_t2v", seeds=[0]), output_dir=tmp_path)
        on_disk = {
            str(p.relative_to(tmp_path))
            for p in tmp_path.rglob("*") if p.is_file()
        } - {"manifest.json"}
        assert set(manifest["files"]) == on_disk
        for rel, digest in manifest["files"].items():
            assert sha256_file(tmp_path / rel) == digest

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
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        cfg = tiny("elevate", seeds=[0], render=False,
                   plan=dict(TINY["plan"], filter={"d0": math.inf}))
        m1 = run(cfg, output_dir=tmp_path / "a")
        text = (tmp_path / "a" / "manifest.json").read_text()
        replay = json.loads(text, parse_constant=refuse)["resolved_config"]
        assert replay["plan"]["filter"]["d0"] == "inf"
        replay["output_dir"] = None
        m2 = run(replay, output_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]

    def test_parallel_equals_serial(self, tmp_path):
        serial = run(tiny("elevate"), output_dir=tmp_path / "s")
        parallel = run(tiny("elevate", jobs=2), output_dir=tmp_path / "p")
        assert serial["files"] == parallel["files"]

    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
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
        run(tiny("baseline_t2v", seeds=[0], jobs=8), output_dir=tmp_path / "one")
        assert built == []
        manifest = run(tiny("baseline_t2v", seeds=[0, 1, 2], jobs=8),
                       output_dir=tmp_path / "three")
        assert built == [3]
        assert [r["seed"] for r in manifest["runs"]] == [0, 1, 2]

    def test_no_refine_elevate_matches_t2i_baseline_checksums(self, tmp_path):
        cfg = tiny("elevate")
        cfg["plan"]["num_refine_steps"] = 0
        m_elev = run(cfg, output_dir=tmp_path / "e")
        m_base = run(tiny("baseline_t2i"), output_dir=tmp_path / "b")
        for seed in (0, 1):
            a = m_elev["files"][f"elevate_seed{seed:04d}.elvt"]
            b = m_base["files"][f"baseline_t2i_seed{seed:04d}.elvt"]
            assert a == b

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

    def test_ablate_variants_present(self, tmp_path):
        cfg = tiny("ablate_inversion", seeds=[0], render=False)
        manifest = run(cfg, output_dir=tmp_path)
        assert set(manifest["aggregate"]) == {"same_noise", "ddim", "random_noise"}
        cfg = tiny("ablate_filter", seeds=[0], render=False)
        manifest = run(cfg, output_dir=tmp_path / "f")
        assert set(manifest["aggregate"]) == {"no_lpff", "temporal", "spatial_temporal"}

    def test_ablate_steps_variants(self, tmp_path):
        cfg = tiny("ablate_steps", seeds=[0], render=False)
        cfg["ablate_steps"] = {"step_counts": [8, 16]}
        manifest = run(cfg, output_dir=tmp_path)
        assert set(manifest["aggregate"]) == {
            "baseline_t2v_8", "baseline_t2v_16", "baseline_t2i_8", "elevate_8",
        }


class TestCli:
    def test_parse_seeds_forms(self):
        assert parse_seeds("0,1,2") == [0, 1, 2]
        assert parse_seeds("0:4") == [0, 1, 2, 3]
        assert parse_seeds("7,0:2") == [7, 0, 1]
        with pytest.raises(ValueError):
            parse_seeds(" ")

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

    def test_cli_check_failure_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shape": [4, 2, 8, 8], "render": False}))
        code = main(["roundtrip", "--config", str(cfg_path), "--seeds", "0",
                     "--check", "--output", str(tmp_path / "out")])
        assert code == 1
        assert "check failed" in capsys.readouterr().err
