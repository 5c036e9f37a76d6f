"""Benchmark workloads: which ops a workload seed generates, how one op runs,
and how its outputs are checked.

An op is one ``latent_elevator.harness.run(config, output_dir)`` call, which
is what one ``elevator <mode> ...`` invocation does; a cell is one latent it
produces. The workload seed only orders a fixed pool of sample-seed groups,
so every cell the benchmark can produce has a reference recorded from the
unchanged program (``reference.json``): its ``MetricReport`` and digests of
the latent and frames it saves.

Run as a script, this module is the set-up probe: it imports the package,
resolves a workload's first config, builds its first plan and prints
``ready``.
"""
from __future__ import annotations

import functools
import json
import math
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latent_elevator import harness
from latent_elevator.metrics import MetricReport
from latent_elevator.videoio import load_latent

# Relative deviation from the reference allowed per MetricReport field:
# reordered floating-point sums move these metrics by ~1e-15, while any
# change of algorithm or precision moves them by far more than 1e-9.
QUALITY_TOL = 1e-9
# Deviation allowed for the digests of the files a cell writes (see
# digest_deviation). The float32 latent may flip a last bit where a
# reordered sum crosses a rounding boundary; a render may move a pixel by
# one level, about 1e-4 each. Transposed or reordered data, a wrong byte
# order or a lost frame deviate by far more.
DIGEST_TOL = {"latent": 1e-6, "renders": 1e-3}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

VARIANTS = {
    "elevate": ("elevate",),
    "baseline_t2v": ("baseline_t2v",),
    "ablate_inversion": ("same_noise", "ddim", "random_noise"),
}

# The two-seed ablate_inversion check passes on every pair, with each margin
# at least 0.19 (reference.json records them).
ABLATE_PAIRS = tuple((s, s + 1) for s in range(0, 32, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    seed_groups: tuple  # the pool; each op runs one group of sample seeds
    jobs: int = 1
    render: bool = True
    check: bool = False

    def config(self, seeds, overrides: dict | None = None) -> dict:
        cfg = {"mode": self.mode, "seeds": list(seeds), "jobs": self.jobs,
               "render": self.render, "check": self.check}
        cfg.update(overrides or {})
        return cfg

    def seed_groups_for(self, workload_seed: int):
        """Endless, reproducible walk over the pool: a fresh shuffle per lap."""
        rng = random.Random(workload_seed)
        while True:
            order = list(self.seed_groups)
            rng.shuffle(order)
            yield from order

    def cells_per_op(self) -> int:
        return len(VARIANTS[self.mode]) * len(self.seed_groups[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("elevate", "elevate", tuple((s,) for s in range(32))),
        Workload("baseline_t2v", "baseline_t2v", tuple((s,) for s in range(64))),
        Workload("ablate_inversion_jobs2", "ablate_inversion", ABLATE_PAIRS,
                 jobs=2, render=False, check=True),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_margins(aggregate: dict) -> dict:
    """The three ablate_inversion check margins; all must be > 0 (>= 0 for
    the two orderings) for the check to pass."""
    fc = {k: aggregate[k]["frame_consistency"] for k in VARIANTS["ablate_inversion"]}
    return {
        "same_noise_minus_ddim": fc["same_noise"] - fc["ddim"],
        "ddim_minus_random_noise": fc["ddim"] - fc["random_noise"],
        "separation_minus_0.02": (fc["same_noise"] - fc["random_noise"]) - 0.02,
    }


@dataclass
class OpResult:
    seconds: float
    cells: int
    failed: int
    errors: list
    max_rel_dev: float = 0.0
    margins: dict | None = None


@functools.lru_cache(maxsize=4)
def _digest_weights(size: int) -> np.ndarray:
    return np.random.default_rng(size).standard_normal((4, size))


def digest(values: np.ndarray) -> list:
    """A position-sensitive digest: the sum of squares and four fixed random
    projections of the flattened array."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    return [float(flat @ flat)] + (_digest_weights(flat.size) @ flat).tolist()


def digest_deviation(got: list, ref: list) -> float:
    """Relative change of the sum of squares, and of each projection as a
    share of the reference's norm (about the relative norm of the change)."""
    norm = math.sqrt(ref[0])
    return max([abs(got[0] - ref[0]) / ref[0]]
               + [abs(g - r) / norm for g, r in zip(got[1:], ref[1:])])


def read_ppm(path: Path) -> np.ndarray:
    """The pixels of a binary P6 image with a maxval of 255."""
    raw = path.read_bytes()
    magic, size, maxval, pixels = raw.split(b"\n", 3)
    w, h = map(int, size.split())
    if magic != b"P6" or maxval != b"255" or len(pixels) != w * h * 3:
        raise ValueError(f"bad P6 image {path.name}")
    return np.frombuffer(pixels, dtype=np.uint8)


def output_digests(row: dict, out: Path) -> dict:
    """Digests of a cell's saved latent and, when rendered, of its frames."""
    digests = {"latent": digest(load_latent(out / row["latent"]))}
    if row["renders"]:
        digests["renders"] = digest(np.concatenate(
            [read_ppm(out / name) for name in row["renders"]]))
    return digests


def _max_rel_dev(metrics: dict, ref: dict) -> float:
    return max(
        abs(metrics[k] - ref[k]) / max(abs(ref[k]), 1e-300)
        for k in MetricReport.field_names()
    )


def _check_cell(row: dict, config: dict, out: Path, reference: dict | None):
    """Errors for one cell and its deviation from the reference: the cell's
    MetricReport, and digests of the latent and frames it saved."""
    cell = f"{row['variant']} seed {row['seed']}"
    errors = []
    if row["trace_violations"]:
        errors.append(f"{cell}: trace violations: {row['trace_violations'][:2]}")
    shape = tuple(config.get("shape", harness.DEFAULT_CONFIG["shape"]))
    if config["render"] and len(row["renders"]) != shape[0]:
        errors.append(f"{cell}: {len(row['renders'])} renders for {shape[0]} frames")
    try:
        z = load_latent(out / row["latent"])
        got = output_digests(row, out) if reference is not None else {}
    except (OSError, ValueError) as exc:
        return errors + [f"{cell}: unreadable output: {exc}"], 0.0
    if z.shape != shape or not np.all(np.isfinite(z)):
        errors.append(f"{cell}: bad latent of shape {z.shape}")
    if reference is None:
        return errors, 0.0
    ref = reference["cells"].get(config["mode"], {}).get(row["variant"], {})
    ref = ref.get(str(row["seed"]))
    if ref is None:
        return errors + [f"no reference for {cell}"], 0.0
    dev = _max_rel_dev(row["metrics"], ref["metrics"])
    if not dev <= QUALITY_TOL:
        errors.append(f"{cell}: metrics deviate {dev:.3e} > {QUALITY_TOL:g}")
    for kind, tol in DIGEST_TOL.items():
        if (kind in got) != (kind in ref):
            errors.append(f"{cell}: {kind} {'not ' * (kind not in got)}written, "
                          f"{'not ' * (kind not in ref)}in the reference")
        elif kind in got:
            kind_dev = digest_deviation(got[kind], ref[kind])
            if not kind_dev <= tol:
                errors.append(f"{cell}: {kind} digest deviates {kind_dev:.3e} > {tol:g}")
    return errors, dev


def run_op(config: dict, out_root: Path, reference: dict | None) -> OpResult:
    """Run one op, time it, check its outputs and delete them.

    A failing op is counted cell by cell and never aborts the caller: an
    exception fails every cell, a failed ``--check`` fails every cell, and a
    bad latent, trace violation or quality deviation fails its own cell.
    """
    expected = len(VARIANTS[config["mode"]]) * len(config["seeds"])
    out = Path(tempfile.mkdtemp(prefix="op", dir=out_root))
    try:
        t0 = time.perf_counter()
        try:
            manifest = harness.run(config, out)
        except Exception:  # a failing op is counted, never fatal
            seconds = time.perf_counter() - t0
            err = traceback.format_exc().strip().splitlines()[-1]
            return OpResult(seconds, expected, expected, [err])
        seconds = time.perf_counter() - t0

        rows = manifest["runs"]
        errors, bad, dev = [], 0, 0.0
        for row in rows:
            cell_errors, cell_dev = _check_cell(row, config, out, reference)
            dev = max(dev, cell_dev)
            if cell_errors:
                bad += 1
                errors.extend(cell_errors)
        if len(rows) != expected:
            errors.append(f"{len(rows)} cells, expected {expected}")
            bad += abs(expected - len(rows))
        margins = None
        if config["mode"] == "ablate_inversion":
            margins = check_margins(manifest["aggregate"])
        if config.get("check") and not manifest["checks"]["passed"]:
            errors.extend(manifest["checks"]["failures"])
            bad = expected
        return OpResult(seconds, expected, min(bad, expected), errors, dev, margins)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup_probe(name: str, overrides: dict) -> None:
    """Import to ready: resolve the workload's first config, build its plan."""
    w = WORKLOADS[name]
    seeds = next(w.seed_groups_for(0))
    resolved = harness.resolve_config(w.config(seeds, overrides))
    harness.build_plan(resolved, seeds[0])
    print("ready", flush=True)


if __name__ == "__main__":
    setup_probe(sys.argv[1], json.loads(sys.argv[2]) if len(sys.argv) > 2 else {})
