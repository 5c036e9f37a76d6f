#!/usr/bin/env python3
"""Record reference outputs for every cell the benchmark can run.

Writes ``perfbench/reference.json``: per-cell MetricReport values and
digests of the saved latent and rendered frames for every sample seed in
each workload's pool, plus the ablate_inversion check margins of every seed
pair. Run it from the repository root on the program whose
outputs are the reference (about four minutes on two cores):

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from latent_elevator import harness  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH, WORKLOADS, check_margins, output_digests)


def _run(config: dict) -> tuple:
    """The manifest of one jobs=1 op and each cell's output digests."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="ref", dir=scratch))
    try:
        manifest = harness.run(dict(config, jobs=1), out)
        return manifest, [output_digests(row, out) for row in manifest["runs"]]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    cells: dict = {}
    margins: dict = {}
    for w in WORKLOADS.values():
        by_variant = cells.setdefault(w.mode, {})
        # a checked workload's margins need one run per group
        groups = w.seed_groups if w.check else [[s for g in w.seed_groups for s in g]]
        for seeds in groups:
            manifest, digests = _run(w.config(seeds))
            for row, digest in zip(manifest["runs"], digests):
                by_variant.setdefault(row["variant"], {})[str(row["seed"])] = dict(
                    metrics=row["metrics"], **digest)
            if w.check:
                key = ",".join(map(str, seeds))
                margins[key] = dict(check_margins(manifest["aggregate"]),
                                    passed=manifest["checks"]["passed"])
            print(w.name, seeds, "done", flush=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"cells": cells, "ablate_inversion_margins": margins}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
