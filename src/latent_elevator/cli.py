"""Command-line entry point.

One subcommand per run mode. Output directory precedence: ``--output``,
then the config's ``output_dir``, then ``$ELEVATOR_OUTPUT_DIR``, then the
current directory. Exit status is 0 on success, 1 when ``--check``
finds failures, 2 on bad usage or config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import MODES, run


def parse_seeds(spec: str) -> list:
    """Seed lists like ``0,1,2`` and ranges like ``0:20`` (half-open)."""
    seeds = []
    for part in spec.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":")
            seeds.extend(range(int(lo), int(hi)))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elevator",
        description="Two-model latent-video diffusion experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} mode")
        p.add_argument("--config", help="JSON config path (defaults apply otherwise)")
        p.add_argument("--seeds", help="e.g. 0,1,2 or 0:20")
        p.add_argument("--jobs", type=int, help="parallel seed runs")
        p.add_argument("--check", action="store_true",
                       help="evaluate mode invariants; nonzero exit on failure")
        p.add_argument("--output", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"invalid config: {args.config} must hold a JSON object, "
                                 f"got {config!r}")
        config["mode"] = args.mode
        if args.seeds:
            config["seeds"] = parse_seeds(args.seeds)
        if args.jobs is not None:
            config["jobs"] = args.jobs
        if args.check:
            config["check"] = True
        output = (
            args.output
            or config.get("output_dir")
            or os.environ.get("ELEVATOR_OUTPUT_DIR")
            or "."
        )
        manifest = run(config, output_dir=output)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, stats in manifest["aggregate"].items():
        summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(stats.items()))
        print(f"{name}: {summary}")
    checks = manifest["checks"]
    if checks.get("enabled"):
        if checks["passed"]:
            print("checks: all passed")
        else:
            for failure in checks["failures"]:
                print(f"check failed: {failure}", file=sys.stderr)
            return 1
    print(f"manifest: {os.path.join(manifest['resolved_config']['output_dir'], 'manifest.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
