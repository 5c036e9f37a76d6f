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
    for part in filter(None, (p.strip() for p in spec.split(","))):
        try:
            bounds = [int(b) for b in part.split(":")]
        except ValueError:
            bounds = []
        if not 1 <= len(bounds) <= 2:
            raise ValueError(f"invalid --seeds {spec!r}: {part!r} is not N or LO:HI")
        if len(bounds) == 2 and bounds[0] >= bounds[1]:
            raise ValueError(f"invalid --seeds {spec!r}: {part!r} is an empty range")
        seeds.extend(range(*bounds) if len(bounds) == 2 else bounds)
    if not seeds:
        raise ValueError(f"invalid --seeds {spec!r}: no seeds")
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
        p.add_argument("--jobs", type=int,
                       help="cells to run in parallel, at most one worker per cell and per CPU")
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
        if args.seeds is not None:
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
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, stats in manifest["aggregate"].items():
        summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(stats.items()))
        print(f"{name}: {summary}")
    failures = manifest["checks"].get("failures", [])
    if manifest["checks"]["enabled"] and not failures:
        print("checks: all passed")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"manifest: {os.path.join(manifest['resolved_config']['output_dir'], 'manifest.json')}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
