#!/usr/bin/env python3
"""The latent-elevator benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout, importing the package from
``src/``. With ``--trace 0`` it times ops for ``--seconds`` seconds
(default: ``run_seconds`` of ``BENCHMARK.json``) and prints the end-to-end
metrics; with ``--trace 1`` it times the same ops
untraced and traced and prints the per-layer metrics and the tracing
overhead. Every op's outputs are checked against ``reference.json``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the host,
goes to ``.perfbench_out/``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
WORKLOAD_NAMES = ("elevate", "baseline_t2v", "ablate_inversion_jobs2")


def _import_program() -> None:
    package = SRC / "latent_elevator"
    if not (package / "harness.py").is_file():
        raise SystemExit(f"error: no program source under {package}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import latent_elevator

    if Path(latent_elevator.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {latent_elevator.__file__}, not {package}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_seconds(name: str, overrides: dict | None, repeats: int) -> list:
    """Fresh interpreter to ready: import, resolve_config, first build_plan."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "workloads.py"), name, json.dumps(overrides or {})],
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed: {line!r}")
        times.append(elapsed)
    return times


def spread_setup_probes(name: str, seconds: float, overrides: dict | None,
                        repeats: int) -> tuple:
    """Set-up probes spread over a timed run, so that they sample the same
    host states as its ops: ``between(elapsed)``, called between ops, runs
    the next probe once ``elapsed`` passes its share of ``seconds``, and
    ``finish()`` runs the ones still due and returns all their times."""
    times: list = []

    def between(elapsed: float) -> None:
        if len(times) < repeats and elapsed >= len(times) * seconds / repeats:
            times.extend(setup_seconds(name, overrides, repeats=1))

    def finish() -> list:
        times.extend(setup_seconds(name, overrides, repeats - len(times)))
        return times

    return between, finish


def run_ops(configs, out_root: Path, reference, seconds: float = math.inf,
            tracer=None, between=None) -> list:
    """Run ops until ``seconds`` have passed (at least one), calling
    ``between(elapsed)`` after each; returns ``(config, OpResult)`` pairs."""
    from workloads import run_op

    done = []
    start = time.perf_counter()
    for i, config in enumerate(configs):
        if tracer is not None:
            tracer.op = i
        done.append((config, run_op(config, out_root, reference)))
        elapsed = time.perf_counter() - start
        if between is not None:
            between(elapsed)
        if elapsed >= seconds:
            break
    return done


def tail(values: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND values above it, as
    ``(value, percentile, count above)``; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def summarize(ops: list) -> dict:
    """Counts, failures, quality and check margins over ``(config, OpResult)``."""
    results = [r for _, r in ops]
    attempted = sum(r.cells for r in results)
    failed = sum(r.failed for r in results)
    out = {
        "ops": len(results),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "quality_max_rel_dev": max(r.max_rel_dev for r in results),
        "errors": [e for r in results for e in r.errors][:20],
    }
    margins = [r.margins for r in results if r.margins]
    if margins:
        out["check_margins"] = {k: min(m[k] for m in margins) for k in margins[0]}
        out["check_margin_min"] = min(out["check_margins"].values())
    return out


def _wall(ops: list) -> float:
    return sum(r.seconds for _, r in ops)


def _good_cells(ops: list) -> int:
    return sum(r.cells - r.failed for _, r in ops)


def end_to_end(ops: list) -> tuple:
    """End-to-end metrics (all but setup_s) of a timed run, and details."""
    times = [r.seconds for _, r in ops]
    value, pct, beyond = tail(times)
    # The largest peak RSS of this process and its pool workers. Workers are
    # forked, so adding their RSS to ours would count shared pages twice.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "samples_per_s": _good_cells(ops) / _wall(ops),
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "peak_rss_mb": peak_kb / 1024,
    }
    details = {"op_s_tail_percentile": pct, "op_s_tail_ops_beyond": beyond,
               "op_count": len(times), "op_seconds": times}
    return metrics, details


def per_layer(w, seed: int, seconds: float, overrides, reference) -> tuple:
    """Untraced and traced runs of the same ops; per-layer metrics per cell.

    Pool workers' spans are out of reach, so a pool workload is also run
    at jobs=1: its traced jobs=1 run gives the per-layer numbers and its
    untraced jobs=1 run the single-process baseline for scaling efficiency.
    """
    from tracing import Tracer

    groups = w.seed_groups_for(seed)
    phases = 4 if w.jobs > 1 else 2
    untraced = run_ops((w.config(g, overrides) for g in groups), OUT, reference,
                       seconds / phases)
    configs = [c for c, _ in untraced]
    runs = [untraced]
    if w.jobs > 1:
        serial = [dict(c, jobs=1) for c in configs]
        runs.append(run_ops(serial, OUT, reference))
        with Tracer() as pool_tracer:
            runs.append(run_ops(configs, OUT, reference, tracer=pool_tracer))
        baseline, traced_configs = runs[1], serial
    else:
        baseline, traced_configs = untraced, configs
    with Tracer() as tracer:
        traced = run_ops(traced_configs, OUT, reference, tracer=tracer)
    runs.append(traced)

    cells = sum(r.cells for _, r in traced)
    layers = tracer.summary(cells)
    layers["trace.overhead_s"] = (_wall(traced) - _wall(baseline)) / cells
    layers["trace.overhead_frac"] = _wall(traced) / _wall(baseline) - 1.0
    layers["harness.run.scaling_efficiency"] = 0.0
    if w.jobs > 1:
        pool_run = runs[2]
        layers["harness.run.pool_wait_s"] = pool_tracer.summary(
            sum(r.cells for _, r in pool_run))["harness.run.pool_wait_s"]
        serial_rate = _good_cells(baseline) / _wall(baseline)
        layers["harness.run.scaling_efficiency"] = (
            _good_cells(untraced) / _wall(untraced) / (w.jobs * serial_rate))
        pool_tracer.write(OUT / f"spans_{w.name}_seed{seed}_jobs{w.jobs}.json")
    tracer.write(OUT / f"spans_{w.name}_seed{seed}.json")
    ops = [op for run in runs for op in run]
    return layers, {"phase_wall_s": [_wall(r) for r in runs]}, ops


def measure(name: str, seed: int, seconds: float, trace: int,
            overrides: dict | None = None, reference: dict | None = None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """One workload in this process. Outputs are checked against
    ``reference`` unless it is None. Untraced, ``setup_s`` is the median of
    ``setup_repeats`` set-up probes spread over the timed run."""
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    # Warm-up: one untimed single-seed op fills caches and finishes lazy imports.
    first = next(w.seed_groups_for(seed))
    warm = run_ops([w.config(first[:1], dict(overrides or {}, jobs=1))], OUT, reference)
    if trace:
        metrics, details, ops = per_layer(w, seed, seconds, overrides, reference)
    else:
        between, finish = spread_setup_probes(name, seconds, overrides, setup_repeats)
        ops = run_ops((w.config(g, overrides) for g in w.seed_groups_for(seed)),
                      OUT, reference, seconds, between=between)
        metrics, details = end_to_end(ops)
        details["setup_s_probes"] = finish()
        metrics["setup_s"] = statistics.median(details["setup_s_probes"])
    details.update(summarize(warm + ops))
    return {"metrics": metrics, "details": details,
            "op_seeds": [c["seeds"] for c, _ in ops]}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# Units of the metrics that are printed but not listed in BENCHMARK.json.
UNLISTED_UNITS = {"op_s_p50": "s", "harness.run.pool_wait_s": "s",
                  "harness.run.scaling_efficiency": "ratio"}


def host_info() -> dict:
    import numpy as np

    cpu, caches = platform.processor(), {}
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{(index / 'level').read_text().strip()}"] = (
                    index / "size").read_text().strip()
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "thread_env": {k: v for k, v in os.environ.items()
                       if "THREADS" in k or k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": commit,
    }


def _print_report(name: str, result: dict, details: dict, host: dict) -> None:
    print(f"== {name}: {details['ops']} ops, {details['attempted']} cells attempted, "
          f"{details['failed']} failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric:52s} {m['value']:.6g} {m['unit']}")
    for metric, value in details["unlisted_metrics"].items():
        print(f"  {metric:52s} {value:.6g} {UNLISTED_UNITS[metric]} (not in BENCHMARK.json)")
    for key, key_unit in (("failed_frac", "ratio"), ("quality_max_rel_dev", "ratio"),
                          ("check_margin_min", "ratio"), ("op_s_tail_percentile", "%"),
                          ("op_s_tail_ops_beyond", "count"), ("op_count", "count")):
        if key in details:
            print(f"  {key:52s} {details[key]:.6g} {key_unit}")
    for key, value in details.get("check_margins", {}).items():
        print(f"  check_margin.{key:39s} {value:.6g} ratio")
    for error in details["errors"][:5]:
        print(f"  error: {error}")
    blas = host["numpy_config"].get("Build Dependencies", {}).get("blas", {})
    print(f"  host: {host['nproc']} cpus, {host['cpu']}, caches {host['caches']}, "
          f"python {host['python']}, numpy {host['numpy']}, blas {blas.get('name')} "
          f"{blas.get('version')}, thread env {host['thread_env']}, "
          f"start method {host['start_method']}, commit {host['git_commit']}")


def result_line(record: dict, trace: int) -> dict:
    """The final JSON object: the metrics BENCHMARK.json lists for this mode
    (end_to_end, or per_layer when tracing); the rest stay in the details."""
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    metrics, details = record["metrics"], record["details"]
    details["unlisted_metrics"] = {k: v for k, v in metrics.items() if k not in units}
    return {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_one(args) -> dict:
    _import_program()
    from workloads import load_reference

    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     reference=load_reference())
    result = result_line(record, args.trace)
    details = record["details"]
    host = host_info()
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "result": result, "details": details,
                    "op_seeds": record["op_seeds"], "host": host}, indent=1))
    _print_report(args.workload, result, details, host)
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
