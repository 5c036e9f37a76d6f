"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps the public functions each layer's callers go
through. A function is wrapped at every binding in a ``latent_elevator``
module, because callers import by name: ``elevate`` calls its own
``ddim_step`` binding, so patching ``sampler.ddim_step`` alone would miss
those calls. Modules are reached through ``sys.modules`` /
``importlib.import_module``, since the package attribute
``latent_elevator.attention`` is the re-exported function, not the module.

Each span is ``[name, start, end, parent, op]``; spans stay in memory and
are summarized (and optionally written out) when the run ends. A span's
self time is its duration minus the time its child spans cover.

Spans inside process-pool workers are out of reach: the workers inherit the
wrappers but their spans die with them. The parent records the pool's
with-block as ``harness.run.pool_wait``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor


def _logits_bytes(args, kwargs, result):
    f, n = args[0].shape[:2]
    return {"logits_bytes": f * n * n * 8}  # float64 F x n x n logits


def _latent_bytes(args, kwargs, result):
    return {"bytes": 32 + args[0].size * 4}  # .elvt header + float32 payload


def _render_bytes(args, kwargs, result):
    f, _, h, w = args[0].shape
    return {"bytes": f * (len(f"P6\n{w} {h}\n255\n") + h * w * 3)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, extra counters from (args, kwargs, result))
TARGETS = (
    ("latent_elevator.attention", "first_only_cross_frame",
     "attention.first_only_cross_frame", _logits_bytes),
    ("latent_elevator.denoiser", "AnalyticDenoiser.predict_eps",
     "denoiser.predict_eps", None),
    ("latent_elevator.sampler", "ddim_step", "sampler.ddim_step", None),
    ("latent_elevator.sampler", "ddim_invert", "sampler.ddim_invert", None),
    ("latent_elevator.sampler", "sdedit_chain", "sampler.sdedit_chain", None),
    ("latent_elevator.freqfilter", "lpff", "freqfilter.lpff", None),
    ("latent_elevator.elevate", "refine_temporal", "elevate.refine_temporal", None),
    ("latent_elevator.elevate", "elevate_spatial", "elevate.elevate_spatial", None),
    ("latent_elevator.elevate", "elevate_sample", "elevate.elevate_sample", None),
    ("latent_elevator.elevate", "baseline_sample", "elevate.baseline_sample", None),
    ("latent_elevator.metrics", "compute_report", "metrics.compute_report", None),
    ("latent_elevator.videoio", "save_latent", "videoio.save_latent", _latent_bytes),
    ("latent_elevator.videoio", "render_frames", "videoio.render_frames", _render_bytes),
    ("latent_elevator.harness", "run", "harness.run", None),
    ("latent_elevator.harness", "build_plan", "harness.build_plan", None),
    ("latent_elevator.harness", "sha256_file", "harness.sha256_file", _file_bytes),
    ("latent_elevator.schedule", "make_schedule", "schedule.make_schedule", None),
    ("latent_elevator.synth", "make_gp_prior", "synth.make_gp_prior", None),
)

NFE_SPAN = "denoiser.predict_eps"
POOL_SPAN = "harness.run.pool_wait"
# Spans whose denoiser evaluations are reported as ``<span>.nfe``.
NFE_OF = ("sampler.ddim_invert", "elevate.refine_temporal", "elevate.elevate_spatial")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.extra: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.extra[f"{name}.{key}"] += value
            return result
        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target at every binding; ``uninstall`` undoes it."""
        for module_name, path, name, extra in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:  # a method: the class attribute is its one binding
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, attr, self._wrap(getattr(cls, attr), name, extra))
                continue
            original = getattr(module, path)
            traced = self._wrap(original, name, extra)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "latent_elevator":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, traced)
        harness = importlib.import_module("latent_elevator.harness")
        self._rebind(harness, "ProcessPoolExecutor", _traced_pool(self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, cells: int) -> dict:
        """Per-cell calls, self and total seconds per span name, denoiser
        evaluations under the NFE_OF spans, and the extra counters."""
        calls, total, child, nfe = (defaultdict(float) for _ in range(4))
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                child[parent] += duration
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            while name == NFE_SPAN and parent >= 0:
                nfe[self.spans[parent][0]] += 1
                parent = self.spans[parent][3]
        out = {}
        for _, _, name, extra in TARGETS:
            out[f"{name}.calls"] = calls[name] / cells
            out[f"{name}.self_s"] = self_s[name] / cells
            out[f"{name}.total_s"] = total[name] / cells
        for name in NFE_OF:
            out[f"{name}.nfe"] = nfe[name] / cells
        out[f"{POOL_SPAN}_s"] = total[POOL_SPAN] / cells
        calls_attn = calls["attention.first_only_cross_frame"]
        key = "attention.first_only_cross_frame.logits_bytes"
        out[key] = self.extra[key] / calls_attn if calls_attn else 0.0
        out["harness.sha256_file.bytes"] = self.extra["harness.sha256_file.bytes"] / cells
        out["videoio.bytes"] = (self.extra["videoio.save_latent.bytes"]
                                + self.extra["videoio.render_frames.bytes"]) / cells
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """The harness's pool; its with-block is the parent's pool wait."""

        def __enter__(self):
            self._span = tracer.begin(POOL_SPAN)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    return TracedPool
