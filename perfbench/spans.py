"""Span tracer for the benchmark's traced runs, and the per-layer metrics
computed from its spans.

The tracer replaces public functions of the ``seqssl`` modules with wrappers
that record one span per call: name, start, end, the index of the enclosing
span and an optional note taken from the call (points in a GMM fit, whether a
selection fell back, which clip was encoded). Nothing inside ``src/`` changes;
spans are kept in memory and written out once the traced work has ended.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

# index of each field in a span record
NAME, START, END, PARENT, NOTE = range(5)

STEP = "trainer.train_step"

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "trainer.train_step.ms_p50": "ms",
    "trainer.train_step.ms_p95": "ms",
    "trainer.prepare_step_plan.self_s": "s",
    "trainer.compute_losses.self_s": "s",
    "trainer.compute_losses.calls": "count",
    "trainer.sgd_step.s": "s",
    "trainer.evaluate.s": "s",
    "gmm.fit_gmm.s": "s",
    "gmm.fit_gmm.calls_per_step": "count",
    "gmm.em_iters_per_fit": "count",
    "gmm.points_per_fit": "count",
    "acl.score_candidates.self_s": "s",
    "acl.select.s": "s",
    "acl.acl_loss.s": "s",
    "acl.fallbacks_per_step": "count",
    "mtl.teacher_scale_logits.s": "s",
    "mtl.teacher_scale_logits.calls_per_step": "count",
    "mtl.mtl_loss_from_clips.self_s": "s",
    "backbone.encode.s": "s",
    "backbone.encode.calls_per_step": "count",
    "backbone.encode.distinct_per_step": "count",
    "backbone.ema_update.s": "s",
    "backbone.save_checkpoint.s": "s",
    "autodiff.backward.s": "s",
    "protobank.push.s": "s",
    "protobank.candidates_of.s": "s",
    "synthgen.frames.s": "s",
    "synthgen.augment.s": "s",
    "verify.loss_gradchecks.s": "s",
    "verify.gmm_oracle_checks.s": "s",
    "verify.acl_oracle_checks.s": "s",
}


class Tracer:
    """In-memory span recorder for a single-threaded program."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, note]
        self._open = []     # indices of the spans still running

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``note(args, kwargs, result)`` may return a value kept with the span.
        """
        fn = getattr(owner, attr)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, f)


def _encode_key(args, kwargs, out):
    # a (parameter set, clip) pair: the same clip content encoded twice with
    # the same parameters within one step is repeated work
    params, clip = args
    return hash((id(params), clip.frames.tobytes()))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer, including the names that ``trainer`` and
    ``mtl`` import directly from other modules."""
    from seqssl import (acl, autodiff, backbone, gmm, mtl, protobank,
                        synthgen, trainer, verify)

    for fn in ("train_step", "prepare_step_plan", "compute_losses",
               "sgd_step", "evaluate"):
        tracer.wrap(trainer, fn, f"trainer.{fn}")
    tracer.wrap(gmm, "fit_gmm", "gmm.fit_gmm",
                note=lambda a, k, fit: (len(a[0]),
                                        len(fit.log_likelihood_trace)))
    tracer.wrap(acl, "score_candidates", "acl.score_candidates")
    tracer.wrap(acl, "select", "acl.select",
                note=lambda a, k, sel: bool(sel.used_fallback))
    tracer.wrap(acl, "acl_loss", "acl.acl_loss")
    for owner in (mtl, trainer):
        tracer.wrap(owner, "teacher_scale_logits", "mtl.teacher_scale_logits")
        tracer.wrap(owner, "mtl_loss_from_clips", "mtl.mtl_loss_from_clips")
    for owner in (backbone, mtl):
        tracer.wrap(owner, "encode", "backbone.encode", note=_encode_key)
    tracer.wrap(backbone, "ema_update", "backbone.ema_update")
    tracer.wrap(backbone, "save_checkpoint", "backbone.save_checkpoint")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.wrap(protobank.MemoryBank, "push", "protobank.push")
    tracer.wrap(protobank.MemoryBank, "candidates_of", "protobank.candidates_of")
    tracer.wrap(synthgen.SynthDataset, "frames", "synthgen.frames")
    # strong_augment calls weak_augment inside synthgen; wrapping only the
    # names the trainer calls keeps augment spans from nesting in each other
    for fn in ("weak_augment", "strong_augment"):
        tracer.wrap(trainer, fn, "synthgen.augment")
    for fn in ("loss_gradchecks", "gmm_oracle_checks", "acl_oracle_checks"):
        tracer.wrap(verify, fn, f"verify.{fn}")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in kids):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures of one round of traced work.

    Seconds are totals over the round. ``*_per_step`` counts only the calls
    made inside a training step, divided by the number of steps; evaluation
    calls are outside every step.
    """
    self_s = self_times(spans)
    total, own, calls, in_step = {}, {}, {}, {}
    step_of = []            # index of the enclosing training step, or -1
    for i, s in enumerate(spans):
        name = s[NAME]
        step = i if name == STEP else (step_of[s[PARENT]] if s[PARENT] >= 0
                                       else -1)
        step_of.append(step)
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        own[name] = own.get(name, 0.0) + self_s[i]
        calls[name] = calls.get(name, 0) + 1
        if step >= 0:
            in_step.setdefault(name, []).append(i)

    n_steps = calls.get(STEP, 0)

    def per_step(count):
        return count / n_steps if n_steps else 0.0

    step_ms = [1e3 * (s[END] - s[START]) for s in spans if s[NAME] == STEP]
    # a fit that raised has no note
    fits = [s[NOTE] for s in spans
            if s[NAME] == "gmm.fit_gmm" and s[NOTE] is not None]
    distinct = {}
    for i in in_step.get("backbone.encode", []):
        distinct.setdefault(step_of[i], set()).add(spans[i][NOTE])
    fallbacks = sum(1 for i in in_step.get("acl.select", [])
                    if spans[i][NOTE])

    out = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "s":
            out[metric] = total.get(name, 0.0)
        elif kind == "self_s":
            out[metric] = own.get(name, 0.0)
        elif kind == "calls":
            out[metric] = float(calls.get(name, 0))
        elif kind == "calls_per_step":
            out[metric] = per_step(len(in_step.get(name, [])))
    out["trainer.train_step.ms_p50"] = (float(np.percentile(step_ms, 50))
                                        if step_ms else 0.0)
    out["trainer.train_step.ms_p95"] = (float(np.percentile(step_ms, 95))
                                        if step_ms else 0.0)
    out["gmm.points_per_fit"] = (statistics.fmean(p for p, _ in fits)
                                 if fits else 0.0)
    out["gmm.em_iters_per_fit"] = (statistics.fmean(n for _, n in fits)
                                   if fits else 0.0)
    out["acl.fallbacks_per_step"] = per_step(fallbacks)
    out["backbone.encode.distinct_per_step"] = per_step(
        sum(len(keys) for keys in distinct.values()))
    return out
