"""Span recording around the public functions of each flowmat module.

The tracer wraps functions from outside the package. It rebinds every
module attribute bound to a traced function, so names imported with
``from .x import f`` (``evalharness`` binds ``train_*`` and
``compute_precoders`` that way, ``channel`` binds ``hermitian_top_eigpair``)
are covered too. Each wrapped call records a span (id, name, start, end,
parent id); spans stay in memory until ``write_spans``. Self time is a
span's duration minus the durations of its direct children.

``Tracer(full=False)`` wraps only the few coarse functions the end-to-end
metrics need (dataset synthesis, the training calls, the eval calls and the
optimizer step) and records no spans. ``full=True`` wraps every traced
function and derives the per-layer metrics.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import defaultdict

import numpy as np

OPS = ("matmul", "add", "sub", "mul", "div", "narrow", "concat", "transpose",
       "softmax_rows", "layer_norm", "gelu", "tsum", "sqrt", "select_active",
       "insert_rows", "straight_through")
MODEL_METHODS = ("encode", "decode", "denoise", "feedback_forward",
                 "estimate_forward", "save", "load")
MODEL_FUNCS = ("feedback_pipeline", "estimate_pipeline")
CHANNEL_FUNCS = ("generate_batch", "compute_precoders", "observe_pilots",
                 "ls_estimate", "interpolate_frequency")
QUANTIZER_FUNCS = ("calibrate_uniform", "uniform_quantize",
                   "uniform_dequantize", "pack_bits")
EVAL_FUNCS = ("make_dataset", "eval_feedback", "eval_estimation", "eval_joint",
              "baseline_truncation", "collect_latents", "write_results_csv")
TRAIN_FUNCS = ("train_feedback", "train_progressive", "train_end_to_end",
               "train_joint_estimation")
LOSS_FUNCS = ("loss_cf", "loss_ce")
PHASES = ("feedback", "finetune", "progressive1", "progressive2", "end_to_end")

_FORWARD = {"model.feedback_forward", "model.estimate_forward", "model.denoise",
            "training.differentiable_precoders"}
_LOSS = {f"training.{f}" for f in LOSS_FUNCS}
_STEP_PARTS = ("forward", "loss", "backward", "optimizer")

# frame layout: [name, start_ns, child_ns, train_state, span_id, end_ns]
_NAME, _START, _CHILD, _STATE, _ID, _END = range(6)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    def __init__(self, full: bool, budgets=()):
        """``budgets`` are the bit budgets whose clamp rate is reported."""
        self.full = full
        self.budgets = budgets
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.first_start_ns = {}
        self.samples = defaultdict(int)
        self.step_ms = defaultdict(list)
        self.step_parts_ns = defaultdict(int)
        self.steps = 0
        self.train_nodes = 0
        self.eig_us = []
        self.eig_pairs = []
        self.clamp = defaultdict(lambda: [0, 0])
        self.written_bytes = 0
        self._train_depth = 0

    def wrap(self, name, fn, on_exit=None, on_enter=None):
        """``fn`` timed as span ``name``; ``on_enter(args, kwargs)`` returns
        the frame's train state, ``on_exit(frame, args, kwargs, result)``
        runs after the span closes."""
        stack, spans, ids = self._stack, self.spans, self._ids
        record = self.full
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            state = on_enter(args, kwargs) if on_enter is not None else None
            frame = [name, clock(), 0, state, next(ids), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = frame[_END] = clock()
                stack.pop()
                start = frame[_START]
                dur = end - start
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[_CHILD]
                self.first_start_ns.setdefault(name, start)
                if parent is not None:
                    parent[_CHILD] += dur
                if record:
                    spans.append((frame[_ID], name, start, end,
                                  -1 if parent is None else parent[_ID]))
                    if parent is not None and parent[_STATE] is not None:
                        self._step_child(parent[_STATE], name, start, end)
            if on_exit is not None:
                on_exit(frame, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the coarse functions, and with ``full`` every traced one."""
        import flowmat
        from flowmat import (autodiff, channel, cli, dataio, evalharness,
                             linalg, model, quantizer, training)

        modules = (flowmat, autodiff, channel, cli, dataio, evalharness,
                   linalg, model, quantizer, training)

        def patch(mod, attr, name, on_exit=None, on_enter=None):
            original = getattr(mod, attr)
            traced = self.wrap(name, original, on_exit, on_enter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

        def count(key, n):
            self.samples[key] += n

        def train_exit(frame, args, kwargs, report):
            cfg = next(a for a in args if isinstance(a, training.TrainConfig))
            data = next(a for a in args if isinstance(a, list))
            count("train", len(report.losses) * min(cfg.batch_size, len(data)))
            if frame[_STATE] is not None:
                self._train_depth -= 1

        patch(evalharness, "make_dataset", "evalharness.make_dataset",
              lambda f, a, k, r: count("synth", len(r[1])))
        patch(evalharness, "eval_feedback", "evalharness.eval_feedback",
              lambda f, a, k, r: count("eval", len(a[1])))
        patch(evalharness, "eval_estimation", "evalharness.eval_estimation",
              lambda f, a, k, r: count("eval", len(a[1]) * (
                  a[5] if len(a) > 5 else k.get("trials_per_channel", 1))))
        patch(evalharness, "eval_joint", "evalharness.eval_joint",
              lambda f, a, k, r: count("eval", len(a[2])))
        for name in TRAIN_FUNCS:
            patch(training, name, f"training.{name}", train_exit,
                  self._train_enter(name) if self.full else None)
        autodiff.Adam.step = self.wrap("autodiff.adam", autodiff.Adam.step)
        if not self.full:
            return

        for op in OPS:
            patch(autodiff, op, f"autodiff.{op}", self._op_exit)
        autodiff.Tensor.backward = self.wrap("autodiff.backward",
                                             autodiff.Tensor.backward)
        make_node = autodiff.Tensor._result

        def counted_node(data, parents, backward):
            out = make_node(data, parents, backward)
            if self._train_depth and out.requires_grad:
                self.train_nodes += 1
            return out

        autodiff.Tensor._result = staticmethod(counted_node)

        cls = model.FlowMatModel
        for name in MODEL_METHODS:
            if name == "load":
                cls.load = classmethod(self.wrap("model.load",
                                                 cls.__dict__["load"].__func__))
            else:
                setattr(cls, name, self.wrap(f"model.{name}",
                                             getattr(cls, name)))
        for name in MODEL_FUNCS:
            patch(model, name, f"model.{name}")
        for name in CHANNEL_FUNCS:
            patch(channel, name, f"channel.{name}")
        patch(linalg, "hermitian_top_eigpair", "linalg.hermitian_top_eigpair",
              self._eig_exit)
        for name in QUANTIZER_FUNCS:
            patch(quantizer, name, f"quantizer.{name}",
                  self._quantize_exit if name == "uniform_quantize" else None)
        for name in ("baseline_truncation", "collect_latents",
                     "write_results_csv"):
            patch(evalharness, name, f"evalharness.{name}")
        patch(dataio, "write_records", "dataio.write_records",
              lambda f, a, k, r: self._add_bytes(a[0]))
        for name in LOSS_FUNCS:
            patch(training, name, f"training.{name}")
        patch(training, "differentiable_precoders",
              "training.differentiable_precoders")
        patch(training, "_step_lr", "training._step_lr")

    # -- hooks ----------------------------------------------------------------

    def _train_enter(self, name):
        def enter(args, kwargs):
            if name == "train_feedback":
                quant = args[3] if len(args) > 3 else kwargs.get("quantizer")
                phase = "finetune" if quant is not None else "feedback"
            else:
                phase = name[len("train_"):]
            self._train_depth += 1
            return {"phase": phase, "step_start": 0,
                    "parts": defaultdict(int), "forward": set()}
        return enter

    def _step_child(self, state, name, start, end):
        """Attribute a direct child of a training call to the current step.

        A step runs from its ``_step_lr`` call to the end of its optimizer
        step; data time is the part no forward, loss, backward or optimizer
        call covers.
        """
        parts = state["parts"]
        if name == "training._step_lr":
            state["step_start"] = start
            parts.clear()
            state["forward"].clear()
        elif name in _FORWARD:
            parts["forward"] += end - start
            state["forward"].add(name)
        elif name in _LOSS:
            parts["loss"] += end - start
        elif name == "autodiff.backward":
            parts["backward"] += end - start
        elif name == "autodiff.adam":
            parts["optimizer"] += end - start
            interval = end - state["step_start"]
            phase = state["phase"]
            if phase == "progressive":
                phase = ("progressive1" if "model.denoise" in state["forward"]
                         else "progressive2")
            self.step_ms[phase].append(interval / 1e6)
            for key in _STEP_PARTS:
                self.step_parts_ns[key] += parts[key]
            self.step_parts_ns["data"] += interval - sum(parts.values())
            self.steps += 1

    def _op_exit(self, frame, args, kwargs, result):
        out = result[0] if isinstance(result, tuple) else result
        if out._backward is not None:
            out._backward = self.wrap(f"{frame[_NAME]}.bwd", out._backward)

    def _eig_exit(self, frame, args, kwargs, pair):
        self.eig_us.append((frame[_END] - frame[_START]) / 1e3)
        self.eig_pairs.append((np.asarray(args[0]), pair))

    def _quantize_exit(self, frame, args, kwargs, result):
        """Clamp rate of the model's own quantizer, keyed by bit budget."""
        if not any(f[_NAME] == "model.feedback_forward" for f in self._stack):
            return
        x, spec = np.asarray(args[0]), args[1]
        budget = x.shape[-2] * x.shape[-1] * spec.bits
        counts = self.clamp[budget]
        counts[0] += int(np.count_nonzero((x < spec.lo) | (x >= spec.hi)))
        counts[1] += x.size

    def _add_bytes(self, path):
        self.written_bytes += os.path.getsize(path)

    # -- results --------------------------------------------------------------

    def wall_s(self, name) -> float:
        return self.total_ns[name] / 1e9

    def layer_metrics(self) -> dict:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        def ms(name):
            return self.self_ns[name] / 1e6

        m = {}
        for op in OPS:
            name = f"autodiff.{op}"
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.fwd_ms"] = ms(name)
            m[f"{name}.bwd_ms"] = ms(f"{name}.bwd")
        m["autodiff.nodes_per_step"] = self.train_nodes / max(self.steps, 1)
        m["autodiff.backward.ms"] = ms("autodiff.backward")
        m["autodiff.adam.ms"] = ms("autodiff.adam")
        for name in MODEL_METHODS + MODEL_FUNCS:
            m[f"model.{name}.calls"] = self.calls[f"model.{name}"]
            m[f"model.{name}.ms"] = ms(f"model.{name}")
        for phase in PHASES:
            steps = self.step_ms[phase]
            m[f"training.step_ms.{phase}.p50"] = _percentile(steps, 50)
            m[f"training.step_ms.{phase}.p90"] = _percentile(steps, 90)
        for key in ("data",) + _STEP_PARTS:
            m[f"training.{key}_ms"] = (self.step_parts_ns[key] / 1e6
                                       / max(self.steps, 1))
        m["training.differentiable_precoders.ms"] = ms(
            "training.differentiable_precoders")
        for name in CHANNEL_FUNCS:
            m[f"channel.{name}.calls"] = self.calls[f"channel.{name}"]
            m[f"channel.{name}.ms"] = ms(f"channel.{name}")
        eig = "linalg.hermitian_top_eigpair"
        m[f"{eig}.calls"] = self.calls[eig]
        m[f"{eig}.ms"] = ms(eig)
        m[f"{eig}.us.p50"] = _percentile(self.eig_us, 50)
        m[f"{eig}.us.p99"] = _percentile(self.eig_us, 99)
        m["linalg.residual_max"] = max(
            (float(np.linalg.norm(a @ p.vector - p.value * p.vector)
                   / max(p.value, 1e-300)) for a, p in self.eig_pairs),
            default=0.0)
        for name in QUANTIZER_FUNCS:
            m[f"quantizer.{name}.calls"] = self.calls[f"quantizer.{name}"]
            m[f"quantizer.{name}.ms"] = ms(f"quantizer.{name}")
        for budget in self.budgets:
            out, total = self.clamp[budget]
            m[f"quantizer.clamp_rate.{budget}"] = out / total if total else 0.0
        for name in EVAL_FUNCS:
            m[f"evalharness.{name}.ms"] = ms(f"evalharness.{name}")
        m["dataio.write_records.ms"] = ms("dataio.write_records")
        m["dataio.write_records.bytes"] = self.written_bytes
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent_id\n")
            fh.writelines(f"{i},{n},{s},{e},{p}\n" for i, n, s, e, p
                          in self.spans)
