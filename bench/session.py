"""One benchmark session: a flowmat CLI session in this one process.

    python3 bench/session.py --workload feedback --workdir DIR --trace 0

The seed reaches flowmat only through the ``FMAT_SEED`` environment
variable, which the caller sets. The session writes its config to
``DIR/run.cfg``, drives ``flowmat.cli.main`` through the workload's steps,
times a batch-1 deploy probe on the test split with the checkpoints that
``train`` wrote, checks the outputs and writes ``DIR/session.json``. With
``--trace 1`` every public flowmat function is wrapped, the per-layer
metrics go into ``session.json`` and the spans into ``DIR/spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

SESSION_START = time.perf_counter()

REPO = Path(__file__).resolve().parent.parent
BUDGETS = (64, 128, 256)
SNRS = (0.0, 10.0, 20.0)
PROBE_WARMUP = 3
PROBE_MIN_CALLS = {"full": 128, "tiny": 4}
UNIT_NORM_TOL = 1e-9

# key = value config files; FMAT_SEED supplies the seed
CONFIGS = {
    "feedback": {
        "full": dict(task="feedback", n_samples=192, train_fraction=0.75,
                     steps=90, finetune_steps=25, quantizer="uniform",
                     budgets="64,128,256"),
        "tiny": dict(task="feedback", n_samples=24, train_fraction=0.75,
                     steps=2, finetune_steps=1, quantizer="uniform",
                     budgets="64,128,256"),
    },
    "estimation": {
        "full": dict(task="estimate", regime="progressive", n_samples=256,
                     train_fraction=0.75, steps=60, eval_snrs_db="0,10,20"),
        "tiny": dict(task="estimate", regime="progressive", n_samples=24,
                     train_fraction=0.75, steps=2, eval_snrs_db="0,10,20"),
    },
    "joint": {
        "full": dict(task="joint", regime="end_to_end", n_samples=256,
                     train_fraction=0.75, steps=15),
        "tiny": dict(task="joint", regime="end_to_end", n_samples=16,
                     train_fraction=0.75, steps=1),
    },
}


class Session:
    def __init__(self, workload: str, size: str, workdir: Path, trace: bool):
        self.workload = workload
        self.size = size
        self.dir = workdir
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cli_ms = {}
        self.stdout = {}

    def fail(self, message: str, op_failed: bool = True) -> None:
        """Record a failed check; ``op_failed`` also counts a failed
        operation (one per CLI step or probe call)."""
        self.failures.append(message)
        self.failed += op_failed

    def cli(self, *argv) -> bool:
        """One CLI step: an operation that must exit 0."""
        from flowmat import cli

        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed step, not a lost run
            code = f"{type(exc).__name__}: {exc}"
        self.cli_ms[argv[0]] = (time.perf_counter() - t0) * 1e3
        self.stdout[argv[0]] = out.getvalue()
        if code != 0:
            self.fail(f"flowmat {argv[0]} exited with {code}")
        return code == 0

    def run(self) -> dict:
        cfg_path = self.dir / "run.cfg"
        cfg_path.write_text("".join(
            f"{k} = {v}\n" for k, v in CONFIGS[self.workload][self.size].items()))

        t_import = time.perf_counter()
        import flowmat  # noqa: F401  (numpy, scipy and every flowmat module)
        import_s = time.perf_counter() - t_import

        from tracer import TRAIN_FUNCS, Tracer
        tracer = Tracer(full=self.trace, budgets=BUDGETS)
        tracer.install()

        cfg, out = str(cfg_path), str(self.dir)
        steps_ok = True
        if self.workload == "feedback":
            steps_ok = self.cli("gen-data", "--config", cfg, "--out",
                                str(self.dir / "eigens.fmc"), "--kind", "eigen")
        train_start_ns = time.perf_counter_ns()
        steps_ok = steps_ok and self.cli("train", "--config", cfg,
                                         "--out-dir", out)
        if steps_ok and self.workload == "feedback":
            steps_ok = self.cli("eval", "--config", cfg, "--checkpoint",
                                str(self.dir / "feedback.fmw"),
                                "--budget", str(BUDGETS[-1]))
        run_s = time.perf_counter() - SESSION_START

        first_step_ns = tracer.first_start_ns.get("autodiff.adam")
        result = {
            "run_s": run_s,
            "setup_s": (import_s + (first_step_ns - train_start_ns) / 1e9
                        if first_step_ns else None),
            "synth": [tracer.samples["synth"],
                      tracer.wall_s("evalharness.make_dataset")],
            "train": [tracer.samples["train"],
                      sum(tracer.wall_s(f"training.{n}") for n in TRAIN_FUNCS)],
            "eval": [tracer.samples["eval"],
                     sum(tracer.wall_s(f"evalharness.{n}") for n in
                         ("eval_feedback", "eval_estimation", "eval_joint"))],
            "cli_ms": self.cli_ms,
        }
        if steps_ok:
            result.update(self.check_results())
            result.update(self.probe(cfg_path))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        if self.trace:
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(self.dir / "spans.csv")
        result["attempted"] = self.attempted
        result["failed"] = self.failed
        result["failures"] = self.failures
        return result

    # -- output checks ----------------------------------------------------------

    def check_results(self) -> dict:
        """results.csv rows, finiteness and Rho range; quality and rho gap.

        A bad results.csv counts once, as a failure of the train step.
        """
        failures = len(self.failures)
        text = (self.dir / "results.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = {
            "feedback": [("flowmat", str(b)) for b in BUDGETS]
                        + [("truncation", str(b)) for b in BUDGETS],
            "estimation": [("flowmat", "0"), ("ls_interp", "0")] * len(SNRS),
            "joint": [("end_to_end", "0")],
        }[self.workload]
        got = [(r["method"], r["bit_budget"]) for r in rows]
        if sorted(got) != sorted(expected):
            self.fail(f"results.csv rows {got}, expected {expected}", False)
        column = "nmse_db" if self.workload == "estimation" else "rho"
        for r in rows:
            value = float(r[column])
            if not math.isfinite(value):
                self.fail(f"results.csv {column} not finite: {r}", False)
            elif column == "rho" and not 0.0 <= value <= 1.0:
                self.fail(f"results.csv rho outside [0, 1]: {r}", False)
        self.failed += len(self.failures) > failures
        out = {"results_csv": text}
        if self.workload == "feedback":
            ours = {int(r["bit_budget"]): float(r["rho"]) for r in rows
                    if r["method"] == "flowmat"}
            out["rho"] = sum(ours.values()) / max(len(ours), 1)
            printed = self.stdout.get("eval", "").strip()
            if printed.startswith("rho="):
                out["rho_gap"] = float(printed[4:]) - ours.get(BUDGETS[-1],
                                                                math.nan)
            else:
                self.fail(f"flowmat eval printed {printed!r}")
        elif self.workload == "joint":
            out["rho"] = float(rows[0]["rho"])
        else:
            ours = [float(r["nmse_db"]) for r in rows
                    if r["method"] == "flowmat"]
            ls = [float(r["nmse_db"]) for r in rows
                  if r["method"] == "ls_interp"]
            out["nmse_gain_db"] = (sum(ls) - sum(ours)) / max(len(ours), 1)
        return out

    # -- deploy probe -----------------------------------------------------------

    def probe(self, cfg_path: Path) -> dict:
        """Batch-1 latency of the public pipelines on the test split.

        Each timed call is one operation; a call that raises or returns a
        malformed output counts as failed. Pilot observations are simulated
        before the clock starts, as they arrive from the air interface.
        """
        import numpy as np
        from flowmat import channel, evalharness, model
        from flowmat.evalharness import rho
        from flowmat.linalg import ConvergenceError
        from flowmat.quantizer import UniformQuantizerSpec

        cfg = evalharness.parse_config(cfg_path)
        cfg["seed"] = int(os.environ["FMAT_SEED"])
        geom, channels, eigens, n_train = evalharness.make_dataset(cfg)
        test_h, test_w = channels[n_train:], eigens[n_train:]
        rng = np.random.default_rng(cfg["seed"] + 7)
        snr = cfg["snr_db_min"]

        def observe(i):
            return channel.observe_pilots(test_h[i], geom, snr,
                                          seed=int(rng.integers(2**31)))

        if self.workload == "feedback":
            net = model.FlowMatModel.load(self.dir / "feedback.fmw")
            budget = BUDGETS[-1]
            spec = UniformQuantizerSpec(
                bits=budget // (net.cfg.keep_count * net.cfg.d_latent),
                lo=net.metadata[f"uq_lo_{budget}"],
                hi=net.metadata[f"uq_hi_{budget}"])
            prepare = test_w.__getitem__

            def deploy(w):
                payload, w_rec = model.feedback_pipeline(w, net,
                                                         quantizer=spec)
                if payload.bit_length != budget:
                    raise ValueError(f"payload of {payload.bit_length} bits")
                return w_rec
        elif self.workload == "estimation":
            net = model.FlowMatModel.load(self.dir / "estimation.fmw")
            prepare = observe

            def deploy(obs):
                return model.estimate_pipeline(obs, net, geom.n_rx, geom.n_tx)
        else:
            est = model.FlowMatModel.load(self.dir / "estimation.fmw")
            fb = model.FlowMatModel.load(self.dir / "feedback.fmw")
            prepare = observe

            def deploy(obs):
                h_est = model.estimate_pipeline(obs, est, geom.n_rx, geom.n_tx)
                w_est = channel.compute_precoders(h_est, geom)
                return model.feedback_pipeline(w_est, fb)[1]

        latencies, outputs = [], []
        n_calls = max(PROBE_MIN_CALLS[self.size], len(test_h))
        for k in range(PROBE_WARMUP + n_calls):
            i = k % len(test_h)
            self.attempted += 1
            x = prepare(i)
            t0 = time.perf_counter()
            try:
                out = deploy(x)
            except Exception as exc:  # a failed call is counted, not fatal
                self.fail(f"probe call {k}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            if k >= PROBE_WARMUP:
                latencies.append((t1 - t0) * 1e3)
            problem = self.check_output(out, geom)
            if problem:
                self.fail(f"probe call {k}: {problem}")
            elif k < len(test_h):
                outputs.append((i, out))

        result = {"infer_ms": latencies}
        if self.workload == "estimation" and outputs:
            # Rho of the precoders a base station would derive from the
            # flowmat channel estimate, against those of the true channel
            try:
                w_est = [channel.compute_precoders(h, geom) for _, h in outputs]
            except ConvergenceError as exc:
                self.fail(f"precoders of the estimate: {exc}", False)
            else:
                result["rho"] = rho(np.stack([test_w[i] for i, _ in outputs]),
                                    np.stack(w_est))
        return result

    def check_output(self, out, geom):
        import numpy as np

        if not np.all(np.isfinite(out)):
            return "non-finite output"
        if self.workload == "estimation":
            shape = (geom.n_rx, geom.n_sub, geom.n_tx)
            return None if out.shape == shape else f"shape {out.shape}"
        norms = np.linalg.norm(out, axis=-1)
        if out.shape != (geom.n_subband, geom.n_tx):
            return f"shape {out.shape}"
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            return f"rows not unit norm: {norms}"
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if "FMAT_SEED" not in os.environ:
        parser.error("FMAT_SEED must be set")
    sys.path.insert(0, str(REPO / "src"))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(args.workload, args.size, workdir, bool(args.trace))
    result = session.run()
    (workdir / "session.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
