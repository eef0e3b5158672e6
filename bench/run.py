"""flowmat benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload feedback --seed 1 --seconds 30 --trace 0

Each session of a workload is one flowmat CLI session run in a fresh
process (``session.py``) with one BLAS thread, closed loop: the next
session starts when the previous one has ended. A run makes as many
sessions as fit in ``--seconds`` at the workload's nominal session length
(at least ``MIN_SESSIONS``), session ``j`` with the seed
``seed * 1000000 + j * 1000``. flowmat seeds channel ``i`` with
``seed + i``, so this spacing gives every session its own dataset and model,
and the run's medians average over several of them. The run reports the
median over sessions, except that throughputs pool the work and time of
all sessions. ``--trace 1`` runs each seed twice, untraced and traced,
checks that both wrote the same results.csv, and reports the per-layer
metrics of the traced sessions plus the tracing overhead. The last line of stdout is the JSON result; the lines before it
are the run record (machine, versions, seed, workload reason and which
end-to-end metric each layer metric should move). Outputs, the record and
the spans of traced sessions are kept under ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
MIN_SESSIONS = {0: 3, 1: 1}
SESSION_S = {"feedback": 9.5, "estimation": 5.5, "joint": 7.3}
SEED_STRIDE = 1000
RUN_TIMEOUT_S = 170.0

# Which end-to-end metric each layer metric should move, and where.
MOVES = [
    ("autodiff.{narrow,concat,softmax_rows}.calls, autodiff.nodes_per_step",
     "train_samples_per_s on feedback; less on estimation; joint is "
     "dominated by the precoder nodes"),
    ("training.differentiable_precoders.ms, autodiff.{div,sqrt,tsum}.calls",
     "train_samples_per_s and peak_rss_mb on joint; no move on feedback"),
    ("linalg.hermitian_top_eigpair.*, channel.compute_precoders.ms",
     "synth_channels_per_s and setup_s on all workloads; on joint also "
     "eval_samples_per_s and infer_ms.p90"),
    ("model.feedback_pipeline.ms",
     "infer_ms.* and eval_samples_per_s on feedback; batched eval moves "
     "only eval_samples_per_s"),
    ("training.data_ms, channel.observe_pilots.*",
     "train_samples_per_s on estimation and joint; none on feedback"),
    ("model.denoise.ms, training.step_ms.progressive1.*",
     "train_samples_per_s on estimation only"),
    ("quantizer.*, dataio.*", "run_s on feedback only"),
]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_info() -> dict:
    info = {"python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.machine(),
            "nproc": os.cpu_count()}
    try:
        import numpy
        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        info["blas"] = f"unknown ({type(exc).__name__})"
    return info


def run_session(workload, seed, size, trace, workdir, deadline) -> dict:
    env = dict(os.environ, FMAT_SEED=str(seed), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--size", size, "--workdir", str(workdir), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    result_file = workdir / "session.json"
    if proc.returncode != 0 or not result_file.exists():
        raise RuntimeError(f"session exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_file.read_text())


def end_to_end(sessions) -> dict:
    def rate(key):
        seconds = sum(x[key][1] for x in sessions)
        return sum(x[key][0] for x in sessions) / seconds if seconds else 0.0

    def latency(q):
        return median([percentile(x["infer_ms"], q) for x in sessions
                       if x.get("infer_ms")])

    return {
        "run_s": median([x["run_s"] for x in sessions]),
        "setup_s": median([x["setup_s"] for x in sessions
                           if x["setup_s"] is not None]),
        "synth_channels_per_s": rate("synth"),
        "train_samples_per_s": rate("train"),
        "eval_samples_per_s": rate("eval"),
        "infer_ms.p50": latency(50),
        "infer_ms.p90": latency(90),
        "peak_rss_mb": median([x["peak_rss_mb"] for x in sessions]),
        "rho": median([x.get("rho", 0.0) for x in sessions]),
    }


def per_layer(traced, untraced) -> dict:
    names = traced[0]["layers"].keys()
    m = {k: median([x["layers"][k] for x in traced]) for k in names}
    for step in ("gen-data", "train", "eval"):
        m[f"cli.{step}.ms"] = median([x["cli_ms"].get(step, 0.0)
                                      for x in traced])
    m["cli.eval.rho_gap"] = median([abs(x.get("rho_gap", 0.0))
                                    for x in traced])
    m["evalharness.eval_estimation.nmse_gain_db"] = median(
        [x.get("nmse_gain_db", 0.0) for x in traced])
    m["bench.trace_overhead_s"] = (median([x["run_s"] for x in traced])
                                   - median([x["run_s"] for x in untraced]))
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs each workload at a smoke-test size")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    reasons = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in reasons:
        parser.error(f"unknown workload {args.workload!r}")
    if not (REPO / "src" / "flowmat" / "cli.py").is_file():
        print(f"no flowmat sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    pattern = [0, 1] if args.trace else [0]
    count = max(MIN_SESSIONS[args.trace], int(
        args.seconds // (SESSION_S[args.workload] * len(pattern))))
    sessions = []
    for j in range(count):
        seed = args.seed * SEED_STRIDE * SEED_STRIDE + j * SEED_STRIDE
        for trace in pattern:
            workdir = out_dir / f"session{j}-trace{trace}"
            t0 = time.monotonic()
            result = run_session(args.workload, seed, args.size, trace,
                                 workdir, deadline)
            result["wall_s"] = time.monotonic() - t0
            result["seed"] = seed
            sessions.append((trace, result))

    untraced = [r for t, r in sessions if t == 0]
    traced = [r for t, r in sessions if t == 1]
    results = [r for _, r in sessions]
    failures = [f for r in results for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    for seed in {r["seed"] for r in results}:
        if len({r.get("results_csv") for r in results if r["seed"] == seed}) > 1:
            failures.append(f"results.csv differs between runs of seed {seed}")
            failed += 1

    if args.trace:
        measured = per_layer(traced, untraced)
        declared = spec["per_layer"]
    else:
        measured = end_to_end(untraced)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload,
        "why": reasons[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "machine": machine_info(),
        "sessions": len(sessions),
        "session_seeds": [r["seed"] for r in results],
        "session_wall_s": [round(r["wall_s"], 3) for r in results],
        "rho_gap": [r.get("rho_gap") for r in results],
        "nmse_gain_db": [r.get("nmse_gain_db") for r in results],
        "failures": failures,
        "moves": [{"layer": layer, "end_to_end": e2e} for layer, e2e in MOVES],
    }
    if args.trace:
        overhead = metrics["bench.trace_overhead_s"]["value"]
        record["trace_overhead_pct"] = 100.0 * overhead / median(
            [r["run_s"] for r in untraced])
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
