"""Check that two source trees write the same artifacts, byte for byte.

    python3 tools/same_artifacts.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository. In each, the script runs the
three full benchmark sessions (``bench/session.py`` for ``feedback``,
``estimation`` and ``joint``) at ``FMAT_SEED=5`` with one BLAS thread,
each in a fresh process on that tree's own ``src/``. It then compares every
file the sessions wrote. ``session.json`` holds timings and is skipped, and
``manifest.json`` is compared without its ``started`` and ``finished``
times. The script prints each tree's ``setup_s`` and ``peak_rss_mb`` per
workload, read from the skipped ``session.json``, so one command shows the
byte identity, the startup and the memory change. It then prints the files
that differ or exist in one tree only, and exits 1 if there are any, else
0; a session with a failed step stops it with exit 1. It writes only to a
temporary directory. The six sessions take about 30 s on a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("feedback", "estimation", "joint")
SEED = "5"
SKIPPED = {"session.json"}
MANIFEST_TIMES = ("started", "finished")


def run_sessions(tree: Path, out: Path) -> dict:
    """Every workload's full session of ``tree``, written under ``out``;
    returns each workload's session record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(FMAT_SEED=SEED, OPENBLAS_NUM_THREADS="1")
    sessions = {}
    for workload in WORKLOADS:
        print(f"# {tree}: {workload}", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, str(tree / "bench" / "session.py"),
                        "--workload", workload, "--workdir",
                        str(out / workload), "--trace", "0"],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        session = json.loads((out / workload / "session.json").read_text())
        if session["failures"]:
            sys.exit(f"{tree}: {workload} session failed: "
                     f"{session['failures']}")
        sessions[workload] = session
    return sessions


def artifact(path: Path) -> bytes:
    """The bytes of ``path`` that must match; a manifest drops its times."""
    raw = path.read_bytes()
    if path.name != "manifest.json":
        return raw
    manifest = json.loads(raw)
    for key in MANIFEST_TIMES:
        manifest.pop(key, None)
    return json.dumps(manifest, sort_keys=True).encode()


def compare(a: Path, b: Path):
    """(relative paths of the files that differ between ``a`` and ``b``,
    number of files compared)."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name not in SKIPPED}

    in_a, in_b = files(a), files(b)
    differ = {p for p in in_a & in_b if artifact(a / p) != artifact(b / p)}
    return sorted(map(str, differ | (in_a ^ in_b))), len(in_a | in_b)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_artifacts.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        outs = [Path(tmp) / name for name in ("parent", "change")]
        parent, change = [run_sessions(tree, out)
                          for tree, out in zip(trees, outs)]
        diff, n_files = compare(*outs)
    for workload in WORKLOADS:
        p, c = parent[workload], change[workload]
        print(f"{workload}: setup_s parent {p['setup_s']:.3f}, change "
              f"{c['setup_s']:.3f}; peak_rss_mb parent {p['peak_rss_mb']:.1f}, "
              f"change {c['peak_rss_mb']:.1f}")
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} of {n_files} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
