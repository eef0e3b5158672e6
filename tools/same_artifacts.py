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
0; a session with a failed step stops it with exit 1. Under each file that
differs it says what moved: for a text file the lines found in one tree
only, at most 10 per side; for a ``.fmw`` checkpoint the header lines found
in one tree only, and whether the parameter body after the header is
byte-identical. It writes only to a temporary directory. The six sessions
take about 30 s on a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("feedback", "estimation", "joint")
SEED = "5"
SKIPPED = {"session.json"}
MANIFEST_TIMES = ("started", "finished")
SHOWN = 10  # lines listed per tree for a file that differs


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
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def compare(a: Path, b: Path):
    """(relative paths of the files that differ between ``a`` and ``b``,
    number of files compared)."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name not in SKIPPED}

    in_a, in_b = files(a), files(b)
    differ = {p for p in in_a & in_b if artifact(a / p) != artifact(b / p)}
    return sorted(map(str, differ | (in_a ^ in_b))), len(in_a | in_b)


def one_tree_only(lines_a, lines_b) -> list:
    """The lines of each side that the other side lacks, at most ``SHOWN``
    per side, as printable lines."""
    out = []
    for side, lines, other in (("parent", lines_a, lines_b),
                               ("change", lines_b, lines_a)):
        others = set(other)
        only = [line for line in lines if line not in others]
        out += [f"  {side} only: {line}" for line in only[:SHOWN]]
        if len(only) > SHOWN:
            out.append(f"  {side} only: ... and {len(only) - SHOWN} more")
    return out


def checkpoint_parts(path: Path):
    """(header lines, parameter body) of a ``.fmw`` checkpoint: its
    ``key=value`` block after magic, version and block length, and the
    bytes from there up to the closing CRC."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 8)
    return raw[12:12 + length].decode().splitlines(), raw[12 + length:-4]


def what_moved(a: Path, b: Path) -> list:
    """Printable lines saying what differs inside two versions of a file;
    none for a file in one tree only or a binary file other than a
    checkpoint."""
    if not (a.is_file() and b.is_file()):
        return []
    if a.suffix == ".fmw":
        (head_a, body_a), (head_b, body_b) = map(checkpoint_parts, (a, b))
        body = "byte-identical" if body_a == body_b else "differs"
        return one_tree_only(head_a, head_b) + [f"  parameter body {body}"]
    try:
        text_a, text_b = (artifact(p).decode() for p in (a, b))
    except UnicodeDecodeError:
        return []
    return one_tree_only(text_a.splitlines(), text_b.splitlines())


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
        moved = {name: what_moved(*(out / name for out in outs))
                 for name in diff}
    for workload in WORKLOADS:
        p, c = parent[workload], change[workload]
        print(f"{workload}: setup_s parent {p['setup_s']:.3f}, change "
              f"{c['setup_s']:.3f}; peak_rss_mb parent {p['peak_rss_mb']:.1f}, "
              f"change {c['peak_rss_mb']:.1f}")
    for name in diff:
        print(f"differs: {name}")
        for line in moved[name]:
            print(line)
    print(f"{len(diff)} of {n_files} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
