"""Every config that ``bench/session.py`` writes is one flowmat accepts.

The benchmark writes each workload's settings as a ``key = value`` file,
and an unknown key or a bad value makes every one of its sessions exit 2.
The benchmark's own smoke test is not part of this suite, so its
``CONFIGS`` are read here the way ``tests/test_tracer_names.py`` reads the
tracer: the source is executed into a fresh module, which also leaves no
bytecode cache under ``bench/``.
"""

import types
from pathlib import Path

import pytest

from flowmat.evalharness import parse_config, run_experiment

_path = Path(__file__).resolve().parents[1] / "bench" / "session.py"
session = types.ModuleType("bench_session")
session.__file__ = str(_path)
exec(compile(_path.read_text(), str(_path), "exec"), session.__dict__)

CASES = [(workload, size) for workload, sizes in session.CONFIGS.items()
         for size in sizes]


def write_config(path, settings: dict):
    """``settings`` as the session writes them."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


@pytest.mark.parametrize("workload,size", CASES,
                         ids=[f"{w}-{s}" for w, s in CASES])
def test_config_is_accepted(tmp_path, workload, size):
    settings = session.CONFIGS[workload][size]
    cfg = parse_config(write_config(tmp_path / "run.cfg", settings))
    assert {k: cfg[k] for k in settings} == settings


def test_tiny_feedback_config_runs(tmp_path):
    settings = session.CONFIGS["feedback"]["tiny"]
    cfg = parse_config(write_config(tmp_path / "run.cfg", settings))
    results = run_experiment(cfg, tmp_path / "run")
    budgets = {int(b) for b in settings["budgets"].split(",")}
    assert {r.bit_budget for r in results} == budgets
    assert (tmp_path / "run" / "feedback.fmw").exists()
