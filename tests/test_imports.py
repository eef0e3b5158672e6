"""What a run imports, checked in a fresh process: this test's own process
has long since loaded scipy.special and numpy's lazy submodules.

``import flowmat`` takes GELU's ``erf`` from scipy's compiled ufunc module
alone, so the ``scipy.special`` package never loads. Every module a run
needs is loaded by ``import flowmat``, so none is first imported inside
the phases the benchmark times: dataset synthesis, training and eval.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import flowmat

SRC = Path(flowmat.__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys, tempfile
import flowmat
from flowmat import evalharness as eh

after_import = "scipy.special" in sys.modules
first_imported = {}


def watch(name):
    inner = getattr(eh, name)

    def watched(*args, **kwargs):
        before = set(sys.modules)
        try:
            return inner(*args, **kwargs)
        finally:
            new = set(sys.modules) - before
            if new:
                first_imported.setdefault(name, []).extend(sorted(new))

    setattr(eh, name, watched)


for name in ("make_dataset", "train_feedback", "train_progressive",
             "train_end_to_end", "train_joint_estimation", "eval_feedback",
             "eval_estimation", "eval_joint"):
    watch(name)
cfg = dict(eh.DEFAULTS, n_samples=10, n_sub=8, n_subband=4, n_tx=2, n_rx=1,
           d_model=8, n_heads=2, encoder_depth=1, decoder_depth=1,
           d_latent=4, keep_count=4, steps=2, batch_size=4,
           finetune_steps=1, budgets="64", eval_snrs_db="10")
with tempfile.TemporaryDirectory() as tmp:
    for task, regime in (("feedback", "progressive"),
                         ("estimate", "progressive"),
                         ("joint", "end_to_end")):
        eh.run_experiment(dict(cfg, task=task, regime=regime),
                          f"{tmp}/{task}")
print(json.dumps({"after_import": after_import,
                  "after_runs": "scipy.special" in sys.modules,
                  "first_imported": first_imported}))
"""


def run_fresh():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fresh_run_never_loads_scipy_special_or_imports_in_timed_phases():
    seen = run_fresh()
    assert not seen["after_import"], "import flowmat loaded scipy.special"
    assert not seen["after_runs"], "a run loaded scipy.special"
    assert seen["first_imported"] == {}
