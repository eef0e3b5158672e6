"""Every function, method and op that ``bench/tracer.py`` patches exists.

The tracer rebinds names by string, so a rename in ``src/`` would only
surface when a ``--trace 1`` benchmark run breaks. ``bench/`` is not a
package, so the tracer's source is executed into a fresh module (which
also leaves no bytecode cache under ``bench/``).
"""

import types
from pathlib import Path

import pytest

from flowmat import (autodiff, channel, dataio, evalharness, linalg, model,
                     quantizer, training)

_path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
tracer = types.ModuleType("bench_tracer")
exec(compile(_path.read_text(), str(_path), "exec"), tracer.__dict__)

PATCHED = (
    [(autodiff, op) for op in tracer.OPS]
    + [(model.FlowMatModel, m) for m in tracer.MODEL_METHODS]
    + [(model, f) for f in tracer.MODEL_FUNCS]
    + [(channel, f) for f in tracer.CHANNEL_FUNCS]
    + [(quantizer, f) for f in tracer.QUANTIZER_FUNCS]
    + [(evalharness, f) for f in tracer.EVAL_FUNCS]
    + [(training, f) for f in tracer.TRAIN_FUNCS + tracer.LOSS_FUNCS]
    + [(autodiff.Adam, "step"), (training, "_step_lr"),
       (training, "differentiable_precoders"), (training, "TrainConfig"),
       (linalg, "hermitian_top_eigpair"), (dataio, "write_records"),
       (autodiff.Tensor, "backward"), (autodiff.Tensor, "_result")])


@pytest.mark.parametrize("owner,name", PATCHED,
                         ids=[f"{o.__name__}.{n}" for o, n in PATCHED])
def test_traced_name_exists(owner, name):
    assert callable(getattr(owner, name, None))
