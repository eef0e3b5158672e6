"""The README's Python example and the quick demos run as written, so a
public name the docs use cannot break silently.

Demos 02 and 03 train models for minutes and stay out of this file.
"""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["w_rec"].shape == scope["w"].shape
    np.testing.assert_allclose(np.linalg.norm(scope["w_rec"], axis=-1), 1.0)


@pytest.mark.parametrize("script", ["01_channel_correlation.py",
                                    "04_quantizer_playground.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out
