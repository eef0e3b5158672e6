"""``tools/same_artifacts.py``: what it reports inside a file that differs
between two trees' artifacts (its sessions are not run here)."""

import importlib.util
from pathlib import Path

from flowmat.model import FeedbackConfig, FlowMatModel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
spec = importlib.util.spec_from_file_location("same_artifacts", TOOL)
same_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_artifacts)


def test_text_file_lists_lines_of_one_tree_only(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("head\nsame\n" + "".join(f"old{i}\n" for i in range(12)))
    b.write_text("head\nsame\nnew\n")
    moved = same_artifacts.what_moved(a, b)
    assert moved[:10] == [f"  parent only: old{i}" for i in range(10)]
    assert moved[10:] == ["  parent only: ... and 2 more",
                          "  change only: new"]


def test_checkpoint_lists_header_lines_and_body_identity(tmp_path):
    cfg = dict(n_tokens=4, token_dim=4, d_model=8, n_heads=2, keep_count=2)
    a, b, c = (tmp_path / f"{name}.fmw" for name in "abc")
    FlowMatModel(FeedbackConfig(**cfg)).save(a)
    model = FlowMatModel(FeedbackConfig(**cfg))
    model.metadata["uq_lo_64"] = -1.0
    model.save(b)
    assert same_artifacts.what_moved(a, b) == [
        "  change only: meta.uq_lo_64=-1.0",
        "  parameter body byte-identical"]
    FlowMatModel(FeedbackConfig(**cfg, seed=1)).save(c)
    assert same_artifacts.what_moved(a, c) == [
        "  parent only: seed=0", "  change only: seed=1",
        "  parameter body differs"]


def test_file_in_one_tree_only_has_nothing_to_list(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("x\n")
    assert same_artifacts.what_moved(a, tmp_path / "missing.csv") == []
