"""Command-line interface: subcommands, exit codes and the seed override."""

import numpy as np
import pytest

import flowmat.evalharness as eh
import flowmat.channel as channel
from flowmat.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA,
                         EXIT_DIVERGENCE, EXIT_OK, main)
from flowmat.dataio import read_records
from flowmat.linalg import ConvergenceError
from flowmat.model import FlowMatModel, ModelConfig


SMOKE = """
n_samples = 10
n_sub = 8
n_subband = 4
n_tx = 2
n_rx = 1
d_model = 8
n_heads = 2
encoder_depth = 1
decoder_depth = 1
d_latent = 4
keep_count = 4
steps = 4
batch_size = 4
finetune_steps = 0
budgets = 64,128
eval_snrs_db = 10
"""


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMOKE)
    return path


def feedback_model(cfg_path):
    cfg = eh.parse_config(cfg_path)
    return FlowMatModel(eh._from_cfg(ModelConfig, cfg,
                                     n_tokens=cfg["n_subband"],
                                     token_dim=2 * cfg["n_tx"]))


class TestGenData:
    def test_writes_readable_container(self, smoke_cfg, tmp_path):
        out = tmp_path / "eigen.fmc"
        code = main(["gen-data", "--config", str(smoke_cfg),
                     "--out", str(out), "--kind", "eigen"])
        assert code == EXIT_OK
        _, samples = read_records(out)
        assert len(samples) == 10

    def test_fmat_seed_changes_dataset(self, smoke_cfg, tmp_path,
                                       monkeypatch):
        outs = []
        for seed in ("5", "5", "6"):
            out = tmp_path / f"d{len(outs)}.fmc"
            monkeypatch.setenv("FMAT_SEED", seed)
            assert main(["gen-data", "--config", str(smoke_cfg),
                         "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_bad_fmat_seed_is_config_error(self, smoke_cfg, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("FMAT_SEED", "lots")
        code = main(["gen-data", "--config", str(smoke_cfg),
                     "--out", str(tmp_path / "x.fmc")])
        assert code == EXIT_CONFIG


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor=9\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "x.fmc")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.fmc")]) == EXIT_DATA

    def test_missing_checkpoint(self, smoke_cfg, tmp_path):
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(tmp_path / "nope.fmw")]) == EXIT_DATA

    def test_report_without_results(self, tmp_path):
        assert main(["report", "--out-dir", str(tmp_path)]) == EXIT_DATA

    def test_divergence_aborts_with_4(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(SMOKE + "task = estimate\nsteps = 400\nlr = 1e5\n")
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_DIVERGENCE

    @pytest.mark.parametrize("task,regime", [
        ("estimate", "end_to_end"), ("estimate", "splited"),
        ("joint", "progressive"), ("joint", "joint"), ("estimate", "magic"),
        ("joint", "magic")])
    def test_regime_outside_task_set(self, tmp_path, task, regime):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE + f"task = {task}\nregime = {regime}\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()  # rejected before any work

    @pytest.mark.parametrize("setting", [
        "lr_schedule = cosin", "quantizer = float",
        # 16 bits cannot hold one truncated subband of 8 antennas (32 bits)
        pytest.param("n_tx = 8\nbudgets = 16", id="budgets = 16"),
        "budgets = 64,abc",
        # geometry and multipath profile (n_sub = 8)
        "n_subband = 5", "pilot_step = 0", "pilot_offset = 40",
        "n_paths = 0", "delay_spread = 0.0",
        # splits with no training sample
        "train_fraction = 0.0", "n_samples = 1",
        # one pilot cannot be linearly interpolated
        pytest.param("task = estimate\npilot_step = 32",
                     id="estimate with one pilot"),
        pytest.param("d_model = 10\nn_heads = 4", id="d_model % n_heads")])
    def test_bad_setting_rejected_before_training(self, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE + setting + "\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()  # rejected before any work

    @pytest.mark.parametrize("command,setting", [
        ("gen-data", "n_subband = 5"), ("analyze-corr", "n_subband = 5"),
        ("gen-data", "n_samples = 0")])
    def test_bad_setting_rejected_by_data_commands(self, tmp_path, command,
                                                   setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE + setting + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_eigensolver_failure_in_joint_eval_exits_5(self, tmp_path,
                                                      monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("power iteration did not converge", None)

        eval_joint = eh.eval_joint

        def failing_eval_joint(*args):
            monkeypatch.setattr(channel, "hermitian_top_eigpair",
                                no_convergence)
            return eval_joint(*args)

        monkeypatch.setattr(eh, "eval_joint", failing_eval_joint)
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(SMOKE + "task = joint\nregime = splited\nsteps = 1\n")
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "run")]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "did not converge" in err and "Traceback" not in err


class TestTrainEval:
    def test_train_then_report(self, smoke_cfg, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(smoke_cfg),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        assert main(["report", "--out-dir", str(out_dir)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "task,method,bit_budget" in printed

    def test_eval_feedback_checkpoint(self, smoke_cfg, tmp_path, capsys):
        model = feedback_model(smoke_cfg)
        ckpt = tmp_path / "model.fmw"
        model.save(ckpt)
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_OK
        assert "rho=" in capsys.readouterr().out

    def test_eval_budget_requires_calibration(self, smoke_cfg, tmp_path):
        model = feedback_model(smoke_cfg)
        ckpt = tmp_path / "model.fmw"
        model.save(ckpt)
        for budget in ("64", "0"):
            assert main(["eval", "--config", str(smoke_cfg), "--checkpoint",
                         str(ckpt), "--budget", budget]) == EXIT_DATA

    def test_analyze_corr(self, smoke_cfg, tmp_path):
        out = tmp_path / "corr.csv"
        assert main(["analyze-corr", "--config", str(smoke_cfg),
                     "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert len(rows) == 8
        first = np.array([float(v) for v in rows[0].split(",")])
        assert abs(first[0] - 1.0) < 1e-12
