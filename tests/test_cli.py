"""Command-line interface: subcommands, exit codes and the seed override."""

import struct
import zlib

import numpy as np
import pytest

import flowmat.evalharness as eh
import flowmat.channel as channel
from flowmat.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_DATA,
                         EXIT_DIVERGENCE, EXIT_OK, main)
from flowmat.dataio import read_records
from flowmat.linalg import ConvergenceError
from flowmat.model import EstimationConfig, FeedbackConfig, FlowMatModel


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
    return FlowMatModel(eh._from_cfg(FeedbackConfig, cfg,
                                     **eh._token_shape(cfg, False)))


def estimation_model(cfg_path):
    cfg = eh.parse_config(cfg_path)
    return FlowMatModel(eh._from_cfg(EstimationConfig, cfg,
                                     **eh._token_shape(cfg, True)))


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

    def test_gen_data_out_is_directory(self, smoke_cfg, tmp_path, capsys):
        assert main(["gen-data", "--config", str(smoke_cfg),
                     "--out", str(tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_train_out_dir_is_file(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["train", "--config", str(smoke_cfg),
                     "--out-dir", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

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
        # a setting deleted from the config schema is an unknown key
        "lr_schedule = cosin", "loss_mode = canonical",
        "vq_codebook_size = 256",
        # uniform is the only quantizer a run trains with
        "quantizer = float", "quantizer = vq", "finetune_steps = -5",
        # lists with no value
        "budgets = ,",
        pytest.param("task = estimate\neval_snrs_db = ,",
                     id="estimate with eval_snrs_db = ,"),
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
        pytest.param("d_model = 10\nn_heads = 4", id="d_model % n_heads"),
        "n_heads = 0", "seed = -1", "d_model = 0", "d_latent = 0",
        # NaN and infinite numbers, and a step size that is not positive
        "train_fraction = nan", "train_fraction = inf",
        "delay_spread = nan", "delay_spread = inf",
        "angle_spread = nan", "angle_spread = inf", "angle_spread = -1.0",
        "subcarrier_spacing = nan", "subcarrier_spacing = inf",
        pytest.param("task = estimate\nsnr_db_max = nan",
                     id="estimate with snr_db_max = nan"),
        pytest.param("task = estimate\nsnr_db_min = -inf\nsnr_db_max = -inf",
                     id="estimate with snr_db = -inf"),
        pytest.param("task = estimate\neval_snrs_db = 0,-inf",
                     id="estimate with eval_snrs_db = 0,-inf"),
        pytest.param("task = estimate\neval_snrs_db = 0,nan",
                     id="estimate with eval_snrs_db = 0,nan"),
        "lr = nan", "lr = inf", "lr = -1"])
    def test_bad_setting_rejected_before_training(self, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE + setting + "\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()  # rejected before any work

    @pytest.mark.parametrize("command,setting", [
        ("gen-data", "n_subband = 5"), ("analyze-corr", "n_subband = 5"),
        ("gen-data", "n_samples = 0"),
        # one subcarrier has no pair to correlate
        ("analyze-corr", "n_sub = 1\nn_subband = 1"),
        # -inf dB means unbounded pilot noise, not none
        ("gen-data --kind pilot", "snr_db_min = -inf\nsnr_db_max = -inf")])
    def test_bad_setting_rejected_by_data_commands(self, tmp_path, command,
                                                   setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE + setting + "\n")
        out = tmp_path / "out"
        assert main(command.split() + ["--config", str(cfg),
                                       "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("setting,extra", [
        ("snr_db_min = -inf\nsnr_db_max = -inf", []),
        # a bit budget means nothing to an estimation checkpoint
        ("", ["--budget", "64"])])
    def test_bad_setting_rejected_by_estimation_eval(self, smoke_cfg,
                                                     tmp_path, monkeypatch,
                                                     capsys, setting, extra):
        ckpt = tmp_path / "estimate.fmw"
        estimation_model(smoke_cfg).save(ckpt)
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_OK
        assert "ls_nmse_db=" in capsys.readouterr().out

        def no_synthesis(cfg):
            raise AssertionError("data synthesized for a rejected setting")

        monkeypatch.setattr(eh, "make_dataset", no_synthesis)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE + setting + "\n")
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(ckpt)] + extra) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_eigensolver_failure_in_joint_eval_exits_5(self, tmp_path,
                                                      monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("power iteration did not converge", None)

        eval_joint = eh.eval_joint

        def failing_eval_joint(*args):
            monkeypatch.setattr(channel, "hermitian_top_eigpairs",
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

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (-np.inf, np.inf),
                                       (-1.0, np.inf)])
    def test_eval_budget_bad_recorded_range_exits_3(self, smoke_cfg, tmp_path,
                                                    capsys, lo, hi):
        model = feedback_model(smoke_cfg)
        model.metadata.update(uq_lo_64=lo, uq_hi_64=hi)
        ckpt = tmp_path / "model.fmw"
        model.save(ckpt)
        assert main(["eval", "--config", str(smoke_cfg), "--checkpoint",
                     str(ckpt), "--budget", "64"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad recorded range" in err and "Traceback" not in err

    @pytest.mark.parametrize("old,new", [
        (b"d_model=8", b"d_model=x"),        # malformed value
        (b"d_model=8", b"d_modex=8"),        # unknown key
        (b"keep_count=4", b"keep_count=9"),  # values FeedbackConfig rejects
        (b"n_heads=2", b"n_heads=0"),
        pytest.param(b"d_model=8\n", b"d_model=8\nlearnable_query=True\n",
                     id="deleted setting"),
        # n_pilot_tokens makes it an estimation header with encoder keys
        pytest.param(b"d_model=8\n", b"d_model=8\nn_pilot_tokens=4\n",
                     id="keys of both networks"),
    ])
    def test_eval_bad_checkpoint_header_exits_3(self, smoke_cfg, tmp_path,
                                                 capsys, old, new):
        ckpt = tmp_path / "model.fmw"
        feedback_model(smoke_cfg).save(ckpt)
        raw = ckpt.read_bytes()
        body = raw[8:-4].replace(old, new, 1)
        assert body != raw[8:-4]
        ckpt.write_bytes(raw[:8] + body
                         + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "checkpoint header" in err and "Traceback" not in err

    def test_eval_estimation_header_with_feedback_key_exits_3(
            self, smoke_cfg, tmp_path, capsys):
        ckpt = tmp_path / "estimate.fmw"
        estimation_model(smoke_cfg).save(ckpt)
        raw = ckpt.read_bytes()
        body = raw[8:-4].replace(b"d_model=8\n",
                                 b"d_model=8\nkeep_count=4\n", 1)
        assert body != raw[8:-4]
        ckpt.write_bytes(raw[:8] + body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "unknown key 'keep_count'" in err and "Traceback" not in err

    @pytest.mark.parametrize("end", [0, -100])
    def test_eval_truncated_checkpoint_exits_3(self, smoke_cfg, tmp_path,
                                               capsys, end):
        # the body cut at ``end`` under a valid CRC: 0 leaves the 12-byte
        # file magic | version | CRC of nothing, -100 ends mid-parameter
        ckpt = tmp_path / "model.fmw"
        feedback_model(smoke_cfg).save(ckpt)
        raw = ckpt.read_bytes()
        body = raw[8:-4][:end]
        ckpt.write_bytes(raw[:8] + body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "truncated checkpoint" in err and "Traceback" not in err

    def test_eval_checkpoint_missing_parameter_exits_3(self, smoke_cfg,
                                                       tmp_path, capsys):
        model = feedback_model(smoke_cfg)
        del model.params["dec0.ln1.b"]
        ckpt = tmp_path / "model.fmw"
        model.save(ckpt)
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "dec0.ln1.b" in err and "Traceback" not in err

    @pytest.mark.parametrize("corrupt,message", [
        # the last byte of a parameter name set to 0xff
        pytest.param(lambda body: body.replace(
            struct.pack("<H", 10) + b"dec0.ln1.b",
            struct.pack("<H", 10) + b"dec0.ln1.\xff", 1),
            "unknown parameter", id="name not UTF-8"),
        pytest.param(lambda body: body + b"garbage", "bytes after",
                     id="trailing bytes"),
        # the kept block (count 4, indices 0-3) rewritten to index 7 alone
        pytest.param(lambda body: body[:-20] + struct.pack("<II", 1, 7),
                     "kept indices", id="kept block")])
    def test_eval_corrupt_checkpoint_exits_3(self, smoke_cfg, tmp_path,
                                             capsys, corrupt, message):
        ckpt = tmp_path / "model.fmw"
        feedback_model(smoke_cfg).save(ckpt)
        raw = ckpt.read_bytes()
        body = corrupt(raw[8:-4])
        ckpt.write_bytes(raw[:8] + body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--config", str(smoke_cfg),
                     "--checkpoint", str(ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("setting", ["n_subband = 2", "n_tx = 4"])
    def test_eval_geometry_mismatch_exits_2(self, smoke_cfg, tmp_path,
                                            monkeypatch, capsys, setting):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(smoke_cfg),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        other = tmp_path / "other.cfg"
        other.write_text(SMOKE + setting + "\n")

        def no_synthesis(cfg):
            raise AssertionError("data synthesized for a mismatched config")

        monkeypatch.setattr(eh, "make_dataset", no_synthesis)
        assert main(["eval", "--config", str(other), "--checkpoint",
                     str(out_dir / "feedback.fmw")]) == EXIT_CONFIG
        assert "geometry" in capsys.readouterr().err

    def test_analyze_corr(self, smoke_cfg, tmp_path):
        out = tmp_path / "corr.csv"
        assert main(["analyze-corr", "--config", str(smoke_cfg),
                     "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert len(rows) == 8
        first = np.array([float(v) for v in rows[0].split(",")])
        assert abs(first[0] - 1.0) < 1e-12
