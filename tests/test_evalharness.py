"""Metrics, classical baseline, configuration parsing and the experiment
runner."""

import math

import numpy as np
import pytest
from scipy.special import betaln

import flowmat.evalharness as eh
from flowmat.dataio import read_records
from flowmat.evalharness import (ConfigError, DEFAULTS, EvalResult,
                                 baseline_truncation, config_hash,
                                 freq_correlation, make_dataset, nmse_db,
                                 parse_config, rho, run_experiment,
                                 write_results_csv)
from flowmat.channel import (PilotObservation, compute_precoders,
                             interpolate_frequency, ls_estimate,
                             observe_pilots)
from flowmat.model import (EstimationConfig, FeedbackConfig, FlowMatModel,
                           estimate_pipeline, feedback_pipeline)


def unit_rows(rng, shape):
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


class TestNmse:
    def test_perfect_estimate_clamps_to_floor(self):
        t = np.random.default_rng(1).standard_normal((3, 4))
        assert nmse_db(t, t) == -120.0

    def test_zero_estimate_is_zero_db(self):
        t = np.random.default_rng(2).standard_normal((3, 4))
        assert abs(nmse_db(np.zeros_like(t), t)) < 1e-12

    def test_doubled_estimate_is_zero_db(self):
        t = np.random.default_rng(3).standard_normal((3, 4))
        assert abs(nmse_db(2 * t, t)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4))
        e = rng.standard_normal((3, 4))
        assert abs(nmse_db(e, t) - nmse_db(5.0 * e, 5.0 * t)) < 1e-12

    def test_all_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse_db(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse_db(np.ones((2, 2)), np.ones((2, 3)))


class TestRho:
    def test_identity_is_one(self):
        w = unit_rows(np.random.default_rng(5), (4, 8))
        assert abs(rho(w, w) - 1.0) < 1e-12

    def test_global_phase_invariance(self):
        w = unit_rows(np.random.default_rng(6), (4, 8))
        assert abs(rho(w, w * np.exp(1j * 0.7)) - 1.0) < 1e-12

    def test_orthogonal_rows_give_zero(self):
        a = np.array([[1.0 + 0j, 0.0]])
        b = np.array([[0.0, 1.0 + 0j]])
        assert rho(a, b) < 1e-12

    def test_random_pair_matches_analytic_monte_carlo(self):
        # |<u,v>|^2 of independent unit vectors in C^n is Beta(1, n-1); the
        # analytic mean of |<u,v>| is E[sqrt(B)] = B(1.5, n-1)/B(1, n-1)
        n, trials = 32, 4000
        rng = np.random.default_rng(7)
        us = unit_rows(rng, (trials, n))
        vs = unit_rows(rng, (trials, n))
        measured = rho(us, vs)
        analytic = math.exp(betaln(1.5, n - 1) - betaln(1.0, n - 1))
        assert abs(measured - analytic) < 0.01

    def test_zero_norm_row_rejected(self):
        w = unit_rows(np.random.default_rng(8), (4, 8))
        z = w.copy()
        z[1] = 0.0
        with pytest.raises(ValueError):
            rho(w, z)


class TestFreqCorrelation:
    def channel(self, n_paths, seed=0):
        from flowmat.channel import MultipathProfile, generate_channel
        from flowmat.channel import SystemGeometry, every_kth_pattern
        geom = SystemGeometry(n_tx=4, n_rx=2, n_sub=16, n_subband=4,
                              pilot_pattern=every_kth_pattern(16, 2))
        return generate_channel(geom, MultipathProfile(n_paths=n_paths,
                                                       seed=seed))

    def test_unit_diagonal_symmetric_bounded(self):
        c = freq_correlation(self.channel(3))
        np.testing.assert_allclose(np.diag(c), 1.0, atol=1e-12)
        np.testing.assert_allclose(c, c.T, atol=1e-12)
        assert np.all(c >= 0.0) and np.all(c <= 1.0 + 1e-12)

    def test_single_path_is_all_ones(self):
        c = freq_correlation(self.channel(1))
        np.testing.assert_allclose(c, 1.0, atol=1e-9)

    def test_accepts_eigen_matrix(self):
        w = unit_rows(np.random.default_rng(9), (6, 4))
        assert freq_correlation(w).shape == (6, 6)

    def test_zero_norm_vector_warns_and_nans(self):
        w = unit_rows(np.random.default_rng(10), (4, 3))
        w[2] = 0.0
        with pytest.warns(UserWarning):
            c = freq_correlation(w)
        assert np.all(np.isnan(c[2, :3]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            freq_correlation(np.zeros(4, complex))
        with pytest.raises(ValueError):
            freq_correlation(np.zeros((1, 4), complex))


class TestTruncationBaseline:
    def test_unlimited_budget_is_lossless(self):
        w = unit_rows(np.random.default_rng(11), (8, 4))
        out = baseline_truncation(w, None)
        assert abs(rho(w, out) - 1.0) < 1e-12
        out = baseline_truncation(w, math.inf)
        assert abs(rho(w, out) - 1.0) < 1e-12

    def test_zero_keep_rejected(self):
        w = unit_rows(np.random.default_rng(12), (8, 4))
        with pytest.raises(ValueError):
            baseline_truncation(w, 8)  # 8 bits < one subband's cost

    def test_budget_controls_kept_subbands(self):
        # cost per subband is 2 * n_tx * quant_bits = 16 bits here
        w = unit_rows(np.random.default_rng(13), (8, 4))
        out = baseline_truncation(w, 32)
        # rows beyond the kept prefix repeat the last kept row
        for b in range(2, 8):
            np.testing.assert_array_equal(out[b], out[1])

    def test_rows_unit_norm(self):
        w = unit_rows(np.random.default_rng(14), (8, 4))
        out = baseline_truncation(w, 64)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("bits", [16, 32, 64, None])
    def test_stacked_equals_per_sample(self, bits):
        w = unit_rows(np.random.default_rng(15), (5, 8, 2))
        out = baseline_truncation(w, bits)
        np.testing.assert_array_equal(
            out, np.stack([baseline_truncation(wi, bits) for wi in w]))


def _eval_estimation_loop(model, channels, geom, snr_db, seed,
                          trials_per_channel=1):
    """Per-sample reference: the stack observed in the same one call, then
    one pipeline call per sample, errors accumulated over the set."""
    model_err = truth_pow = ls_err = 0.0
    truth = np.repeat(np.stack(channels), trials_per_channel, axis=0)
    stacked = observe_pilots(truth, geom, snr_db, seed)
    for h, y in zip(truth, stacked.data):
        obs = PilotObservation(y, stacked.pilot_indices)
        est = estimate_pipeline(obs, model, geom.n_rx, geom.n_tx)
        ls = interpolate_frequency(ls_estimate(obs),
                                   geom.pilot_pattern.pilot_indices,
                                   geom.n_sub)
        model_err += float(np.sum(np.abs(est - h) ** 2))
        ls_err += float(np.sum(np.abs(ls - h) ** 2))
        truth_pow += float(np.sum(np.abs(h) ** 2))
    return (10.0 * math.log10(model_err / truth_pow),
            10.0 * math.log10(ls_err / truth_pow))


def _eval_joint_loop(est_model, fb_model, channels, eigens, geom, cfg):
    """Per-sample reference for ``eval_joint`` on its one observation."""
    snr = 0.5 * (cfg["snr_db_min"] + cfg["snr_db_max"])
    stacked = observe_pilots(np.stack(channels), geom, snr, cfg["seed"] + 2)
    preds = []
    for y in stacked.data:
        obs = PilotObservation(y, stacked.pilot_indices)
        h_est = estimate_pipeline(obs, est_model, geom.n_rx, geom.n_tx)
        w_est = compute_precoders(h_est, geom)
        _, w_rec = feedback_pipeline(w_est, fb_model)
        preds.append(w_rec)
    return rho(np.stack(eigens), np.stack(preds))


class TestBatchedEval:
    """The one-call evaluations against per-sample loops."""

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = dict(DEFAULTS, n_samples=12, n_sub=8, n_subband=4, n_tx=2,
                   n_rx=2, d_model=8, n_heads=2, encoder_depth=1,
                   decoder_depth=1, d_latent=2, keep_count=2, seed=4)
        geom, channels, eigens, _ = make_dataset(cfg)
        n_pilots = geom.pilot_pattern.n_pilots
        est = FlowMatModel(eh._from_cfg(EstimationConfig, cfg, n_tokens=8,
                                        token_dim=8, n_pilot_tokens=n_pilots))
        fb = FlowMatModel(eh._from_cfg(FeedbackConfig, cfg, n_tokens=4,
                                       token_dim=4))
        rng = np.random.default_rng(9)
        for model in (est, fb):  # move every parameter off its init
            for t in model.params.values():
                t.data = t.data + 0.1 * rng.standard_normal(t.data.shape)
        return cfg, geom, channels, eigens, est, fb

    @pytest.mark.parametrize("trials", [1, 2])
    def test_estimation_matches_per_sample_loop(self, setup, trials):
        cfg, geom, channels, _, est, _ = setup
        got = eh.eval_estimation(est, channels, geom, 5.0, seed=3,
                                 trials_per_channel=trials)
        ref = _eval_estimation_loop(est, channels, geom, 5.0, seed=3,
                                    trials_per_channel=trials)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)

    def test_joint_matches_per_sample_loop(self, setup):
        cfg, geom, channels, eigens, est, fb = setup
        got = eh.eval_joint(est, fb, channels, eigens, geom, cfg)
        ref = _eval_joint_loop(est, fb, channels, eigens, geom, cfg)
        assert abs(got - ref) <= 1e-12

    def test_feedback_matches_per_sample_calls(self, setup):
        _, _, _, eigens, _, fb = setup
        recs = [feedback_pipeline(w, fb)[1] for w in eigens]
        assert eh.eval_feedback(fb, eigens) == rho(np.stack(eigens),
                                                   np.stack(recs))


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nn_tx = 4\nlr = 0.01\ntask=estimate\n"
                        "mask_mode = paper_literal\n")
        cfg = parse_config(path)
        assert cfg["n_tx"] == 4 and isinstance(cfg["n_tx"], int)
        assert cfg["lr"] == 0.01
        assert cfg["task"] == "estimate"
        assert cfg["mask_mode"] == "paper_literal"
        assert cfg["n_rx"] == DEFAULTS["n_rx"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_factor=9\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_tx=eight\n")
        with pytest.raises(ConfigError):
            parse_config(path)
        path.write_text("lr=fast\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_tx 4\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_defaults_pinned(self):
        # every run's config_hash covers the defaults: their keys, values
        # and types must not move when a dataclass default is refactored
        assert len(DEFAULTS) == 37
        assert config_hash(DEFAULTS) == "6f2823068f25"
        assert config_hash({k: type(v).__name__
                            for k, v in DEFAULTS.items()}) == "9022bacd04a1"

    def test_config_hash_stable_and_sensitive(self):
        cfg = dict(DEFAULTS)
        assert config_hash(cfg) == config_hash(dict(DEFAULTS))
        other = dict(DEFAULTS, seed=1)
        assert config_hash(cfg) != config_hash(other)


class TestDatasetAssembly:
    def test_split_is_95_5_by_index(self):
        cfg = dict(DEFAULTS, n_samples=40, n_sub=8, n_subband=4, n_tx=2,
                   n_rx=1)
        geom, channels, eigens, n_train = make_dataset(cfg)
        assert len(channels) == 40 and len(eigens) == 40
        # lists of per-sample arrays: the benchmark tracer finds training
        # data by its list type
        assert isinstance(channels, list) and isinstance(eigens, list)
        assert n_train == 38
        assert eigens[0].shape == (4, 2)

    def test_at_least_one_test_sample(self):
        cfg = dict(DEFAULTS, n_samples=4, n_sub=8, n_subband=4, n_tx=2,
                   n_rx=1)
        _, _, _, n_train = make_dataset(cfg)
        assert n_train <= 3

    def test_export_round_trip(self, tmp_path):
        cfg = dict(DEFAULTS, n_samples=3, n_sub=8, n_subband=4, n_tx=2,
                   n_rx=1)
        out = tmp_path / "eigen.fmc"
        n = eh.export_dataset(cfg, out, kind="eigen")
        assert n == 3
        _, samples = read_records(out)
        assert len(samples) == 3 and samples[0].shape == (4, 2)

    def test_export_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            eh.export_dataset(dict(DEFAULTS), tmp_path / "x.fmc",
                              kind="labels")


class TestResults:
    def test_rho_range_validated(self):
        with pytest.raises(ValueError):
            EvalResult("feedback", float("nan"), 1.5, 64, 4, 0, "abc")

    def test_results_csv_byte_deterministic(self, tmp_path):
        rows = [EvalResult("feedback", float("nan"), 0.5, 64, 4, 0, "abc")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(p1, rows)
        write_results_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()


def smoke_config(**kw):
    cfg = dict(DEFAULTS, n_samples=10, n_sub=8, n_subband=4, n_tx=2, n_rx=1,
               d_model=8, n_heads=2, encoder_depth=1, decoder_depth=1,
               d_latent=4, keep_count=4, steps=4, batch_size=4,
               finetune_steps=0, budgets="64,128", eval_snrs_db="10")
    cfg.update(kw)
    return cfg


class TestRunExperiment:
    def test_feedback_emits_artifacts(self, tmp_path):
        results = run_experiment(smoke_config(), tmp_path / "run")
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert {"results.csv", "loss_curve.csv", "budget_vs_rho.csv",
                "feedback.fmw", "manifest.json"} <= names
        methods = {(r.method, r.bit_budget) for r in results}
        assert ("flowmat", 64) in methods and ("truncation", 128) in methods

    def test_estimation_reports_model_and_ls(self, tmp_path):
        results = run_experiment(smoke_config(task="estimate"),
                                 tmp_path / "run")
        methods = {r.method for r in results}
        assert methods == {"flowmat", "ls_interp"}
        text = (tmp_path / "run" / "snr_vs_nmse.csv").read_text()
        assert text.splitlines()[0] == "snr_db,model_nmse_db,ls_nmse_db"

    def test_rerun_is_bit_identical(self, tmp_path):
        run_experiment(smoke_config(), tmp_path / "r1")
        run_experiment(smoke_config(), tmp_path / "r2")
        for name in ("results.csv", "loss_curve.csv", "budget_vs_rho.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes()), name

    def test_unreachable_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(smoke_config(budgets="60"), tmp_path / "run")

    def test_unknown_task_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(smoke_config(task="divination"), tmp_path / "run")

    @pytest.mark.parametrize("bad", [dict(n_heads=3), dict(steps=0),
                                     dict(loss_mode="other")])
    def test_invalid_model_or_train_setting_rejected(self, tmp_path, bad):
        with pytest.raises(ConfigError):
            run_experiment(smoke_config(**bad), tmp_path / "run")

    def test_splited_joint_task(self, tmp_path):
        cfg = smoke_config(task="joint", regime="splited", steps=2)
        results = run_experiment(cfg, tmp_path / "run")
        assert results[0].task == "joint"
        assert 0.0 <= results[0].rho <= 1.0

    def test_analyze_corr_writes_matrix(self, tmp_path):
        out = tmp_path / "corr.csv"
        corr = eh.analyze_corr(smoke_config(), out)
        assert corr.shape == (8, 8)
        assert len(out.read_text().splitlines()) == 8
