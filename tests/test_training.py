"""Loss functions, the differentiable eigen extraction, and the training
regimes (freeze contract, determinism, divergence guard)."""

import weakref

import numpy as np
import pytest

import flowmat.autodiff as ad
import flowmat.training as tr
from flowmat.autodiff import Tensor
from flowmat.channel import (MultipathProfile, SystemGeometry,
                             compute_precoders, every_kth_pattern,
                             generate_batch)
from flowmat.model import EstimationConfig, FeedbackConfig, FlowMatModel, \
    tokenize_channel, tokenize_eigen
from flowmat.training import (DivergenceError, TrainConfig, TrainReport,
                              differentiable_precoders, loss_ce, loss_cf,
                              rho_tokens, train_end_to_end, train_feedback,
                              train_joint_estimation, train_progressive,
                              train_splited)


def fb_config(**kw):
    base = dict(n_tokens=4, token_dim=6, d_model=8, n_heads=2,
                encoder_depth=2, decoder_depth=2, d_latent=2, keep_count=2,
                seed=0)
    base.update(kw)
    return FeedbackConfig(**base)


def small_geom():
    return SystemGeometry(n_tx=2, n_rx=1, n_sub=8, n_subband=2,
                          pilot_pattern=every_kth_pattern(8, 2))


def two_rx_geom():
    return SystemGeometry(n_tx=3, n_rx=2, n_sub=8, n_subband=4,
                          pilot_pattern=every_kth_pattern(8, 2))


def unit_rows(rng, shape):
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


class TestReconstructionLoss:
    def test_perfect_prediction_is_zero(self):
        t = np.random.default_rng(1).standard_normal((3, 4))
        assert float(loss_ce(Tensor(t), t).data) == 0.0

    def test_doubled_prediction_canonical(self):
        t = np.random.default_rng(2).standard_normal((3, 4))
        assert abs(float(loss_ce(Tensor(2 * t), t).data) - 1.0) < 1e-12

    def test_zero_targets_rejected_in_canonical(self):
        with pytest.raises(ZeroDivisionError):
            loss_ce(Tensor(np.ones((2, 2))), np.zeros((2, 2)))


class TestSimilarityLoss:
    def test_perfect_rho_is_one(self):
        w = unit_rows(np.random.default_rng(4), (5, 3))
        tokens = tokenize_eigen(w)
        assert abs(float(rho_tokens(Tensor(tokens), tokens).data)
                   - 1.0) < 1e-9

    def test_rho_phase_invariance(self):
        w = unit_rows(np.random.default_rng(5), (5, 3))
        rotated = tokenize_eigen(w * np.exp(1j * np.pi / 3))
        assert abs(float(rho_tokens(Tensor(rotated), tokenize_eigen(w)).data)
                   - 1.0) < 1e-9

    def test_rho_scale_invariance_of_prediction(self):
        rng = np.random.default_rng(6)
        w = unit_rows(rng, (5, 3))
        pred = tokenize_eigen(unit_rows(rng, (5, 3)))
        r1 = float(rho_tokens(Tensor(pred), tokenize_eigen(w)).data)
        r2 = float(rho_tokens(Tensor(7.0 * pred), tokenize_eigen(w)).data)
        assert abs(r1 - r2) < 1e-9

    def test_orthogonal_rows_give_zero(self):
        t = tokenize_eigen(np.array([[1.0 + 0j, 0.0]]))
        p = tokenize_eigen(np.array([[0.0, 1.0 + 0j]]))
        assert float(rho_tokens(Tensor(p), t).data) < 1e-9

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rho_tokens(Tensor(np.ones((2, 4))), np.zeros((2, 4)))

    def test_loss_cf_is_complement(self):
        rng = np.random.default_rng(7)
        pred = tokenize_eigen(unit_rows(rng, (5, 3)))
        true = tokenize_eigen(unit_rows(rng, (5, 3)))
        r = float(rho_tokens(Tensor(pred), true).data)
        assert abs(float(loss_cf(Tensor(pred), true).data) - (1 - r)) < 1e-12


class TestDifferentiableEigen:
    def test_matches_numpy_precoders(self):
        for geom in (small_geom(), two_rx_geom()):
            h = generate_batch(geom, MultipathProfile(seed=8), 1)[0]
            tokens = Tensor(tokenize_channel(h))
            eig_tok = differentiable_precoders(tokens, geom.n_rx, geom.n_tx,
                                               geom.n_subband, iterations=200)
            got = (eig_tok.data[..., :geom.n_tx]
                   + 1j * eig_tok.data[..., geom.n_tx:])
            ref = compute_precoders(h, geom)
            for b in range(geom.n_subband):
                assert abs(np.vdot(got[b], ref[b])) > 1.0 - 1e-8

    def test_rows_unit_norm(self):
        geom = small_geom()
        h = generate_batch(geom, MultipathProfile(seed=9), 1)[0]
        out = differentiable_precoders(Tensor(tokenize_channel(h)),
                                       geom.n_rx, geom.n_tx, geom.n_subband,
                                       iterations=30)
        norms = np.linalg.norm(out.data, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_matches_complex_loop_reference(self):
        # three iterations have not converged, so this pins the arithmetic:
        # the real embedding may only sum the Gram matrices and each product
        # A v in another order than this complex loop
        geom = two_rx_geom()
        h = generate_batch(geom, MultipathProfile(seed=8), 1)[0]
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(geom.n_tx) + 1j * rng.standard_normal(geom.n_tx)
        size = geom.n_sub // geom.n_subband
        ref = []
        for b in range(geom.n_subband):
            a = sum(hr.conj().T @ hr for hr in h[:, b * size:(b + 1) * size])
            v = v0 / np.linalg.norm(v0)
            for _ in range(3):
                v = a @ v
                v /= np.linalg.norm(v)
            ref.append(v)
        got = differentiable_precoders(Tensor(tokenize_channel(h)), geom.n_rx,
                                       geom.n_tx, geom.n_subband, iterations=3)
        np.testing.assert_allclose(got.data, tokenize_eigen(np.stack(ref)),
                                   rtol=0.0, atol=1e-12)

    def test_batch_axis_gives_each_sample_its_own_result(self):
        geom = two_rx_geom()
        hs = generate_batch(geom, MultipathProfile(seed=11), 3)
        tokens = np.stack([tokenize_channel(h) for h in hs])
        got = differentiable_precoders(Tensor(tokens), geom.n_rx, geom.n_tx,
                                       geom.n_subband, iterations=30).data
        assert got.shape == (3, geom.n_subband, 2 * geom.n_tx)
        for b, tok in enumerate(tokens):
            ref = differentiable_precoders(Tensor(tok), geom.n_rx, geom.n_tx,
                                           geom.n_subband, iterations=30).data
            np.testing.assert_allclose(got[b], ref, rtol=0.0, atol=1e-12)

    def test_gradients_flow_to_channel(self):
        # 2 tx, 2 rx, 4 subcarriers in 2 subbands, under a fixed random
        # weighting of the output so every entry's gradient counts
        geom = SystemGeometry(n_tx=2, n_rx=2, n_sub=4, n_subband=2,
                              pilot_pattern=every_kth_pattern(4, 2))
        h = generate_batch(geom, MultipathProfile(seed=10), 1)[0]
        weights = Tensor(np.random.default_rng(3).standard_normal(
            (geom.n_subband, 2 * geom.n_tx)))

        def weighted(x):
            out = differentiable_precoders(x, geom.n_rx, geom.n_tx,
                                           geom.n_subband, iterations=5)
            return ad.tsum(ad.mul(out, weights))

        x = Tensor(tokenize_channel(h))
        assert ad.finite_diff_grad_check(weighted, x) < 1e-6
        assert np.any(x.grad != 0.0)


def scripted_fit(report, losses, **cfg):
    """``_fit`` with no parameters whose batch losses are ``losses``."""
    values = iter(losses)
    tr._fit(report, [], TrainConfig(steps=len(losses), **cfg), 1,
            np.random.default_rng(0), lambda idx: Tensor(next(values)))


class TestGuardAndConfig:
    def test_nonfinite_loss_aborts_immediately(self):
        report = TrainReport()
        with pytest.raises(DivergenceError):
            scripted_fit(report, [float("nan"), 1.0])
        assert report.losses == []

    def test_divergence_needs_consecutive_streak(self, monkeypatch):
        # the streak of 100x losses is broken by the fourth loss
        monkeypatch.setattr(tr, "DIVERGENCE_PATIENCE", 3)
        losses = [1.0, 100.0, 100.0, 1.0, 100.0, 100.0]
        report = TrainReport()
        scripted_fit(report, losses)
        assert report.losses == losses
        report = TrainReport()
        with pytest.raises(DivergenceError):
            scripted_fit(report, losses + [100.0, 1.0])
        assert report.losses == losses

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(eig_iterations=0)

    def test_cosine_schedule_decays_to_zero(self):
        cfg = TrainConfig(lr=1e-3)
        assert tr._step_lr(cfg, 0, 100) == 1e-3
        assert tr._step_lr(cfg, 100, 100) < 1e-9

    def test_report_csv_is_byte_deterministic(self, tmp_path):
        rep = TrainReport(losses=[0.5, 0.25], phases=[1, 1])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep.write_csv(p1)
        rep.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "step,loss,phase"


class TestFeedbackTraining:
    def eigens(self, n=8):
        rng = np.random.default_rng(11)
        return [unit_rows(rng, (4, 3)) for _ in range(n)]

    def test_loss_decreases(self):
        model = FlowMatModel(fb_config())
        rep = train_feedback(model, self.eigens(),
                             TrainConfig(steps=60, batch_size=4, lr=5e-3))
        assert np.mean(rep.losses[-10:]) < np.mean(rep.losses[:10])

    def test_deterministic_per_seed(self):
        losses = []
        for _ in range(2):
            model = FlowMatModel(fb_config())
            rep = train_feedback(model, self.eigens(),
                                 TrainConfig(steps=10, batch_size=4, seed=3))
            losses.append(rep.losses)
        assert losses[0] == losses[1]

    def test_each_step_releases_the_previous_graph(self, monkeypatch):
        # a step's graph must be gone before the next step's forward, so
        # two graphs are never alive at once
        alive = []

        def recording_loss(pred, target):
            assert all(ref() is None for ref in alive)
            loss = loss_cf(pred, target)
            alive.extend([weakref.ref(loss.data), weakref.ref(pred.data)])
            return loss

        monkeypatch.setattr(tr, "loss_cf", recording_loss)
        train_feedback(FlowMatModel(fb_config()), self.eigens(),
                       TrainConfig(steps=3, batch_size=4))
        assert len(alive) == 6

    def test_divergent_lr_raises(self, monkeypatch):
        # the similarity loss is bounded, so divergence is exercised on the
        # unbounded reconstruction loss of the estimation task
        geom = SystemGeometry(n_tx=2, n_rx=1, n_sub=8, n_subband=2,
                              pilot_pattern=every_kth_pattern(8, 2))
        model = FlowMatModel(EstimationConfig(
            n_tokens=8, token_dim=4, d_model=8, n_heads=2, decoder_depth=1,
            n_pilot_tokens=4, seed=0))
        channels = generate_batch(geom, MultipathProfile(seed=13), 4)
        monkeypatch.setattr(tr, "DIVERGENCE_PATIENCE", 5)
        with pytest.raises(DivergenceError):
            train_joint_estimation(model, channels, geom,
                                   TrainConfig(steps=400, batch_size=2,
                                               lr=1e5))


class TestEstimationTraining:
    def est_model(self):
        return FlowMatModel(EstimationConfig(
            n_tokens=8, token_dim=4, d_model=8, n_heads=2, decoder_depth=1,
            n_pilot_tokens=4, seed=0))

    def channels(self, geom, n=6):
        return generate_batch(geom, MultipathProfile(seed=12), n)

    def test_progressive_phases_and_freeze(self):
        geom = small_geom()
        model = self.est_model()
        mix_before = model.params["mix0.tok.w1"].data.copy()
        rep = train_progressive(model, self.channels(geom), geom,
                                TrainConfig(steps=5, batch_size=2))
        assert sorted(set(rep.phases)) == [1, 2]
        assert len(rep.losses) == 10
        # denoiser must be trainable again after the run
        assert model.params["mix0.tok.w1"].requires_grad
        assert not np.array_equal(model.params["mix0.tok.w1"].data,
                                  mix_before)

    def test_phase2_divergence_reenables_denoiser(self):
        import flowmat.autodiff as ad
        geom = small_geom()
        model = self.est_model()
        forward = model.estimate_forward

        def nan_forward(x, pilot_indices):
            den, rec = forward(x, pilot_indices)
            return den, ad.mul(rec, float("nan"))

        model.estimate_forward = nan_forward  # only phase 2 calls it
        with pytest.raises(DivergenceError):
            train_progressive(model, self.channels(geom), geom,
                              TrainConfig(steps=3, batch_size=2))
        mix = [t for name, t in model.params.items() if name.startswith("mix")]
        assert mix and all(t.requires_grad for t in mix)

    def test_phase2_does_not_touch_denoiser(self):
        geom = small_geom()
        model = self.est_model()
        model.set_trainable(["mix"], False)
        mix = model.params["mix0.ch.w1"].data.copy()
        cfg = TrainConfig(steps=5, batch_size=2)
        # drive phase-2-style training manually through the public loop
        from flowmat.autodiff import Adam
        params = model.parameters(["in_proj", "dec", "out_proj"])
        opt = Adam(params, lr=1e-3)
        rng = np.random.default_rng(0)
        noisy, clean, full = tr._estimation_batch(
            self.channels(geom), geom, [0, 1], cfg, rng)
        opt.zero_grad()
        _, rec = model.estimate_forward(Tensor(noisy),
                                        geom.pilot_pattern.pilot_indices)
        tr.loss_ce(rec, full).backward()
        opt.step()
        assert model.params["mix0.ch.w1"].grad is None
        np.testing.assert_array_equal(model.params["mix0.ch.w1"].data, mix)
        model.set_trainable(["mix"], True)

    def test_prefixes_name_every_reached_parameter(self):
        # the estimation regimes hand Adam every trainable tensor, and
        # progressive phase 1 the Mixer's, which DENOISER names
        geom = small_geom()
        model = self.est_model()
        noisy, clean, full = tr._estimation_batch(
            self.channels(geom), geom, [0, 1], TrainConfig(),
            np.random.default_rng(0))
        den, rec = model.estimate_forward(Tensor(noisy),
                                          geom.pilot_pattern.pilot_indices)
        ad.add(tr.loss_ce(den, clean), tr.loss_ce(rec, full)).backward()
        reached = {name for name, t in model.params.items()
                   if t.grad is not None}
        assert reached == {name for name, t in model.params.items()
                           if t.requires_grad}
        for t in model.params.values():
            t.grad = None
        tr.loss_ce(model.denoise(Tensor(noisy)), clean).backward()
        mixer = {name for name, t in model.params.items()
                 if t.grad is not None}
        assert mixer == {name for name in model.params
                         if name.startswith(tr.DENOISER)}

    def test_joint_regime_runs(self):
        geom = small_geom()
        rep = train_joint_estimation(self.est_model(), self.channels(geom),
                                     geom, TrainConfig(steps=4, batch_size=2))
        assert len(rep.losses) == 4

    def test_phase_augment_preserves_clean_statistics(self):
        # the rotation is a unit-modulus factor: per-sample power at the
        # pilot tones is unchanged
        geom = small_geom()
        channels = self.channels(geom)
        cfg = TrainConfig(steps=1, batch_size=2, snr_db_min=float("inf"),
                          snr_db_max=float("inf"))
        rng = np.random.default_rng(1)
        noisy, clean, _ = tr._estimation_batch(channels, geom, [0, 1], cfg,
                                               rng)
        idx = geom.pilot_pattern.pilot_indices
        for i, ch in enumerate([0, 1]):
            ref = tokenize_channel(channels[ch][:, idx, :])
            assert abs((noisy[i] ** 2).sum() - (ref ** 2).sum()) < 1e-9

    def test_end_to_end_regime_runs(self):
        geom = small_geom()
        est = self.est_model()
        fb = FlowMatModel(FeedbackConfig(n_tokens=2, token_dim=4, d_model=8,
                                         n_heads=2, encoder_depth=1,
                                         decoder_depth=1, d_latent=2,
                                         keep_count=1, seed=1))
        channels = self.channels(geom, 4)
        eigens = [compute_precoders(h, geom) for h in channels]
        rep = train_end_to_end(est, fb, channels, eigens, geom,
                               TrainConfig(steps=2, batch_size=2,
                                           eig_iterations=4))
        assert len(rep.losses) == 2
        assert all(np.isfinite(rep.losses))

    def test_splited_regime_returns_both_reports(self):
        geom = small_geom()
        est = self.est_model()
        fb = FlowMatModel(FeedbackConfig(n_tokens=2, token_dim=4, d_model=8,
                                         n_heads=2, encoder_depth=1,
                                         decoder_depth=1, d_latent=2,
                                         keep_count=1, seed=1))
        channels = self.channels(geom, 4)
        eigens = [compute_precoders(h, geom) for h in channels]
        est_rep, fb_rep = train_splited(est, fb, channels, eigens, geom,
                                        TrainConfig(steps=3, batch_size=2))
        assert len(est_rep.losses) == 6  # two phases
        assert len(fb_rep.losses) == 3


def graph_nodes(loss):
    """Distinct requires_grad tensors reachable from ``loss``."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGraphSize:
    """Pins the graph of one training step: the heads of every attention
    block and the subbands and receive antennas of the eigen extraction
    are batch axes, not Python loops, so the node count does not grow
    with them."""

    def step_nodes(self, monkeypatch, train):
        losses = []

        def capture(pred, true):
            losses.append(loss_cf(pred, true))
            return losses[-1]

        monkeypatch.setattr(tr, "loss_cf", capture)
        train()
        assert len(losses) == 1
        return graph_nodes(losses[0])

    def test_feedback_step(self, monkeypatch):
        rng = np.random.default_rng(11)
        eigens = [unit_rows(rng, (4, 3)) for _ in range(8)]
        nodes = self.step_nodes(monkeypatch, lambda: train_feedback(
            FlowMatModel(fb_config(n_heads=4)), eigens,
            TrainConfig(steps=1, batch_size=4)))
        assert nodes <= 113

    def test_end_to_end_step(self, monkeypatch):
        geom = two_rx_geom()
        est = FlowMatModel(EstimationConfig(
            n_tokens=8, token_dim=12, d_model=8, n_heads=4, decoder_depth=1,
            n_pilot_tokens=4, seed=0))
        fb = FlowMatModel(FeedbackConfig(n_tokens=4, token_dim=6, d_model=8,
                                         n_heads=4, encoder_depth=1,
                                         decoder_depth=1, d_latent=2,
                                         keep_count=2, seed=1))
        channels = generate_batch(geom, MultipathProfile(seed=12), 4)
        eigens = [compute_precoders(h, geom) for h in channels]
        nodes = self.step_nodes(monkeypatch, lambda: train_end_to_end(
            est, fb, channels, eigens, geom,
            TrainConfig(steps=1, batch_size=2)))
        assert nodes <= 340
