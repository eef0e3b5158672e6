"""Masked-token transformer: tokenization, mask biases, attention semantics,
checkpoint I/O and the forward-pass contracts."""

from dataclasses import fields

import numpy as np
import pytest

import flowmat.autodiff as ad
import flowmat.quantizer as qz
from flowmat.autodiff import Tensor
from flowmat.channel import (MultipathProfile, PilotObservation,
                             SystemGeometry, every_kth_pattern,
                             generate_channel, observe_pilots)
from flowmat.dataio import FormatError
from flowmat.model import (EstimationConfig, FeedbackConfig, FlowMatModel,
                           HARD_BIAS, build_decoder_bias, build_mask_bias,
                           detokenize_channel, detokenize_eigen,
                           estimate_pipeline, feedback_pipeline,
                           tokenize_channel, tokenize_eigen)


def tiny_config(**kw):
    base = dict(n_tokens=6, token_dim=8, d_model=16, n_heads=2,
                encoder_depth=2, decoder_depth=2, d_latent=2, keep_count=3,
                seed=0)
    base.update(kw)
    return FeedbackConfig(**base)


class TestTokenization:
    def test_eigen_bijection(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_array_equal(detokenize_eigen(tokenize_eigen(w)), w)
        assert tokenize_eigen(w).shape == (4, 6)

    def test_channel_bijection(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
        tokens = tokenize_channel(h)
        assert tokens.shape == (5, 12)
        np.testing.assert_array_equal(detokenize_channel(tokens, 2, 3), h)

    def test_channel_leading_axis_round_trip(self):
        rng = np.random.default_rng(3)
        h = (rng.standard_normal((4, 2, 5, 3))
             + 1j * rng.standard_normal((4, 2, 5, 3)))
        tokens = tokenize_channel(h)
        assert tokens.shape == (4, 5, 12)
        for i in range(4):
            np.testing.assert_array_equal(tokens[i], tokenize_channel(h[i]))
        np.testing.assert_array_equal(detokenize_channel(tokens, 2, 3), h)

    def test_channel_tokens_are_rx_major(self):
        h = np.zeros((2, 1, 3), dtype=complex)
        h[1, 0, 0] = 1.0 + 2.0j
        tokens = tokenize_channel(h)
        assert tokens[0, 3] == 1.0   # re half, rx 1 block starts at n_tx
        assert tokens[0, 9] == 2.0   # im half offset by rx*tx


class TestMaskBias:
    def test_paper_literal_is_keep_indicator(self):
        bias = build_mask_bias([0, 2], 4, "paper_literal")
        np.testing.assert_array_equal(bias, np.tile([1.0, 0.0, 1.0, 0.0],
                                                    (4, 1)))

    def test_hard_blocks_masked_keys(self):
        bias = build_mask_bias([1], 3, "hard")
        np.testing.assert_array_equal(bias[0], [HARD_BIAS, 0.0, HARD_BIAS])

    def test_decoder_bias_inverts(self):
        np.testing.assert_array_equal(
            build_decoder_bias([0, 2], 4, "paper_literal"),
            -build_mask_bias([0, 2], 4, "paper_literal"))
        np.testing.assert_array_equal(
            build_decoder_bias([0, 2], 4, "hard"),
            build_mask_bias([0, 2], 4, "hard"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_mask_bias([0], 2, "soft")


def brute_force_masked_attention(model, prefix, x, kept):
    """Scalar reference: per-head softmax attention over the kept keys only."""
    cfg, p = model.cfg, model.params
    q = x @ p[f"{prefix}.wq"].data
    k = x @ p[f"{prefix}.wk"].data
    v = x @ p[f"{prefix}.wv"].data
    dh = cfg.d_model // cfg.n_heads
    n = x.shape[0]
    out = np.zeros((n, cfg.d_model))
    for h in range(cfg.n_heads):
        s = slice(h * dh, (h + 1) * dh)
        for i in range(n):
            logits = {j: float(q[i, s] @ k[j, s]) / np.sqrt(dh) for j in kept}
            mx = max(logits.values())
            weights = {j: np.exp(l - mx) for j, l in logits.items()}
            z = sum(weights.values())
            acc = np.zeros(dh)
            for j in kept:
                acc += (weights[j] / z) * v[j, s]
            out[i, s] = acc
    return out


class TestMaskAttention:
    def test_hard_mode_equals_brute_force_on_all_splits(self):
        # every nonempty kept/masked split of 6 tokens
        model = FlowMatModel(tiny_config(mask_mode="hard"))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 16))
        for pattern in range(1, 1 << 6):
            kept = [i for i in range(6) if pattern >> i & 1]
            bias = build_mask_bias(kept, 6, "hard")
            got = model._attention("enc0", Tensor(x), bias).data
            ref = brute_force_masked_attention(model, "enc0", x, kept)
            assert np.max(np.abs(got - ref)) < 1e-10

    def test_batched_input_equals_per_sample_calls(self):
        # the leading batch axis is independent of the head axis
        model = FlowMatModel(tiny_config(mask_mode="hard"))
        x = np.random.default_rng(6).standard_normal((3, 6, 16))
        bias = build_mask_bias([0, 2, 5], 6, "hard")
        got = model._attention("enc0", Tensor(x), bias).data
        ref = np.stack([model._attention("enc0", Tensor(s), bias).data
                        for s in x])
        assert got.shape == (3, 6, 16)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_paper_literal_keeps_nonzero_masked_weight(self):
        # constructed counterexample: with the {0,1} bias the masked key
        # still receives nonzero attention, unlike the hard mask
        model = FlowMatModel(tiny_config(mask_mode="paper_literal"))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 16))
        kept = [0, 1, 2]
        p = model.params
        q = x @ p["enc0.wq"].data
        k = x @ p["enc0.wk"].data
        dh = model.cfg.d_model // model.cfg.n_heads
        bias = build_mask_bias(kept, 6, "paper_literal")
        logits = (q[:, :dh] @ k[:, :dh].T + bias) / np.sqrt(dh)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        assert np.all(weights[:, 3:] > 0.0)

    def test_paper_literal_differs_only_through_the_bias(self):
        # zeroing the bias reduces the mask-attention block to the common one
        model = FlowMatModel(tiny_config(mask_mode="paper_literal"))
        x = np.random.default_rng(5).standard_normal((6, 16))
        no_bias = model._attention("enc0", Tensor(x), None).data
        zero_bias = model._attention("enc0", Tensor(x), np.zeros((6, 6))).data
        np.testing.assert_allclose(no_bias, zero_bias, atol=1e-15)

    @pytest.mark.parametrize("kept", [None, [0, 2, 5]])
    def test_block_is_six_nodes(self, kept):
        # layer norm, attention, residual add, layer norm, MLP, residual add
        model = FlowMatModel(tiny_config())
        x = Tensor(np.random.default_rng(7).standard_normal((3, 6, 16)),
                   requires_grad=True)
        bias = None if kept is None else build_mask_bias(kept, 6, "hard")
        seen, stack = set(), [model._block("enc0", x, bias)]
        while stack:
            node = stack.pop()
            if node._backward is not None and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) == 6


class TestModelConstruction:
    def test_init_deterministic_per_seed(self):
        m1 = FlowMatModel(tiny_config(seed=7))
        m2 = FlowMatModel(tiny_config(seed=7))
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data,
                                          m2.params[name].data)
        m3 = FlowMatModel(tiny_config(seed=8))
        assert not np.allclose(m1.params["in_proj"].data,
                               m3.params["in_proj"].data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=15)
        with pytest.raises(ValueError):
            tiny_config(keep_count=7)
        with pytest.raises(ValueError):
            tiny_config(mask_mode="fuzzy")

    def test_set_trainable_unknown_prefix(self):
        with pytest.raises(KeyError):
            FlowMatModel(tiny_config()).set_trainable(["nonexistent"], False)

    def test_kept_indices_are_top_query_rows(self):
        model = FlowMatModel(tiny_config())
        kept = model.kept_indices()
        assert kept.shape == (3,)
        assert np.all(np.diff(kept) > 0)
        query = model.params["query"].data
        assert query[kept].min() > np.delete(query, kept).max()


class TestFeedbackForward:
    def test_shapes_and_kept(self):
        model = FlowMatModel(tiny_config())
        tokens = Tensor(np.random.default_rng(6).standard_normal((6, 8)))
        rec, payload, kept = model.feedback_forward(tokens)
        assert rec.data.shape == (6, 8)
        assert payload is None
        assert kept.shape == (3,)

    def test_batched_forward_matches_per_sample(self):
        model = FlowMatModel(tiny_config())
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((4, 6, 8))
        rec_b, _, _ = model.feedback_forward(Tensor(batch))
        for i in range(4):
            rec_i, _, _ = model.feedback_forward(Tensor(batch[i]))
            np.testing.assert_allclose(rec_b.data[i], rec_i.data, atol=1e-12)

    def test_token_shape_validation(self):
        model = FlowMatModel(tiny_config())
        with pytest.raises(ValueError):
            model.encode(Tensor(np.zeros((6, 9))))
        with pytest.raises(ValueError):
            model.encode(Tensor(np.zeros((5, 8))))


class TestDenoiserAndEstimation:
    def est_config(self):
        return EstimationConfig(n_tokens=8, token_dim=4, d_model=16,
                                n_heads=2, decoder_depth=2, n_pilot_tokens=4,
                                seed=0)

    @pytest.mark.parametrize("n_pilot_tokens", [-1, 0, 9])
    def test_pilot_count_outside_token_count_rejected(self, n_pilot_tokens):
        with pytest.raises(ValueError, match="n_pilot_tokens"):
            EstimationConfig(n_tokens=8, token_dim=4, d_model=16, n_heads=2,
                             n_pilot_tokens=n_pilot_tokens)

    def test_denoiser_is_identity_at_init(self):
        model = FlowMatModel(self.est_config())
        x = np.random.default_rng(12).standard_normal((4, 4))
        out = model.denoise(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_denoiser_requires_pilot_tokens(self):
        model = FlowMatModel(tiny_config())
        with pytest.raises(ValueError):
            model.denoise(Tensor(np.zeros((4, 8))))

    def test_estimate_forward_shapes(self):
        model = FlowMatModel(self.est_config())
        tokens = Tensor(np.random.default_rng(13).standard_normal((4, 4)))
        den, rec = model.estimate_forward(tokens, [0, 2, 4, 6])
        assert den.data.shape == (4, 4)
        assert rec.data.shape == (8, 4)

    def test_holds_only_the_denoiser_and_decoder(self, tmp_path):
        model = FlowMatModel(self.est_config())
        assert not [name for name in model.params if name.startswith(
            ("enc", "query", "latent_"))]
        assert model.kept_indices() is None
        with pytest.raises(ValueError):
            model.encode(Tensor(np.zeros((8, 4))))
        path = tmp_path / "est.fmw"
        model.save(path)
        back = FlowMatModel.load(path)
        assert back.cfg == model.cfg and back.estimation
        assert sorted(back.params) == sorted(model.params)
        for name, t in model.params.items():
            np.testing.assert_array_equal(back.params[name].data, t.data)

    def test_estimate_forward_position_count(self):
        model = FlowMatModel(self.est_config())
        with pytest.raises(ValueError):
            model.estimate_forward(Tensor(np.zeros((4, 4))), [0, 2])


class TestPipelines:
    def test_feedback_pipeline_unit_rows(self):
        model = FlowMatModel(tiny_config())
        rng = np.random.default_rng(14)
        w = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        payload, rec = feedback_pipeline(w, model)
        assert rec.shape == w.shape
        np.testing.assert_allclose(np.linalg.norm(rec, axis=1), 1.0,
                                   atol=1e-12)

    def test_feedback_pipeline_rejects_unnormalized(self):
        model = FlowMatModel(tiny_config())
        with pytest.raises(ValueError):
            feedback_pipeline(np.ones((6, 4), complex), model)

    @staticmethod
    def unit_eigens(seed, count):
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal((count, 6, 4))
             + 1j * rng.standard_normal((count, 6, 4)))
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    def quantizers(self, model, w):
        aux = {}
        model.feedback_forward(Tensor(tokenize_eigen(w)), aux=aux)
        # 3 kept tokens x 2 latent dims: 24 bits at 4 bits per scalar
        return {"uniform": qz.calibrate_uniform(aux["latent"].data, 4)}

    @pytest.mark.parametrize("name", ["uniform"])
    def test_batched_feedback_pipeline_equals_per_sample(self, name):
        model = FlowMatModel(tiny_config())
        w = self.unit_eigens(16, 5)
        quant = self.quantizers(model, w)[name]
        payload, rec = feedback_pipeline(w, model, quantizer=quant)
        singles = [feedback_pipeline(wi, model, quantizer=quant) for wi in w]
        np.testing.assert_array_equal(rec, np.stack([r for _, r in singles]))
        per = singles[0][0].bit_length
        assert payload.bit_length == 5 * per
        bits = np.unpackbits(np.frombuffer(payload.data, np.uint8))
        single_bits = [np.unpackbits(np.frombuffer(p.data, np.uint8))[:per]
                       for p, _ in singles]
        np.testing.assert_array_equal(bits[:5 * per],
                                      np.concatenate(single_bits))
        if per % 8 == 0:
            assert payload.data == b"".join(p.data for p, _ in singles)

    def test_feedback_rejects_a_codebook_quantizer(self):
        model = FlowMatModel(tiny_config())
        with pytest.raises(ValueError, match="UniformQuantizerSpec"):
            feedback_pipeline(self.unit_eigens(17, 2), model,
                              quantizer=qz.make_codebook(16, 2, seed=1))

    def test_batched_estimate_pipeline_equals_per_sample(self):
        geom = SystemGeometry(n_tx=2, n_rx=1, n_sub=8, n_subband=2,
                              pilot_pattern=every_kth_pattern(8, 2))
        model = FlowMatModel(TestDenoiserAndEstimation().est_config())
        rng = np.random.default_rng(17)
        model.params["mix_out"].data = rng.standard_normal((4, 4)) * 0.1
        obs = [observe_pilots(generate_channel(geom, MultipathProfile(seed=i)),
                              geom, 10.0, seed=i) for i in range(5)]
        stacked = PilotObservation(np.stack([o.data for o in obs]),
                                   geom.pilot_pattern.pilot_indices)
        est = estimate_pipeline(stacked, model, geom.n_rx, geom.n_tx)
        assert est.shape == (5, 1, 8, 2)
        np.testing.assert_array_equal(
            est, np.stack([estimate_pipeline(o, model, 1, 2) for o in obs]))


class TestCheckpointIO:
    def make_model(self):
        model = FlowMatModel(tiny_config(seed=3))
        model.metadata["uq_lo_64"] = -1.5
        model.metadata["uq_hi_64"] = 2.5
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.fmw"
        model.save(path)
        back = FlowMatModel.load(path)
        assert back.cfg == model.cfg
        assert back.metadata == model.metadata
        for name in model.params:
            np.testing.assert_array_equal(back.params[name].data,
                                          model.params[name].data)

    def test_round_trip_non_default_settings(self, tmp_path):
        # each network's config with every field away from its default, so
        # a header value parsed as the wrong type, read back as the
        # default or into the other network's config shows
        shared = dict(n_tokens=8, token_dim=4, d_model=12, n_heads=3,
                      decoder_depth=2, mask_mode="paper_literal",
                      mlp_expansion=3, seed=7)
        for cfg in (FeedbackConfig(**shared, encoder_depth=1, d_latent=3,
                                   keep_count=2),
                    EstimationConfig(**shared, n_pilot_tokens=2,
                                     denoiser_blocks=1, denoiser_expansion=3)):
            assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
            types = {type(getattr(cfg, f.name)) for f in fields(cfg)}
            assert types == {int, str}
            path = tmp_path / "model.fmw"
            FlowMatModel(cfg).save(path)
            back = FlowMatModel.load(path)
            assert type(back.cfg) is type(cfg) and back.cfg == cfg
            for f in fields(cfg):
                assert (type(getattr(back.cfg, f.name))
                        is type(getattr(cfg, f.name)))

    def test_rewrite_bytes_identical(self, tmp_path):
        model = self.make_model()
        p1, p2 = tmp_path / "a.fmw", tmp_path / "b.fmw"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.fmw"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[0] = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            FlowMatModel.load(path)

    def test_flipped_body_bit_fails_crc(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.fmw"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            FlowMatModel.load(path)

    def test_forward_identical_after_reload(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.fmw"
        model.save(path)
        back = FlowMatModel.load(path)
        tokens = Tensor(np.random.default_rng(15).standard_normal((6, 8)))
        r1, _, _ = model.feedback_forward(tokens)
        r2, _, _ = back.feedback_forward(tokens)
        np.testing.assert_array_equal(r1.data, r2.data)
