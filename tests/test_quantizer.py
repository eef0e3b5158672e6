"""Uniform / vector quantization, bit packing and payload bit accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowmat.autodiff as ad
from flowmat.autodiff import Tensor
from flowmat.quantizer import (BitPayload, UniformQuantizerSpec, VqCodebook,
                               calibrate_uniform, calibrate_uniform_mse,
                               make_codebook, pack_bits, payload_bits,
                               uniform_dequantize, uniform_quantize,
                               uniform_quantize_st, vq_assign)


class TestBitPacking:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=64),
           st.integers(min_value=8, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, values, width):
        # read the bytes back MSB-first, ``width`` bits per index
        data = pack_bits(values, width)
        n_bits = len(values) * width
        assert len(data) == (n_bits + 7) // 8
        bits = np.unpackbits(np.frombuffer(data, np.uint8))
        assert not bits[n_bits:].any()  # pad bits are zero
        weights = 1 << np.arange(width - 1, -1, -1)
        back = bits[:n_bits].reshape(len(values), width) @ weights
        np.testing.assert_array_equal(back, values)

    def test_msb_first_layout(self):
        # a single 3-bit index 0b101 must land in the top bits of the byte
        assert pack_bits([0b101], 3) == bytes([0b10100000])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_bits([8], 3)

    def test_payload_byte_length_invariant(self):
        with pytest.raises(ValueError):
            BitPayload(bit_length=9, data=b"\x00")


class TestUniformQuantizer:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            UniformQuantizerSpec(bits=0, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            UniformQuantizerSpec(bits=17, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            UniformQuantizerSpec(bits=4, lo=1.0, hi=1.0)
        for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError):
                UniformQuantizerSpec(bits=4, lo=lo, hi=hi)

    def test_half_delta_bound_on_1e5_randoms(self):
        spec = UniformQuantizerSpec(bits=6, lo=-2.0, hi=3.0)
        rng = np.random.default_rng(5)
        x = rng.uniform(spec.lo, spec.hi, size=100_000)
        idx, _ = uniform_quantize(x, spec)
        back = uniform_dequantize(idx, spec)
        assert np.max(np.abs(back - x)) <= spec.delta / 2 + 1e-12

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_half_delta_bound_property(self, bits):
        spec = UniformQuantizerSpec(bits=bits, lo=-1.0, hi=1.0)
        x = np.linspace(spec.lo, spec.hi, 997, endpoint=False)
        back = uniform_dequantize(uniform_quantize(x, spec)[0], spec)
        assert np.max(np.abs(back - x)) <= spec.delta / 2 + 1e-12

    def test_out_of_range_clamps_to_edges(self):
        spec = UniformQuantizerSpec(bits=2, lo=0.0, hi=1.0)
        idx, _ = uniform_quantize(np.array([-5.0, 5.0]), spec)
        np.testing.assert_array_equal(idx, [0, 3])

    def test_dequantize_rejects_overflow(self):
        spec = UniformQuantizerSpec(bits=2, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            uniform_dequantize(np.array([4]), spec)

    def test_straight_through_gradient_is_identity(self):
        spec = UniformQuantizerSpec(bits=3, lo=-1.0, hi=1.0)
        x = Tensor(np.random.default_rng(6).uniform(-1, 1, (4, 3)),
                   requires_grad=True)
        quantized, _, _ = uniform_quantize_st(x, spec)
        ad.tsum(quantized).backward()
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))

    def test_straight_through_matches_one_quantization(self):
        spec = UniformQuantizerSpec(bits=3, lo=-1.0, hi=1.0)
        x = np.random.default_rng(8).uniform(-1.5, 1.5, (4, 3))
        quantized, idx, payload = uniform_quantize_st(Tensor(x), spec)
        ref_idx, ref_payload = uniform_quantize(x, spec)
        np.testing.assert_array_equal(idx, ref_idx)
        assert payload == ref_payload
        np.testing.assert_array_equal(quantized.data,
                                      uniform_dequantize(ref_idx, spec))

    def test_calibration_covers_latents_with_margin(self):
        lats = np.random.default_rng(7).standard_normal(1000)
        spec = calibrate_uniform(lats, bits=8)
        assert spec.lo < lats.min() and spec.hi > lats.max()
        span = lats.max() - lats.min()
        assert abs((lats.min() - spec.lo) - 0.05 * span) < 1e-9


def _quantization_mse(x, spec):
    idx, _ = uniform_quantize(x, spec)
    return float(np.mean((uniform_dequantize(idx, spec) - x) ** 2))


class TestMseCalibration:
    # heavy tails: a few outliers stretch the min/max range
    lats = np.random.default_rng(14).standard_t(df=3, size=4000)

    def test_beats_min_max_range(self):
        spec = calibrate_uniform_mse(self.lats, bits=4)
        min_max = UniformQuantizerSpec(bits=4, lo=self.lats.min(),
                                       hi=self.lats.max())
        assert (_quantization_mse(self.lats, spec)
                < _quantization_mse(self.lats, min_max))

    def test_least_error_among_percentile_ranges(self):
        spec = calibrate_uniform_mse(self.lats, bits=4)
        err = _quantization_mse(self.lats, spec)
        for q in (0.5, 1.0, 2.0, 5.0):
            lo, hi = np.percentile(self.lats, [q, 100.0 - q])
            other = UniformQuantizerSpec(bits=4, lo=lo, hi=hi)
            assert err <= _quantization_mse(self.lats, other) + 1e-15

    def test_range_lies_within_sample(self):
        spec = calibrate_uniform_mse(self.lats, bits=4)
        assert self.lats.min() <= spec.lo < spec.hi <= self.lats.max()

    def test_repeatable(self):
        assert (calibrate_uniform_mse(self.lats, bits=4)
                == calibrate_uniform_mse(self.lats.copy(), bits=4))

    def test_constant_sample_falls_back(self):
        spec = calibrate_uniform_mse(np.full(10, 2.0), bits=4)
        assert spec.lo < 2.0 < spec.hi


class TestBitAccounting:
    def test_table_budget_configs(self):
        # the three bit budgets of the reference comparison
        assert payload_bits("uniform", m=8, d_q=4, bits=2) == 64
        assert payload_bits("uniform", m=8, d_q=8, bits=4) == 256
        assert payload_bits("vq", m=16, d_q=4, k=256) == 128

    def test_actual_payload_matches_accounting(self):
        spec = UniformQuantizerSpec(bits=2, lo=-1.0, hi=1.0)
        _, payload = uniform_quantize(np.zeros((8, 4)), spec)
        assert payload.bit_length == payload_bits("uniform", 8, 4, bits=2)
        cb = make_codebook(256, 4, seed=0)
        _, payload = vq_assign(np.zeros((16, 4)), cb)
        assert payload.bit_length == payload_bits("vq", 16, 4, k=256)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            payload_bits("uniform", 4, 4)
        with pytest.raises(ValueError):
            payload_bits("vq", 4, 4, k=100)
        with pytest.raises(ValueError):
            payload_bits("dither", 4, 4, bits=2)


class TestVectorQuantizer:
    def test_codebook_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            VqCodebook(vectors=Tensor(np.zeros((6, 4))))

    def test_assignment_matches_brute_force(self):
        rng = np.random.default_rng(8)
        cb = make_codebook(16, 3, seed=1)
        x = rng.standard_normal((40, 3))
        idx, _ = vq_assign(x, cb)
        for i, row in enumerate(x):
            d2 = ((cb.vectors.data - row) ** 2).sum(axis=1)
            assert idx[i] == int(np.argmin(d2))

    def test_ties_go_to_lower_index(self):
        cb = VqCodebook(vectors=Tensor(np.array([[1.0], [1.0]])))
        idx, _ = vq_assign(np.array([[1.0]]), cb)
        assert idx[0] == 0

