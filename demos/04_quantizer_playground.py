"""Quantizers up close: uniform scalar vs vector quantization.

The feedback payload of a flowmat run is produced by the uniform scalar
quantizer, which chops a calibrated range into 2^B mid-rise cells and
spends B bits per latent value. A vector quantizer instead stores the
index of the nearest of K codewords per latent row and spends log2(K)
bits per row; flowmat keeps it for assignment and bit accounting only,
with a random codebook and no training path. This script exercises both
on synthetic data and shows the exact wire format that would cross the
feedback link.

Run: python3 demos/04_quantizer_playground.py
"""

import numpy as np

from flowmat.quantizer import (UniformQuantizerSpec, calibrate_uniform,
                               make_codebook, parse_payload, payload_bits,
                               serialize_payload, uniform_dequantize,
                               uniform_quantize, vq_assign)

rng = np.random.default_rng(0)

# -- uniform scalar quantization ---------------------------------------------

x = rng.standard_normal((8, 4))  # 8 kept tokens, latent width 4
print("uniform scalar quantizer")
for bits in (2, 4, 8):
    spec = calibrate_uniform(x.reshape(-1), bits)
    idx, payload = uniform_quantize(x, spec)
    back = uniform_dequantize(idx, spec).reshape(x.shape)
    err = np.max(np.abs(back - x))
    print(f"  B={bits}: range [{spec.lo:+.2f}, {spec.hi:+.2f}], "
          f"cell width {spec.delta:.4f}, worst error {err:.4f} "
          f"(bound {spec.delta / 2:.4f}), payload {payload.bit_length} bits")
print()

# -- vector quantization -------------------------------------------------------

k, d_q = 16, 4
codebook = make_codebook(k, d_q, seed=1)
idx, payload = vq_assign(x, codebook)
recon = codebook.vectors.data[idx]
print(f"vector quantizer: K={k} codewords of width {d_q}")
print(f"  assignments: {idx.tolist()}")
print(f"  payload: {payload.bit_length} bits "
      f"(= {x.shape[0]} rows x log2({k}) bits)")
print(f"  mean squared error: {np.mean((recon - x) ** 2):.4f}")
print()

# -- the wire format -----------------------------------------------------------

spec = UniformQuantizerSpec(bits=4, lo=-3.0, hi=3.0)
_, payload = uniform_quantize(x, spec)
wire = serialize_payload(payload, spec=spec)
print(f"wire format: {len(wire)} bytes for a "
      f"{payload_bits('uniform', m=8, d_q=4, bits=4)}-bit payload")
print(f"  first 16 bytes: {wire[:16].hex()}")
parsed, meta = parse_payload(wire)
assert parsed.data == payload.data
print(f"  parsed back: scheme={parsed.scheme}, "
      f"bit_length={parsed.bit_length}, meta={meta}")
