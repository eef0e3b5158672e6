"""Quantization of the kept latent with exact bit accounting: a uniform
quantizer that trains straight-through, and nearest-codeword vector
quantization (VQ) for assignment and bit accounting only."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import Reader

SCHEME_UNIFORM = "uniform"
SCHEME_VQ = "vq"
_SCHEME_TAGS = {SCHEME_UNIFORM: 0, SCHEME_VQ: 1}
_TAG_SCHEMES = {v: k for k, v in _SCHEME_TAGS.items()}


@dataclass
class BitPayload:
    bit_length: int
    data: bytes
    scheme: str

    def __post_init__(self):
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValueError("byte buffer does not match bit length")


def pack_bits(indices, width: int) -> bytes:
    """Pack integer indices MSB-first, ``width`` bits each; pad bits zero."""
    indices = np.asarray(indices, dtype=np.uint64).reshape(-1)
    if np.any(indices >= (1 << width)):
        raise ValueError("index does not fit in the bit width")
    bits = np.zeros(indices.size * width, dtype=np.uint8)
    for j in range(width):
        bits[j::width] = (indices >> (width - 1 - j)) & 1
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[: count * width]
    out = np.zeros(count, dtype=np.uint64)
    for j in range(width):
        out = (out << 1) | bits[j::width].astype(np.uint64)
    return out


@dataclass
class UniformQuantizerSpec:
    bits: int
    lo: float
    hi: float

    def __post_init__(self):
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must lie in [1, 16]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi):
            raise ValueError(f"need a finite range lo < hi, not "
                             f"[{self.lo}, {self.hi}]")

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / (1 << self.bits)


def uniform_quantize(x: np.ndarray, spec: UniformQuantizerSpec):
    """Mid-rise quantization; out-of-range values clamp to the edge cells."""
    x = np.asarray(x, dtype=np.float64)
    idx = _cell_indices(x, spec)
    payload = BitPayload(bit_length=x.size * spec.bits,
                         data=pack_bits(idx, spec.bits),
                         scheme=SCHEME_UNIFORM)
    return idx, payload


def uniform_dequantize(indices, spec: UniformQuantizerSpec) -> np.ndarray:
    indices = np.asarray(indices)
    if np.any(indices < 0) or np.any(indices >= (1 << spec.bits)):
        raise ValueError("index overflows the bit width")
    return _cell_centres(indices, spec)


def _cell_indices(x: np.ndarray, spec: UniformQuantizerSpec) -> np.ndarray:
    idx = np.floor((x - spec.lo) / spec.delta).astype(np.int64)
    return np.clip(idx, 0, (1 << spec.bits) - 1)


def _cell_centres(indices, spec: UniformQuantizerSpec) -> np.ndarray:
    return spec.lo + (indices + 0.5) * spec.delta


def uniform_quantize_st(x: Tensor, spec: UniformQuantizerSpec):
    """Quantize-dequantize in the forward pass, identity in the backward.

    Returns (quantized tensor, indices, payload) from one quantization.
    """
    idx, payload = uniform_quantize(x.data, spec)
    values = uniform_dequantize(idx, spec)
    return ad.straight_through(x, lambda _: values), idx, payload


def calibrate_uniform(latents: np.ndarray, bits: int,
                      margin: float = 0.05) -> UniformQuantizerSpec:
    """Range from observed latent min/max, expanded by ``margin``."""
    lo = float(np.min(latents))
    hi = float(np.max(latents))
    span = max(hi - lo, 1e-12)
    return UniformQuantizerSpec(bits=bits, lo=lo - margin * span,
                                hi=hi + margin * span)


# percent clipped per tail by the candidate ranges of calibrate_uniform_mse
_CLIP_PCTS = np.linspace(0.0, 5.0, 51)


def calibrate_uniform_mse(latents: np.ndarray,
                          bits: int) -> UniformQuantizerSpec:
    """Clipping range with the least quantization error on ``latents``.

    The candidates are the symmetric percentile ranges [P_q, P_(100-q)]
    for q = 0, 0.1, ..., 5 percent; q = 0 is the plain min/max range.
    Each candidate is scored by the mean squared quantize-dequantize
    error over ``latents``, clamped values included, and the lowest
    error wins (ties go to the smaller q). A few outliers thus no longer
    stretch the cells that all other values fall in. A constant sample
    has no valid candidate and falls back to ``calibrate_uniform``.
    """
    x = np.asarray(latents, dtype=np.float64).reshape(-1)
    best, best_err = None, math.inf
    for lo, hi in zip(np.percentile(x, _CLIP_PCTS),
                      np.percentile(x, 100.0 - _CLIP_PCTS)):
        if not hi > lo:
            continue
        spec = UniformQuantizerSpec(bits=bits, lo=float(lo), hi=float(hi))
        err = float(np.mean((_cell_centres(_cell_indices(x, spec), spec)
                             - x) ** 2))
        if err < best_err:
            best, best_err = spec, err
    return best if best is not None else calibrate_uniform(x, bits)


@dataclass
class VqCodebook:
    vectors: Tensor  # [K, d_q]

    def __post_init__(self):
        k = self.vectors.data.shape[0]
        if k & (k - 1) != 0:
            raise ValueError("codebook size must be a power of two")
        if not np.all(np.isfinite(self.vectors.data)):
            raise ValueError("codebook vectors must be finite")

    @property
    def size(self) -> int:
        return self.vectors.data.shape[0]

    @property
    def index_bits(self) -> int:
        return int(math.log2(self.size))


def make_codebook(k: int, d_q: int, seed: int = 0) -> VqCodebook:
    rng = np.random.default_rng(seed)
    return VqCodebook(vectors=Tensor(rng.standard_normal((k, d_q)) * 0.1))


def vq_assign(x: np.ndarray, codebook: VqCodebook):
    """Nearest codeword per row (squared Euclidean, ties to lower index)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("vq_assign expects a [rows, d_q] array")
    cb = codebook.vectors.data
    d2 = ((x[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)  # argmin picks the lowest index on ties
    payload = BitPayload(bit_length=x.shape[0] * codebook.index_bits,
                         data=pack_bits(idx, codebook.index_bits),
                         scheme=SCHEME_VQ)
    return idx, payload


def payload_bits(scheme: str, m: int, d_q: int, bits: int = None,
                 k: int = None) -> int:
    """Exact payload size: uniform m*d_q*B bits, VQ m*log2(K) bits."""
    if scheme == SCHEME_UNIFORM:
        if bits is None:
            raise ValueError("uniform scheme needs a bit width")
        return m * d_q * bits
    if scheme == SCHEME_VQ:
        if k is None or k < 1 or k & (k - 1) != 0:
            raise ValueError("VQ scheme needs a power-of-two codebook size")
        return m * int(math.log2(k))
    raise ValueError(f"unknown scheme {scheme!r}")


def serialize_payload(payload: BitPayload, spec=None, k: int = None) -> bytes:
    """Wire format: scheme tag u8 | params | bit length u32 | packed bits."""
    tag = _SCHEME_TAGS[payload.scheme]
    out = struct.pack("<B", tag)
    if payload.scheme == SCHEME_UNIFORM:
        if spec is None:
            raise ValueError("uniform payload needs its quantizer spec")
        out += struct.pack("<ddd", float(spec.bits), spec.lo, spec.hi)
    else:
        if k is None:
            raise ValueError("VQ payload needs the codebook size")
        out += struct.pack("<I", k)
    out += struct.pack("<I", payload.bit_length)
    out += payload.data
    return out


def parse_payload(raw: bytes):
    """Inverse of serialize_payload; returns (payload, params dict). A
    message cut anywhere or longer than its bits, a header that no
    quantizer writes, or a bit length that is not a whole number of
    indices raises ValueError."""
    reader = Reader(raw, "payload")
    (tag,) = reader.take("<B")
    if tag not in _TAG_SCHEMES:
        raise ValueError(f"unknown scheme tag {tag}")
    scheme = _TAG_SCHEMES[tag]
    *fields, bit_length = reader.take(  # params | length
        "<dddI" if scheme == SCHEME_UNIFORM else "<II")
    if scheme == SCHEME_UNIFORM:
        width, lo, hi = fields
        if not width.is_integer():
            raise ValueError(f"uniform header needs an integral width, "
                             f"not {width}")
        params = {"bits": int(width), "lo": lo, "hi": hi}
        index_bits = UniformQuantizerSpec(**params).bits
    else:
        params = {"k": fields[0]}
        index_bits = payload_bits(SCHEME_VQ, 1, 1, k=fields[0])
    # a one-word codebook has 0-bit indices and writes no bits
    if bit_length % index_bits if index_bits else bit_length:
        raise ValueError(f"bit length {bit_length} is not a whole number "
                         f"of {index_bits}-bit indices")
    (data,) = reader.take(f"<{(bit_length + 7) // 8}s")
    reader.end()
    return BitPayload(bit_length=bit_length, data=data, scheme=scheme), params
