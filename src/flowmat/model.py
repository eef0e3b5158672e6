"""Masked-token transformer for channel compression and completion.

One frequency unit (subcarrier or reporting subband) is one token: the
stacked real/imaginary spatial vector. The encoder is a stack of common
attention blocks closed by a mask-attention block whose logits carry an
additive bias matrix built from the kept/masked split; a learnable query
selects the top-m tokens as the compressed latent; dropped positions are
re-filled with a shared mask token before decoding.
"""

from __future__ import annotations

import math
import struct
import typing
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import quantizer as qz
from .autodiff import Tensor

HARD_BIAS = -1e9

CHECKPOINT_MAGIC = b"FMW1"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    n_tokens: int                 # tokens per sequence
    token_dim: int                # width of one token
    d_model: int = 64
    n_heads: int = 4
    encoder_depth: int = 3        # last encoder block carries the mask bias
    decoder_depth: int = 3        # first decoder block carries the inverse mask
    d_latent: int = 4             # pre-quantization latent width per token
    keep_count: int = 4           # m: tokens kept by active masking
    mask_mode: str = "hard"       # hard | paper_literal
    mask_token_init: str = "zero"  # zero | randn
    mask_token_trainable: bool = True
    learnable_query: bool = True
    share_projections: bool = False
    mlp_expansion: int = 2
    denoiser_blocks: int = 2
    denoiser_expansion: int = 2
    n_pilot_tokens: int = 0       # > 0 enables the pilot denoiser
    token_reduction: str = "query"  # query | mlp | merge
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 1 <= self.keep_count <= self.n_tokens:
            raise ValueError("keep_count outside [1, n_tokens]")
        if self.mask_mode not in ("hard", "paper_literal"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if self.mask_token_init not in ("zero", "randn"):
            raise ValueError(f"unknown mask token init {self.mask_token_init!r}")
        if self.token_reduction not in ("query", "mlp", "merge"):
            raise ValueError(f"unknown token reduction {self.token_reduction!r}")
        if self.token_reduction == "merge" and self.n_tokens % self.keep_count:
            raise ValueError("merge reduction needs keep_count | n_tokens")
        if min(self.encoder_depth, self.decoder_depth) < 1:
            raise ValueError("need at least one encoder and decoder block")


def parse_value(text: str, typ: type):
    """The ``key=value`` text form of a setting, as a bool, int, float or
    str ``typ``: run-config lines and ``.fmw`` header lines alike.
    Raises ValueError for text that is not a ``typ``."""
    if typ is bool:
        if text not in ("true", "false", "True", "False"):
            raise ValueError(f"not a boolean: {text!r}")
        return text in ("true", "True")
    return typ(text)


# ---------------------------------------------------------------------------
# Tokenization (exact bijections between complex arrays and real tokens)
# ---------------------------------------------------------------------------


def tokenize_eigen(w: np.ndarray) -> np.ndarray:
    """[..., subband, tx] complex -> [..., subband, 2*tx] real, re then im."""
    return np.concatenate([w.real, w.imag], axis=-1)


def detokenize_eigen(tokens: np.ndarray) -> np.ndarray:
    half = tokens.shape[-1] // 2
    return tokens[..., :half] + 1j * tokens[..., half:]


def tokenize_channel(h: np.ndarray) -> np.ndarray:
    """[..., rx, sub, tx] complex -> [..., sub, 2*rx*tx] real tokens."""
    flat = np.swapaxes(h, -3, -2).reshape(h.shape[:-3] + (h.shape[-2], -1))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def detokenize_channel(tokens: np.ndarray, n_rx: int, n_tx: int) -> np.ndarray:
    half = tokens.shape[-1] // 2
    flat = tokens[..., :half] + 1j * tokens[..., half:]
    return np.swapaxes(flat.reshape(flat.shape[:-1] + (n_rx, n_tx)), -3, -2)


# ---------------------------------------------------------------------------
# Mask bias matrices
# ---------------------------------------------------------------------------


def build_mask_bias(kept, n: int, mode: str) -> np.ndarray:
    """Additive attention-logit bias for the encoder mask-attention block.

    paper_literal: every row is the {0,1} keep indicator (+1 on kept keys),
    which only reweights attention. hard: masked keys get a large negative
    bias so their post-softmax weight is numerically zero.
    """
    kept = np.asarray(kept, dtype=np.intp)
    row = np.zeros(n)
    if mode == "paper_literal":
        row[kept] = 1.0
    elif mode == "hard":
        row[:] = HARD_BIAS
        row[kept] = 0.0
    else:
        raise ValueError(f"unknown mask mode {mode!r}")
    return np.tile(row, (n, 1))


def build_decoder_bias(kept, n: int, mode: str) -> np.ndarray:
    """Inverse-mask bias for the first decoder block.

    paper_literal subtracts the encoder bias as written; hard blocks masked
    keys outright so valid rows never attend to initial mask-token content.
    """
    if mode == "paper_literal":
        return -build_mask_bias(kept, n, "paper_literal")
    return build_mask_bias(kept, n, "hard")


# ---------------------------------------------------------------------------
# Parameter container
# ---------------------------------------------------------------------------


def _linear_init(rng, fan_in, fan_out, scale=0.02):
    return rng.standard_normal((fan_in, fan_out)) * scale


class FlowMatModel:
    """Holds every learnable parameter and the forward passes."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.metadata: dict = {}
        rng = np.random.default_rng(cfg.seed)
        p: dict[str, Tensor] = {}

        def param(name, array, trainable=True):
            p[name] = Tensor(array, requires_grad=trainable)

        d, n, dt = cfg.d_model, cfg.n_tokens, cfg.token_dim
        e = cfg.mlp_expansion

        param("in_proj", _linear_init(rng, dt, d))
        param("pos", rng.standard_normal((n, d)) * 0.02)
        for i in range(cfg.encoder_depth):
            self._init_block(rng, param, f"enc{i}", d, e)
        param("enc_out", _linear_init(rng, d, d))

        param("query", rng.standard_normal(n) * 0.02,
              trainable=cfg.learnable_query)
        if cfg.token_reduction == "mlp":
            param("reduce", _linear_init(rng, cfg.keep_count, n))
            param("expand", _linear_init(rng, n, cfg.keep_count))

        param("latent_down", _linear_init(rng, d, cfg.d_latent))
        param("latent_up", _linear_init(rng, cfg.d_latent, d))

        mask_tok = (np.zeros(d) if cfg.mask_token_init == "zero"
                    else rng.standard_normal(d))
        param("mask_token", mask_tok, trainable=cfg.mask_token_trainable)

        param("dec_in", _linear_init(rng, d, d))
        for i in range(cfg.decoder_depth):
            self._init_block(rng, param, f"dec{i}", d, e)
        if not cfg.share_projections:
            param("out_proj", _linear_init(rng, d, dt))

        if cfg.n_pilot_tokens > 0:
            np_, ed = cfg.n_pilot_tokens, cfg.denoiser_expansion
            for i in range(cfg.denoiser_blocks):
                pre = f"mix{i}"
                param(f"{pre}.ln1.g", np.ones(dt))
                param(f"{pre}.ln1.b", np.zeros(dt))
                param(f"{pre}.tok.w1", _linear_init(rng, np_, ed * np_))
                param(f"{pre}.tok.b1", np.zeros(ed * np_))
                param(f"{pre}.tok.w2", _linear_init(rng, ed * np_, np_))
                param(f"{pre}.tok.b2", np.zeros(np_))
                param(f"{pre}.ln2.g", np.ones(dt))
                param(f"{pre}.ln2.b", np.zeros(dt))
                param(f"{pre}.ch.w1", _linear_init(rng, dt, ed * dt))
                param(f"{pre}.ch.b1", np.zeros(ed * dt))
                param(f"{pre}.ch.w2", _linear_init(rng, ed * dt, dt))
                param(f"{pre}.ch.b2", np.zeros(dt))
            # zero init: the denoiser is the identity before training
            param("mix_out", np.zeros((dt, dt)))

        self.params = p

    @staticmethod
    def _init_block(rng, param, pre, d, e):
        param(f"{pre}.ln1.g", np.ones(d))
        param(f"{pre}.ln1.b", np.zeros(d))
        param(f"{pre}.wq", _linear_init(rng, d, d))
        param(f"{pre}.wk", _linear_init(rng, d, d))
        param(f"{pre}.wv", _linear_init(rng, d, d))
        param(f"{pre}.ln2.g", np.ones(d))
        param(f"{pre}.ln2.b", np.zeros(d))
        param(f"{pre}.mlp.w1", _linear_init(rng, d, e * d))
        param(f"{pre}.mlp.b1", np.zeros(e * d))
        param(f"{pre}.mlp.w2", _linear_init(rng, e * d, d))
        param(f"{pre}.mlp.b2", np.zeros(d))

    # -- parameter access -------------------------------------------------

    def parameters(self, prefixes=None):
        """Trainable tensors, optionally restricted to name prefixes."""
        out = []
        for name, t in self.params.items():
            if not t.requires_grad:
                continue
            if prefixes is None or any(name.startswith(pf) for pf in prefixes):
                out.append(t)
        return out

    def set_trainable(self, prefixes, trainable: bool):
        hit = False
        for name, t in self.params.items():
            if any(name.startswith(pf) for pf in prefixes):
                hit = True
                if name == "mask_token" and not self.cfg.mask_token_trainable:
                    continue
                if name == "query" and not self.cfg.learnable_query:
                    continue
                t.requires_grad = trainable
        if not hit:
            raise KeyError(f"no parameters match {prefixes}")

    def kept_indices(self) -> np.ndarray | None:
        """Deployment-time kept set: a deterministic artifact of the query
        (or of the merge grouping); model metadata, never in the payload."""
        cfg = self.cfg
        if cfg.token_reduction == "query":
            order = np.argsort(-self.params["query"].data, kind="stable")
            return np.sort(order[:cfg.keep_count])
        if cfg.token_reduction == "merge":
            size = cfg.n_tokens // cfg.keep_count
            return np.arange(cfg.keep_count) * size + size // 2
        return None  # mlp reduction has no kept set

    # -- attention machinery ----------------------------------------------

    def _attention(self, prefix: str, x: Tensor, bias) -> Tensor:
        """Multi-head attention over ``x`` [..., n, d_model], all heads in
        one batched product; ``bias`` [n, n] adds to every head's logits."""
        p, cfg = self.params, self.cfg
        dh = cfg.d_model // cfg.n_heads
        split = x.data.shape[:-1] + (cfg.n_heads, dh)

        def heads(w):  # [..., n, d_model] -> [..., heads, n, dh]
            y = ad.reshape(ad.matmul(x, p[f"{prefix}.{w}"]), split)
            return ad.transpose(y, axes=(-3, -2))

        q, k, v = heads("wq"), heads("wk"), heads("wv")
        logits = ad.matmul(q, ad.transpose(k))
        if bias is not None:
            logits = ad.add(logits, Tensor(bias))
        att = ad.softmax_rows(ad.mul(logits, 1.0 / math.sqrt(dh)))
        out = ad.transpose(ad.matmul(att, v), axes=(-3, -2))
        return ad.reshape(out, x.data.shape)

    def _block(self, prefix: str, x: Tensor, bias=None) -> Tensor:
        p = self.params
        h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        x = ad.add(x, self._attention(prefix, h, bias))
        h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
        h = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, p[f"{prefix}.mlp.w1"]),
                                            p[f"{prefix}.mlp.b1"])),
                             p[f"{prefix}.mlp.w2"]),
                   p[f"{prefix}.mlp.b2"])
        return ad.add(x, h)

    # -- encoder / decoder -------------------------------------------------

    def encode(self, tokens: Tensor, kept=None) -> Tensor:
        """Input projection + position embedding, common blocks, then the
        mask-attention block, then the output projection."""
        cfg, p = self.cfg, self.params
        if tokens.data.shape[-1] != cfg.token_dim:
            raise ValueError("token width does not match the config")
        if tokens.data.shape[-2] != cfg.n_tokens:
            raise ValueError("token count does not match the config")
        if kept is None:
            kept = self.kept_indices()
        y = ad.add(ad.matmul(tokens, p["in_proj"]), p["pos"])
        for i in range(cfg.encoder_depth - 1):
            y = self._block(f"enc{i}", y)
        bias = (build_mask_bias(kept, cfg.n_tokens, cfg.mask_mode)
                if kept is not None else None)
        y = self._block(f"enc{cfg.encoder_depth - 1}", y, bias)
        return ad.matmul(y, p["enc_out"])

    def decode(self, y3: Tensor, kept=None) -> Tensor:
        """Inverse-mask block first, then common blocks, then the token-width
        output projection."""
        cfg, p = self.cfg, self.params
        if y3.data.shape[-2] != cfg.n_tokens:
            raise ValueError("decoder input must have n_tokens rows")
        y = ad.add(ad.matmul(y3, p["dec_in"]), p["pos"])
        bias = (build_decoder_bias(kept, cfg.n_tokens, cfg.mask_mode)
                if kept is not None else None)
        y = self._block("dec0", y, bias)
        for i in range(1, cfg.decoder_depth):
            y = self._block(f"dec{i}", y)
        out_w = (ad.transpose(p["in_proj"]) if cfg.share_projections
                 else p["out_proj"])
        return ad.matmul(y, out_w)

    # -- pilot denoiser ------------------------------------------------------

    def denoise(self, pilot_tokens: Tensor) -> Tensor:
        """MLP-Mixer: alternating token-mixing / channel-mixing blocks with
        residuals, plus a zero-initialized global output projection so the
        untrained denoiser is exactly the identity."""
        cfg, p = self.cfg, self.params
        if cfg.n_pilot_tokens == 0:
            raise ValueError("model was built without a denoiser")
        if pilot_tokens.data.shape[-2] != cfg.n_pilot_tokens:
            raise ValueError("pilot token count does not match the config")
        x0 = pilot_tokens
        x = x0
        for i in range(cfg.denoiser_blocks):
            pre = f"mix{i}"
            h = ad.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            h = ad.transpose(h)
            h = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, p[f"{pre}.tok.w1"]),
                                                p[f"{pre}.tok.b1"])),
                                 p[f"{pre}.tok.w2"]),
                       p[f"{pre}.tok.b2"])
            x = ad.add(x, ad.transpose(h))
            h = ad.layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            h = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, p[f"{pre}.ch.w1"]),
                                                p[f"{pre}.ch.b1"])),
                                 p[f"{pre}.ch.w2"]),
                       p[f"{pre}.ch.b2"])
            x = ad.add(x, h)
        return ad.add(x0, ad.matmul(x, p["mix_out"]))

    # -- graph-level pipelines ----------------------------------------------

    def feedback_forward(self, tokens: Tensor, quantizer=None,
                         bypass_mask: bool = False, aux: dict = None):
        """Compression round trip on the graph.

        Returns (reconstructed tokens, payload or None, kept indices).
        ``bypass_mask`` runs the plain autoencoder path (no selection, no
        mask-token insertion, no mask biases) for equivalence checks. An
        ``aux`` dict, when given, collects the pre-quantization latent and
        VQ assignment indices for auxiliary losses.
        """
        cfg, p = self.cfg, self.params

        if bypass_mask:
            # Plain autoencoder: no selection, no insertion. The all-kept
            # bias is retained so the path is bit-comparable to m = N.
            all_kept = np.arange(cfg.n_tokens)
            z = self.encode(tokens, kept=all_kept)
            lat = ad.matmul(z, p["latent_down"])
            up = ad.matmul(lat, p["latent_up"])
            return self.decode(up, kept=all_kept), None, None

        kept = self.kept_indices()
        z = self.encode(tokens, kept=kept)
        if cfg.token_reduction == "query":
            z_part, kept = ad.select_active(z, p["query"], cfg.keep_count)
        elif cfg.token_reduction == "mlp":
            z_part = ad.matmul(p["reduce"], z)
        else:  # merge: contiguous group averaging
            size = cfg.n_tokens // cfg.keep_count
            merge = np.zeros((cfg.keep_count, cfg.n_tokens))
            for g in range(cfg.keep_count):
                merge[g, g * size:(g + 1) * size] = 1.0 / size
            z_part = ad.matmul(Tensor(merge), z)

        lat = ad.matmul(z_part, p["latent_down"])
        if aux is not None:
            aux["latent"] = lat
        payload = None
        if isinstance(quantizer, qz.UniformQuantizerSpec):
            lat, _, payload = qz.uniform_quantize_st(lat, quantizer)
        elif isinstance(quantizer, qz.VqCodebook):
            flat = ad.reshape(lat, (-1, cfg.d_latent))
            quantized, idx, payload = qz.vq_apply_st(flat, quantizer)
            if aux is not None:
                aux["latent_flat"] = flat
                aux["vq_indices"] = idx
            lat = ad.reshape(quantized, lat.data.shape)
        elif quantizer is not None:
            raise ValueError("quantizer must be a spec, codebook, or None")

        up = ad.matmul(lat, p["latent_up"])
        if cfg.token_reduction == "mlp":
            y3 = ad.matmul(p["expand"], up)
            rec = self.decode(y3, kept=None)
        else:
            y3 = ad.insert_rows(up, kept, cfg.n_tokens, p["mask_token"])
            rec = self.decode(y3, kept=kept)
        return rec, payload, kept

    def estimate_forward(self, pilot_tokens: Tensor, pilot_positions):
        """Denoise pilots, project and place them at their subcarriers with
        mask tokens elsewhere, decode to the full subcarrier grid.

        Returns (denoised pilot tokens, full-grid reconstructed tokens).
        """
        cfg, p = self.cfg, self.params
        pilot_positions = np.asarray(pilot_positions, dtype=np.intp)
        if pilot_positions.size != cfg.n_pilot_tokens:
            raise ValueError("pilot position count does not match the config")
        den = self.denoise(pilot_tokens)
        y = ad.matmul(den, p["in_proj"])
        y3 = ad.insert_rows(y, pilot_positions, cfg.n_tokens, p["mask_token"])
        rec = self.decode(y3, kept=pilot_positions)
        return den, rec

    # -- checkpoint I/O -------------------------------------------------------

    def save(self, path) -> None:
        cfg_text = "".join(f"{k}={v}\n" for k, v in
                           sorted(asdict(self.cfg).items()))
        meta_text = "".join(f"meta.{k}={v}\n" for k, v in
                            sorted(self.metadata.items()))
        block = (cfg_text + meta_text).encode()

        body = bytearray()
        body += struct.pack("<I", len(block)) + block
        names = sorted(self.params)
        body += struct.pack("<I", len(names))
        for name in names:
            t = self.params[name]
            nb = name.encode()
            body += struct.pack("<H", len(nb)) + nb
            body += struct.pack("<B", t.data.ndim)
            body += struct.pack(f"<{t.data.ndim}I", *t.data.shape)
            body += t.data.astype("<f8").tobytes()
        kept = self.kept_indices()
        kept = np.asarray([] if kept is None else kept, dtype=np.uint32)
        body += struct.pack("<I", kept.size) + kept.astype("<u4").tobytes()

        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(bytes(body))
            fh.write(struct.pack("<I", zlib.crc32(bytes(body))))

    @classmethod
    def load(cls, path) -> "FlowMatModel":
        from .dataio import FormatError

        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        body = raw[8:-4]
        (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
        if crc != zlib.crc32(body):
            raise FormatError("checkpoint CRC mismatch")

        off = 0
        (blen,) = struct.unpack_from("<I", body, off)
        off += 4
        block = body[off:off + blen].decode()
        off += blen
        cfg_kwargs, metadata = {}, {}
        field_types = typing.get_type_hints(ModelConfig)
        for line in block.splitlines():
            key, _, value = line.partition("=")
            if key.startswith("meta."):
                metadata[key[5:]] = parse_value(value, float)
            else:
                cfg_kwargs[key] = parse_value(value, field_types[key])
        model = cls(ModelConfig(**cfg_kwargs))
        model.metadata = metadata

        (count,) = struct.unpack_from("<I", body, off)
        off += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off:off + nlen].decode()
            off += nlen
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", body, off)
            off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            values = np.frombuffer(body, dtype="<f8", count=size, offset=off)
            off += size * 8
            if name not in model.params:
                raise FormatError(f"unknown parameter {name!r} in checkpoint")
            if model.params[name].data.shape != tuple(shape):
                raise FormatError(f"shape mismatch for parameter {name!r}")
            model.params[name].data = values.reshape(shape).copy()
        return model


# ---------------------------------------------------------------------------
# End-to-end pipelines on plain numpy inputs
# ---------------------------------------------------------------------------


def feedback_pipeline(w: np.ndarray, model: FlowMatModel, quantizer=None):
    """Eigen matrices [..., subband, tx] -> payload -> reconstruction.

    Leading axes of ``w`` are samples, run in one tape-free forward pass.
    Reconstructed rows are renormalized to unit norm. Returns (BitPayload
    or None, complex reconstruction shaped like ``w``). The payload holds
    the samples' bit streams back to back, so at a multiple of 8 bits per
    sample its bytes are the per-sample payloads' bytes concatenated.
    """
    norms = np.linalg.norm(w, axis=-1)
    if np.any(norms < 1e-12) or np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("eigen matrix rows must be unit norm")
    with ad.no_tape():
        tokens = Tensor(tokenize_eigen(w))
        rec, payload, _ = model.feedback_forward(tokens, quantizer=quantizer)
    w_rec = detokenize_eigen(rec.data)
    w_rec /= np.linalg.norm(w_rec, axis=-1, keepdims=True)
    return payload, w_rec


def estimate_pipeline(obs, model: FlowMatModel, n_rx: int, n_tx: int) -> np.ndarray:
    """Pilot observation [..., rx, pilot, tx] -> denoise -> mask-token
    completion -> channel [..., rx, subcarrier, tx]; leading axes are
    samples, run in one tape-free forward pass."""
    with ad.no_tape():
        tokens = Tensor(tokenize_channel(obs.data))
        _, rec = model.estimate_forward(tokens, obs.pilot_indices)
    return detokenize_channel(rec.data, n_rx, n_tx)
