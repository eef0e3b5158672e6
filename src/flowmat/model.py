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
from .dataio import FormatError, Reader

HARD_BIAS = -1e9

CHECKPOINT_MAGIC = b"FMW1"
CHECKPOINT_VERSION = 1


@dataclass(kw_only=True)
class _DecoderConfig:
    """The settings of the masked-token decoder, which both networks run."""
    n_tokens: int                 # tokens per sequence
    token_dim: int                # width of one token
    d_model: int = 64
    n_heads: int = 4
    decoder_depth: int = 3        # first decoder block carries the inverse mask
    mask_mode: str = "hard"       # hard | paper_literal
    mlp_expansion: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValueError("need at least one attention head")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.mask_mode not in ("hard", "paper_literal"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if min(self.d_model, self.decoder_depth) < 1:
            raise ValueError("d_model and decoder_depth must be positive")


@dataclass(kw_only=True)
class FeedbackConfig(_DecoderConfig):
    """The feedback network: encoder, query selection, latent, decoder."""
    encoder_depth: int = 3        # last encoder block carries the mask bias
    d_latent: int = 4             # pre-quantization latent width per token
    keep_count: int = 4           # m: tokens kept by active masking

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.keep_count <= self.n_tokens:
            raise ValueError("keep_count outside [1, n_tokens]")
        if min(self.encoder_depth, self.d_latent) < 1:
            raise ValueError("encoder_depth and d_latent must be positive")


@dataclass(kw_only=True)
class EstimationConfig(_DecoderConfig):
    """The estimation network: Mixer pilot denoiser, then the decoder."""
    n_pilot_tokens: int           # pilot subcarriers the denoiser reads
    denoiser_blocks: int = 2
    denoiser_expansion: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.n_pilot_tokens <= self.n_tokens:
            raise ValueError("n_pilot_tokens outside [1, n_tokens]")


def parse_value(text: str, typ: type):
    """The ``key=value`` text form of a setting, as an int, float or str
    ``typ``: run-config lines and ``.fmw`` header lines alike. Raises
    ValueError for text that is not a ``typ``, NaN included."""
    value = typ(text)
    if typ is float and math.isnan(value):
        raise ValueError(f"not a number: {text!r}")
    return value


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


def _init_sublayer(rng, param, pre, norm, mlp, width, d, e):
    """One pre-norm MLP sublayer: layer norm ``pre.norm`` over ``width``
    features, then the ``pre.mlp`` stack d -> e*d -> d."""
    param(f"{pre}.{norm}.g", np.ones(width))
    param(f"{pre}.{norm}.b", np.zeros(width))
    param(f"{pre}.{mlp}.w1", _linear_init(rng, d, e * d))
    param(f"{pre}.{mlp}.b1", np.zeros(e * d))
    param(f"{pre}.{mlp}.w2", _linear_init(rng, e * d, d))
    param(f"{pre}.{mlp}.b2", np.zeros(d))


class FlowMatModel:
    """Holds the learnable parameters its task runs, and the forward passes.
    The config's class sets the task: a ``FeedbackConfig`` builds the
    encoder-decoder, an ``EstimationConfig`` the denoiser and decoder."""

    def __init__(self, cfg: FeedbackConfig | EstimationConfig):
        self.cfg = cfg
        self.estimation = isinstance(cfg, EstimationConfig)
        self.metadata: dict = {}
        rng = np.random.default_rng(cfg.seed)
        p: dict[str, Tensor] = {}

        def param(name, array):
            p[name] = Tensor(array, requires_grad=True)

        d, n, dt = cfg.d_model, cfg.n_tokens, cfg.token_dim
        e = cfg.mlp_expansion

        param("in_proj", _linear_init(rng, dt, d))
        param("pos", rng.standard_normal((n, d)) * 0.02)
        if not self.estimation:  # only feedback encodes and compresses
            for i in range(cfg.encoder_depth):
                self._init_block(rng, param, f"enc{i}", d, e)
            param("enc_out", _linear_init(rng, d, d))
            param("query", rng.standard_normal(n) * 0.02)
            param("latent_down", _linear_init(rng, d, cfg.d_latent))
            param("latent_up", _linear_init(rng, cfg.d_latent, d))

        param("mask_token", np.zeros(d))
        param("dec_in", _linear_init(rng, d, d))
        for i in range(cfg.decoder_depth):
            self._init_block(rng, param, f"dec{i}", d, e)
        param("out_proj", _linear_init(rng, d, dt))

        if self.estimation:
            np_, ed = cfg.n_pilot_tokens, cfg.denoiser_expansion
            for i in range(cfg.denoiser_blocks):
                pre = f"mix{i}"
                _init_sublayer(rng, param, pre, "ln1", "tok", dt, np_, ed)
                _init_sublayer(rng, param, pre, "ln2", "ch", dt, dt, ed)
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
        _init_sublayer(rng, param, pre, "ln2", "mlp", d, d, e)

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
                t.requires_grad = trainable
        if not hit:
            raise KeyError(f"no parameters match {prefixes}")

    def kept_indices(self) -> np.ndarray | None:
        """Deployment-time kept set: a deterministic artifact of the query;
        model metadata, never in the payload."""
        if self.estimation:  # estimation keeps the pilot positions
            return None
        return ad.top_rows(self.params["query"].data, self.cfg.keep_count)

    # -- attention machinery ----------------------------------------------

    def _attention(self, prefix: str, x: Tensor, bias) -> Tensor:
        """Multi-head attention over ``x`` [..., n, d_model]; ``bias``
        [n, n] adds to every head's logits."""
        p = self.params
        return ad.attention(x, p[f"{prefix}.wq"], p[f"{prefix}.wk"],
                            p[f"{prefix}.wv"], bias, self.cfg.n_heads)

    def _norm(self, name: str, x: Tensor) -> Tensor:
        p = self.params
        return ad.layer_norm(x, p[f"{name}.g"], p[f"{name}.b"])

    def _mlp(self, name: str, h: Tensor) -> Tensor:
        """Linear, GELU, linear over the last axis of ``h``."""
        p = self.params
        return ad.mlp(h, p[f"{name}.w1"], p[f"{name}.b1"], p[f"{name}.w2"],
                      p[f"{name}.b2"])

    def _block(self, prefix: str, x: Tensor, bias=None) -> Tensor:
        h = self._norm(f"{prefix}.ln1", x)
        x = ad.add(x, self._attention(prefix, h, bias))
        h = self._norm(f"{prefix}.ln2", x)
        return ad.add(x, self._mlp(f"{prefix}.mlp", h))

    # -- encoder / decoder -------------------------------------------------

    def encode(self, tokens: Tensor, kept=None) -> Tensor:
        """Input projection + position embedding, common blocks, then the
        mask-attention block (no mask bias when ``kept`` is None), then the
        output projection."""
        cfg, p = self.cfg, self.params
        if self.estimation:
            raise ValueError("the estimation network has no encoder")
        if tokens.data.shape[-1] != cfg.token_dim:
            raise ValueError("token width does not match the config")
        if tokens.data.shape[-2] != cfg.n_tokens:
            raise ValueError("token count does not match the config")
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
        return ad.matmul(y, p["out_proj"])

    # -- pilot denoiser ------------------------------------------------------

    def denoise(self, pilot_tokens: Tensor) -> Tensor:
        """MLP-Mixer: alternating token-mixing / channel-mixing blocks with
        residuals, plus a zero-initialized global output projection so the
        untrained denoiser is exactly the identity."""
        cfg, p = self.cfg, self.params
        if not self.estimation:
            raise ValueError("the feedback network has no denoiser")
        if pilot_tokens.data.shape[-2] != cfg.n_pilot_tokens:
            raise ValueError("pilot token count does not match the config")
        x0 = pilot_tokens
        x = x0
        for i in range(cfg.denoiser_blocks):
            pre = f"mix{i}"
            h = ad.transpose(self._norm(f"{pre}.ln1", x))  # mix over tokens
            x = ad.add(x, ad.transpose(self._mlp(f"{pre}.tok", h)))
            h = self._norm(f"{pre}.ln2", x)
            x = ad.add(x, self._mlp(f"{pre}.ch", h))
        return ad.add(x0, ad.matmul(x, p["mix_out"]))

    # -- graph-level pipelines ----------------------------------------------

    def feedback_forward(self, tokens: Tensor, quantizer=None, aux: dict = None):
        """Compression round trip on the graph.

        Returns (reconstructed tokens, payload or None, kept indices). An
        ``aux`` dict, when given, collects the pre-quantization latent.
        """
        cfg, p = self.cfg, self.params
        z = self.encode(tokens, kept=self.kept_indices())
        z_part, kept = ad.select_active(z, p["query"], cfg.keep_count)
        lat = ad.matmul(z_part, p["latent_down"])
        if aux is not None:
            aux["latent"] = lat
        payload = None
        if isinstance(quantizer, qz.UniformQuantizerSpec):
            lat, _, payload = qz.uniform_quantize_st(lat, quantizer)
        elif quantizer is not None:
            raise ValueError("quantizer must be a UniformQuantizerSpec or None")

        up = ad.matmul(lat, p["latent_up"])
        y3 = ad.insert_rows(up, kept, cfg.n_tokens, p["mask_token"])
        return self.decode(y3, kept=kept), payload, kept

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
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())
        reader = Reader(raw[:-4], "checkpoint")  # raw[-4:]: CRC32 of raw[8:-4]
        take = reader.take
        if len(raw) < 12 or take("<4s")[0] != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = take("<I")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if zlib.crc32(raw[8:-4]) != int.from_bytes(raw[-4:], "little"):
            raise FormatError("checkpoint CRC mismatch")
        (blen,) = take("<I")
        (block,) = take(f"<{blen}s")
        cfg_kwargs, metadata = {}, {}
        try:
            lines = [line.partition("=")[::2]
                     for line in block.decode().splitlines()]
            # only an estimation network's header has an n_pilot_tokens line
            config_cls = (EstimationConfig if "n_pilot_tokens" in dict(lines)
                          else FeedbackConfig)
            field_types = typing.get_type_hints(config_cls)
            for key, value in lines:
                if key.startswith("meta."):
                    metadata[key[5:]] = parse_value(value, float)
                elif key in field_types:
                    cfg_kwargs[key] = parse_value(value, field_types[key])
                else:
                    raise ValueError(f"unknown key {key!r}")
            model = cls(config_cls(**cfg_kwargs))
        except (ValueError, TypeError) as exc:  # TypeError: a missing key
            raise FormatError(f"bad checkpoint header: {exc}") from exc
        model.metadata = metadata

        (count,) = take("<I")
        missing = set(model.params)
        for _ in range(count):
            (nlen,) = take("<H")
            # a name that is not UTF-8 names no parameter either
            name = take(f"<{nlen}s")[0].decode(errors="replace")
            (ndim,) = take("<B")
            shape = take(f"<{ndim}I")
            values = np.frombuffer(take(f"<{8 * math.prod(shape)}s")[0],
                                   dtype="<f8")
            if name not in model.params:
                raise FormatError(f"unknown parameter {name!r} in checkpoint")
            if model.params[name].data.shape != tuple(shape):
                raise FormatError(f"shape mismatch for parameter {name!r}")
            model.params[name].data = values.reshape(shape).copy()
            missing.discard(name)
        if missing:
            raise FormatError(f"checkpoint lacks parameters {sorted(missing)}")
        (n_kept,) = take("<I")
        kept, expected = take(f"<{n_kept}I"), model.kept_indices()
        if list(kept) != ([] if expected is None else list(expected)):
            raise FormatError(f"checkpoint kept indices {list(kept)} differ "
                              "from the model's")
        reader.end()
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
