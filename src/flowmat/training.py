"""Loss functions and training regimes.

The feedback task takes no regime (``train_feedback``, with an
optional quantizer fine-tune). The estimate task takes ``progressive``
(denoiser first, then the completion decoder with the denoiser frozen)
or ``joint`` (both reconstruction losses at once); the joint task takes
``end_to_end`` (pilots through estimation, differentiable eigen
extraction and the feedback model under one similarity loss) or
``splited`` (independent training, composed only at evaluation time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import linalg
from .autodiff import Adam, Tensor
from .channel import SystemGeometry, observe_pilots
from .model import FlowMatModel, tokenize_channel, tokenize_eigen


class DivergenceError(RuntimeError):
    """Loss exceeded 10x its initial value for too many consecutive steps."""


DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 100  # consecutive steps above the factor that abort

DENOISER = ("mix",)  # name prefix of the estimation network's Mixer


@dataclass
class TrainConfig:
    steps: int = 1000             # steps per phase
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    snr_db_min: float = 10.0
    snr_db_max: float = 10.0
    eig_iterations: int = 30      # unrolled power-iteration depth (end_to_end)

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.eig_iterations) < 1:
            raise ValueError("steps, batch size and eig_iterations must be "
                             "positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, not {self.lr}")
        snrs = (self.snr_db_min, self.snr_db_max)
        if snrs != (math.inf, math.inf) and not all(map(math.isfinite, snrs)):
            raise ValueError("the training SNR range must be finite, or "
                             "inf to inf for noiseless pilots")


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)
    phases: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        lines = ["step,loss,phase"]
        lines += [f"{i},{loss!r},{phase}" for i, (loss, phase)
                  in enumerate(zip(self.losses, self.phases))]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Losses (all differentiable, operating on real token arrays)
# ---------------------------------------------------------------------------


def loss_ce(pred: Tensor, target: np.ndarray) -> Tensor:
    """Normalized root squared error sqrt(sum(err^2) / sum(target^2))."""
    target = np.asarray(target, dtype=np.float64)
    err = ad.sub(pred, Tensor(target))
    num = ad.tsum(ad.square(err))
    denom = float((target**2).sum())
    if denom == 0.0:
        raise ZeroDivisionError("all-zero targets")
    return ad.sqrt(ad.mul(num, 1.0 / denom))


_RHO_EPS = 1e-24


def rho_tokens(pred: Tensor, true: np.ndarray) -> Tensor:
    """Mean |<w, w'>| / (||w|| ||w'||) over token rows, on the graph.

    Tokens are [re halves | im halves]; the inner product is the complex one
    reconstructed from the two halves.
    """
    true = np.asarray(true, dtype=np.float64)
    half = true.shape[-1] // 2
    pr = ad.narrow(pred, -1, 0, half)
    pi = ad.narrow(pred, -1, half, 2 * half)
    tr, ti = Tensor(true[..., :half]), Tensor(true[..., half:])
    num_re = ad.rowsum(ad.add(ad.mul(tr, pr), ad.mul(ti, pi)))
    num_im = ad.rowsum(ad.sub(ad.mul(tr, pi), ad.mul(ti, pr)))
    num = ad.sqrt(ad.add(ad.add(ad.square(num_re), ad.square(num_im)),
                         Tensor(_RHO_EPS)))
    p_norm = ad.sqrt(ad.add(ad.rowsum(ad.add(ad.square(pr), ad.square(pi))),
                            Tensor(_RHO_EPS)))
    t_norm = np.sqrt((true**2).sum(axis=-1, keepdims=True))
    if np.any(t_norm == 0.0):
        raise ZeroDivisionError("zero-norm row in the reference eigenvectors")
    cells = ad.div(num, ad.mul(p_norm, Tensor(t_norm)))
    return ad.tmean(cells)


def loss_cf(pred: Tensor, true: np.ndarray) -> Tensor:
    """1 - Rho: the minimized complement of the similarity metric."""
    return ad.sub(Tensor(1.0), rho_tokens(pred, true))


# ---------------------------------------------------------------------------
# Differentiable eigen extraction (end-to-end regime)
# ---------------------------------------------------------------------------


def differentiable_precoders(tokens: Tensor, n_rx: int, n_tx: int,
                             n_subband: int, iterations: int = 30) -> Tensor:
    """Per-subband dominant eigenvector via unrolled power iteration.

    ``tokens`` are channel tokens [..., n_sub, 2*n_rx*n_tx]; the result is
    an eigen token tensor [..., n_subband, 2*n_tx]. The whole computation is
    ordinary graph arithmetic, so gradients flow back into the channel
    estimate. Rows are unit norm by construction (last normalization step).
    Subbands are a batch axis, so the iterations run once for all of them.
    """
    half = n_rx * n_tx
    lead, n_sub = tokens.data.shape[:-2], tokens.data.shape[-2]
    if n_sub % n_subband != 0:
        raise ValueError("n_subband must divide the subcarrier count")

    # Real embedding of each subband's Gram matrix A = H^H H: the tokens as
    # rows x hold re and im of every (subcarrier, antenna) row of H, z holds
    # -im and re, and m = [x | z] gives m^T m = [[Re A, -Im A], [Im A, Re A]],
    # which maps [re v; im v] to [re Av; im Av].
    rows = lead + (n_subband, 2 * (n_sub // n_subband) * n_rx, n_tx)
    z = ad.concat([ad.mul(ad.narrow(tokens, -1, half, 2 * half), -1.0),
                   ad.narrow(tokens, -1, 0, half)])
    m = ad.concat([ad.reshape(tokens, rows), ad.reshape(z, rows)])
    a = ad.matmul(ad.transpose(m), m)

    v0 = linalg.start_vector(n_tx)
    v = Tensor(np.concatenate([v0.real, v0.imag]).reshape(2 * n_tx, 1))
    for _ in range(iterations):
        av = ad.matmul(a, v)
        norm = ad.sqrt(ad.add(ad.tsum(ad.square(av), axis=(-2, -1),
                                      keepdims=True), Tensor(1e-30)))
        v = ad.div(av, norm)
    # v is the [re; im] column of each eigenvector, so its transpose is a token
    return ad.reshape(ad.transpose(v), lead + (n_subband, 2 * n_tx))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _step_lr(cfg: TrainConfig, step: int, total: int) -> float:
    """Cosine decay from ``cfg.lr`` at step 0 towards 0 at ``total``."""
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(total, 1)))


def _estimation_batch(channels, geom: SystemGeometry, idx, cfg: TrainConfig,
                      rng):
    """Noisy pilot tokens, clean pilot tokens and full-grid tokens for a
    batch of channel samples; noise is resampled fresh every call.

    Each sample is rotated by a fresh global unit phase. Path gains are
    circularly symmetric, so the rotated channel has the same distribution
    as the original and the rotation only widens the effective training set.
    """
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(len(idx), 1, 1, 1))
    h = np.stack([channels[i] for i in idx]) * np.exp(1j * phase)
    snr = (cfg.snr_db_min if cfg.snr_db_min == cfg.snr_db_max
           else rng.uniform(cfg.snr_db_min, cfg.snr_db_max, size=len(idx)))
    noisy = tokenize_channel(observe_pilots(h, geom, snr, rng).data)
    full = tokenize_channel(h)
    # take, not full[:, idx]: its C order sums like stacked pilot tokens
    clean = np.take(full, geom.pilot_pattern.pilot_indices, axis=1)
    return noisy, clean, full


def _fit(report: TrainReport, params, cfg: TrainConfig, n: int, rng,
         loss_fn, phase: int = 1) -> None:
    """``cfg.steps`` Adam steps on ``params`` under the lr schedule and the
    divergence guard; ``loss_fn(idx)`` builds the loss of a batch drawn
    without replacement from ``range(n)``. The indices are drawn from
    ``rng`` before ``loss_fn`` runs, and losses that draw pilot noise from
    the same generator rely on that order for their results.

    ``bench/tracer.py`` delimits a step by its ``_step_lr`` call and its
    optimizer step and credits the model, loss and ``_step_lr`` calls
    made directly under a trainer to that step, so those are called
    through their module-level names.
    """
    opt = Adam(params, lr=cfg.lr)
    initial, streak = None, 0
    for step in range(cfg.steps):
        opt.lr = _step_lr(cfg, step, cfg.steps)
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        opt.zero_grad()
        loss = loss_fn(idx)
        loss.backward()
        opt.step()
        val = float(loss.data)
        del loss  # the graph goes before the next forward builds one
        if not math.isfinite(val):
            raise DivergenceError(f"non-finite loss {val}")
        if initial is None:
            initial = max(abs(val), 1e-12)
        elif val > DIVERGENCE_FACTOR * initial:
            streak += 1
            if streak >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss {val:.3g} above {DIVERGENCE_FACTOR}x initial for "
                    f"{streak} consecutive steps")
        else:
            streak = 0
        report.losses.append(val)
        report.phases.append(phase)


def train_progressive(model: FlowMatModel, channels, geom: SystemGeometry,
                      cfg: TrainConfig) -> TrainReport:
    """Phase 1 trains the denoiser on the pilot loss; phase 2 freezes it and
    trains the completion decoder on the full-grid loss."""
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)

    def pilot_loss(idx):
        noisy, clean, _ = _estimation_batch(channels, geom, idx, cfg, rng)
        return loss_ce(model.denoise(Tensor(noisy)), clean)

    def grid_loss(idx):
        noisy, _, full = _estimation_batch(channels, geom, idx, cfg, rng)
        _, rec = model.estimate_forward(Tensor(noisy),
                                        geom.pilot_pattern.pilot_indices)
        return loss_ce(rec, full)

    _fit(report, model.parameters(DENOISER), cfg, len(channels), rng,
         pilot_loss)
    model.set_trainable(DENOISER, False)
    try:
        _fit(report, model.parameters(), cfg, len(channels), rng,
             grid_loss, phase=2)
    finally:
        model.set_trainable(DENOISER, True)
    return report


def train_joint_estimation(model: FlowMatModel, channels,
                           geom: SystemGeometry, cfg: TrainConfig) -> TrainReport:
    """Minimize the pilot and full-grid losses simultaneously."""
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)

    def loss_fn(idx):
        noisy, clean, full = _estimation_batch(channels, geom, idx, cfg, rng)
        den, rec = model.estimate_forward(Tensor(noisy),
                                          geom.pilot_pattern.pilot_indices)
        return ad.add(loss_ce(den, clean), loss_ce(rec, full))

    _fit(report, model.parameters(), cfg, len(channels), rng, loss_fn)
    return report


def train_feedback(model: FlowMatModel, eigenmatrices, cfg: TrainConfig,
                   quantizer=None) -> TrainReport:
    """Train the compression/feedback autoencoder on 1 - Rho; with a
    ``UniformQuantizerSpec`` quantizer the latent is quantized
    straight-through (quantization-aware fine-tuning)."""
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    tokens_all = tokenize_eigen(np.stack(eigenmatrices))

    def loss_fn(idx):
        batch = tokens_all[idx]
        rec, _, _ = model.feedback_forward(Tensor(batch), quantizer=quantizer)
        return loss_cf(rec, batch)

    _fit(report, model.parameters(), cfg, len(tokens_all), rng, loss_fn)
    return report


def train_end_to_end(est_model: FlowMatModel, fb_model: FlowMatModel,
                     channels, eigens, geom: SystemGeometry,
                     cfg: TrainConfig) -> TrainReport:
    """Pilots -> estimation -> in-graph eigen extraction -> feedback, under
    one 1 - Rho objective against ``eigens``, the labels of ``channels``."""
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    targets = tokenize_eigen(np.stack(eigens))

    def loss_fn(idx):
        noisy, _, _ = _estimation_batch(channels, geom, idx, cfg, rng)
        _, rec_full = est_model.estimate_forward(
            Tensor(noisy), geom.pilot_pattern.pilot_indices)
        eig_tokens = differentiable_precoders(
            rec_full, geom.n_rx, geom.n_tx, geom.n_subband,
            iterations=cfg.eig_iterations)
        fb_rec, _, _ = fb_model.feedback_forward(eig_tokens)
        return loss_cf(fb_rec, targets[idx])

    _fit(report, est_model.parameters() + fb_model.parameters(), cfg,
         len(channels), rng, loss_fn)
    return report


def train_splited(est_model: FlowMatModel, fb_model: FlowMatModel,
                  channels, eigens, geom: SystemGeometry, cfg: TrainConfig):
    """Independent training of the two networks, the feedback one on
    ``eigens``; composition happens only at evaluation time on frozen
    parameters (no gradient coupling)."""
    est_report = train_progressive(est_model, channels, geom, cfg)
    fb_report = train_feedback(fb_model, eigens, cfg)
    return est_report, fb_report
