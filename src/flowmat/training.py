"""Loss functions and training regimes.

Three compositions are supported for the joint task: ``progressive``
(denoiser first, then the completion decoder with the denoiser frozen),
``joint`` (both reconstruction losses at once), ``end_to_end`` (pilots
through estimation, differentiable eigen extraction, and the feedback
model under a single similarity loss) and ``splited`` (independent
training, composed only at evaluation time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import quantizer as qz
from .autodiff import Adam, Tensor
from .channel import SystemGeometry, observe_pilots
from .model import FlowMatModel, tokenize_channel, tokenize_eigen


class DivergenceError(RuntimeError):
    """Loss exceeded 10x its initial value for too many consecutive steps."""


DIVERGENCE_FACTOR = 10.0


@dataclass
class TrainConfig:
    steps: int = 1000             # steps per phase
    batch_size: int = 16
    lr: float = 1e-3
    lr_schedule: str = "cosine"   # cosine | constant
    seed: int = 0
    snr_db_min: float = 10.0
    snr_db_max: float = 10.0
    loss_mode: str = "canonical"  # canonical | paper_literal
    divergence_patience: int = 100
    eig_iterations: int = 30      # unrolled power-iteration depth (end_to_end)

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.eig_iterations) < 1:
            raise ValueError("steps, batch size and eig_iterations must be "
                             "positive")
        if self.loss_mode not in ("canonical", "paper_literal"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


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


def loss_ce(pred: Tensor, target: np.ndarray, mode: str = "canonical") -> Tensor:
    """Normalized root squared error sqrt(sum(err^2) / denominator).

    canonical divides by the target energy; paper_literal divides by the
    prediction energy as the training equations are written.
    """
    target = np.asarray(target, dtype=np.float64)
    err = ad.sub(pred, Tensor(target))
    num = ad.tsum(ad.square(err))
    if mode == "canonical":
        denom = float((target**2).sum())
        if denom == 0.0:
            raise ZeroDivisionError("all-zero targets in canonical mode")
        return ad.sqrt(ad.mul(num, 1.0 / denom))
    if mode == "paper_literal":
        return ad.sqrt(ad.div(num, ad.tsum(ad.square(pred))))
    raise ValueError(f"unknown loss mode {mode!r}")


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
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    v0 /= np.linalg.norm(v0)

    # x holds the re and the im row of every (subcarrier, antenna) of a
    # subband; y holds im and -re at the same places, so that
    # x^T x = sum re^T re + im^T im and x^T y = sum re^T im - im^T re.
    rows = lead + (n_subband, 2 * (n_sub // n_subband) * n_rx, n_tx)
    x = ad.reshape(tokens, rows)
    y = ad.reshape(ad.concat([ad.narrow(tokens, -1, half, 2 * half),
                              ad.mul(ad.narrow(tokens, -1, 0, half), -1.0)]),
                   rows)
    x_t = ad.transpose(x)
    a_re, a_im = ad.matmul(x_t, x), ad.matmul(x_t, y)

    v_re = Tensor(v0.real.reshape(n_tx, 1))
    v_im = Tensor(v0.imag.reshape(n_tx, 1))
    for _ in range(iterations):
        nv_re = ad.sub(ad.matmul(a_re, v_re), ad.matmul(a_im, v_im))
        nv_im = ad.add(ad.matmul(a_re, v_im), ad.matmul(a_im, v_re))
        norm = ad.sqrt(ad.add(
            ad.tsum(ad.add(ad.square(nv_re), ad.square(nv_im)),
                    axis=(-2, -1), keepdims=True),
            Tensor(1e-30)))
        v_re, v_im = ad.div(nv_re, norm), ad.div(nv_im, norm)
    row = ad.concat([ad.transpose(v_re), ad.transpose(v_im)], axis=-1)
    return ad.reshape(row, lead + (n_subband, 2 * n_tx))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _step_lr(cfg: TrainConfig, step: int, total: int) -> float:
    if cfg.lr_schedule == "cosine":
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(total, 1)))
    return cfg.lr


def _estimation_batch(channels, geom: SystemGeometry, idx, cfg: TrainConfig,
                      rng):
    """Noisy pilot tokens, clean pilot tokens and full-grid tokens for a
    batch of channel samples; noise is resampled fresh every call.

    Each sample is rotated by a fresh global unit phase. Path gains are
    circularly symmetric, so the rotated channel has the same distribution
    as the original and the rotation only widens the effective training set.
    """
    noisy, full = [], []
    for i in idx:
        h = channels[i] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        snr = (cfg.snr_db_min if cfg.snr_db_min == cfg.snr_db_max
               else rng.uniform(cfg.snr_db_min, cfg.snr_db_max))
        obs = observe_pilots(h, geom, snr, seed=int(rng.integers(2**31)))
        noisy.append(tokenize_channel(obs.data))
        full.append(tokenize_channel(h))
    full = np.stack(full)
    # take, not full[:, idx]: its C order sums like stacked pilot tokens
    clean = np.take(full, geom.pilot_pattern.pilot_indices, axis=1)
    return np.stack(noisy), clean, full


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
        if not math.isfinite(val):
            raise DivergenceError(f"non-finite loss {val}")
        if initial is None:
            initial = max(abs(val), 1e-12)
        elif val > DIVERGENCE_FACTOR * initial:
            streak += 1
            if streak >= cfg.divergence_patience:
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
        return loss_ce(model.denoise(Tensor(noisy)), clean, cfg.loss_mode)

    def grid_loss(idx):
        noisy, _, full = _estimation_batch(channels, geom, idx, cfg, rng)
        _, rec = model.estimate_forward(Tensor(noisy),
                                        geom.pilot_pattern.pilot_indices)
        return loss_ce(rec, full, cfg.loss_mode)

    _fit(report, model.parameters(["mix"]), cfg, len(channels), rng,
         pilot_loss)
    model.set_trainable(["mix"], False)
    try:
        decoder_side = ["in_proj", "mask_token", "pos", "dec", "out_proj"]
        _fit(report, model.parameters(decoder_side), cfg, len(channels), rng,
             grid_loss, phase=2)
    finally:
        model.set_trainable(["mix"], True)
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
        return ad.add(loss_ce(den, clean, cfg.loss_mode),
                      loss_ce(rec, full, cfg.loss_mode))

    _fit(report, model.parameters(), cfg, len(channels), rng, loss_fn)
    return report


def train_feedback(model: FlowMatModel, eigenmatrices, cfg: TrainConfig,
                   quantizer=None) -> TrainReport:
    """Train the compression/feedback autoencoder on 1 - Rho.

    With a VQ codebook quantizer, the codebook and commitment losses are
    added and the codebook vectors train by gradient.
    """
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    tokens_all = np.stack([tokenize_eigen(w) for w in eigenmatrices])
    vq = isinstance(quantizer, qz.VqCodebook)
    params = model.parameters() + ([quantizer.vectors] if vq else [])

    def loss_fn(idx):
        batch = tokens_all[idx]
        aux = {}
        rec, _, _ = model.feedback_forward(Tensor(batch), quantizer=quantizer,
                                           aux=aux)
        loss = loss_cf(rec, batch)
        if vq:
            cb_loss, commit = qz.vq_losses(aux["latent_flat"], quantizer,
                                           aux["vq_indices"])
            loss = ad.add(loss, ad.add(cb_loss, commit))
        return loss

    _fit(report, params, cfg, len(tokens_all), rng, loss_fn)
    return report


def train_end_to_end(est_model: FlowMatModel, fb_model: FlowMatModel,
                     channels, eigens, geom: SystemGeometry,
                     cfg: TrainConfig) -> TrainReport:
    """Pilots -> estimation -> in-graph eigen extraction -> feedback, under
    one 1 - Rho objective against ``eigens``, the labels of ``channels``."""
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    targets = np.stack([tokenize_eigen(w) for w in eigens])

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
