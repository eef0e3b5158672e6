"""Metrics, classical baselines and the reproducible experiment runner."""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataio
from .channel import (MultipathProfile, SystemGeometry, compute_precoders,
                      every_kth_pattern, generate_batch, interpolate_frequency,
                      ls_estimate, observe_pilots)
from .model import (EstimationConfig, FeedbackConfig, FlowMatModel,
                    estimate_pipeline, feedback_pipeline, parse_value,
                    tokenize_eigen)
from .quantizer import (UniformQuantizerSpec, calibrate_uniform_mse,
                        make_codebook, payload_bits, uniform_dequantize,
                        uniform_quantize)
from .training import TrainConfig, train_feedback, train_joint_estimation, \
    train_progressive, train_splited, train_end_to_end

NMSE_FLOOR_DB = -120.0


class ConfigError(ValueError):
    """Raised for unknown keys or malformed values in a run configuration."""


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def nmse_db(estimate, truth) -> float:
    """10 log10( sum|err|^2 / sum|truth|^2 ), clamped at -120 dB."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError("estimate/truth shape mismatch")
    denom = float(np.sum(np.abs(truth) ** 2))
    if denom == 0.0:
        raise ValueError("all-zero truth")
    num = float(np.sum(np.abs(estimate - truth) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(num / denom), NMSE_FLOOR_DB)


def rho(w_true, w_pred) -> float:
    """Mean |<w, w'>| / (||w|| ||w'||) over all rows of all samples."""
    w_true = np.asarray(w_true)
    w_pred = np.asarray(w_pred)
    if w_true.shape != w_pred.shape:
        raise ValueError("eigenvector batch shape mismatch")
    rows_t = w_true.reshape(-1, w_true.shape[-1])
    rows_p = w_pred.reshape(-1, w_pred.shape[-1])
    nt = np.linalg.norm(rows_t, axis=1)
    np_ = np.linalg.norm(rows_p, axis=1)
    if np.any(nt == 0.0) or np.any(np_ == 0.0):
        raise ValueError("zero-norm eigenvector row")
    inner = np.abs(np.sum(rows_t.conj() * rows_p, axis=1))
    return float(np.mean(inner / (nt * np_)))


def freq_correlation(x: np.ndarray) -> np.ndarray:
    """|<x_i, x_j>| / (||x_i|| ||x_j||) over spatial vectors per frequency unit.

    Accepts a channel tensor [rx, subcarrier, tx] or an eigen matrix
    [subband, tx]. Zero-norm vectors give NaN cells with a warning.
    """
    x = np.asarray(x)
    if x.ndim == 3:
        vecs = np.transpose(x, (1, 0, 2)).reshape(x.shape[1], -1)
    elif x.ndim == 2:
        vecs = x
    else:
        raise ValueError("expect a 2-D or 3-D complex array")
    if vecs.shape[0] < 2:
        raise ValueError("need at least 2 frequency units")
    norms = np.linalg.norm(vecs, axis=1)
    gram = np.abs(vecs.conj() @ vecs.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = gram / np.outer(norms, norms)
    if np.any(norms == 0.0):
        warnings.warn("zero-norm frequency vector: NaN correlation cells")
    return corr


def baseline_truncation(w: np.ndarray, bits, quant_bits: int = 2) -> np.ndarray:
    """Non-learned feedback baseline at a given bit budget.

    Per matrix of ``w`` [..., subband, tx], keeps the first subbands that
    fit (each costs 2*n_tx*quant_bits bits for its uniformly quantized
    real/imag parts), holds the last kept row for the rest, and
    renormalizes. ``bits=None`` means an unconstrained budget.
    """
    n_subband, n_tx = w.shape[-2:]
    if bits is None or math.isinf(bits):
        keep = n_subband
        out = w.astype(np.complex128).copy()
    else:
        cost = 2 * n_tx * quant_bits
        keep = min(int(bits) // cost, n_subband)
        if keep < 1:
            raise ValueError(f"budget {bits} cannot keep any subband")
        spec = UniformQuantizerSpec(bits=quant_bits, lo=-1.0, hi=1.0)
        out = np.empty_like(w, dtype=np.complex128)
        kept = w[..., :keep, :]
        out[..., :keep, :] = (
            uniform_dequantize(uniform_quantize(kept.real, spec)[0], spec)
            + 1j * uniform_dequantize(uniform_quantize(kept.imag, spec)[0],
                                      spec))
    out[..., keep:, :] = out[..., keep - 1:keep, :]  # hold interpolation
    out /= np.linalg.norm(out, axis=-1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# The keys spelled out here have no dataclass default. Every other key is a
# field of the run's dataclasses and takes that field's default. The fields
# with no default, the token shape and the pilot count, follow from the
# geometry.
DEFAULTS = {
    # task / orchestration
    "task": "feedback",            # feedback | estimate | joint
    "regime": "progressive",       # see TASK_REGIMES
    # geometry sizes and the pilot comb
    "n_tx": 8,
    "n_rx": 2,
    "n_sub": 32,
    "n_subband": 8,
    "pilot_step": 2,
    "pilot_offset": 0,
    # dataset
    "n_samples": 64,
    "train_fraction": 0.95,
    # quantization / evaluation
    "quantizer": "uniform",        # uniform | vq
    "finetune_steps": 1000,        # quantization-aware steps per bit budget
    "vq_codebook_size": 256,
    "budgets": "64,128,256",
    "eval_snrs_db": "0,10,20",
    **{f.name: f.default
       for cls in (SystemGeometry, MultipathProfile, FeedbackConfig,
                   EstimationConfig, TrainConfig)
       for f in fields(cls) if f.default is not MISSING},
}

# the regimes each task trains with; feedback has one and ignores ``regime``
TASK_REGIMES = {"feedback": (), "estimate": ("progressive", "joint"),
                "joint": ("end_to_end", "splited")}


def parse_config(path) -> dict:
    """Flat key=value text file over the DEFAULTS schema."""
    cfg = dict(DEFAULTS)
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = parse_value(value, type(DEFAULTS[key]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _geometry(cfg: dict) -> SystemGeometry:
    try:
        pattern = every_kth_pattern(cfg["n_sub"], cfg["pilot_step"],
                                    cfg["pilot_offset"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _from_cfg(SystemGeometry, cfg, pilot_pattern=pattern)


def _profile(cfg: dict) -> MultipathProfile:
    return _from_cfg(MultipathProfile, cfg)


def _n_train(cfg: dict) -> int:
    """Training samples of the split: the first ``train_fraction`` of them,
    leaving at least one test sample."""
    if not math.isfinite(cfg["train_fraction"]):
        raise ConfigError(f"train_fraction must be finite, not "
                          f"{cfg['train_fraction']}")
    return min(int(cfg["train_fraction"] * cfg["n_samples"]),
               cfg["n_samples"] - 1)


def _token_shape(cfg: dict, estimation: bool) -> dict:
    """The network config fields that the geometry fixes, for the
    estimation network (one token per subcarrier, pilot denoiser) or the
    feedback network (one token per subband)."""
    if estimation:
        return dict(n_tokens=cfg["n_sub"],
                    token_dim=2 * cfg["n_tx"] * cfg["n_rx"],
                    n_pilot_tokens=_geometry(cfg).pilot_pattern.n_pilots)
    return dict(n_tokens=cfg["n_subband"], token_dim=2 * cfg["n_tx"])


def check_checkpoint_geometry(model: FlowMatModel, cfg: dict) -> None:
    """ConfigError unless ``model`` was built for the geometry of ``cfg``."""
    want = _token_shape(cfg, model.estimation)
    got = {key: getattr(model.cfg, key) for key in want}
    if got != want:
        raise ConfigError(f"the checkpoint was built for {got}, but the "
                          f"config's geometry needs {want}")


def make_dataset(cfg: dict):
    """Synthesize channels and their eigen-precoder labels, each a list of
    per-sample arrays; 95/5 split by sample index (first block trains, last
    block tests)."""
    if cfg["n_samples"] < 1:
        raise ConfigError(f"n_samples must be >= 1, not {cfg['n_samples']}")
    geom = _geometry(cfg)
    channels = generate_batch(geom, _profile(cfg), cfg["n_samples"])
    eigens = compute_precoders(channels, geom)
    return geom, list(channels), list(eigens), _n_train(cfg)


def _from_cfg(cls, cfg: dict, **fixed):
    """``cls`` built from the run-config keys named like its fields, with
    ``fixed`` setting the fields derived from the task."""
    names = {f.name for f in fields(cls)} & (cfg.keys() - fixed.keys())
    try:
        return cls(**{name: cfg[name] for name in names}, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    task: str
    nmse_db: float
    rho: float
    bit_budget: int
    sample_count: int
    seed: int
    config_hash: str
    method: str = "flowmat"

    def __post_init__(self):
        if not (math.isnan(self.rho) or 0.0 <= self.rho <= 1.0 + 1e-12):
            raise ValueError("rho outside [0, 1]")


def write_results_csv(path, results) -> None:
    lines = ["task,method,bit_budget,nmse_db,rho,sample_count,seed,config_hash"]
    for r in results:
        lines.append(f"{r.task},{r.method},{r.bit_budget},{r.nmse_db!r},"
                     f"{r.rho!r},{r.sample_count},{r.seed},{r.config_hash}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Latent calibration and feedback evaluation
# ---------------------------------------------------------------------------


def collect_latents(model: FlowMatModel, eigens) -> np.ndarray:
    aux = {}
    with ad.no_tape():
        model.feedback_forward(ad.Tensor(tokenize_eigen(np.stack(eigens))),
                               aux=aux)
    return aux["latent"].data


def eval_feedback(model: FlowMatModel, eigens, quantizer=None) -> float:
    w = np.stack(eigens)
    return rho(w, feedback_pipeline(w, model, quantizer=quantizer)[1])


def eval_estimation(model: FlowMatModel, channels, geom: SystemGeometry,
                    snr_db: float, seed: int, trials_per_channel: int = 1):
    """(model NMSE dB, LS+linear-interpolation NMSE dB) on the given set,
    each channel observed ``trials_per_channel`` times."""
    truth = np.repeat(np.stack(channels), trials_per_channel, axis=0)
    obs = observe_pilots(truth, geom, snr_db, seed)
    est = estimate_pipeline(obs, model, geom.n_rx, geom.n_tx)
    ls = interpolate_frequency(ls_estimate(obs), obs.pilot_indices, geom.n_sub)
    return nmse_db(est, truth), nmse_db(ls, truth)


def _uniform_bits(budget: int, keep_count: int, d_latent: int) -> int:
    """Bits per latent scalar of a uniform quantizer spending ``budget``
    bits on ``keep_count`` tokens of ``d_latent`` scalars each."""
    return budget // (keep_count * d_latent)


def _range_keys(budget: int):
    """Model metadata keys of the uniform range calibrated for ``budget``."""
    return f"uq_lo_{budget}", f"uq_hi_{budget}"


def uniform_budget_spec(model: FlowMatModel, budget: int):
    """The uniform quantizer that ``_budget_quantizer`` calibrated for
    ``budget``, rebuilt from the range it recorded in ``model.metadata``;
    None when the model holds no range for that budget."""
    lo, hi = (model.metadata.get(key) for key in _range_keys(budget))
    if lo is None or hi is None:
        return None
    bits = _uniform_bits(budget, model.cfg.keep_count, model.cfg.d_latent)
    return UniformQuantizerSpec(bits=bits, lo=lo, hi=hi)


def _budget_quantizer(cfg: dict, model: FlowMatModel, train_eigens,
                      budget: int):
    """Quantizer instance hitting a budget that ``_budget_list`` accepted.

    A uniform quantizer spends ``budget / (keep_count * d_latent)`` bits
    per latent scalar. Its range is calibrated on the float model's
    latents of ``train_eigens`` by ``calibrate_uniform_mse``: the
    symmetric percentile range (clipping 0-5 % per tail) with the least
    quantize-dequantize MSE, so a few outliers do not widen every cell.
    The range is recorded in the model metadata, from which
    ``uniform_budget_spec`` rebuilds it for ``flowmat eval --budget``.
    """
    if cfg["quantizer"] == "uniform":
        spec = calibrate_uniform_mse(
            collect_latents(model, train_eigens),
            _uniform_bits(budget, cfg["keep_count"], cfg["d_latent"]))
        model.metadata.update(zip(_range_keys(budget), (spec.lo, spec.hi)))
        return spec
    return make_codebook(cfg["vq_codebook_size"], cfg["d_latent"],
                         seed=cfg["seed"])


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------


def run_experiment(cfg: dict, out_dir) -> list:
    """gen -> train -> eval per the configuration; emits CSV reports.

    Returns the list of EvalResult rows (also written to results.csv).
    """
    task, regime = cfg["task"], cfg["regime"]
    if task not in TASK_REGIMES:
        raise ConfigError(f"unknown task {task!r}")
    if TASK_REGIMES[task] and regime not in TASK_REGIMES[task]:
        raise ConfigError(f"task {task} takes regime "
                          f"{' or '.join(TASK_REGIMES[task])}, not {regime!r}")
    if cfg["quantizer"] not in ("uniform", "vq"):
        raise ConfigError(f"unknown quantizer {cfg['quantizer']!r}")
    if _n_train(cfg) < 1:
        raise ConfigError("the train/test split leaves no training sample")
    if cfg["finetune_steps"] < 0:
        raise ConfigError(f"finetune_steps must be >= 0, not "
                          f"{cfg['finetune_steps']}")
    n_pilots = _geometry(cfg).pilot_pattern.n_pilots
    if task == "estimate" and n_pilots < 2:
        raise ConfigError("the LS interpolation baseline needs at least 2 "
                          f"pilots, not {n_pilots}")
    _profile(cfg)  # a bad multipath profile fails here, before any work
    tcfg = _from_cfg(TrainConfig, cfg)
    fb_cfg = est_cfg = None
    if task != "estimate":
        fb_cfg = _from_cfg(FeedbackConfig, cfg, **_token_shape(cfg, False))
    if task != "feedback":
        est_cfg = _from_cfg(EstimationConfig, cfg, **_token_shape(cfg, True))
    budgets = _budget_list(cfg) if task == "feedback" else []
    snrs = _list(cfg, "eval_snrs_db", float) if task == "estimate" else []
    if not all(snr > -math.inf for snr in snrs):  # NaN compares false too
        raise ConfigError(f"eval_snrs_db must be finite or inf, not "
                          f"{cfg['eval_snrs_db']}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    chash = config_hash(cfg)
    geom, channels, eigens, n_train = make_dataset(cfg)
    results = []

    def record(task_name, nmse, rho_val, budget=0, method="flowmat"):
        results.append(EvalResult(task_name, nmse, rho_val, budget,
                                  len(channels) - n_train, cfg["seed"], chash,
                                  method))

    if task == "feedback":
        model = FlowMatModel(fb_cfg)
        report = train_feedback(model, eigens[:n_train], tcfg)
        report.write_csv(out / "loss_curve.csv")
        base = {k: t.data.copy() for k, t in model.params.items()}
        for budget in budgets:
            quant = _budget_quantizer(cfg, model, eigens[:n_train], budget)
            if cfg["finetune_steps"] > 0:
                ft = replace(tcfg, steps=cfg["finetune_steps"],
                             lr=0.25 * tcfg.lr)
                train_feedback(model, eigens[:n_train], ft, quantizer=quant)
            r = eval_feedback(model, eigens[n_train:], quantizer=quant)
            record("feedback", math.nan, r, budget)
            test_w = np.stack(eigens[n_train:])
            r = rho(test_w, baseline_truncation(test_w, budget))
            record("feedback", math.nan, r, budget, "truncation")
            for name, t in model.params.items():
                t.data[...] = base[name]
        model.save(out / "feedback.fmw")
        _write_budget_curve(out / "budget_vs_rho.csv", results)

    elif task == "estimate":
        model = FlowMatModel(est_cfg)
        if regime == "joint":
            report = train_joint_estimation(model, channels[:n_train], geom,
                                            tcfg)
        else:
            report = train_progressive(model, channels[:n_train], geom, tcfg)
        report.write_csv(out / "loss_curve.csv")
        rows = ["snr_db,model_nmse_db,ls_nmse_db"]
        for snr in snrs:
            mdl_db, ls_db = eval_estimation(model, channels[n_train:], geom,
                                            snr, seed=cfg["seed"] + 1)
            rows.append(f"{snr!r},{mdl_db!r},{ls_db!r}")
            record("estimation", mdl_db, math.nan)
            record("estimation", ls_db, math.nan, method="ls_interp")
        (out / "snr_vs_nmse.csv").write_text("\n".join(rows) + "\n")
        model.save(out / "estimation.fmw")

    else:
        est_model = FlowMatModel(est_cfg)
        fb_model = FlowMatModel(fb_cfg)
        if regime == "end_to_end":
            report = train_end_to_end(est_model, fb_model, channels[:n_train],
                                      eigens[:n_train], geom, tcfg)
            report.write_csv(out / "loss_curve.csv")
        else:  # splited
            est_rep, fb_rep = train_splited(est_model, fb_model,
                                            channels[:n_train],
                                            eigens[:n_train], geom, tcfg)
            est_rep.write_csv(out / "loss_curve_estimation.csv")
            fb_rep.write_csv(out / "loss_curve_feedback.csv")
        r = eval_joint(est_model, fb_model, channels[n_train:],
                       eigens[n_train:], geom, cfg)
        record("joint", math.nan, r, method=regime)
        est_model.save(out / "estimation.fmw")
        fb_model.save(out / "feedback.fmw")

    write_results_csv(out / "results.csv", results)
    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": chash,
        "artifacts": sorted(p.name for p in out.iterdir()),
        "started": started,
        "finished": time.time(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return results


def eval_joint(est_model, fb_model, channels, eigens, geom, cfg) -> float:
    """Composed estimation + feedback Rho on frozen models."""
    snr = 0.5 * (cfg["snr_db_min"] + cfg["snr_db_max"])
    obs = observe_pilots(np.stack(channels), geom, snr, cfg["seed"] + 2)
    h_est = estimate_pipeline(obs, est_model, geom.n_rx, geom.n_tx)
    w_est = compute_precoders(h_est, geom)
    return rho(np.stack(eigens), feedback_pipeline(w_est, fb_model)[1])


def analyze_corr(cfg: dict, out_path) -> np.ndarray:
    """Frequency-correlation matrix of one synthesized channel, as CSV."""
    geom = _geometry(cfg)
    if geom.n_sub < 2:
        raise ConfigError("analyze-corr needs at least 2 subcarriers")
    h = generate_batch(geom, _profile(cfg), 1)[0]
    corr = freq_correlation(h)
    lines = [",".join(repr(float(v)) for v in row) for row in corr]
    Path(out_path).write_text("\n".join(lines) + "\n")
    return corr


def _budget_list(cfg: dict):
    """The feedback bit budgets, or ConfigError unless the configured
    quantizer hits each exactly and the truncation baseline keeps at least
    one subband at each."""
    budgets = _list(cfg, "budgets", int)
    m, d_q = cfg["keep_count"], cfg["d_latent"]
    try:  # a codebook size that is not a power of two has no VQ budget
        vq_bits = (payload_bits("vq", m, d_q, k=cfg["vq_codebook_size"])
                   if cfg["quantizer"] == "vq" else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for budget in budgets:
        if cfg["quantizer"] == "uniform":
            per_scalar = _uniform_bits(budget, m, d_q)
            if per_scalar * m * d_q != budget or not 1 <= per_scalar <= 16:
                raise ConfigError(
                    f"budget {budget} not reachable with m={m}, d_latent={d_q}")
        elif vq_bits != budget:
            raise ConfigError(f"VQ budget {budget} needs m*log2(K) == budget")
        try:
            baseline_truncation(np.ones((1, cfg["n_tx"])), budget)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return budgets


def _list(cfg: dict, key: str, typ: type) -> list:
    """The comma-separated ``typ`` values of ``cfg[key]``; ConfigError
    when it lists none."""
    try:
        values = [typ(v) for v in str(cfg[key]).split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {key} list: {exc}")
    if not values:
        raise ConfigError(f"{key} lists no value")
    return values


def _write_budget_curve(path, results) -> None:
    lines = ["bit_budget,method,rho"]
    for r in results:
        lines.append(f"{r.bit_budget},{r.method},{r.rho!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_dataset(cfg: dict, out_path, kind: str = "channel") -> int:
    """Synthesize and write a dataset container; returns the sample count."""
    geom, channels, eigens, _ = make_dataset(cfg)
    if kind == "channel":
        dataio.write_records(out_path, dataio.KIND_CHANNEL, channels)
    elif kind == "eigen":
        dataio.write_records(out_path, dataio.KIND_EIGEN, eigens)
    elif kind == "pilot":
        obs = observe_pilots(np.stack(channels), geom, cfg["snr_db_min"],
                             cfg["seed"] + 3)
        dataio.write_records(out_path, dataio.KIND_PILOT, obs.data)
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    return cfg["n_samples"]
