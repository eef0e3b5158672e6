"""Acceptance gate: ten pinned criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Tolerances are stated inline and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

import flowmat.autodiff as ad
import flowmat.evalharness as eh
from flowmat.autodiff import Tensor, finite_diff_grad_check
from flowmat.channel import (MultipathProfile, SystemGeometry,
                             compute_precoders, every_kth_pattern,
                             generate_batch, generate_channel, ls_estimate,
                             observe_pilots)
from flowmat.dataio import FormatError, KIND_EIGEN, read_records, \
    write_records
from flowmat.linalg import hermitian_top_eigpair
from flowmat.model import (EstimationConfig, FeedbackConfig, FlowMatModel,
                           build_mask_bias, tokenize_channel, tokenize_eigen)
from flowmat.quantizer import (UniformQuantizerSpec, make_codebook,
                               payload_bits, uniform_dequantize,
                               uniform_quantize, vq_assign)
from flowmat.training import (TrainConfig, loss_cf, loss_ce, rho_tokens,
                              train_feedback, train_progressive)
from flowmat.evalharness import (freq_correlation, nmse_db, rho,
                                 run_experiment)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: gradient suite --------------------------------------------------------


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    tol = 1e-4
    worst = 0.0

    # every differentiable op, each through a scalar functional
    b = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))
    g = rng.standard_normal(4) + 1.0
    op_cases = [
        lambda x: ad.tsum(ad.add(x, Tensor(b))),
        lambda x: ad.tsum(ad.sub(x, Tensor(b))),
        lambda x: ad.tsum(ad.mul(x, Tensor(b))),
        lambda x: ad.tsum(ad.div(x, Tensor(np.abs(b) + 1.0))),
        lambda x: ad.tsum(ad.matmul(x, Tensor(w))),
        lambda x: ad.tsum(ad.square(ad.transpose(x))),
        lambda x: ad.tsum(ad.square(ad.reshape(x, (4, 3)))),
        lambda x: ad.tsum(ad.square(ad.tsum(x, axis=-1, keepdims=True))),
        lambda x: ad.tmean(ad.square(x)),
        lambda x: ad.tsum(ad.square(ad.rowsum(x))),
        lambda x: ad.tsum(ad.sqrt(ad.add(ad.square(x), Tensor(0.5)))),
        lambda x: ad.tsum(ad.gelu(x)),
        lambda x: ad.tsum(ad.square(ad.softmax_rows(x))),
        lambda x: ad.tsum(ad.square(ad.layer_norm(x, Tensor(g),
                                                  Tensor(np.zeros(4))))),
        lambda x: ad.tsum(ad.square(ad.concat([x, Tensor(b)], axis=-1))),
        lambda x: ad.tsum(ad.square(ad.narrow(x, -1, 1, 3))),
        lambda x: ad.tsum(ad.square(ad.gather_rows(x, [0, 2, 2]))),
        lambda x: ad.tsum(ad.square(ad.select_active(
            x, Tensor(np.array([3.0, 1.0, 2.0])), 2)[0])),
        lambda x: ad.tsum(ad.square(ad.insert_rows(
            x, [0, 2, 4], 5, Tensor(np.full(4, 0.5))))),
    ]
    for f in op_cases:
        worst = max(worst, finite_diff_grad_check(f, Tensor(
            rng.standard_normal((3, 4)))))

    # the fused ops through each operand in turn, the others held constant
    x_wq_wk_wv = [rng.standard_normal(s) for s in
                  ((2, 3, 4), (4, 4), (4, 4), (4, 4))]
    fused_cases = [
        (lambda *t: ad.attention(*t, None, 2), x_wq_wk_wv),
        (lambda *t: ad.attention(*t, build_mask_bias([0, 2], 3, "hard"), 2),
         x_wq_wk_wv),
        (ad.mlp, [rng.standard_normal(s) for s in
                  ((2, 3, 4), (4, 6), (6,), (6, 4), (4,))]),
    ]
    for op, arrays in fused_cases:
        for i, traced in enumerate(arrays):
            def f(x, op=op, arrays=arrays, i=i):
                operands = [Tensor(arr) for arr in arrays]
                operands[i] = x
                return ad.tsum(ad.square(op(*operands)))

            worst = max(worst, finite_diff_grad_check(f, Tensor(traced.copy())))

    # full feedback loss graph on a tiny config (N <= 8, d_model <= 16)
    fb = FlowMatModel(FeedbackConfig(n_tokens=4, token_dim=4, d_model=8,
                                     n_heads=2, encoder_depth=2,
                                     decoder_depth=2, d_latent=2,
                                     keep_count=2, seed=0))
    w_true = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w_true /= np.linalg.norm(w_true, axis=1, keepdims=True)
    target = tokenize_eigen(w_true)

    def fb_loss(x):
        rec, _, _ = fb.feedback_forward(x)
        return loss_cf(rec, target)

    worst = max(worst, finite_diff_grad_check(fb_loss, Tensor(
        target + 0.01 * rng.standard_normal(target.shape))))

    # the same graph w.r.t. representative parameters
    for name in ("mask_token", "latent_down", "enc0.wq"):
        orig = fb.params[name]

        def param_loss(x, _name=name, _inp=Tensor(target)):
            fb.params[_name] = x
            try:
                rec, _, _ = fb.feedback_forward(_inp)
                return loss_cf(rec, target)
            finally:
                fb.params[_name] = orig

        worst = max(worst, finite_diff_grad_check(
            param_loss, Tensor(orig.data.copy())))

    # full estimation loss graph
    est = FlowMatModel(EstimationConfig(n_tokens=8, token_dim=4, d_model=16,
                                        n_heads=2, decoder_depth=1,
                                        n_pilot_tokens=4, seed=0))
    geom = SystemGeometry(n_tx=2, n_rx=1, n_sub=8, n_subband=2,
                          pilot_pattern=every_kth_pattern(8, 2))
    h = generate_channel(geom, MultipathProfile(seed=1))
    full = tokenize_channel(h)
    noisy = tokenize_channel(observe_pilots(h, geom, 10.0, seed=2).data)

    def est_loss(x):
        den, rec = est.estimate_forward(x, geom.pilot_pattern.pilot_indices)
        return ad.add(loss_ce(den, noisy * 0.9), loss_ce(rec, full))

    worst = max(worst, finite_diff_grad_check(est_loss, Tensor(noisy.copy())))

    elapsed = time.perf_counter() - started
    report(1, "gradient suite, rel err < 1e-4, runtime < 1 min",
           worst < tol and elapsed < 60.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2: eigensolver oracle ----------------------------------------------------


def test_criterion_02_eigensolver_oracle():
    rng = np.random.default_rng(1)
    ok = True
    worst_val = worst_vec = 0.0
    for _ in range(200):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = a @ a.conj().T
        pair = hermitian_top_eigpair(a)
        vals, vecs = np.linalg.eigh(a)
        val_err = abs(pair.value - vals[-1]) / abs(vals[-1])
        vec_align = abs(np.vdot(pair.vector, vecs[:, -1]))
        worst_val = max(worst_val, val_err)
        worst_vec = max(worst_vec, 1.0 - vec_align)
        ok = ok and val_err < 1e-8 and vec_align > 1.0 - 1e-8
    report(2, "power iteration matches dense eigendecomposition on 200 "
              "random PSD 8x8 (rel err < 1e-8)", ok,
           f"worst value err {worst_val:.2e}, worst misalignment "
           f"{worst_vec:.2e}")


# -- 3: LS noise law ----------------------------------------------------------


def test_criterion_03_ls_noise_law():
    geom = SystemGeometry(n_tx=4, n_rx=2, n_sub=16, n_subband=4,
                          pilot_pattern=every_kth_pattern(16, 2))
    h = generate_channel(geom, MultipathProfile(seed=2))
    truth = h[:, geom.pilot_pattern.pilot_indices, :]
    rng = np.random.default_rng(3)
    ok = True
    details = []
    for snr_db in (0.0, 10.0, 20.0):
        err = sig = 0.0
        for _ in range(10_000):
            obs = observe_pilots(h, geom, snr_db,
                                 seed=int(rng.integers(2**31)))
            err += float(np.sum(np.abs(ls_estimate(obs) - truth) ** 2))
            sig += float(np.sum(np.abs(truth) ** 2))
        measured = 10.0 * math.log10(err / sig)
        details.append(f"{snr_db:.0f}dB -> {measured:+.2f}dB")
        ok = ok and abs(measured - (-snr_db)) < 0.3
    report(3, "Monte-Carlo LS pilot NMSE equals -SNR within 0.3 dB over "
              "1e4 trials", ok, ", ".join(details))


# -- 4: mask correctness ------------------------------------------------------


def test_criterion_04_mask_correctness():
    cfg = FeedbackConfig(n_tokens=6, token_dim=8, d_model=16, n_heads=2,
                         encoder_depth=1, decoder_depth=1, d_latent=2,
                         keep_count=3, mask_mode="hard", seed=0)
    model = FlowMatModel(cfg)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 16))
    p = model.params
    dh = cfg.d_model // cfg.n_heads
    q = x @ p["enc0.wq"].data
    k = x @ p["enc0.wk"].data
    v = x @ p["enc0.wv"].data

    worst = 0.0
    for pattern in range(1, 1 << 6):
        kept = [i for i in range(6) if pattern >> i & 1]
        bias = build_mask_bias(kept, 6, "hard")
        got = model._attention("enc0", Tensor(x), bias).data
        ref = np.zeros_like(got)
        for h in range(cfg.n_heads):
            s = slice(h * dh, (h + 1) * dh)
            for i in range(6):
                logits = np.array([q[i, s] @ k[j, s] for j in kept]) \
                    / math.sqrt(dh)
                wts = np.exp(logits - logits.max())
                wts /= wts.sum()
                ref[i, s] = wts @ v[kept][:, s]
        worst = max(worst, float(np.max(np.abs(got - ref))))
    hard_ok = worst < 1e-10

    # paper-literal counterexample: masked keys keep nonzero weight
    bias = build_mask_bias([0, 1, 2], 6, "paper_literal")
    logits = (q[:, :dh] @ k[:, :dh].T + bias) / math.sqrt(dh)
    wts = np.exp(logits - logits.max(axis=1, keepdims=True))
    wts /= wts.sum(axis=1, keepdims=True)
    literal_ok = bool(np.all(wts[:, 3:] > 0.0))

    report(4, "hard mask equals brute-force masked attention on all splits "
              "of N=6 (< 1e-10); literal bias keeps masked weight nonzero",
           hard_ok and literal_ok, f"max abs diff {worst:.2e}")


# -- 5: quantizer suite -------------------------------------------------------


def test_criterion_05_quantizer_suite():
    spec = UniformQuantizerSpec(bits=5, lo=-2.0, hi=2.0)
    x = np.random.default_rng(5).uniform(spec.lo, spec.hi, size=100_000)
    back = uniform_dequantize(uniform_quantize(x, spec)[0], spec)
    round_trip_ok = float(np.max(np.abs(back - x))) <= spec.delta / 2 + 1e-12

    bits_ok = (payload_bits("uniform", m=8, d_q=4, bits=2) == 64
               and payload_bits("uniform", m=8, d_q=8, bits=4) == 256
               and payload_bits("vq", m=16, d_q=4, k=256) == 128)
    _, p64 = uniform_quantize(np.zeros((8, 4)),
                              UniformQuantizerSpec(bits=2, lo=-1, hi=1))
    _, p256 = uniform_quantize(np.zeros((8, 8)),
                               UniformQuantizerSpec(bits=4, lo=-1, hi=1))
    cb = make_codebook(256, 4, seed=0)
    xs = np.random.default_rng(6).standard_normal((16, 4))
    idx, p128 = vq_assign(xs, cb)
    actual_ok = (p64.bit_length, p128.bit_length, p256.bit_length) \
        == (64, 128, 256)

    brute = np.array([np.argmin(((cb.vectors.data - row) ** 2).sum(axis=1))
                      for row in xs])
    vq_ok = bool(np.array_equal(idx, brute))

    report(5, "round-trip error <= delta/2 on 1e5 randoms; 64/128/256-bit "
              "payloads exact; VQ equals brute-force nearest neighbor",
           round_trip_ok and bits_ok and actual_ok and vq_ok)


# -- 6: metric identities -----------------------------------------------------


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    ortho_a = np.array([[1.0 + 0j, 0.0]])
    ortho_b = np.array([[0.0, 1.0 + 0j]])
    ok = (nmse_db(t, t) == -120.0
          and abs(nmse_db(np.zeros_like(t), t)) < 1e-12
          and abs(nmse_db(2 * t, t)) < 1e-12
          and abs(rho(w, w) - 1.0) < 1e-12
          and abs(rho(w, w * np.exp(1j * np.pi / 5)) - 1.0) < 1e-12
          and rho(ortho_a, ortho_b) < 1e-12)
    report(6, "nmse/rho identities exact (0 dB zero/doubled estimate, "
              "rho=1 under phase, rho=0 orthogonal)", ok)


# -- 7: overfit oracles -------------------------------------------------------


def test_criterion_07a_feedback_overfit():
    started = time.perf_counter()
    geom = SystemGeometry(n_tx=8, n_rx=2, n_sub=32, n_subband=8,
                          pilot_pattern=every_kth_pattern(32, 2))
    channels = generate_batch(geom, MultipathProfile(seed=0), 32)
    eigens = [compute_precoders(h, geom) for h in channels]
    model = FlowMatModel(FeedbackConfig(n_tokens=8, token_dim=16, d_model=32,
                                        n_heads=4, encoder_depth=3,
                                        decoder_depth=3, d_latent=8,
                                        keep_count=4, seed=0))  # m = N/2
    train_feedback(model, eigens,
                   TrainConfig(steps=1500, batch_size=32, lr=2e-3, seed=0))
    train_rho = eh.eval_feedback(model, eigens)
    elapsed = time.perf_counter() - started
    report(7, "(a) feedback float overfit: 32 samples, m=N/2, train Rho "
              "> 0.99 within 3000 steps, < 5 min",
           train_rho > 0.99 and elapsed < 300.0,
           f"Rho {train_rho:.4f} after 1500 steps, {elapsed:.0f}s")


def test_criterion_07b_estimation_beats_ls():
    geom = SystemGeometry(n_tx=8, n_rx=1, n_sub=16, n_subband=4,
                          pilot_pattern=every_kth_pattern(16, 2))
    channels = [generate_channel(geom, MultipathProfile(2, 3e-7, seed=i))
                for i in range(96)]
    train, held_out = channels[:64], channels[64:]
    model = FlowMatModel(EstimationConfig(n_tokens=16, token_dim=16,
                                          d_model=32, n_heads=4,
                                          decoder_depth=1, n_pilot_tokens=8,
                                          seed=0))
    train_progressive(model, train, geom,
                      TrainConfig(steps=2000, batch_size=32, lr=1e-3, seed=0,
                                  snr_db_min=10.0, snr_db_max=10.0))
    model_db, ls_db = eh.eval_estimation(model, held_out, geom, 10.0, seed=7,
                                         trials_per_channel=2)
    margin = ls_db - model_db
    report(7, "(b) estimation: 64 samples, N_c=16, N_t=8, 10 dB SNR, "
              "held-out NMSE beats LS + linear interpolation by >= 2 dB",
           margin >= 2.0,
           f"model {model_db:.2f} dB vs LS {ls_db:.2f} dB, margin "
           f"{margin:+.2f} dB")


# -- 8: bit-budget ordering trend ---------------------------------------------


@pytest.fixture(scope="module")
def budget_run(tmp_path_factory):
    cfg = dict(eh.DEFAULTS, n_paths=2, angle_spread=1.0, n_samples=1024,
               steps=10_000, batch_size=32, lr=2e-3, d_model=32,
               encoder_depth=2, decoder_depth=2, seed=0)
    out = tmp_path_factory.mktemp("budget")
    return cfg, run_experiment(cfg, out / "run")


def test_criterion_08_budget_trend(budget_run):
    _, results = budget_run
    flowmat = {r.bit_budget: r.rho for r in results if r.method == "flowmat"}
    trunc = {r.bit_budget: r.rho for r in results if r.method == "truncation"}
    budgets = sorted(flowmat)
    monotone = all(flowmat[b2] >= flowmat[b1] - 0.01
                   for b1, b2 in zip(budgets, budgets[1:]))
    beats = all(flowmat[b] > trunc[b] for b in budgets)
    detail = ", ".join(f"{b}b: {flowmat[b]:.4f} vs {trunc[b]:.4f}"
                       for b in budgets)
    report(8, "Rho monotone nondecreasing over budgets 64/128/256 (0.01 "
              "band) and above the truncation baseline at every budget",
           monotone and beats and budgets == [64, 128, 256], detail)


# -- 9: frequency-correlation structure ----------------------------------------


def test_criterion_09_freq_correlation():
    geom = SystemGeometry(n_tx=8, n_rx=2, n_sub=32, n_subband=8,
                          pilot_pattern=every_kth_pattern(32, 2))
    off = ~np.eye(32, dtype=bool)
    ok = True
    details = []
    for n_paths in (1, 2, 3):
        means = []
        for seed in range(8):
            c = freq_correlation(generate_channel(
                geom, MultipathProfile(n_paths=n_paths, seed=seed)))
            sym = np.allclose(c, c.T, atol=1e-12)
            unit = np.allclose(np.diag(c), 1.0, atol=1e-12)
            ok = ok and sym and unit
            if n_paths == 1:
                ok = ok and np.allclose(c, 1.0, atol=1e-9)
            means.append(float(c[off].mean()))
        mean = float(np.mean(means))
        details.append(f"L={n_paths}: {mean:.3f}")
        ok = ok and mean > 0.5
    report(9, "freq correlation symmetric, unit diagonal, mean off-diagonal "
              "> 0.5 for L<=3 and exactly 1 for L=1", ok,
           ", ".join(details))


# -- 10: determinism & I/O ----------------------------------------------------


def test_criterion_10_determinism_and_io(tmp_path):
    cfg = dict(eh.DEFAULTS, n_samples=10, n_sub=8, n_subband=4, n_tx=2,
               n_rx=1, d_model=8, n_heads=2, encoder_depth=1,
               decoder_depth=1, d_latent=4, keep_count=4, steps=6,
               batch_size=4, finetune_steps=2, budgets="64,128",
               eval_snrs_db="10")
    run_experiment(cfg, tmp_path / "r1")
    run_experiment(cfg, tmp_path / "r2")
    same_reports = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in ("results.csv", "loss_curve.csv", "budget_vs_rho.csv"))

    rng = np.random.default_rng(8)
    samples = [rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
               for _ in range(3)]
    dpath = tmp_path / "data.fmc"
    write_records(dpath, KIND_EIGEN, samples)
    _, once = read_records(dpath)
    write_records(dpath, KIND_EIGEN, once)
    _, twice = read_records(dpath)
    data_round = all(np.array_equal(a, b) for a, b in zip(once, twice))

    raw = bytearray(dpath.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    dpath.write_bytes(bytes(raw))
    try:
        read_records(dpath)
        data_reject = False
    except FormatError:
        data_reject = True

    model = FlowMatModel.load(tmp_path / "r1" / "feedback.fmw")
    mpath = tmp_path / "model.fmw"
    model.save(mpath)
    reloaded = FlowMatModel.load(mpath)
    ckpt_round = all(np.array_equal(reloaded.params[k].data,
                                    model.params[k].data)
                     for k in model.params)

    raw = bytearray(mpath.read_bytes())
    raw[0] ^= 0xFF
    mpath.write_bytes(bytes(raw))
    try:
        FlowMatModel.load(mpath)
        ckpt_reject = False
    except FormatError:
        ckpt_reject = True

    report(10, "identical config+seed gives bit-identical reports; dataset "
               "and checkpoint files round-trip and reject corruption",
           same_reports and data_round and data_reject and ckpt_round
           and ckpt_reject)
