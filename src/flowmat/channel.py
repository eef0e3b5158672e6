"""FDD MIMO channel simulation, pilot observation and classical estimation.

Channels are geometric multipath sums over uniform linear arrays with
half-wavelength spacing. Complex channel tensors are numpy complex128
arrays indexed [rx, subcarrier, tx]; eigen-precoder matrices are complex
arrays indexed [subband, tx] with unit-norm rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_top_eigpair


@dataclass
class PilotPattern:
    kind: str  # high_density | low_density | custom
    pilot_indices: np.ndarray

    def __post_init__(self):
        self.pilot_indices = np.asarray(self.pilot_indices, dtype=np.intp)
        if self.pilot_indices.size == 0:
            raise ValueError("pilot pattern must be nonempty")
        if np.any(np.diff(self.pilot_indices) <= 0):
            raise ValueError("pilot indices must be strictly increasing")
        if self.pilot_indices[0] < 0:
            raise ValueError("pilot indices must be nonnegative")

    @property
    def n_pilots(self) -> int:
        return int(self.pilot_indices.size)


def every_kth_pattern(n_sub: int, step: int, offset: int = 0) -> PilotPattern:
    if step < 1:
        raise ValueError(f"pilot step must be >= 1, not {step}")
    return PilotPattern("custom", np.arange(offset, n_sub, step))


def resource_block_pattern(pilot_rbs, rb_size: int = 8) -> PilotPattern:
    """All subcarriers of the listed resource blocks carry pilots."""
    idx = np.concatenate([np.arange(rb * rb_size, (rb + 1) * rb_size)
                          for rb in sorted(pilot_rbs)])
    return PilotPattern("low_density", idx)


@dataclass
class SystemGeometry:
    n_tx: int
    n_rx: int
    n_sub: int
    n_subband: int
    pilot_pattern: PilotPattern
    subcarrier_spacing: float = 15e3

    def __post_init__(self):
        if min(self.n_tx, self.n_rx, self.n_sub, self.n_subband) < 1:
            raise ValueError("all geometry sizes must be >= 1")
        if self.n_sub % self.n_subband != 0:
            raise ValueError("n_subband must divide n_sub")
        if self.pilot_pattern.pilot_indices[-1] >= self.n_sub:
            raise ValueError("pilot index beyond subcarrier count")

    @property
    def subband_size(self) -> int:
        return self.n_sub // self.n_subband


@dataclass
class MultipathProfile:
    n_paths: int = 3
    delay_spread: float = 3e-7
    angle_spread: float = math.pi
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.delay_spread <= 0:
            raise ValueError("delay spread must be positive")


def _steering(n: int, angle: float) -> np.ndarray:
    # half-wavelength ULA
    return np.exp(-1j * math.pi * np.arange(n) * math.sin(angle))


def generate_channel(geom: SystemGeometry, profile: MultipathProfile) -> np.ndarray:
    """Geometric multipath channel H[rx, subcarrier, tx].

    H[r,k,t] = sum_l alpha_l * a_rx(theta_l)[r] * a_tx(phi_l)[t]
               * exp(-j 2 pi k df tau_l)
    with alpha_l ~ CN(0,1), tau_l ~ U[0, delay_spread], angles uniform in
    [-angle_spread/2, angle_spread/2]. Normalized to unit average power per
    entry; deterministic per profile seed.
    """
    rng = np.random.default_rng(profile.seed)
    L = profile.n_paths
    alpha = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / math.sqrt(2.0)
    tau = rng.uniform(0.0, profile.delay_spread, size=L)
    half = profile.angle_spread / 2.0
    theta = rng.uniform(-half, half, size=L)  # rx angles
    phi = rng.uniform(-half, half, size=L)  # tx angles

    k = np.arange(geom.n_sub)
    h = np.zeros((geom.n_rx, geom.n_sub, geom.n_tx), dtype=np.complex128)
    for l in range(L):
        a_rx = _steering(geom.n_rx, theta[l])
        a_tx = _steering(geom.n_tx, phi[l])
        ramp = np.exp(-2j * math.pi * k * geom.subcarrier_spacing * tau[l])
        h += alpha[l] * a_rx[:, None, None] * ramp[None, :, None] * a_tx[None, None, :]
    power = np.mean(np.abs(h) ** 2)
    h /= math.sqrt(power)
    return h


def generate_batch(geom: SystemGeometry, profile: MultipathProfile,
                   count: int) -> list[np.ndarray]:
    """Independent channels with seeds derived from the profile seed."""
    out = []
    for i in range(count):
        p = MultipathProfile(profile.n_paths, profile.delay_spread,
                             profile.angle_spread, seed=profile.seed + i)
        out.append(generate_channel(geom, p))
    return out


@dataclass
class PilotObservation:
    data: np.ndarray  # complex [..., rx, pilot, tx]; leading axes are samples
    pilot_indices: np.ndarray = None


def observe_pilots(h: np.ndarray, geom: SystemGeometry, snr_db: float,
                   seed: int) -> PilotObservation:
    """Channel at pilot subcarriers plus circular complex Gaussian noise.

    Pilot symbols are fixed to unity on all pilot tones, so the noiseless
    observation equals the channel restricted to the pilot indices. Per-entry
    noise variance is 10^(-snr_db/10); snr_db = inf disables noise entirely.
    """
    idx = geom.pilot_pattern.pilot_indices
    obs = h[:, idx, :].copy()
    if math.isfinite(snr_db):
        rng = np.random.default_rng(seed)
        var = 10.0 ** (-snr_db / 10.0)
        noise = (rng.standard_normal(obs.shape) + 1j * rng.standard_normal(obs.shape))
        obs = obs + noise * math.sqrt(var / 2.0)
    return PilotObservation(data=obs, pilot_indices=idx.copy())


def ls_estimate(obs: PilotObservation, pilot_symbols=None) -> np.ndarray:
    """Closed-form per-entry LS estimate y / s at the pilot subcarriers,
    with one symbol per pilot (or one for all of them).

    With the default unit pilots this is bit-identical to the observation.
    """
    if pilot_symbols is None:
        return obs.data.copy()
    s = np.asarray(pilot_symbols, dtype=np.complex128)
    if np.any(np.abs(s) == 0):
        raise ZeroDivisionError("zero pilot symbol")
    return obs.data / s.reshape(-1, 1)


def interpolate_frequency(partial: np.ndarray, pilot_indices: np.ndarray,
                          n_sub: int) -> np.ndarray:
    """Linear interpolation of ``partial`` [..., rx, pilot, tx] across the
    subcarrier axis, with constant extrapolation beyond the outermost
    pilots; the arithmetic is ``np.interp``'s."""
    xp = np.asarray(pilot_indices)
    if xp.size < 2:
        raise ValueError("need at least 2 pilot indices to interpolate")
    if partial.shape[-2] != xp.size:
        raise ValueError("partial channel / pilot index count mismatch")
    # real view [..., rx, pilot, 2*tx]: re and im interleaved, lerped alike
    y = np.ascontiguousarray(partial, dtype=np.complex128).view(np.float64)
    grid = np.clip(np.arange(n_sub), xp[0], xp[-1])
    left = np.searchsorted(xp, grid, side="right") - 1  # xp[left] <= grid
    # the slope past the last pilot is 0 and only ever scaled by 0
    slope = (np.diff(y, axis=-2, append=y[..., -1:, :])
             / np.diff(xp, append=xp[-1] + 1)[:, None])
    out = slope[..., left, :] * (grid - xp[left])[:, None] + y[..., left, :]
    return out.view(np.complex128)


def compute_precoders(h: np.ndarray, geom: SystemGeometry) -> np.ndarray:
    """Per-subband dominant eigenvector of the subband-averaged Gram matrix.

    Returns a complex [n_subband, n_tx] matrix with unit-norm rows.
    """
    size = geom.subband_size
    w = np.empty((geom.n_subband, geom.n_tx), dtype=np.complex128)
    for b in range(geom.n_subband):
        gram = np.zeros((geom.n_tx, geom.n_tx), dtype=np.complex128)
        for k in range(b * size, (b + 1) * size):
            hk = h[:, k, :]  # [rx, tx]
            gram += hk.conj().T @ hk
        gram /= size
        pair = hermitian_top_eigpair(gram)
        w[b] = pair.vector
    return w
