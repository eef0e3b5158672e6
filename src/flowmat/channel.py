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
import numpy.random  # noqa: F401  (load now, not lazily in the first draw)

from .linalg import hermitian_top_eigpairs


@dataclass
class PilotPattern:
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
    return PilotPattern(np.arange(offset, n_sub, step))


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
        if not 0.0 < self.subcarrier_spacing < math.inf:
            raise ValueError("subcarrier spacing must be positive and finite")

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
        if not 0.0 < self.delay_spread < math.inf:
            raise ValueError("delay spread must be positive and finite")
        if not 0.0 <= self.angle_spread < math.inf:
            raise ValueError("angle spread must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")


def _steering(n: int, angles: np.ndarray) -> np.ndarray:
    """Half-wavelength ULA responses [..., n], one per angle."""
    return np.exp(-1j * math.pi * np.arange(n) * np.sin(angles)[..., None])


def _draw_paths(profile: MultipathProfile):
    """Path gains, delays and rx/tx angles of one channel, each [n_paths]."""
    rng = np.random.default_rng(profile.seed)
    L = profile.n_paths
    alpha = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / math.sqrt(2.0)
    tau = rng.uniform(0.0, profile.delay_spread, size=L)
    half = profile.angle_spread / 2.0
    theta = rng.uniform(-half, half, size=L)  # rx angles
    phi = rng.uniform(-half, half, size=L)  # tx angles
    return alpha, tau, theta, phi


def _build_channels(geom: SystemGeometry, profiles) -> np.ndarray:
    """Channels [len(profiles), rx, subcarrier, tx] of ``profiles``, summed
    path by path as one stacked array."""
    alpha, tau, theta, phi = (np.stack(x) for x in
                              zip(*(_draw_paths(p) for p in profiles)))
    k = np.arange(geom.n_sub)
    h = np.zeros((len(profiles), geom.n_rx, geom.n_sub, geom.n_tx),
                 dtype=np.complex128)
    for l in range(alpha.shape[1]):
        a_rx = _steering(geom.n_rx, theta[:, l])
        a_tx = _steering(geom.n_tx, phi[:, l])
        ramp = np.exp(-2j * math.pi * k * geom.subcarrier_spacing
                      * tau[:, l, None])
        h += (alpha[:, l, None, None, None] * a_rx[:, :, None, None]
              * ramp[:, None, :, None] * a_tx[:, None, None, :])
    power = np.mean(np.abs(h) ** 2, axis=(1, 2, 3), keepdims=True)
    h /= np.sqrt(power)
    return h


def generate_channel(geom: SystemGeometry, profile: MultipathProfile) -> np.ndarray:
    """Geometric multipath channel H[rx, subcarrier, tx].

    H[r,k,t] = sum_l alpha_l * a_rx(theta_l)[r] * a_tx(phi_l)[t]
               * exp(-j 2 pi k df tau_l)
    with alpha_l ~ CN(0,1), tau_l ~ U[0, delay_spread], angles uniform in
    [-angle_spread/2, angle_spread/2]. Normalized to unit average power per
    entry; deterministic per profile seed.
    """
    return _build_channels(geom, [profile])[0]


def generate_batch(geom: SystemGeometry, profile: MultipathProfile,
                   count: int) -> np.ndarray:
    """Independent channels [count, rx, subcarrier, tx]; channel i is
    ``generate_channel`` with the profile seed plus i."""
    if count < 1:
        raise ValueError(f"need at least one channel, not {count}")
    return _build_channels(geom, [
        MultipathProfile(profile.n_paths, profile.delay_spread,
                         profile.angle_spread, seed=profile.seed + i)
        for i in range(count)])


@dataclass
class PilotObservation:
    data: np.ndarray  # complex [..., rx, pilot, tx]; leading axes are samples
    pilot_indices: np.ndarray = None


def observe_pilots(h: np.ndarray, geom: SystemGeometry, snr_db,
                   seed) -> PilotObservation:
    """Channels [..., rx, subcarrier, tx] at the pilot subcarriers plus
    circular complex Gaussian noise, for the whole stack in one draw from
    ``seed`` (an int, or a Generator that the call advances). Pilot symbols
    are unity, so the noiseless observation is ``h`` at the pilot indices.
    Per-entry noise variance is 10^(-snr_db/10), with one SNR or one per
    leading index; inf adds no noise, and NaN or -inf raises ValueError.
    """
    snr = np.asarray(snr_db, dtype=np.float64)
    if not np.all(snr > -math.inf):
        raise ValueError(f"pilot SNR must be finite or inf, not {snr_db}")
    idx = geom.pilot_pattern.pilot_indices
    obs = np.take(h, idx, axis=-2)
    if np.any(snr != math.inf):
        rng = np.random.default_rng(seed)
        # Python's pow, not np.power: the two differ in the last bit
        var = np.reshape([10.0 ** (-s / 10.0) for s in snr.flat], snr.shape)
        noise = (rng.standard_normal(obs.shape) + 1j * rng.standard_normal(obs.shape))
        obs = obs + noise * np.sqrt(var / 2.0)[..., None, None, None]
    return PilotObservation(data=obs, pilot_indices=idx.copy())


def ls_estimate(obs: PilotObservation) -> np.ndarray:
    """Per-entry LS estimate y / s at the pilot subcarriers: the pilot
    symbols are unity, so it is a copy of the observation."""
    return obs.data.copy()


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

    ``h`` is [..., rx, subcarrier, tx] with leading sample axes; every
    Gram matrix of every sample is solved in one batched power iteration.
    Returns complex [..., n_subband, n_tx] with unit-norm rows.
    """
    lead = h.shape[:-3]
    hk = np.swapaxes(h, -3, -2).reshape(
        lead + (geom.n_subband, geom.subband_size, geom.n_rx, geom.n_tx))
    gram = (hk.conj().swapaxes(-1, -2) @ hk).sum(axis=-3) / geom.subband_size
    _, w = hermitian_top_eigpairs(gram.reshape(-1, geom.n_tx, geom.n_tx))
    return w.reshape(lead + (geom.n_subband, geom.n_tx))
