"""Channel synthesis, pilot observation, LS estimation and precoders."""

import math

import numpy as np
import pytest

from flowmat.channel import (MultipathProfile, PilotObservation,
                             PilotPattern, SystemGeometry,
                             compute_precoders, every_kth_pattern,
                             generate_batch, generate_channel,
                             interpolate_frequency, ls_estimate,
                             observe_pilots)
from flowmat.linalg import CONVERGENCE_TOL


def make_geom(n_tx=4, n_rx=2, n_sub=16, n_subband=4, step=2):
    return SystemGeometry(n_tx=n_tx, n_rx=n_rx, n_sub=n_sub,
                          n_subband=n_subband,
                          pilot_pattern=every_kth_pattern(n_sub, step))


class TestPatterns:
    def test_every_kth(self):
        p = every_kth_pattern(8, 2)
        np.testing.assert_array_equal(p.pilot_indices, [0, 2, 4, 6])
        p = every_kth_pattern(8, 2, offset=1)
        np.testing.assert_array_equal(p.pilot_indices, [1, 3, 5, 7])

    def test_validation(self):
        with pytest.raises(ValueError):
            PilotPattern([])
        with pytest.raises(ValueError):
            PilotPattern([3, 1])
        with pytest.raises(ValueError):
            PilotPattern([-1, 2])


class TestGeometry:
    def test_subband_size(self):
        assert make_geom().subband_size == 4

    def test_subband_must_divide(self):
        with pytest.raises(ValueError):
            make_geom(n_sub=10, n_subband=4)

    def test_pilot_index_in_range(self):
        with pytest.raises(ValueError):
            SystemGeometry(n_tx=2, n_rx=1, n_sub=4, n_subband=2,
                           pilot_pattern=PilotPattern([0, 8]))


class TestChannelGeneration:
    def test_shape_and_determinism(self):
        geom = make_geom()
        prof = MultipathProfile(seed=5)
        h1 = generate_channel(geom, prof)
        h2 = generate_channel(geom, prof)
        assert h1.shape == (2, 16, 4)
        np.testing.assert_array_equal(h1, h2)
        h3 = generate_channel(geom, MultipathProfile(seed=6))
        assert not np.allclose(h1, h3)

    def test_unit_average_entry_power(self):
        h = generate_channel(make_geom(), MultipathProfile(seed=1))
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 1e-12

    def test_single_path_is_rank_one_per_subcarrier(self):
        h = generate_channel(make_geom(), MultipathProfile(n_paths=1, seed=2))
        for k in range(h.shape[1]):
            s = np.linalg.svd(h[:, k, :], compute_uv=False)
            assert s[1] / s[0] < 1e-12

    def test_batch_uses_derived_seeds(self):
        geom = make_geom()
        for n_paths in (1, 3, 6):
            batch = generate_batch(geom, MultipathProfile(n_paths, seed=10), 5)
            assert batch.shape == (5, 2, 16, 4)
            for i, h in enumerate(batch):
                expected = generate_channel(
                    geom, MultipathProfile(n_paths, seed=10 + i))
                np.testing.assert_array_equal(h, expected)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MultipathProfile(n_paths=0)
        with pytest.raises(ValueError):
            MultipathProfile(delay_spread=0.0)


class TestObservationAndLs:
    def test_noiseless_observation_is_channel_restriction(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        obs = observe_pilots(h, geom, math.inf, seed=0)
        np.testing.assert_array_equal(
            obs.data, h[:, geom.pilot_pattern.pilot_indices, :])

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_unbounded_or_undefined_noise_rejected(self, snr_db):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        with pytest.raises(ValueError, match="pilot SNR"):
            observe_pilots(h, geom, snr_db, seed=0)

    def test_observation_deterministic_per_seed(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        o1 = observe_pilots(h, geom, 10.0, seed=4)
        o2 = observe_pilots(h, geom, 10.0, seed=4)
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_one_channel_noise_is_one_draw_from_the_seed(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        idx, snr = geom.pilot_pattern.pilot_indices, 7.0
        g = np.random.default_rng(5)
        s = (geom.n_rx, idx.size, geom.n_tx)
        want = h[:, idx, :] + ((g.standard_normal(s)
                                + 1j * g.standard_normal(s))
                               * math.sqrt(10 ** (-snr / 10) / 2))
        np.testing.assert_array_equal(
            observe_pilots(h, geom, snr, seed=5).data, want)

    def test_stack_takes_one_snr_per_sample(self):
        geom = make_geom()
        h = generate_batch(geom, MultipathProfile(seed=3), 3)
        h = np.repeat(h[:, None], 400, axis=1)  # leading axes [3, 400]
        snr = np.repeat([[0.0], [10.0], [math.inf]], 400, axis=1)
        truth = h[..., geom.pilot_pattern.pilot_indices, :]
        err = observe_pilots(h, geom, snr, seed=8).data - truth
        for i, snr_db in enumerate([0.0, 10.0]):
            nmse_db = 10.0 * math.log10(float(np.sum(np.abs(err[i]) ** 2))
                                        / float(np.sum(np.abs(truth[i]) ** 2)))
            assert abs(nmse_db - (-snr_db)) < 0.3
        np.testing.assert_array_equal(err[2], 0.0)  # inf: no noise
        for bad in ([10.0, -math.inf, 0.0], [10.0, 0.0, math.nan]):
            with pytest.raises(ValueError, match="pilot SNR"):
                observe_pilots(h[:, 0], geom, np.array(bad), seed=8)

    def test_generator_seed_is_advanced(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        rng = np.random.default_rng(4)
        first = observe_pilots(h, geom, 10.0, rng).data
        np.testing.assert_array_equal(
            first, observe_pilots(h, geom, 10.0, seed=4).data)
        second = observe_pilots(h, geom, 10.0, rng).data
        assert not np.array_equal(first, second)

    def test_ls_with_unit_pilots_is_observation(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        obs = observe_pilots(h, geom, 10.0, seed=4)
        est = ls_estimate(obs)
        np.testing.assert_array_equal(est, obs.data)
        assert est is not obs.data
        stacked = PilotObservation(
            np.stack([observe_pilots(generate_channel(
                geom, MultipathProfile(seed=i)), geom, 10.0, seed=i).data
                for i in range(3)]),
            geom.pilot_pattern.pilot_indices)
        np.testing.assert_array_equal(ls_estimate(stacked), stacked.data)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_ls_noise_law(self, snr_db):
        # Monte-Carlo pilot NMSE must equal -SNR dB within 0.3 dB: with unit
        # pilots the LS error is exactly the additive noise.
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        idx = geom.pilot_pattern.pilot_indices
        truth = h[:, idx, :]
        err = sig = 0.0
        rng = np.random.default_rng(99)
        for _ in range(10_000 // 100):
            for _ in range(100):
                obs = observe_pilots(h, geom, snr_db,
                                     seed=int(rng.integers(2**31)))
                err += float(np.sum(np.abs(ls_estimate(obs) - truth) ** 2))
                sig += float(np.sum(np.abs(truth) ** 2))
        nmse_db = 10.0 * math.log10(err / sig)
        assert abs(nmse_db - (-snr_db)) < 0.3


class TestInterpolation:
    def test_exact_on_linear_data(self):
        # a channel linear in the subcarrier index is recovered exactly at
        # interior points
        n_rx, n_tx, n_sub = 1, 2, 8
        grid = np.arange(n_sub)
        full = (grid[None, :, None] * (1.0 + 0.5j)
                + np.ones((n_rx, n_sub, n_tx)))
        idx = np.array([0, 3, 7])
        out = interpolate_frequency(full[:, idx, :], idx, n_sub)
        np.testing.assert_allclose(out, full, atol=1e-12)

    def test_constant_extrapolation(self):
        part = np.ones((1, 2, 1), dtype=complex)
        part[0, 0, 0] = 2.0
        out = interpolate_frequency(part, np.array([2, 4]), 8)
        np.testing.assert_allclose(out[0, :2, 0], 2.0)
        np.testing.assert_allclose(out[0, 5:, 0], 1.0)

    def test_matches_np_interp_per_entry(self):
        rng = np.random.default_rng(6)
        idx = np.array([1, 2, 5, 9, 10])
        part = (rng.standard_normal((2, 5, 3))
                + 1j * rng.standard_normal((2, 5, 3)))
        out = interpolate_frequency(part, idx, 13)
        grid = np.arange(13)
        for r in range(2):
            for t in range(3):
                ref = (np.interp(grid, idx, part[r, :, t].real)
                       + 1j * np.interp(grid, idx, part[r, :, t].imag))
                np.testing.assert_array_equal(out[r, :, t], ref)

    def test_stacked_equals_per_sample(self):
        rng = np.random.default_rng(7)
        idx = np.array([0, 3, 4, 7])
        part = (rng.standard_normal((3, 2, 4, 2))
                + 1j * rng.standard_normal((3, 2, 4, 2)))
        out = interpolate_frequency(part, idx, 9)
        assert out.shape == (3, 2, 9, 2)
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], interpolate_frequency(part[i], idx, 9))

    def test_needs_two_pilots(self):
        with pytest.raises(ValueError):
            interpolate_frequency(np.ones((1, 1, 1), complex),
                                  np.array([0]), 4)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            interpolate_frequency(np.ones((1, 2, 1), complex),
                                  np.array([0, 1, 2]), 4)


class TestPrecoders:
    def test_rows_unit_norm(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        w = compute_precoders(h, geom)
        assert w.shape == (4, 4)
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-9)

    def test_stacked_equals_per_channel_calls(self):
        geom = make_geom(n_tx=8, n_rx=2, n_sub=32, n_subband=8)
        hs = generate_batch(geom, MultipathProfile(seed=20), 6)
        w = compute_precoders(hs.reshape((2, 3) + hs.shape[1:]), geom)
        assert w.shape == (2, 3, 8, 8)
        w = w.reshape(6, 8, 8)
        size = geom.subband_size
        for h, w_h in zip(hs, w):
            np.testing.assert_allclose(w_h, compute_precoders(h, geom),
                                       rtol=0, atol=1e-12)
            for b in range(geom.n_subband):
                gram = sum(h[:, k, :].conj().T @ h[:, k, :]
                           for k in range(b * size, (b + 1) * size)) / size
                lam = np.real(np.vdot(w_h[b], gram @ w_h[b]))
                residual = np.linalg.norm(gram @ w_h[b] - lam * w_h[b])
                assert residual <= CONVERGENCE_TOL * lam

    def test_matches_dense_eigendecomposition(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=3))
        w = compute_precoders(h, geom)
        size = geom.subband_size
        for b in range(geom.n_subband):
            gram = np.zeros((geom.n_tx, geom.n_tx), complex)
            for k in range(b * size, (b + 1) * size):
                gram += h[:, k, :].conj().T @ h[:, k, :]
            gram /= size
            vals, vecs = np.linalg.eigh(gram)
            assert abs(np.vdot(w[b], vecs[:, -1])) > 1.0 - 1e-8

    def test_rayleigh_quotient_is_maximal(self):
        geom = make_geom()
        h = generate_channel(geom, MultipathProfile(seed=4))
        w = compute_precoders(h, geom)
        size = geom.subband_size
        rng = np.random.default_rng(0)
        for b in range(geom.n_subband):
            gram = sum(h[:, k, :].conj().T @ h[:, k, :]
                       for k in range(b * size, (b + 1) * size)) / size
            top = np.real(np.vdot(w[b], gram @ w[b]))
            for _ in range(10):
                v = rng.standard_normal(geom.n_tx) \
                    + 1j * rng.standard_normal(geom.n_tx)
                v /= np.linalg.norm(v)
                assert np.real(np.vdot(v, gram @ v)) <= top + 1e-9
