"""Channel estimation from sparse pilots, against the classical baseline.

Only every second subcarrier carries a pilot. The classical recipe is
least-squares at the pilots followed by linear interpolation in frequency.
The learned pipeline denoises the pilot observations with an MLP-Mixer,
then fills in the non-pilot subcarriers with the masked-token decoder.

This script trains the model progressively (denoiser first, then the
completion decoder with the denoiser frozen) and compares held-out NMSE
across SNR.

Runtime: about half a minute.

Run: python3 demos/03_channel_estimation.py
"""

from flowmat.channel import (MultipathProfile, SystemGeometry,
                             every_kth_pattern, generate_channel)
from flowmat.evalharness import eval_estimation
from flowmat.model import EstimationConfig, FlowMatModel
from flowmat.training import TrainConfig, train_progressive

geom = SystemGeometry(n_tx=8, n_rx=1, n_sub=16, n_subband=4,
                      pilot_pattern=every_kth_pattern(16, 2))
channels = [generate_channel(geom, MultipathProfile(n_paths=2,
                                                    delay_spread=3e-7,
                                                    seed=i))
            for i in range(96)]
train_set, test_set = channels[:64], channels[64:]
n_pilots = len(geom.pilot_pattern.pilot_indices)
print(f"{geom.n_sub} subcarriers, pilots on {n_pilots} of them; "
      f"{len(train_set)} train / {len(test_set)} held-out channels")

model = FlowMatModel(EstimationConfig(n_tokens=16, token_dim=16, d_model=32,
                                      n_heads=4, decoder_depth=1,
                                      n_pilot_tokens=n_pilots, seed=0))
report = train_progressive(model, train_set, geom,
                           TrainConfig(steps=2000, batch_size=32, lr=1e-3,
                                       seed=0, snr_db_min=10.0,
                                       snr_db_max=10.0))
print(f"trained at 10 dB SNR, final loss {report.losses[-1]:.4f}")
print()

print(f"{'snr (dB)':>8} {'model (dB)':>11} {'ls+interp (dB)':>15} "
      f"{'margin':>7}")
for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
    model_db, ls_db = eval_estimation(model, test_set, geom, snr_db, seed=7,
                                      trials_per_channel=2)
    print(f"{snr_db:>8.0f} {model_db:>11.2f} {ls_db:>15.2f} "
          f"{ls_db - model_db:>+7.2f}")

print()
print("linear interpolation cannot exploit the multipath structure, so the")
print("learned completion wins by several dB around the training SNR. the")
print("margin shrinks away from 10 dB because the denoiser was only ever")
print("shown 10 dB noise.")
