"""Joint channel estimation and CSI feedback with a masked-token transformer."""

from .autodiff import (Adam, Tensor, finite_diff_grad_check, layer_norm,
                       matmul, softmax_rows)
from .channel import (MultipathProfile, PilotObservation, PilotPattern,
                      SystemGeometry, compute_precoders, generate_channel,
                      interpolate_frequency, ls_estimate, observe_pilots)
from .evalharness import (EvalResult, baseline_truncation, freq_correlation,
                          nmse_db, rho, run_experiment)
from .linalg import ConvergenceError, EigenPair, hermitian_top_eigpair
from .model import (EstimationConfig, FeedbackConfig, FlowMatModel,
                    build_mask_bias, estimate_pipeline, feedback_pipeline)
from .quantizer import (BitPayload, UniformQuantizerSpec, VqCodebook,
                        payload_bits, uniform_dequantize, uniform_quantize,
                        vq_assign, vq_losses)
from .training import (DivergenceError, TrainConfig, TrainReport, loss_ce,
                       loss_cf, train_feedback, train_progressive)

__version__ = "0.1.0"
