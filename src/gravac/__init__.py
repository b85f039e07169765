"""Adaptive gradient compression with a synchronous DDP training simulator."""

from .compressors import (CompressorKind, SparseGradient, aggregate,
                          aggregate_dense, compress, compress_further,
                          decompress, keep_count)
from .controller import (ControllerConfig, ControllerState, IterationRecord,
                         check_gravac, run_iteration, scaling_policy, select_cf)
from .costmodel import CostModelParams, allreduce_time
from .feedback import apply_feedback, clear_residual, update_residual, zero_residual
from .gradcore import GradientVector, SeededRng, ewma_lambda_from_workers, squared_l2_norm
from .harness import (ConfigError, RunConfig, compare_runs, parse_config,
                      run_experiment, serialize_config)
from .kdestats import cf_histogram, cf_usage_samples, default_grid, gaussian_kde
from .metrics import GainTracker, compression_gain
from .simworkers import (DivergenceError, OptimizerState, RunTrace, TrainingResult,
                         run_training, sgd_update)
from .tasks import QuadraticBowl, SyntheticMlp

__version__ = "0.1.0"
