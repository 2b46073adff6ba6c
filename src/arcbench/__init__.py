"""Class-incremental learning benchmark with test-time classifier retention
and correction over frozen feature vectors. The package root binds what README
and the demos import; every other name imports from its module."""

__version__ = "0.1.0"

from .arc import ArcConfig, adaptive_correction, tss
from .core import TrainConfig, forward
from .data import (EmbeddingFormatError, SyntheticSpec, generate_synthetic, load_embeddings,
                   streams_equal, write_embeddings)
from .harness import (ablation_grid, average_accuracy, bias_histogram, forgetting,
                      linear_probe_experiment, run_stream, train_sequence)
from .otd import OtdDecision, classify_sample
