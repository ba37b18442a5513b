"""Unsupervised feature learning with stacked convolutional transforms.

The package trains a stack of square kernel banks on 1-D signals by
alternating proximal minimization, encodes signals into sparse
nonnegative feature maps, and ships the downstream evaluation tools
(nearest-neighbor classification, k-means clustering, adjusted Rand
index) used to judge the features.
"""

from .conv import conv_same_matrix, toeplitz_stack
from .data import (
    DatasetFormatError,
    DatasetSplit,
    generate_synthetic,
    load_matrix,
    normalize_per_sample,
    train_test_split,
    write_csv,
)
from .evaluation import (
    KMEANS_INITS,
    ClusteringResult,
    accuracy,
    adjusted_rand_index,
    kmeans,
    knn_classify,
    nearest_centroid_classify,
    timed,
)
from .model import (
    ModelConfig,
    TrainedModel,
    TrainingError,
    encode,
    init_model,
    train,
)
from .persistence import (
    ModelFileChecksumError,
    ModelFileError,
    ModelFileMagicError,
    ModelFileTruncatedError,
    ModelFileVersionError,
    load_model,
    save_model,
)
from .prox import (
    CoeffQuadratics,
    NumericalConditioningError,
    TransformUpdateInputs,
    projected_newton_coeffs,
    prox_logdet_svd,
    prox_nonneg_l1,
    update_transform,
)

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "CoeffQuadratics",
    "DatasetFormatError",
    "DatasetSplit",
    "KMEANS_INITS",
    "ModelConfig",
    "ModelFileChecksumError",
    "ModelFileError",
    "ModelFileMagicError",
    "ModelFileTruncatedError",
    "ModelFileVersionError",
    "NumericalConditioningError",
    "TrainedModel",
    "TrainingError",
    "TransformUpdateInputs",
    "accuracy",
    "adjusted_rand_index",
    "conv_same_matrix",
    "encode",
    "generate_synthetic",
    "init_model",
    "kmeans",
    "knn_classify",
    "load_matrix",
    "load_model",
    "nearest_centroid_classify",
    "normalize_per_sample",
    "projected_newton_coeffs",
    "prox_logdet_svd",
    "prox_nonneg_l1",
    "save_model",
    "timed",
    "toeplitz_stack",
    "train",
    "train_test_split",
    "update_transform",
    "write_csv",
]
