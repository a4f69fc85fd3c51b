"""Lacunarity pooling for texture-aware feature extraction.

Windowed gliding-box and box-counting lacunarity operators over NCHW
feature maps, a multiscale pyramid variant with learnable scale mixing, a
frozen-backbone fusion classifier around them, and the training/measurement
harness used to compare pooling methods on synthetic gap textures.
"""

from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    as_feature_map,
    elementwise_mul,
    gap,
    mix_scales,
    pool_avg,
    pool_l2,
    pool_max,
    pool_min,
    pool_sum,
    upsample_bilinear,
)
from .lacunarity import (
    BASELINE_POOLS,
    LacunarityConfig,
    PyramidDepthError,
    base_lacunarity,
    blur_binomial5,
    box_index,
    dbc_column_heights,
    dbc_lacunarity,
    dbc_scale_planes,
    gaussian_pyramid,
    multiscale_lacunarity,
    multiscale_scale_planes,
    scale_planes,
    tanh_scale,
    variance_ratio,
)
from .gradcheck import (
    BACKWARD,
    CHECKED_OPS,
    GradCheckReport,
    UnknownOpError,
    backward,
    finite_diff_check,
    run_gradient_suite,
)
from .model import (
    FeatureFileError,
    FrozenBackbone,
    FusionModel,
    linear_classifier,
    read_feature_file,
    read_label_sidecar,
    softmax_cross_entropy,
    write_feature_file,
)
from .train import (
    Adam,
    DivergenceError,
    EmptySplitError,
    EvalReport,
    History,
    TrainConfig,
    TrainResult,
    evaluate,
    split_indices,
    train,
    train_heads,
)
from .metrics import FdrReport, fisher_discriminant_ratio, summarize_log_fdr
from .textures import (
    GRADES,
    TextureGenerationError,
    TextureSample,
    generate_texture,
    global_lacunarity,
    heterogeneity_dataset,
    toy_dataset,
)
from .pgm import PgmError, read_pgm, write_pgm
from .experiment import (
    ExperimentConfig,
    ExperimentConfigError,
    ExperimentResult,
    MethodSummary,
    format_results,
    load_config,
    run_experiment,
    write_results,
)
