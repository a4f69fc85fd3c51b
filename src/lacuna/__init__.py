"""Lacunarity pooling for texture-aware feature extraction.

Windowed gliding-box and box-counting lacunarity operators over NCHW
feature maps, a multiscale pyramid variant with learnable scale mixing, a
frozen-backbone fusion classifier around them, and the training/measurement
harness used to compare pooling methods on synthetic gap textures.

The package exports the names that README's examples take from ``lacuna``
and the error types those calls raise, nothing else.  Every other name is
imported from its module (``from lacuna.train import train``), so each name
has one import path and each submodule name (``lacuna.train``) is the
module.
"""

from .tensor import GroupedMixWeights, PoolSpec, ShapeMismatchError
from .lacunarity import (
    LacunarityConfig,
    PyramidDepthError,
    base_lacunarity,
    dbc_lacunarity,
    multiscale_lacunarity,
    scale_planes,
)
from .gradcheck import UnknownOpError, backward, run_gradient_suite
from .model import (
    FeatureFileError,
    FrozenBackbone,
    FusionModel,
    read_feature_file,
    read_label_sidecar,
)
from .train import DivergenceError, EmptySplitError, TrainConfig, evaluate, train_heads
