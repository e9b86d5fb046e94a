"""Numerical kernels and verification harness for an edge-guided
feature-pyramid neck: fixed Sobel edge attention, a channel gate,
multi-level aggregation, wide/asymmetric receptive-field blocks and
top-down fusion, on a minimal reverse-mode 4-D tensor core.
"""

from .aggregation import MODES, aggregate, aggregation_plan, plan_channels
from .backbone import Backbone
from .config import RunConfig, load_config, parse_config
from .edge_attention import (
    SOBEL_X, SOBEL_Y, ChannelAttention, EdgeGuidedAttention, deep_sobel,
    edge_guide, edge_map,
)
from .errors import (
    ConfigError, ContractError, DomainError, FormatError, LoadError,
    ShapeError, UsageError,
)
from .gradcheck import GradCheckReport, grad_check
from .layers import Conv2d, Params
from .levels import check_levels
from .network import ForwardResult, Network, noise_image
from .pyramid import TopDownPyramid
from .receptive_field import BRANCH_WIDTH, WideFieldBlock, receptive_extent
from .tensor import (
    BACKWARD, ConvSpec, Parameter, Tape, Tensor, add, backward,
    concat_channels, conv2d, down2_max, edge_magnitude, global_avg_pool,
    global_max_pool, mul, relu, replicate_pad, sigmoid, sum_all,
    up2_nearest,
)

__version__ = "1.0.0"
