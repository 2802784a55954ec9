from .autograd import (
    Parameter,
    Tensor,
    add,
    affine,
    bilstm_sequence,
    concat,
    conv1d,
    embed_columns,
    grad_enabled,
    matmul,
    matmul_blocks,
    max_pool_range,
    max_pool_segments,
    mean,
    mul,
    no_grad,
    relu,
    segment_sum,
    sigmoid,
    softmax,
    sub,
    take,
    tanh,
    tsum,
)
from .checkpoint import CheckpointError, load_checkpoint, restore_parameters, save_checkpoint
from .layers import BiLSTM, GCNLayer, Linear, TwoLayerScorer, final_states, glorot
from .numeric import numeric_gradient
from .optim import Adam, GradientError, fit
