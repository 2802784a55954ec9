from .autograd import (
    Parameter,
    Tensor,
    add,
    concat,
    conv1d,
    gather_rows,
    grad_enabled,
    lstm_sequence,
    matmul,
    max_pool_range,
    mean,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sub,
    tanh,
    transpose,
    tsum,
)
from .checkpoint import CheckpointError, load_checkpoint, restore_parameters, save_checkpoint
from .layers import BiLSTM, GCNLayer, Linear, LSTMCell, TwoLayerScorer, affine, glorot
from .numeric import max_relative_error, numeric_gradient
from .optim import Adam, GradientError
