"""Neural-network substrate: autodiff tensors, layers, attention, optimizers, losses.

This package replaces PyTorch for the reproduction.  Everything is numpy
with a small reverse-mode tape (:mod:`repro.nn.tensor`), which is all the
paper needs: a lightweight GNN, a small transformer, and gradient flow into
KG token embeddings through otherwise-frozen models.

A block the model repeats is one kernel: ``Dense`` is ``Tensor.affine``,
``LayerNorm`` is ``Tensor.layer_norm``, eval-mode ``BatchNorm`` is
``Tensor.frozen_batch_norm``, ``softmax`` / ``log_softmax`` are single ops,
the GNN's message passing is ``Tensor.message_pass``, the KG text path
``Tensor.pooled_projection`` and single-query attention
(``MultiHeadAttention.forward(last_only=True)``)
``Tensor.last_query_attention`` — one numpy forward, one tape node and one
hand-written backward each, because at the served shapes a forward costs
what its tensor count costs (see :mod:`repro.nn.tensor`).
"""

from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .layers import (
    BatchNorm,
    Dense,
    Dropout,
    ELU,
    Embedding,
    LayerNorm,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from .attention import (
    MultiHeadAttention,
    TransformerEncoder,
    TransformerEncoderLayer,
    sinusoidal_positions,
)
from .optim import SGD, Adam, AdamW, ExponentialDecay, Optimizer, clip_grad_norm
from .losses import (
    binary_cross_entropy,
    cross_entropy,
    mse_loss,
    smoothness_loss,
    sparsity_loss,
    vad_loss,
)
from . import gradcheck, init

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Dense", "BatchNorm", "LayerNorm", "Embedding",
    "Dropout", "Sequential", "ELU", "ReLU", "Tanh",
    "MultiHeadAttention", "TransformerEncoder", "TransformerEncoderLayer",
    "sinusoidal_positions",
    "Optimizer", "SGD", "Adam", "AdamW", "ExponentialDecay", "clip_grad_norm",
    "cross_entropy", "binary_cross_entropy", "mse_loss", "sparsity_loss",
    "smoothness_loss", "vad_loss",
    "init",
    "gradcheck",
]
