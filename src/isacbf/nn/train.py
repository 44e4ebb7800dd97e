"""Gradient-descent training loop for the beamforming networks."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import SimConfig
from .loss import BatchGeometry, penalty_loss_and_grad


class TrainingDiverged(RuntimeError):
    """A non-finite loss: trace holds the finite losses before it and parts
    the loss parts of the step that diverged.  The message names that
    iteration, counting the first as 1."""

    def __init__(self, trace, parts):
        super().__init__(f"training loss became non-finite at iteration "
                         f"{len(trace) + 1}; every iteration before it was "
                         "finite")
        self.trace = trace
        self.parts = parts


@dataclass
class TrainHyper:
    lr: float = 1e-3
    batch_size: int = 256
    max_iters: int = 2000
    momentum: float = 0.9
    # global gradient-norm ceiling; the penalty terms produce cliff-like
    # gradients when a constraint is badly violated
    max_grad_norm: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.max_iters < 1:
            raise ValueError(f"iterations must be at least 1, got {self.max_iters}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class TrainResult:
    """Per iteration: the loss, its parts (penalty_loss_and_grad's dict), the
    gradient norm before clipping and whether clipping scaled the step."""
    loss_trace: list = field(default_factory=list)
    parts: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    clipped: list = field(default_factory=list)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    if batch_size >= n:
        while True:
            yield slice(None)
    while True:
        perm = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield perm[start:start + batch_size]


def train(model, inputs, geom: BatchGeometry, config: SimConfig,
          hyper: TrainHyper) -> TrainResult:
    """Minimize the penalty loss by momentum gradient descent.

    ``model`` is an HCLNet or NaiveNet (already initialized); ``inputs`` is the
    stacked per-example network input (first axis = example) and ``geom`` the
    matching BatchGeometry.  Divergence (non-finite loss) aborts with the
    trace and the diverged step's loss parts attached.
    """
    rng = np.random.default_rng(hyper.seed)
    result = TrainResult()
    velocity = np.zeros_like(model.params)
    batches = _batches(len(geom), hyper.batch_size, rng)
    for it in range(hyper.max_iters):
        idx = next(batches)
        x = inputs[idx]
        sub = geom if isinstance(idx, slice) else geom.subset(idx)
        o, cache = model.forward(x, want_cache=True)
        j, parts, g_o = penalty_loss_and_grad(o, sub, config)
        if not np.isfinite(j):
            raise TrainingDiverged(result.loss_trace, parts)
        result.loss_trace.append(float(j))
        result.parts.append(parts)
        grad = model.backward(g_o, cache)
        gnorm = float(np.linalg.norm(grad))
        clip = 0 < hyper.max_grad_norm < gnorm
        if clip:
            grad *= hyper.max_grad_norm / gnorm
        # v = m v - lr g; p += v, in place and in that association
        grad *= hyper.lr
        velocity *= hyper.momentum
        velocity -= grad
        model.params += velocity
        result.grad_norms.append(gnorm)
        result.clipped.append(clip)
    return result
