"""Adam with decoupled weight decay, plus linear learning-rate warmup."""

from __future__ import annotations

import numpy as np

BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01
WARMUP_FRACTION = 0.1


class AdamW:
    """Updates one buffer (a model's ``flat``) in place, every element by the
    same expressions, in the same order, as a per-parameter loop would."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grads: np.ndarray, lr_scale: float = 1.0) -> None:
        self.t += 1
        lr = self.lr * lr_scale
        beta1, beta2 = BETAS
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        p, g, m, v = self.params, grads, self.m, self.v
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        # decoupled decay: applied directly to weights, not through g
        p -= lr * WEIGHT_DECAY * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def warmup_scale(step: int, total_steps: int) -> float:
    """Linear ramp from 0 to 1 over the first ``WARMUP_FRACTION`` of steps."""
    warmup_steps = max(1, int(round(total_steps * WARMUP_FRACTION)))
    if step >= warmup_steps:
        return 1.0
    return (step + 1) / warmup_steps
