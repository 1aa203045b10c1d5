"""Adam with decoupled weight decay, plus linear learning-rate warmup."""

from __future__ import annotations

import numpy as np


class AdamW:
    """Updates one buffer (a model's ``flat``) in place, every element by the
    same expressions, in the same order, as a per-parameter loop would."""

    def __init__(self, params: np.ndarray, lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grads: np.ndarray, lr_scale: float = 1.0) -> None:
        self.t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        p, g, m, v = self.params, grads, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        # decoupled decay: applied directly to weights, not through g
        p -= lr * self.weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def warmup_scale(step: int, total_steps: int, warmup_fraction: float) -> float:
    """Linear ramp from 0 to 1 over the first warmup_fraction of steps."""
    warmup_steps = max(1, int(round(total_steps * warmup_fraction)))
    if step >= warmup_steps:
        return 1.0
    return (step + 1) / warmup_steps
