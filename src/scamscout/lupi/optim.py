"""Adam with decoupled weight decay, plus linear learning-rate warmup.

The Adam update runs only over live chunks of the buffer: fixed runs of
``CHUNK`` elements in which some element has had a nonzero (or NaN)
gradient at some step.  Most of a LUPI model is embedding rows that never
see a gradient.  For an element whose gradient has always been +-0.0, m and
v stay +0.0, the Adam term is exactly 0.0, and ``p - 0.0`` is ``p`` (-0.0
and NaN included), so skipping it leaves every byte as the dense update
would.  The decoupled decay still runs over the whole buffer, so the
parameters are up to date after every step and no read has to catch up.

The moments are compact: ``m`` and ``v`` hold the live chunks' elements
only, in ascending element order (``_idx``), and a never-live element keeps
the implicit +0.0 the dense buffers would hold.  When chunks go live, the
held moments move a whole chunk row at a time to their new positions and
the new chunks' rows start at +0.0.
"""

from __future__ import annotations

import numpy as np

BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01
WARMUP_FRACTION = 0.1
CHUNK = 64   # elements per live flag


class AdamW:
    """Updates one buffer (a model's ``flat``) in place, every element by the
    same expressions, in the same order, as a per-parameter loop would."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.live = np.zeros(-(-params.size // CHUNK), dtype=bool)
        self._idx = np.zeros(0, dtype=np.intp)   # the live chunks' elements
        self.m = np.zeros(0)   # the moments of the elements in ``_idx``
        self.v = np.zeros(0)

    def _mark_live(self, grads: np.ndarray) -> None:
        """OR this step's touched chunks into ``live``; NaN != 0 is True."""
        touched = np.zeros(self.live.size * CHUNK, dtype=bool)
        np.not_equal(grads, 0.0, out=touched[:grads.size])
        touched = touched.reshape(-1, CHUNK).any(axis=1)
        if (touched & ~self.live).any():
            held = np.flatnonzero(self.live)
            self.live |= touched
            chunks = np.flatnonzero(self.live)
            idx = (chunks[:, None] * CHUNK + np.arange(CHUNK)).ravel()
            self._idx = idx[idx < grads.size]
            rows = np.searchsorted(chunks, held)
            self.m = _moved(self.m, rows, self._idx.size)
            self.v = _moved(self.v, rows, self._idx.size)

    def step(self, grads: np.ndarray, lr_scale: float = 1.0) -> None:
        self.t += 1
        lr = self.lr * lr_scale
        beta1, beta2 = BETAS
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        self._mark_live(grads)
        idx, p, m, v = self._idx, self.params, self.m, self.v
        g = grads[idx]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        # decoupled decay: applied directly to weights, not through g
        p -= lr * WEIGHT_DECAY * p
        p[idx] -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def _moved(held: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """``size`` compact moments in which held chunk ``i`` lands at chunk row
    ``rows[i]`` and every other element is +0.0.  Only the buffer's last
    chunk can be short, and it is the last row of both layouts."""
    out = np.zeros(size)
    whole = held.size // CHUNK * CHUNK
    out[:size // CHUNK * CHUNK].reshape(-1, CHUNK)[rows[:whole // CHUNK]] = (
        held[:whole].reshape(-1, CHUNK))
    out[size - (held.size - whole):] = held[whole:]
    return out


def warmup_scale(step: int, total_steps: int) -> float:
    """Linear ramp from 0 to 1 over the first ``WARMUP_FRACTION`` of steps."""
    warmup_steps = max(1, int(round(total_steps * WARMUP_FRACTION)))
    if step >= warmup_steps:
        return 1.0
    return (step + 1) / warmup_steps
