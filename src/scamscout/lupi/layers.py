"""Neural net building blocks with explicit forward/backward passes.

Everything is float64 and seeded, so training is bit-reproducible and
gradients can be checked against finite differences.  Each module keeps its
own parameters and gradient accumulators in name-keyed dicts; a module instance
serves one forward per training step.  A forward caches what its backward
needs iff ``train`` is set: a train-mode pass is one that will be
backpropagated (and draws each dropout mask at the shape it masks), an
eval-mode pass caches nothing and drops what an earlier pass cached.  A
cache lives from its train-mode forward to its backward, which takes it:
a backward with no train-mode forward pending (none yet, an eval pass, or a
second backward) raises ``TrainingError`` naming the module; a dropout's eval
and p = 0 passes are the identity both ways.  Backward passes return the
gradient w.r.t. their input and accumulate into ``grads``.

Each pass runs in place on the arrays it has just made (bias adds, the
softmax chain, LayerNorm's centring and backward), always by the same
operations on the same operands in the same order as the out-of-place
expressions, so every value keeps its bits.

Composite modules declare nothing extra: ``Module`` finds parameters and
gradients by walking its attributes in assignment order, recursing into every
attribute that is a ``Module`` (named ``attr.``) and every list of modules
(named ``attr.i.``).  A model ends its constructor with ``_flatten()``, which
leaves every parameter and gradient a view into one float64 buffer, ``flat``
or ``flat_grad``, in walk order; gradients are only ever updated in place.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

LN_EPS = 1e-5


class Module:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _param(self, name: str, value: np.ndarray):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def _keep(self, train: bool, **cache) -> None:
        """Keep ``cache`` as attributes for the backward of a train-mode pass;
        any other pass drops what an earlier one kept."""
        for name, value in cache.items():
            if train:
                setattr(self, name, value)
            else:
                vars(self).pop(name, None)

    def _take(self, *names: str):
        """Remove and return the caches the pending train-mode forward kept."""
        if names[0] not in vars(self):
            raise TrainingError(f"{type(self).__name__} backward needs a "
                                f"train-mode forward (none is pending)")
        values = tuple(vars(self).pop(name) for name in names)
        return values if len(values) > 1 else values[0]

    def _modules(self, prefix: str = ""):
        """(prefix, module) for this module, then each descendant in walk order."""
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._modules(f"{prefix}{name}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._modules(f"{prefix}{name}.{i}.")

    def _walk(self, store: str, prefix: str):
        for path, module in self._modules(prefix):
            for name, value in getattr(module, store).items():
                yield (f"{path}{name}", value)

    def named_parameters(self, prefix: str = ""):
        return self._walk("params", prefix)

    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self.named_parameters())

    def gradients(self) -> dict[str, np.ndarray]:
        return dict(self._walk("grads", ""))

    def _flatten(self):
        """Rebind every parameter and gradient to a view of ``flat``/``flat_grad``."""
        self.flat = np.concatenate([p.ravel() for _, p in self.named_parameters()])
        self.flat_grad = np.zeros_like(self.flat)
        offset = 0
        for _, module in self._modules():
            for name, p in module.params.items():
                span = slice(offset, offset + p.size)
                module.params[name] = self.flat[span].reshape(p.shape)
                module.grads[name] = self.flat_grad[span].reshape(p.shape)
                offset += p.size

    def zero_grads(self):
        """Zero every gradient of a flattened model in one write."""
        self.flat_grad[...] = 0.0


def _normal(rng: np.random.Generator | None, shape: tuple[int, ...]) -> np.ndarray:
    """Initial weights drawn from N(0, 0.02^2); zeros and no draw when ``rng``
    is None, for a model whose parameters a checkpoint then fills in."""
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, 0.02, size=shape)


class Linear(Module):
    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator | None):
        super().__init__()
        self._param("w", _normal(rng, (dim_in, dim_out)))
        self._param("b", np.zeros(dim_out))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._keep(train, _x=x)
        w = self.params["w"]
        if w.shape[1] == 1:
            # BLAS's matrix-vector product rounds a row differently by its
            # position in the batch; a per-row sum does not
            out = (x * w[:, 0]).sum(axis=-1, keepdims=True)
        else:
            out = x @ w
        out += self.params["b"]
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        x = self._take("_x")
        x2 = x.reshape(-1, x.shape[-1])
        d2 = d_out.reshape(-1, d_out.shape[-1])
        self.grads["w"] += x2.T @ d2
        self.grads["b"] += d2.sum(axis=0)
        return d_out @ self.params["w"].T


class Embedding(Module):
    def __init__(self, vocab: int, dim: int, rng: np.random.Generator | None):
        super().__init__()
        self._param("w", _normal(rng, (vocab, dim)))

    def forward(self, ids: np.ndarray, train: bool = False) -> np.ndarray:
        self._keep(train, _ids=ids)
        return self.params["w"][ids]

    def backward(self, d_out: np.ndarray) -> None:
        np.add.at(self.grads["w"], self._take("_ids"), d_out)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self._param("g", np.ones(dim))
        self._param("b", np.zeros(dim))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        norm = x - mean
        # ndarray.var's own steps (the same mean, squared deviations summed,
        # then divided by the count) on the one centred copy
        var = np.square(norm).sum(axis=-1, keepdims=True)
        var /= x.shape[-1]
        inv = 1.0 / np.sqrt(var + LN_EPS)
        np.multiply(norm, inv, out=norm)
        self._keep(train, _norm=norm, _inv=inv)
        out = norm * self.params["g"]
        out += self.params["b"]
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        norm, inv = self._take("_norm", "_inv")
        dim = norm.shape[-1]
        prod = d_out * norm
        self.grads["g"] += prod.reshape(-1, dim).sum(axis=0)
        self.grads["b"] += d_out.reshape(-1, dim).sum(axis=0)
        d_x = d_out * self.params["g"]
        # d_x of (x - mean) * inv with mean/var both functions of x:
        # inv * (d_norm - mean(d_norm) - norm * mean(d_norm * norm))
        mean_d = d_x.mean(axis=-1, keepdims=True)
        mean_dn = np.multiply(d_x, norm, out=prod).mean(axis=-1, keepdims=True)
        d_x -= mean_d
        d_x -= np.multiply(norm, mean_dn, out=norm)
        return np.multiply(inv, d_x, out=d_x)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode or at p = 0.  A train-mode call
    draws its mask at ``x.shape``, the shape it masks, and keeps it for
    backward as a bool array; each pass scales by ``mask / (1 - p)``.
    """

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def forward(self, x: np.ndarray, train: bool,
                rng: np.random.Generator | None) -> np.ndarray:
        self._mask = None
        if not train or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        self._mask = rng.random(x.shape) < keep
        return x * (self._mask / keep)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        mask = self._take("_mask")
        return d_out if mask is None else d_out * (mask / (1.0 - self.p))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class MultiHeadAttention(Module):
    """Self-attention with key-padding masking.

    ``rows`` picks the query positions from the (B, L, D) input: every
    position (the default) or ``0``, the CLS row alone, which returns
    (B, D).  Keys and values always cover every position.  The attention
    probabilities are kept, in train mode, for backward only, which
    overwrites them with the score gradient.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None):
        super().__init__()
        assert dim % heads == 0
        self.dim, self.heads, self.head_dim = dim, heads, dim // heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def _split(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (B, H, T, D/H); a (B, D) input has T = 1."""
        x = x.reshape(x.shape[0], -1, self.heads, self.head_dim)
        return x.transpose(0, 2, 1, 3)

    @staticmethod
    def _merge(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The inverse of ``_split``, back to ``shape``."""
        return x.transpose(0, 2, 1, 3).reshape(shape)

    def forward(self, x: np.ndarray, key_mask: np.ndarray, train: bool = False,
                rows: int | slice = slice(None)) -> np.ndarray:
        # a 2-D query input keeps its projection one (B, D) @ (D, D) GEMM,
        # whose rows equal those of the full-width product
        x_q = x[:, rows]
        q = self._split(self.wq.forward(x_q, train))
        k = self._split(self.wk.forward(x, train))
        v = self._split(self.wv.forward(x, train))
        attn = q @ k.transpose(0, 1, 3, 2)
        attn /= np.sqrt(self.head_dim)
        # mask PAD keys; every query row still normalizes over real keys
        np.copyto(attn, np.finfo(np.float64).min / 4,
                  where=~key_mask[:, None, None, :])
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = attn @ v
        out = self.wo.forward(self._merge(ctx, x_q.shape), train)
        self._keep(train, _q=q, _k=k, _v=v, _attn=attn, _rows=rows)
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        q, k, v, attn, rows = self._take("_q", "_k", "_v", "_attn", "_rows")
        shape = (k.shape[0], k.shape[2], self.dim)
        d_ctx = self._split(self.wo.backward(d_out))
        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
        # softmax backward, attn * (d_probs - sum(d_probs * attn)), into
        # attn; masked positions have attn = 0 so they get 0
        d_probs -= (d_probs * attn).sum(axis=-1, keepdims=True)
        d_scores = np.multiply(attn, d_probs, out=attn)
        d_scores /= np.sqrt(self.head_dim)
        d_q = d_scores @ k
        d_k = d_scores.transpose(0, 1, 3, 2) @ q
        d_x = self.wk.backward(self._merge(d_k, shape))
        d_x[:, rows] += self.wq.backward(self._merge(d_q, d_out.shape))
        d_x += self.wv.backward(self._merge(d_v, shape))
        return d_x


class FeedForward(Module):
    def __init__(self, dim: int, ff_dim: int, rng: np.random.Generator | None):
        super().__init__()
        self.lin1 = Linear(dim, ff_dim, rng)
        self.lin2 = Linear(ff_dim, dim, rng)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        # ReLU in place: ``a`` is also lin2's cached input, and a > 0 exactly
        # where lin1's output was (NaN and -0.0 included)
        a = self.lin1.forward(x, train)
        np.maximum(a, 0.0, out=a)
        self._keep(train, _a=a)
        return self.lin2.forward(a, train)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        a = self._take("_a")
        d_a = self.lin2.backward(d_out)
        return self.lin1.backward(d_a * (a > 0))
