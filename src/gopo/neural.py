"""Minimal differentiable function approximator.

Dense feed-forward networks with tanh hidden layers and either a linear head
(critics) or a softmax head (policies), hand-written reverse-mode gradients,
and a flat parameter view so every gradient in the package can be verified
against central finite differences.  Everything is float64 numpy; no
autograd framework.

Networks take batches only: ``forward`` and ``backward`` take ``N`` rows of
shape ``(N, d)``, one input being a one-row batch, and reject a ``(d,)``
vector.  A batch is ``N`` independent rows: ``forward`` returns one output
row per input row, and ``backward`` returns the flat parameter gradient
summed over the rows, i.e. the gradient of the sum of the per-row losses.

``forward`` applies the head to the raw pre-activation: ``stable_softmax``
for a softmax head, the identity for a linear head.  ``forward(x,
logits=True)`` returns the pre-activation itself, so a caller that needs
only the argmax of a softmax head, or only weights to draw from
(``softmax_weights``), skips the softmax.

``backward`` takes the upstream gradient with respect to the network OUTPUT
(probabilities for a softmax head), so losses can be written directly in
terms of probabilities and values.  It recomputes the forward pass, once per
call whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tiny probability floor folded into the softmax so outputs are strictly
# positive even for extreme logits; backward accounts for it exactly.
PROB_FLOOR = 1e-12

CHECKPOINT_VERSION = 1


class NonFiniteLogits(ValueError):
    """The logits an act reads are not finite where they decide the act."""


def _softmax_raw(logits: np.ndarray) -> np.ndarray:
    # the reductions ``.max`` and ``.sum`` run, without their Python wrappers
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, row by row, with a
    strictly-positive floor; each row sums to 1 exactly up to rounding."""
    p = _softmax_raw(logits)
    return (p + PROB_FLOOR) / (1.0 + p.shape[-1] * PROB_FLOOR)


def softmax_weights(logits: np.ndarray) -> np.ndarray:
    """Unnormalised weights of ``stable_softmax(logits)``, row by row over
    the last axis (a vector is one row): ``e + PROB_FLOOR * e.sum()`` with
    ``e = exp(logits - logits.max())``.  Since ``stable_softmax`` is ``(e /
    e.sum() + PROB_FLOOR) / (1 + n * PROB_FLOOR)``, the weights are those
    probabilities times one positive factor per row, so a caller that draws
    from a row by its own sum needs no division.  Raises ``NonFiniteLogits``,
    before any arithmetic that could warn, when a row's maximum is not
    finite (a NaN or ``+inf`` logit, or all ``-inf``); other rows never
    change a row's bits."""
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise NonFiniteLogits("logits are not finite")
    e = logits - m
    np.exp(e, out=e)
    e += PROB_FLOOR * np.add.reduce(e, axis=-1, keepdims=True)
    return e


class Mlp:
    """Fully connected net: tanh hidden layers, linear or softmax head."""

    def __init__(self, layer_sizes, head: str = "linear", seed=0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if head not in ("linear", "softmax"):
            raise ValueError(f"unknown head {head!r}")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.head = head
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(rng.normal(0.0, 1.0 / np.sqrt(n_in), (n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    # -- forward / backward --------------------------------------------------

    def _forward_cached(self, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """The raw head pre-activation (logits or value) of the batch ``x``,
        one row per input row.  When ``acts`` is a list, each layer's input
        is appended to it, ``x`` first, for ``backward``; ``forward`` passes
        none, so no activation is kept.  Each layer is one product (the
        ``ndarray.dot`` method: ``np.dot``, the same bits as ``@``, without
        either's dispatch cost), the bias added and, on hidden layers,
        ``tanh`` taken in place.  A shape other than ``(N, d)``, a vector
        among them, raises ``ValueError`` naming the shape."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input shape {x.shape} is not a batch of shape "
                f"(N, {self.layer_sizes[0]})"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if acts is not None:
                acts.append(h)
            h = h.dot(w)
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h

    def forward(self, x: np.ndarray, logits: bool = False) -> np.ndarray:
        """Output per input row: probabilities (softmax head) or raw values
        (linear head); with ``logits``, the raw head pre-activation of
        either head, a fresh array the caller may write to, of shape
        ``(N, out)``.  Keeps no activations (see ``_forward_cached``)."""
        out = self._forward_cached(x)
        if self.head == "softmax" and not logits:
            return stable_softmax(out)
        return out

    def backward(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Flat parameter gradient of the scalar loss whose gradient with
        respect to the network output is ``upstream`` (same shape as
        ``forward(x)``); for a batch, the gradients of the rows are summed."""
        acts: list[np.ndarray] = []
        out = self._forward_cached(x, acts)
        g = np.asarray(upstream, dtype=float)
        if g.shape != out.shape:
            raise ValueError(
                f"upstream shape {g.shape} incompatible with output "
                f"shape {out.shape}"
            )
        if self.head == "softmax":
            p_raw = _softmax_raw(out)
            u = g / (1.0 + p_raw.shape[-1] * PROB_FLOOR)
            # row-wise dot as one BLAS dot per row; kept for the gradient
            # bits it gives, which the run directories' checkpoints pin
            pu = (p_raw[:, None, :] @ u[:, :, None])[:, :, 0]
            g = p_raw * u - p_raw * pu
        grads: list[np.ndarray] = []
        for i in reversed(range(self.n_layers)):
            grads.append(g.sum(axis=0))
            grads.append((acts[i].T @ g).ravel())
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return np.concatenate(grads[::-1])

    # -- flat parameter view ---------------------------------------------------

    def get_params(self) -> np.ndarray:
        """Flat copy of all trainable scalars, layer by layer (weights then
        bias per layer)."""
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector of length {flat.size} does not match "
                f"layout size {self.n_params}"
            )
        pos = 0
        for i in range(self.n_layers):
            w, b = self.weights[i], self.biases[i]
            self.weights[i] = flat[pos : pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos : pos + b.size].copy()
            pos += b.size


# -- optimizer ----------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators and step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update with ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``; returns fresh arrays, inputs untouched."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state layouts do not match")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, step=t)


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale the gradient to global L2 norm ``max_norm`` if it exceeds it."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0.0:
        return grad * (max_norm / norm)
    return grad


# -- checkpointing --------------------------------------------------------------


def save_checkpoint(path, net: Mlp) -> None:
    """Versioned binary dump of a network: architecture and parameters,
    nothing else; round-trips exactly."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.array([CHECKPOINT_VERSION]),
            layer_sizes=np.array(net.layer_sizes),
            head=np.array(net.head),
            params=net.get_params(),
        )


def load_checkpoint(path) -> tuple[Mlp, None]:
    """The network saved by ``save_checkpoint``, paired with ``None`` for
    callers that unpack a pair (``perfbench/make_checkpoints.py``).  Arrays
    other than the four saved ones, such as Adam moments in a file written
    by an earlier version, are left unread.  Raises ValueError on an
    unknown version or a parameter that is not finite."""
    with open(path, "rb") as fh:
        data = np.load(fh, allow_pickle=False)
        version = int(data["version"][0])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        net = Mlp(tuple(int(s) for s in data["layer_sizes"]), head=str(data["head"]))
        params = data["params"]
        if not np.isfinite(params).all():
            raise ValueError("checkpoint parameters are not finite")
        net.set_params(params)
    return net, None
