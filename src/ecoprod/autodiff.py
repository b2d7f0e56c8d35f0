"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The operation set is exactly what the latent-variable networks in
`ecoprod.causal` need: matmul, bias add, a few activations, column slices,
sums, elementwise arithmetic, the Gaussian reparameterization trick,
a diagonal-Gaussian KL term, and Bernoulli/Gaussian log-likelihoods.

Ops executed inside a ``with Tape() as tape:`` block are recorded; calling
``tape.backward(loss)`` walks the record in exact reverse execution order
and sets the analytic gradient as ``grad`` on each tensor it reaches; a
tensor's ``grad`` is None otherwise.  Ops executed with no active tape are
plain forward evaluations (used for inference).  There is no broadcasting
beyond the bias add: shape mismatches fail at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EcoprodError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A dense float64 array; ``grad`` is set by `Tape.backward`, else None."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Tape:
    """Ordered record of executed ops; context manager activates recording."""

    def __init__(self):
        self._ops: list[tuple] = []  # (inputs, output, backward(output grad) -> input grads)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def backward(self, loss: Tensor) -> None:
        """Set ``grad`` to d(loss)/d(tensor) on every tensor the tape recorded.

        Every recorded ``grad`` is reset to None first, so each pass starts
        clean.  The walk visits each op once in reverse execution order and
        skips an op whose output the loss does not reach, so a tensor the
        loss does not depend on keeps ``grad`` None.  Forward values are
        never mutated.  Tensors may share one array as ``grad`` (an add
        passes its output's gradient to both inputs), so never edit a
        ``grad`` in place.
        """
        if loss.data.shape != ():
            raise EcoprodError("backward requires a scalar loss tensor")
        for inputs, output, _ in self._ops:
            for t in (*inputs, output):
                t.grad = None
        loss.grad = np.ones_like(loss.data)
        for inputs, output, backward in reversed(self._ops):
            if output.grad is None:
                continue
            for tensor, grad in zip(inputs, backward(output.grad)):
                if grad is not None:
                    tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _record(inputs: tuple[Tensor, ...], output: Tensor, backward) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1]._ops.append((inputs, output, backward))
    return output


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise EcoprodError(f"{op}: shapes {a.shape} and {b.shape} differ")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise EcoprodError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record((a, b), out, lambda g: (g @ b.data.T, a.data.T @ g))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise EcoprodError(f"add_bias: shapes {x.shape} and {bias.shape} differ")
    out = Tensor(x.data + bias.data)
    return _record((x, bias), out, lambda g: (g, g.sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    return _record((x,), out, lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    value = np.tanh(x.data)
    out = Tensor(value)
    return _record((x,), out, lambda g: (g * (1.0 - value * value),))


def sigmoid(x: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(value)
    return _record((x,), out, lambda g: (g * value * (1.0 - value),))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not 0 <= start < stop <= x.shape[1]:
        raise EcoprodError(f"slice_cols: [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[:, start:stop])

    def backward(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _record((x,), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    return _record((a, b), out, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    return _record((a, b), out, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    return _record((a, b), out, lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, factor: float) -> Tensor:
    out = Tensor(x.data * factor)
    return _record((x,), out, lambda g: (g * factor,))


def total(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor."""
    out = Tensor(np.sum(x.data))
    return _record((x,), out, lambda g: (np.full_like(x.data, float(g)),))


def gaussian_reparameterize(mu: Tensor, logvar: Tensor, noise: np.ndarray) -> Tensor:
    """mu + exp(logvar / 2) * noise with gradients into mu and logvar."""
    _require_same_shape(mu, logvar, "gaussian_reparameterize")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mu.shape:
        raise EcoprodError("noise shape does not match mu")
    std = np.exp(0.5 * logvar.data)
    out = Tensor(mu.data + std * noise)
    return _record((mu, logvar), out, lambda g: (g, g * 0.5 * std * noise))


def kl_diag_gaussian(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), summed over all elements."""
    _require_same_shape(mu, logvar, "kl_diag_gaussian")
    var = np.exp(logvar.data)
    out = Tensor(-0.5 * np.sum(1.0 + logvar.data - mu.data**2 - var))
    return _record(
        (mu, logvar),
        out,
        lambda g: (float(g) * mu.data, float(g) * 0.5 * (var - 1.0)),
    )


_PROB_CLAMP = 1e-7


def bernoulli_logpmf(prob: Tensor, y: np.ndarray) -> Tensor:
    """Sum of Bernoulli log-likelihoods; prob is clamped to [1e-7, 1 - 1e-7]."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != prob.shape:
        raise EcoprodError("bernoulli_logpmf: y shape does not match prob")
    clamped = np.clip(prob.data, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    inside = (prob.data > _PROB_CLAMP) & (prob.data < 1.0 - _PROB_CLAMP)
    out = Tensor(np.sum(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)))
    return _record(
        (prob,),
        out,
        lambda g: (float(g) * inside * (y / clamped - (1.0 - y) / (1.0 - clamped)),),
    )


def gaussian_logpdf(x: np.ndarray, mu: Tensor, logvar: Tensor) -> Tensor:
    """Sum of diagonal-Gaussian log-densities of constant data x."""
    _require_same_shape(mu, logvar, "gaussian_logpdf")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mu.shape:
        raise EcoprodError("gaussian_logpdf: x shape does not match mu")
    inv_var = np.exp(-logvar.data)
    resid = x - mu.data
    out = Tensor(-0.5 * np.sum(np.log(2.0 * np.pi) + logvar.data + resid**2 * inv_var))
    return _record(
        (mu, logvar),
        out,
        lambda g: (
            float(g) * resid * inv_var,
            float(g) * (-0.5) * (1.0 - resid**2 * inv_var),
        ),
    )


# ---------------------------------------------------------------------------
# A small fully-connected network and the Adam optimizer.


class Mlp:
    """Fully-connected layers with relu or tanh between them, linear output."""

    def __init__(self, widths: list[int], activation: str, rng: np.random.Generator):
        if len(widths) < 2:
            raise EcoprodError("Mlp needs at least input and output widths")
        if activation not in ("relu", "tanh"):
            raise EcoprodError(f"unknown activation {activation!r}")
        self.activation = activation
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            gain = 2.0 if activation == "relu" else 1.0
            std = np.sqrt(gain / fan_in)
            self.weights.append(Tensor(rng.standard_normal((fan_in, fan_out)) * std))
            self.biases.append(Tensor(np.zeros(fan_out)))

    def __call__(self, x: Tensor) -> Tensor:
        act = relu if self.activation == "relu" else tanh
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = add_bias(matmul(h, w), b)
            if i != last:
                h = act(h)
        return h

    def parameters(self) -> list[Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend([w, b])
        return params


# The moment decay rates and the stabilizer of Kingma & Ba (ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Learning rate and first/second-moment buffers shaped like the parameters."""

    learning_rate: float = 1e-3
    step_count: int = 0
    first_moments: list[np.ndarray] = field(default_factory=list)
    second_moments: list[np.ndarray] = field(default_factory=list)


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update from each parameter's ``grad``, which is
    then cleared, so every step needs a fresh backward that reaches each
    parameter; a ``grad`` of None raises EcoprodError before anything
    changes."""
    for index, p in enumerate(params):
        if p.grad is None:
            raise EcoprodError(f"adam_step: parameter {index} has no gradient")
    if not state.first_moments:
        state.first_moments = [np.zeros_like(p.data) for p in params]
        state.second_moments = [np.zeros_like(p.data) for p in params]
    if len(state.first_moments) != len(params):
        raise EcoprodError("AdamState was initialized for a different parameter list")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for p, m, v in zip(params, state.first_moments, state.second_moments):
        g = p.grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        p.grad = None
