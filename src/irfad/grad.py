"""Minimal reverse-mode differentiation over dense float32 or float64 arrays.

Just enough autodiff to train the noise-prediction MLP: a tape is built
per training step (define-by-run, so creation order is a
topological order), `backward` walks it once in reverse, and the only ops
provided are the three the network needs: `affine`, `silu` and
`mean_squared_error`. No broadcasting beyond the bias-add inside `affine`,
no convolutions, no GPU.

A node needs a gradient when it is a parameter or was computed from one;
gradients are never formed for the rest (the network input and the
regression target), so layer 0 skips its input gradient.

Numpy ndarrays are the tensor carrier. A leaf keeps a float32 or float64
input's dtype and widens anything else to float64, and each op computes
in its inputs' dtype, so a graph of float32 leaves (the trainer's step)
runs in float32 and one of float64 leaves (the gradient checks) in
float64. Finiteness is enforced at graph boundaries (`leaf`), interior
ops trust their inputs.

`silu_denominator` is the one SiLU of the package: the tape's `silu` and
the inference forward (`NoisePredictor.forward_features`) both divide by
it, so training and inference evaluate the activation the same way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, NumericError, ShapeError


def silu_denominator(x: np.ndarray) -> np.ndarray:
    """1 + exp(-x) in a fresh array: SiLU(x) = x / d and sigmoid(x) = 1 / d.

    Below about -709, exp(-x) overflows to inf, so SiLU is exactly 0 (or
    -0.0) and the sigmoid exactly 0. That overflow is expected; the caller
    silences it with `np.errstate(over="ignore")`, once around all of its
    layers (`forward_features`) or per call (`Tape.silu`).
    """
    d = np.negative(x)
    np.exp(d, out=d)
    d += 1.0
    return d


class Node:
    """One tape entry: its value, the ids of its inputs, and its backward."""

    __slots__ = ("id", "value", "parents", "backward_fn", "is_param", "needs_grad")

    def __init__(self, id, value, parents, backward_fn, is_param, needs_grad):
        self.id = id
        self.value = value
        self.parents = parents
        # backward_fn(grad_out) -> per-parent gradient arrays, aligned with
        # parents; None for a parent that needs no gradient
        self.backward_fn: Callable | None = backward_fn
        self.is_param = is_param
        self.needs_grad = needs_grad


class Tape:
    """Single-owner computation tape; build, call backward, discard."""

    def __init__(self):
        self._nodes: list[Node] = []

    def _record(self, value, parents, backward_fn, is_param=False) -> Node:
        needs_grad = is_param or any(p.needs_grad for p in parents)
        node = Node(len(self._nodes), value, tuple(p.id for p in parents),
                    backward_fn if needs_grad else None, is_param, needs_grad)
        self._nodes.append(node)
        return node

    def leaf(self, value, *, param: bool = False) -> Node:
        """Graph input, float32 kept and any other dtype widened to float64.
        Finiteness is checked here, the graph boundary."""
        arr = np.asarray(value)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite value entering the tape")
        return self._record(arr, (), None, param)

    def silu(self, a: Node) -> Node:
        """Sigmoid-weighted activation x * sigmoid(x); smooth everywhere."""
        x = a.value
        with np.errstate(over="ignore"):
            d = silu_denominator(x)
        out = x / d
        sig = np.divide(1.0, d, out=d)

        def backward(g):
            # g * (sig * (1 + x * (1 - sig))) in one array; each step commutes
            t = np.subtract(1.0, sig)
            t *= x
            t += 1.0
            t *= sig
            t *= g
            return (t,)

        return self._record(out, (a,), backward)

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w + b with the bias broadcast over rows of x."""
        xv, wv, bv = x.value, w.value, b.value
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
            raise ShapeError(f"affine: incompatible shapes {xv.shape} @ {wv.shape}")
        if bv.shape != (wv.shape[1],):
            raise ShapeError(f"affine: bias shape {bv.shape} != ({wv.shape[1]},)")

        def backward(g):
            gx = g @ wv.T if x.needs_grad else None
            return (gx, xv.T @ g, g.sum(axis=0))

        out = xv @ wv
        out += bv
        return self._record(out, (x, w, b), backward)

    def mean_squared_error(self, a: Node, b: Node) -> Node:
        """Mean over all entries of (a - b)^2; the regression loss."""
        if a.value.shape != b.value.shape:
            raise ShapeError(
                f"mean_squared_error: shape {a.value.shape} != {b.value.shape}"
            )
        diff = a.value - b.value
        n = diff.size
        out = np.asarray(np.mean(diff * diff))

        def backward(g):
            d = (2.0 / n) * float(g) * diff
            return (d if a.needs_grad else None, -d if b.needs_grad else None)

        return self._record(out, (a, b), backward)

    # -- reverse pass ----------------------------------------------------

    def backward(self, root: Node) -> dict[int, np.ndarray]:
        """Gradients of the scalar `root` w.r.t. every parameter leaf.

        Deterministic: the tape is walked in fixed reverse creation order
        and contributions accumulate in that order.
        """
        if root.value.shape != ():
            raise ContractError(
                f"backward root must be scalar, got shape {root.value.shape}"
            )
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        grads[root.id] = np.asarray(1.0)
        for node in reversed(self._nodes[: root.id + 1]):
            g = grads[node.id]
            if g is None or node.backward_fn is None:
                continue
            for pid, pg in zip(node.parents, node.backward_fn(g)):
                if pg is None:
                    continue
                # accumulation reassigns (never mutates), so sharing is safe
                grads[pid] = pg if grads[pid] is None else grads[pid] + pg
        out = {}
        for node in self._nodes:
            if node.is_param:
                g = grads[node.id]
                out[node.id] = np.zeros_like(node.value) if g is None else g
        return out
