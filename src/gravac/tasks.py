"""Desk-scale training tasks with hand-written gradients.

Two tasks stand in for full DL workloads: a noisy diagonal quadratic with
its optimum at the origin, and a small tanh MLP classifying two Gaussian blobs. Both
produce analytic gradients (no autodiff) and are fully deterministic given
the rng streams they are handed. ``gradients`` yields every worker's
gradient and loss for one iteration, each drawn only when the caller asks
for it; ``gradient`` draws one worker's. The MLP computes a worker's
gradient in float32, the precision it is sent in, from a float32 copy of
the float64 master weights, on a float32 training batch whose noise is
``gradcore.normal32``'s Box–Muller draw. Its evaluation draws numpy's
float64 normals and runs in float64.

Memory follows the training working set. The MLP evaluates its samples in
blocks of ``EVAL_BLOCK`` rows: it draws every label first, then each
block's features from the same generator, so the stream and the logits
equal one full-batch draw and forward. That holds because numpy's normals
do not depend on how a draw is split; ``normal32``'s do, since it pairs
its uniforms within blocks of ``REDUCE_BLOCK`` entries. A quadratic built
without ``curvature`` stores it as a read-only stride-0 view that owns no
buffer, and computes its noiseless gradient and loss through block-sized
float64 scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gradcore import REDUCE_BLOCK, GradientVector, SeededRng, dot64, normal32

QUADRATIC = "quadratic"
SYNTHETIC_MLP = "synthetic_mlp"
TASK_KINDS = (QUADRATIC, SYNTHETIC_MLP)

# substream tags within a task's data rng
_BATCH = 0
_MEANS = 1
_INIT = 2
_EVAL = 3

# rows per forward of the MLP evaluation; bounds its feature block
EVAL_BLOCK = 256

# the largest MLP training feature allowed: half the float32 range, which
# leaves room for float32 rounding
FEATURE_LIMIT = float(np.finfo(np.float32).max) / 2


@dataclass
class QuadraticBowl:
    """Loss 0.5 * sum(curvature * w^2), optimum at the origin, with additive
    gradient noise.

    Per-sample gradients are curvature*w + noise with i.i.d.
    N(0, noise_std^2) noise, averaged over the batch. The batch mean of the
    noise is drawn directly: one float32 standard normal per coordinate
    (``gradcore.normal32``), scaled by noise_std / sqrt(batch_size), which
    has the same distribution.
    The reported loss is the noiseless objective.
    """

    size: int = 512
    curvature: np.ndarray | None = None
    noise_std: float = 0.0
    batch_size: int = 1
    init_offset: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"task size must be >= 1, got {self.size}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not -np.inf < self.init_offset < np.inf:
            raise ValueError(f"init_offset must be finite, got {self.init_offset}")
        if self.curvature is None:
            self.curvature = np.broadcast_to(np.float64(1), (self.size,))
        else:
            self.curvature = np.asarray(self.curvature, dtype=np.float64)
            if self.curvature.shape != (self.size,) or not np.all(
                    (self.curvature > 0) & (self.curvature < np.inf)):
                raise ValueError("curvature must be positive, finite and match task size")

    @property
    def parameter_count(self) -> int:
        return self.size

    @property
    def metric_name(self) -> str:
        return "loss"

    def initial_weights(self, rng: SeededRng) -> np.ndarray:
        del rng  # deterministic start keeps the decay rate closed-form
        return np.full(self.size, 0.0 + self.init_offset)

    def loss(self, w: np.ndarray) -> float:
        return self._noiseless(w)[1]

    def _noiseless(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """float32(curvature * w) and the loss, taken in the blocks of
        ``REDUCE_BLOCK`` entries that ``dot64`` reduces in: a float64 scratch
        holds a block's gradient, and the blocks' ``dot64`` sums are added
        left to right, so the loss has the bits of ``0.5 * dot64(grad, w)``
        over whole-length arrays."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.size,):
            raise ValueError(f"weights must have shape ({self.size},), got {w.shape}")
        grad32 = np.empty(self.size, dtype=np.float32)
        scratch = np.empty(min(REDUCE_BLOCK, self.size))
        total = 0.0
        for start in range(0, self.size, REDUCE_BLOCK):
            stop = min(start + REDUCE_BLOCK, self.size)
            grad = scratch[:stop - start]
            np.multiply(self.curvature[start:stop], w[start:stop], out=grad)
            grad32[start:stop] = grad
            total += dot64(grad, w[start:stop])
        return grad32, 0.5 * total

    def gradient(self, w: np.ndarray, worker: int, iteration: int, rng: SeededRng,
                 noiseless: tuple[np.ndarray, float] | None = None
                 ) -> tuple[GradientVector, float]:
        """One worker's noisy gradient and the noiseless loss at ``w``.

        The noise is ``normal32``'s float32 Box–Muller draw from the
        generator of the substream ``rng.split(_BATCH, worker, iteration)``,
        times ``float32(noise_std / sqrt(batch_size))``, added to the float32
        noiseless gradient; ``normal32`` scales and adds each block of
        ``REDUCE_BLOCK`` entries as soon as it is drawn. ``noiseless`` is
        ``(float32(curvature * w), loss(w))`` when the caller has
        computed it already; it is not modified.
        """
        grad, loss = self._noiseless(w) if noiseless is None else noiseless
        if self.noise_std > 0.0:
            gen = rng.split(_BATCH, worker, iteration).generator
            scale = np.float32(self.noise_std / np.sqrt(self.batch_size))
            return GradientVector(normal32(gen, self.size, scale, grad)), loss
        return GradientVector(grad.copy()), loss

    def gradients(self, w: np.ndarray, workers: int, iteration: int,
                  rng: SeededRng) -> Iterator[tuple[GradientVector, float]]:
        """Each worker's gradient and loss, in worker order; the noiseless
        part is computed once."""
        noiseless = self._noiseless(w)
        for worker in range(workers):
            yield self.gradient(w, worker, iteration, rng, noiseless)

    def evaluate(self, w: np.ndarray, rng: SeededRng, n_samples: int) -> dict:
        del rng, n_samples
        return {"loss": self.loss(w)}


@dataclass
class SyntheticMlp:
    """Tanh MLP on a two-Gaussian-blob binary classification stream.

    ``widths`` lists input, hidden and output sizes. Per-dimension noise
    scales follow a power-law spectrum spanning ``feature_decades`` decades
    (0 = isotropic), mimicking the feature spectra that make real gradients
    compressible. The class means sit ``blob_distance`` apart in noise
    units (Mahalanobis), so the Bayes accuracy is spectrum-independent.
    Batches are generated online per (worker, iteration): fresh but
    reproducible.
    """

    widths: tuple[int, ...] = (32, 64, 32, 2)
    batch_size: int = 32
    blob_distance: float = 3.0
    blob_spread: float = 1.0
    feature_decades: float = 0.0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"widths must be >= 2 positive layer sizes, got {widths}")
        if widths[-1] != 2:
            raise ValueError("output width must be 2 (binary logits)")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.blob_distance >= 0:
            raise ValueError(f"blob_distance must be >= 0, got {self.blob_distance}")
        if not self.blob_spread > 0:
            raise ValueError(f"blob_spread must be > 0, got {self.blob_spread}")
        if not 0 <= self.feature_decades < np.inf:
            raise ValueError(f"feature_decades must be in [0, inf), got {self.feature_decades}")
        # normal32's draws lie within sqrt(48 ln 2) < 6, so no training feature
        # exceeds (6 + blob_distance / 2) * blob_spread
        if not (6 + self.blob_distance / 2) * self.blob_spread <= FEATURE_LIMIT:
            raise ValueError(f"blob_spread {self.blob_spread} and blob_distance "
                             f"{self.blob_distance} could give float32 training features "
                             f"beyond {FEATURE_LIMIT:.6g}")
        self.widths = widths
        # the flat parameter layout: per layer (weight slice, shape, bias slice)
        self._layout, pos = [], 0
        for fan_in, fan_out in zip(widths, widths[1:]):
            bias_at = pos + fan_in * fan_out
            self._layout.append((slice(pos, bias_at), (fan_in, fan_out),
                                 slice(bias_at, bias_at + fan_out)))
            pos = bias_at + fan_out
        self._total = pos

        d = widths[0]
        exponents = np.arange(d) / max(d - 1, 1)
        self._sigma = self.blob_spread * 10.0 ** (-self.feature_decades * exponents)
        gen = SeededRng(0).split(_MEANS).generator
        # separation direction concentrated on the large-scale dimensions
        # (scale-weighted), unit length after whitening so the Bayes optimum
        # is Phi(blob_distance / 2) for any spectrum
        direction = self._sigma * gen.standard_normal(d)
        norm = np.linalg.norm(direction)
        if not norm > 0:
            raise ValueError(f"blob_spread {self.blob_spread} gives a separation direction "
                             f"of norm {norm}, not positive")
        direction /= norm
        half = 0.5 * self.blob_distance * self._sigma * direction
        self._means = np.stack([-half, half])
        # the training batch's float32 scales and means
        self._sigma32 = self._sigma.astype(np.float32)
        self._means32 = self._means.astype(np.float32)

    @property
    def parameter_count(self) -> int:
        return self._total

    @property
    def metric_name(self) -> str:
        return "accuracy"

    def initial_weights(self, rng: SeededRng) -> np.ndarray:
        gen = rng.split(_INIT).generator
        w = np.zeros(self._total, dtype=np.float64)
        for weight, (fan_in, fan_out), _ in self._layout:
            w[weight] = gen.standard_normal(fan_in * fan_out) / np.sqrt(fan_in)
        return w

    def sample_batch(self, gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n labels, then their float32 feature rows: ``normal32``'s n·d
        standard normals as n rows of d, scaled in place by the float32
        noise scales and shifted by the label's float32 class mean."""
        labels = gen.integers(0, 2, size=n)
        x = normal32(gen, n * self.widths[0]).reshape(n, self.widths[0])
        x *= self._sigma32
        x += self._means32[labels]
        return x, labels

    def _features(self, gen: np.random.Generator, labels: np.ndarray) -> np.ndarray:
        """The evaluation's float64 feature rows, one per label: numpy's
        standard normals scaled around the label's class mean."""
        x = gen.standard_normal((len(labels), self.widths[0]))
        x *= self._sigma
        x += self._means[labels]
        return x

    def _forward(self, w: np.ndarray, x: np.ndarray):
        """Logits, activations and layers in the dtype of ``w``: float32
        weights run in float32, the wire format, and any other in float64."""
        w = np.asarray(w)
        dtype = np.float32 if w.dtype == np.float32 else np.float64
        w = w.astype(dtype, copy=False)
        layers = [(w[weight].reshape(shape), w[bias]) for weight, shape, bias in self._layout]
        h = np.asarray(x, dtype=dtype)
        activations = [h]
        for weight, bias in layers[:-1]:
            h = np.tanh(h @ weight + bias)
            activations.append(h)
        w_out, b_out = layers[-1]
        logits = h @ w_out + b_out
        return logits, activations, layers

    def gradient_on(self, w: np.ndarray, x: np.ndarray,
                    labels: np.ndarray) -> tuple[GradientVector, float]:
        logits, activations, layers = self._forward(w, x)
        n = x.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = _cross_entropy(logits, labels)

        delta = probs
        delta[np.arange(n), labels] -= 1.0
        delta /= n

        # a float32 backward writes into the buffer GradientVector wraps
        flat = np.empty(self._total, dtype=logits.dtype)
        for layer_idx in range(len(layers) - 1, -1, -1):
            weight, _ = layers[layer_idx]
            weight_at, shape, bias_at = self._layout[layer_idx]
            np.matmul(activations[layer_idx].T, delta, out=flat[weight_at].reshape(shape))
            np.sum(delta, axis=0, out=flat[bias_at])
            if layer_idx > 0:
                delta = (delta @ weight.T) * (1.0 - activations[layer_idx] ** 2)
        return GradientVector(flat), loss

    def gradient(self, w: np.ndarray, worker: int, iteration: int,
                 rng: SeededRng) -> tuple[GradientVector, float]:
        """One worker's gradient and loss, computed in float32 on its batch."""
        gen = rng.split(_BATCH, worker, iteration).generator
        x, labels = self.sample_batch(gen, self.batch_size)
        return self.gradient_on(np.asarray(w, dtype=np.float32), x, labels)

    def gradients(self, w: np.ndarray, workers: int, iteration: int,
                  rng: SeededRng) -> Iterator[tuple[GradientVector, float]]:
        """Each worker's gradient and loss on its own batch, in worker order;
        the weights are cast to float32 once."""
        w32 = np.asarray(w, dtype=np.float32)
        return (self.gradient(w32, worker, iteration, rng) for worker in range(workers))

    def evaluate(self, w: np.ndarray, rng: SeededRng, n_samples: int) -> dict:
        gen = rng.split(_EVAL).generator
        labels = gen.integers(0, 2, size=n_samples)
        logits = np.empty((n_samples, 2))
        for start in range(0, n_samples, EVAL_BLOCK):
            rows = slice(start, start + EVAL_BLOCK)
            logits[rows] = self._forward(w, self._features(gen, labels[rows]))[0]
        accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
        return {"accuracy": accuracy, "loss": _cross_entropy(logits, labels)}


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(-np.mean(shifted[np.arange(len(labels)), labels] - log_norm))


TASK_CLASSES = {QUADRATIC: QuadraticBowl, SYNTHETIC_MLP: SyntheticMlp}
