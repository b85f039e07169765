"""Desk-scale training tasks with hand-written gradients.

Two tasks stand in for full DL workloads: a noisy diagonal quadratic with a
known optimum, and a small tanh MLP classifying two Gaussian blobs. Both
produce analytic gradients (no autodiff) and are fully deterministic given
the rng streams they are handed. ``gradients`` returns every worker's
gradient and loss for one iteration; ``gradient`` draws one worker's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import SEED_LIMIT, GradientVector, SeededRng

QUADRATIC = "quadratic"
SYNTHETIC_MLP = "synthetic_mlp"
TASK_KINDS = (QUADRATIC, SYNTHETIC_MLP)

# substream tags within a task's data rng
_BATCH = 0
_MEANS = 1
_INIT = 2
_EVAL = 3


@dataclass
class QuadraticBowl:
    """Loss 0.5 * sum(curvature * (w - w_star)^2) with additive gradient noise.

    Per-sample gradients are curvature*(w - w_star) + noise with i.i.d.
    Gaussian noise, averaged over the batch. The reported loss is the
    noiseless objective.
    """

    size: int = 512
    curvature: np.ndarray | None = None
    w_star: np.ndarray | None = None
    noise_std: float = 0.0
    batch_size: int = 1
    init_offset: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"task size must be >= 1, got {self.size}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.curvature is None:
            self.curvature = np.ones(self.size, dtype=np.float64)
        else:
            self.curvature = np.asarray(self.curvature, dtype=np.float64)
            if self.curvature.shape != (self.size,) or not np.all(self.curvature > 0):
                raise ValueError("curvature must be positive and match task size")
        if self.w_star is None:
            self.w_star = np.zeros(self.size, dtype=np.float64)
        else:
            self.w_star = np.asarray(self.w_star, dtype=np.float64)
            if self.w_star.shape != (self.size,):
                raise ValueError("w_star must match task size")

    @property
    def parameter_count(self) -> int:
        return self.size

    @property
    def metric_name(self) -> str:
        return "loss"

    def initial_weights(self, rng: SeededRng) -> np.ndarray:
        del rng  # deterministic start keeps the decay rate closed-form
        return self.w_star + self.init_offset

    def loss(self, w: np.ndarray) -> float:
        d = np.asarray(w, dtype=np.float64) - self.w_star
        return float(0.5 * np.dot(self.curvature * d, d))

    def _noiseless(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        return self.curvature * (np.asarray(w, dtype=np.float64) - self.w_star), self.loss(w)

    def gradient(self, w: np.ndarray, worker: int, iteration: int, rng: SeededRng,
                 noiseless: tuple[np.ndarray, float] | None = None
                 ) -> tuple[GradientVector, float]:
        """One worker's noisy gradient and the noiseless loss at ``w``.

        ``noiseless`` is ``(curvature * (w - w_star), loss(w))`` when the
        caller has computed it already; it is not modified.
        """
        grad, loss = self._noiseless(w) if noiseless is None else noiseless
        if self.noise_std > 0.0:
            gen = rng.split(_BATCH, worker, iteration).generator
            noise = gen.standard_normal((self.batch_size, self.size))
            # a batch of one is its own mean, bit for bit
            noisy = noise[0] if self.batch_size == 1 else noise.mean(axis=0)
            noisy *= self.noise_std
            noisy += grad
            grad = noisy
        return GradientVector(grad), loss

    def gradients(self, w: np.ndarray, workers: int, iteration: int,
                  rng: SeededRng) -> tuple[list[GradientVector], list[float]]:
        """Every worker's gradient and loss; the noiseless part is computed once."""
        noiseless = self._noiseless(w)
        grads = [self.gradient(w, worker, iteration, rng, noiseless)[0]
                 for worker in range(workers)]
        return grads, [noiseless[1]] * workers

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
    data_seed: int = 0

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
        if not self.feature_decades >= 0:
            raise ValueError(f"feature_decades must be >= 0, got {self.feature_decades}")
        if not 0 <= self.data_seed < SEED_LIMIT:
            raise ValueError(f"data_seed must be in [0, 2**53), got {self.data_seed}")
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
        gen = SeededRng(self.data_seed).split(_MEANS).generator
        # separation direction concentrated on the large-scale dimensions
        # (scale-weighted), unit length after whitening so the Bayes optimum
        # is Phi(blob_distance / 2) for any spectrum
        direction = self._sigma * gen.standard_normal(d)
        norm = np.linalg.norm(direction)
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError(f"blob_spread {self.blob_spread} gives a separation direction "
                             f"of norm {norm}, not finite and positive")
        direction /= norm
        half = 0.5 * self.blob_distance * self._sigma * direction
        self._means = np.stack([-half, half])

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

    def _unpack(self, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(w[weight].reshape(shape), w[bias]) for weight, shape, bias in self._layout]

    def sample_batch(self, gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = gen.integers(0, 2, size=n)
        x = self._means[labels] + self._sigma * gen.standard_normal((n, self.widths[0]))
        return x, labels

    def _forward(self, w: np.ndarray, x: np.ndarray):
        layers = self._unpack(np.asarray(w, dtype=np.float64))
        activations = [x]
        h = x
        for weight, bias in layers[:-1]:
            h = np.tanh(h @ weight + bias)
            activations.append(h)
        w_out, b_out = layers[-1]
        logits = h @ w_out + b_out
        return logits, activations, layers

    def loss_on(self, w: np.ndarray, x: np.ndarray, labels: np.ndarray) -> float:
        logits, _, _ = self._forward(w, x)
        return _cross_entropy(logits, labels)

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

        flat = np.empty(self._total, dtype=np.float64)
        for layer_idx in range(len(layers) - 1, -1, -1):
            weight, _ = layers[layer_idx]
            weight_at, _, bias_at = self._layout[layer_idx]
            flat[weight_at] = (activations[layer_idx].T @ delta).ravel()
            flat[bias_at] = delta.sum(axis=0)
            if layer_idx > 0:
                delta = (delta @ weight.T) * (1.0 - activations[layer_idx] ** 2)
        return GradientVector(flat), loss

    def gradient(self, w: np.ndarray, worker: int, iteration: int,
                 rng: SeededRng) -> tuple[GradientVector, float]:
        gen = rng.split(_BATCH, worker, iteration).generator
        x, labels = self.sample_batch(gen, self.batch_size)
        return self.gradient_on(w, x, labels)

    def gradients(self, w: np.ndarray, workers: int, iteration: int,
                  rng: SeededRng) -> tuple[list[GradientVector], list[float]]:
        """Every worker's gradient and loss on its own batch."""
        grads, losses = [], []
        for worker in range(workers):
            g, loss = self.gradient(w, worker, iteration, rng)
            grads.append(g)
            losses.append(loss)
        return grads, losses

    def evaluate(self, w: np.ndarray, rng: SeededRng, n_samples: int) -> dict:
        gen = rng.split(_EVAL).generator
        x, labels = self.sample_batch(gen, n_samples)
        logits, _, _ = self._forward(w, x)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
        return {"accuracy": accuracy, "loss": _cross_entropy(logits, labels)}


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(-np.mean(shifted[np.arange(len(labels)), labels] - log_norm))


TASK_CLASSES = {QUADRATIC: QuadraticBowl, SYNTHETIC_MLP: SyntheticMlp}
