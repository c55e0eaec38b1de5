"""Gradient-inversion attack at desk scale.

The model under attack is a linear-softmax classifier on small
synthetic images (Gaussian blob per class plus pixel noise). Its
cross-entropy gradient has the closed form

    dW = (p - e_y) x^T,   db = p - e_y,   p = softmax(W x + b),

which makes per-node gradients cheap and gives an exact internal
oracle: for a single-sample gradient, x equals any row of dW divided by
the matching entry of db. The attack itself follows the
gradient-matching family: optimize a dummy input so that its gradient
matches the observed one under cosine dissimilarity, using
sign-of-gradient descent (learning rate decays 10x at 50% and 75% of
the iterations; a constant step would oscillate at the step size).
Labels are treated as known: the attack reconstructs inputs only.

Reconstruction quality is scored with a single-window SSIM over the
whole image; the images are smaller than the standard sliding window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import GradientVector, Mode
from .topology import Graph, WeightMatrix, metropolis_weights

__all__ = [
    "ToyImage",
    "ToyModel",
    "TargetReconstruction",
    "AttackResult",
    "make_blob_dataset",
    "toy_gradient",
    "exact_input_from_gradient",
    "invert_gradient",
    "ssim",
    "attack_experiment",
]

DEFAULT_HEIGHT = 8
DEFAULT_WIDTH = 8
DEFAULT_CLASSES = 4


@dataclass(frozen=True)
class ToyImage:
    """Grayscale image with pixels in [0, 1] and a class label."""

    pixels: np.ndarray
    label: int

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-d, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixels have non-finite entries")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixels must lie in [0, 1]")
        if self.label < 0:
            raise ValueError(f"label must be nonnegative, got {self.label}")
        object.__setattr__(self, "pixels", px)

    @property
    def flat(self) -> np.ndarray:
        return self.pixels.ravel()


@dataclass(frozen=True)
class ToyModel:
    """Linear-softmax classifier: logits = w @ x + b."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(
                f"need w of shape (classes, pixels) and matching b; got "
                f"{w.shape} and {b.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("model has non-finite entries")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.w.shape[1]

    @property
    def dim(self) -> int:
        return self.w.size + self.b.size


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _blob(cr: float, cc: float, height: int, width: int) -> np.ndarray:
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    return np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * 1.3**2))


def make_blob_dataset(
    count: int,
    seed,
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    classes: int = DEFAULT_CLASSES,
    noise: float = 0.12,
    jitter: float = 1.6,
) -> list[ToyImage]:
    """Synthetic labeled images: one Gaussian blob per image, centered
    near its class's anchor position (a ring around the image center)
    with a per-image jitter, plus pixel noise.

    The jitter keeps images of the same class individually distinct, so
    averaged gradients blur toward a class smear instead of any single
    input. Labels cycle through the classes; pixels are clipped to
    [0, 1]. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    images = []
    for idx in range(count):
        label = idx % classes
        angle = 2.0 * math.pi * label / classes
        cr = height / 2.0 - 0.5 + 0.28 * height * math.sin(angle)
        cc = width / 2.0 - 0.5 + 0.28 * width * math.cos(angle)
        cr += rng.uniform(-jitter, jitter)
        cc += rng.uniform(-jitter, jitter)
        base = 0.9 * _blob(cr, cc, height, width)
        pixels = np.clip(base + noise * rng.standard_normal((height, width)), 0.0, 1.0)
        images.append(ToyImage(pixels=pixels, label=label))
    return images


def toy_gradient(model: ToyModel, img: ToyImage) -> GradientVector:
    """Exact cross-entropy gradient, flattened as (dW.ravel(), db)."""
    x = img.flat
    if x.shape[0] != model.n_pixels:
        raise ValueError(
            f"image has {x.shape[0]} pixels, model expects {model.n_pixels}"
        )
    if img.label >= model.n_classes:
        raise ValueError(f"label {img.label} out of range for {model.n_classes} classes")
    p = _softmax(model.w @ x + model.b)
    a = p.copy()
    a[img.label] -= 1.0
    return GradientVector(values=np.concatenate([np.outer(a, x).ravel(), a]))


def _split_gradient(vec: np.ndarray, model: ToyModel) -> tuple[np.ndarray, np.ndarray]:
    if vec.shape[0] != model.dim:
        raise ValueError(f"gradient dim {vec.shape[0]} != model dim {model.dim}")
    cut = model.w.size
    return vec[:cut].reshape(model.w.shape), vec[cut:]


def exact_input_from_gradient(observed, model: ToyModel) -> np.ndarray:
    """Closed-form input recovery from a single-sample gradient.

    Each row of dW equals (p - e_y)_c * x, so dividing the row with the
    largest bias-gradient magnitude by that entry returns x exactly.
    Only valid for an unaveraged gradient; for aggregates it yields the
    corresponding blend of inputs."""
    vec = observed.values if isinstance(observed, GradientVector) else np.asarray(observed, float)
    dw, db = _split_gradient(vec, model)
    c = int(np.argmax(np.abs(db)))
    if abs(db[c]) < 1e-12:
        raise ValueError("bias gradient is zero; input is not recoverable")
    return dw[c] / db[c]


def invert_gradient(
    observed,
    model: ToyModel,
    label: int,
    iters: int = 1000,
    lr: float = 0.1,
    seed=0,
    image_shape: tuple[int, int] | None = None,
) -> ToyImage:
    """Reconstruct an input whose gradient matches the observed vector.

    Starts from a random dummy image and runs sign-of-gradient descent
    on the cosine dissimilarity between the dummy's gradient and the
    observed one, clamping to [0, 1] each step. A zero observation
    carries no signal and returns the initial dummy unchanged.
    """
    if image_shape is None:
        side = math.isqrt(model.n_pixels)
        if side * side != model.n_pixels:
            raise ValueError("pass image_shape for non-square images")
        image_shape = (side, side)
    vec = observed.values if isinstance(observed, GradientVector) else np.asarray(observed, float)
    dw_obs, db_obs = _split_gradient(vec, model)
    obs = np.concatenate([dw_obs.ravel(), db_obs])
    obs_norm = np.linalg.norm(obs)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, model.n_pixels)
    if obs_norm == 0.0:
        return ToyImage(pixels=x.reshape(image_shape), label=label)
    obs_hat = obs / obs_norm

    w = model.w
    cut = w.size
    for it in range(iters):
        step = lr * (0.1 ** ((it >= iters // 2) + (it >= 3 * iters // 4)))
        p = _softmax(w @ x + model.b)
        a = p.copy()
        a[label] -= 1.0
        g = np.concatenate([np.outer(a, x).ravel(), a])
        g_norm = np.linalg.norm(g)
        if g_norm == 0.0:
            break  # saturated prediction: no gradient signal left
        g_hat = g / g_norm
        cos = float(g_hat @ obs_hat)
        if not math.isfinite(cos):
            raise RuntimeError(
                f"gradient matching diverged at iteration {it}: cosine={cos}"
            )
        # d(1 - cos)/dx via the chain rule through g(x); S is the
        # softmax Jacobian diag(p) - p p^T.
        v = -(obs_hat - cos * g_hat) / g_norm
        v_w = v[:cut].reshape(w.shape)
        v_b = v[cut:]
        u = v_w @ x + v_b
        s_u = p * u - p * (p @ u)
        grad_x = w.T @ s_u + v_w.T @ a
        x = np.clip(x - step * np.sign(grad_x), 0.0, 1.0)
    return ToyImage(pixels=x.reshape(image_shape), label=label)


def ssim(a, b) -> float:
    """Structural similarity over the whole image (single window).

    ((2 mu_a mu_b + C1)(2 cov + C2)) /
    ((mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2))
    with C1 = (0.01 L)^2, C2 = (0.03 L)^2 for dynamic range L = 1 and
    unbiased (co)variances. Symmetric; equals 1 only for identical
    images; lies in [-1, 1].
    """
    pa = a.pixels if isinstance(a, ToyImage) else np.asarray(a, dtype=float)
    pb = b.pixels if isinstance(b, ToyImage) else np.asarray(b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError(f"image shapes differ: {pa.shape} vs {pb.shape}")
    c1 = 0.01**2
    c2 = 0.03**2
    mu_a = pa.mean()
    mu_b = pb.mean()
    var_a = pa.var(ddof=1)
    var_b = pb.var(ddof=1)
    cov = float(((pa - mu_a) * (pb - mu_b)).sum() / (pa.size - 1))
    return float(
        ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
        / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
    )


@dataclass(frozen=True)
class TargetReconstruction:
    """Attack outcome for one honest node; is_neighbor is None for
    centralized modes where adjacency plays no role."""

    node: int
    is_neighbor: bool | None
    ssim: float
    image: ToyImage


@dataclass(frozen=True)
class AttackResult:
    mode: Mode
    corrupt_node: int
    targets: tuple[TargetReconstruction, ...]
    average_ssim: float


def _observed_for_target(
    mode: Mode,
    target: int,
    grads: np.ndarray,
    corrupt_node: int,
    neighbor_set: set[int],
    weight_row: np.ndarray | None,
) -> np.ndarray:
    n = grads.shape[0]
    if mode is Mode.CFL:
        return grads[target]
    if mode is Mode.CFL_SA:
        return grads.mean(axis=0)
    if mode is Mode.DFL:
        if target in neighbor_set:
            return grads[target]
        others = [j for j in range(n) if j != corrupt_node and j not in neighbor_set]
        return grads[others].mean(axis=0)
    # DFL_SA: neighbors are attacked through the gossip aggregate the
    # adversary receives; non-neighbors through the average of all
    # honest nodes' gradients.
    if target in neighbor_set:
        return weight_row @ grads
    honest = [j for j in range(n) if j != corrupt_node]
    return grads[honest].mean(axis=0)


def attack_experiment(
    mode: Mode,
    n: int = 10,
    graph: Graph | None = None,
    weights: WeightMatrix | None = None,
    seed: int = 0,
    corrupt_node: int = 0,
    iters: int = 1000,
    lr: float = 0.1,
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    classes: int = DEFAULT_CLASSES,
) -> AttackResult:
    """Reconstruct every honest node's image under one mode and score it.

    Each node holds one synthetic image; all per-node gradients are
    taken at a shared random model. The observed quantity per target
    follows the mode (exact gradient, global average, neighbor gradient
    or non-neighbor average, gossip aggregate or honest average).
    Dataset, model and per-target dummy initializations derive from
    (seed, node) only, never from the mode or graph, so runs across
    modes are directly comparable. Deterministic per seed.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 nodes, got {n}")
    if mode.decentralized:
        if graph is None:
            raise ValueError(f"mode {mode.value} requires a graph")
        if graph.n != n:
            raise ValueError(f"graph has n={graph.n}, expected {n}")
        if weights is None:
            weights = metropolis_weights(graph)
    if not (0 <= corrupt_node < n):
        raise ValueError(f"corrupt node {corrupt_node} out of range")

    root = np.random.SeedSequence(entropy=(int(seed), 0x617474))
    data_ss, model_ss = root.spawn(2)
    images = make_blob_dataset(n, data_ss, height, width, classes)
    rng = np.random.default_rng(model_ss)
    model = ToyModel(
        w=0.01 * rng.standard_normal((classes, height * width)),
        b=np.zeros(classes),
    )
    grads = np.stack([toy_gradient(model, img).values for img in images])
    neighbor_set = (
        set(int(j) for j in graph.neighbors(corrupt_node))
        if mode.decentralized
        else set()
    )
    weight_row = weights.row(corrupt_node) if mode is Mode.DFL_SA else None

    targets = []
    for node in range(n):
        if node == corrupt_node:
            continue
        observed = _observed_for_target(
            mode, node, grads, corrupt_node, neighbor_set, weight_row
        )
        recon = invert_gradient(
            observed,
            model,
            label=images[node].label,
            iters=iters,
            lr=lr,
            seed=np.random.SeedSequence(entropy=(int(seed), int(node))),
            image_shape=(height, width),
        )
        targets.append(
            TargetReconstruction(
                node=node,
                is_neighbor=(node in neighbor_set) if mode.decentralized else None,
                ssim=ssim(recon, images[node]),
                image=recon,
            )
        )
    return AttackResult(
        mode=mode,
        corrupt_node=corrupt_node,
        targets=tuple(targets),
        average_ssim=float(np.mean([t.ssim for t in targets])),
    )
