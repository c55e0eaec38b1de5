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

The adversary attacks its one-round view of the per-node gradients,
Y = G^T V in protocol.view_matrix's V, through each target's Gaussian
conditional mean (see `attack_experiment`).

The inversion is batched: `invert_gradient` takes a stack of observed
gradients with one label and one dummy seed per row, and runs one
descent loop for all rows; `attack_experiment` sends every target of
every (mode, graph, weights) view of one seed in one call. A single
observation is a batch of one. The dummy's gradient has rank one,
g = [a x^T, a] with a = p - e_y, so the loop never forms it: it
evaluates the cosine and its gradient from a, x and the observation
split into its (classes x pixels) and bias parts, and every step runs
on (rows x classes) and (rows x pixels) arrays. Rows share only the
model: each row keeps its own zero-observation and saturation stops,
and every pixel moves by exactly -step, 0 or +step per step, so a row's
reconstruction does not depend on what else is in its batch (the
products' rounding could matter only through the sign of a gradient
component within rounding of 0).

Each step phase (one step size) ends early once the batch repeats. With
a fixed step and fixed running rows, a step is a deterministic map of
the running batch x, and in practice the clamped +-step moves soon
settle every row into a cycle of period 2 or 4. When x equals the
state four steps back, the last four states recur in that order until
the step changes, so the loop takes the one the phase would end on and
skips the rest of the phase. This is exact: the skipped steps only
revisit states that already passed the saturation and finiteness
checks. On the benchmark's attack batch about 100 of 1000 steps run.

Reconstruction quality is scored with a single-window SSIM over the
whole image; the images are smaller than the standard sliding window.
`attack_experiment` scores every target of its batch in one `ssim` call
on two (targets x H x W) stacks, the reconstructions and their nodes'
images; each value equals that pair's one-image SSIM bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .protocol import Mode, view_matrix
from .topology import Graph, WeightMatrix, metropolis_weights

__all__ = [
    "ToyImage",
    "ToyModel",
    "TargetReconstruction",
    "AttackResult",
    "make_blob_dataset",
    "toy_gradient",
    "invert_gradient",
    "ssim",
    "attack_experiment",
]

# The synthetic images: size, class count, pixel noise and blob jitter.
_HEIGHT = 8
_WIDTH = 8
_CLASSES = 4
_NOISE = 0.12
_JITTER = 1.6


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
    """Softmax over the last axis (one row per sample)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _blob(cr: float, cc: float) -> np.ndarray:
    rows = np.arange(_HEIGHT)[:, None]
    cols = np.arange(_WIDTH)[None, :]
    return np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * 1.3**2))


def make_blob_dataset(count: int, seed) -> list[ToyImage]:
    """Synthetic labeled images of _HEIGHT x _WIDTH pixels: one
    Gaussian blob per image, centered near its class's anchor position
    (a ring around the image center) with a per-image jitter, plus
    pixel noise.

    The jitter keeps images of the same class individually distinct, so
    averaged gradients blur toward a class smear instead of any single
    input. Labels cycle through the classes; pixels are clipped to
    [0, 1]. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    images = []
    for idx in range(count):
        label = idx % _CLASSES
        angle = 2.0 * math.pi * label / _CLASSES
        cr = _HEIGHT / 2.0 - 0.5 + 0.28 * _HEIGHT * math.sin(angle)
        cc = _WIDTH / 2.0 - 0.5 + 0.28 * _WIDTH * math.cos(angle)
        cr += rng.uniform(-_JITTER, _JITTER)
        cc += rng.uniform(-_JITTER, _JITTER)
        base = 0.9 * _blob(cr, cc)
        pixels = np.clip(base + _NOISE * rng.standard_normal((_HEIGHT, _WIDTH)), 0.0, 1.0)
        images.append(ToyImage(pixels=pixels, label=label))
    return images


def toy_gradient(model: ToyModel, img: ToyImage) -> np.ndarray:
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
    return np.concatenate([np.outer(a, x).ravel(), a])


def invert_gradient(
    observed,
    model: ToyModel,
    label,
    iters: int = 1000,
    lr: float = 0.1,
    seed=0,
) -> ToyImage | tuple[ToyImage, ...]:
    """Reconstruct inputs whose gradients match the observed vectors.

    ``observed`` is one gradient of length ``model.dim`` or a stack of
    them, one per row; ``label`` and ``seed`` then hold one entry per row.
    A single gradient is run as a batch of one and returns one ToyImage;
    a stack returns a tuple of ToyImages in row order. The images are
    square, of side sqrt(model.n_pixels); a model whose pixel count is
    not a square, or a label outside [0, classes), raises ValueError
    before any descent.

    Each row starts from a random dummy image drawn from its own seed
    (anything np.random.default_rng takes; rows given the same seed
    object share one draw) and runs sign-of-gradient descent on the cosine dissimilarity between
    the dummy's gradient and its observed one, clamping to [0, 1] each
    step. The dummy's gradient g = [a x^T, a], a = softmax(W x + b) - e_y,
    is never formed. With the unit observation split once into O
    (classes x pixels) and o_b, and ox = O x + o_b:
      g . o_hat = a . ox,    |g|^2 = |a|^2 (|x|^2 + 1),
    and -|g| d(1 - cos)/dx, which has the gradient's opposite sign, is
      h = (p * v - p (p . v)) W + O^T a - (a . ox) / (|x|^2 + 1) x,
      v = ox - (a . ox) / |a|^2 a.
    Each step moves x by +step * sign(h) and builds only (rows x classes)
    and (rows x pixels) arrays, none with a ``model.dim`` axis.
    All rows descend together, but every step is row-wise, and rows
    share only the model:
      - a zero observation carries no signal and returns its initial
        dummy unchanged;
      - a row whose own gradient vanishes (a saturated prediction:
        a = 0 exactly) stops there for good, while the other rows go
        on; a nonzero a too small for |a|^2 goes on, its direction
        taken from a times a power of two;
      - a non-finite cosine on any running row raises RuntimeError,
        naming the row's index in ``observed``.
    Stopped rows leave the descent, so they cost nothing after they
    stop. So a row's result does not depend on what else is in its batch. A
    step moves each pixel by exactly -step, 0 or +step before the clamp,
    so the batch's products, whose rounding may differ from a batch of
    one, could change a result only through a sign of a gradient
    component within rounding of 0.

    A step phase (one step size) ends early once the running batch
    repeats. Within a phase, and between two saturation stops, a step is
    a deterministic map of the running rows' pixels x_t, so
    x_{t+1} = x_{t-3} means x_{s+4} = x_s for every later step s of the
    phase. The loop keeps the last four states, and on such a repeat
    takes the state the phase ends on and goes on from the next phase; a
    row leaving the batch or a new step size clears them. Every skipped
    state was already checked for saturation and a non-finite cosine, so
    the result equals running every step.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    side = math.isqrt(model.n_pixels)
    if side * side != model.n_pixels:
        raise ValueError(f"model has {model.n_pixels} pixels, not a square image")
    obs = np.asarray(observed, float)
    single = obs.ndim == 1
    obs = np.atleast_2d(obs)
    labels = np.array([label] if single else label, dtype=int)
    seeds = [seed] if single else list(seed)
    rows = obs.shape[0]
    if obs.ndim != 2 or labels.shape != (rows,) or len(seeds) != rows:
        raise ValueError(
            f"need one label and one seed per observed row; got {rows} "
            f"rows, {labels.size} labels, {len(seeds)} seeds"
        )
    if obs.shape[1] != model.dim:
        raise ValueError(f"gradient dim {obs.shape[1]} != model dim {model.dim}")
    classes = model.n_classes
    out_of_range = np.flatnonzero((labels < 0) | (labels >= classes))
    if out_of_range.size:
        row = out_of_range[0]
        raise ValueError(f"label {labels[row]} of row {row} out of range for {classes} classes")
    obs_norm = np.linalg.norm(obs, axis=1)
    drawn = {}  # one dummy per distinct seed object, shared by its rows
    for s in seeds:
        if id(s) not in drawn:
            drawn[id(s)] = np.random.default_rng(s).uniform(0.0, 1.0, model.n_pixels)
    x = np.stack([drawn[id(s)] for s in seeds])

    # Only the running rows descend, compacted into their own arrays: a
    # zero observation keeps its dummy from the start, and a saturated
    # row leaves the batch at the step its gradient vanishes. Their
    # pixels are written back to x in row order.
    running = np.flatnonzero(obs_norm != 0.0)
    x_run = x[running]
    obs_hat = obs[running] / obs_norm[running, None]
    w = model.w
    o_w = obs_hat[:, : w.size].reshape(len(running), *w.shape)
    o_b = obs_hat[:, w.size:]
    one_hot = np.eye(classes)[labels[running]]
    # The last four states under this step and these running rows: when
    # a step reproduces the oldest, the four recur in order to the phase
    # end, so the loop jumps to the one the phase ends on.
    ends = (iters // 2, 3 * iters // 4, iters)
    back = []
    it = 0
    while it < iters and running.size:
        phase = (it >= iters // 2) + (it >= 3 * iters // 4)
        if it in ends:
            back = []
        step = lr * (0.1 ** phase)
        p = _softmax(x_run @ w.T + model.b)
        a = p - one_hot
        a_sq = np.einsum("rc,rc->r", a, a)
        a_scaled = a
        if not a_sq.all():
            # |a|^2 is 0 for a = 0, a saturated prediction with no
            # gradient signal left, and for a nonzero a that underflows
            # it. This step then takes v below, which is scale-free in a,
            # from a times 2^-e, e the exponent of max|a|: exact, so a
            # row that does not underflow keeps every bit.
            _, e = np.frexp(np.abs(a).max(axis=1))
            a_scaled = np.ldexp(a, -e[:, None])
            a_sq = np.einsum("rc,rc->r", a_scaled, a_scaled)
            keep = a_sq != 0.0
            if not keep.all():
                x[running[~keep]] = x_run[~keep]
                running, x_run, o_w, o_b, one_hot, p, a, a_scaled, a_sq = (
                    v[keep] for v in (running, x_run, o_w, o_b, one_hot, p, a, a_scaled, a_sq)
                )
                back = []
                if not running.size:
                    break
        ox = (o_w @ x_run[:, :, None])[:, :, 0] + o_b
        dot = np.einsum("rc,rc->r", a, ox)  # |g| cos
        dot_scaled = dot if a_scaled is a else np.einsum("rc,rc->r", a_scaled, ox)
        x_sq1 = np.einsum("rq,rq->r", x_run, x_run) + 1.0
        bad = ~np.isfinite(dot)
        if bad.any():
            cos = dot_scaled / np.sqrt(a_sq * x_sq1)
            raise RuntimeError(
                f"gradient matching diverged at iteration {it}: "
                f"cosine={cos[bad][0]} (row {running[bad][0]})"
            )
        # h = -|g| d(1 - cos)/dx via the chain rule through g(x); the
        # softmax Jacobian diag(p) - p p^T acts on v = ox - (dot/|a|^2) a.
        pv = p * (ox - (dot_scaled / a_sq)[:, None] * a_scaled)
        h = (
            (pv - p * pv.sum(axis=1, keepdims=True)) @ w
            + (a[:, None, :] @ o_w)[:, 0]
            - (dot / x_sq1)[:, None] * x_run
        )
        # a new array each step, since back holds the earlier ones; the
        # in-place clamp gives the bits of np.clip at less call overhead
        x_run = x_run + step * np.sign(h)
        np.maximum(x_run, 0.0, out=x_run)
        np.minimum(x_run, 1.0, out=x_run)
        it += 1
        if len(back) == 4 and np.array_equal(x_run, back[0]):
            x_run, it = back[(ends[phase] - it) % 4], ends[phase]
        back = back[-3:] + [x_run]
    x[running] = x_run
    images = tuple(
        ToyImage(pixels=x[r].reshape(side, side), label=int(labels[r]))
        for r in range(rows)
    )
    return images[0] if single else images


def ssim(a, b) -> float | np.ndarray:
    """Structural similarity over the whole image (single window).

    ((2 mu_a mu_b + C1)(2 cov + C2)) /
    ((mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2))
    with C1 = (0.01 L)^2, C2 = (0.03 L)^2 for dynamic range L = 1 and
    unbiased (co)variances. Symmetric; equals 1 only for identical
    images; lies in [-1, 1].

    a and b are two images, as ToyImages or 2-d arrays, which give a
    float; or two (k, H, W) stacks, scored pair by pair, which give an
    array of k values. Every reduction runs over one image's H x W
    pixels, so each value of a stack equals its pair's own value bit
    for bit. mu^2 is np.float_power, the C pow of a scalar's ``**``: an
    array's ``**`` squares instead, which differs in the last bit.
    """
    pa = a.pixels if isinstance(a, ToyImage) else np.asarray(a, dtype=float)
    pb = b.pixels if isinstance(b, ToyImage) else np.asarray(b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError(f"image shapes differ: {pa.shape} vs {pb.shape}")
    if pa.ndim not in (2, 3):
        raise ValueError(f"need images or (k, H, W) stacks, got shape {pa.shape}")
    c1 = 0.01**2
    c2 = 0.03**2
    pixels = (-2, -1)
    mu_a = pa.mean(axis=pixels, keepdims=True)
    mu_b = pb.mean(axis=pixels, keepdims=True)
    var_a = pa.var(axis=pixels, ddof=1)
    var_b = pb.var(axis=pixels, ddof=1)
    cov = ((pa - mu_a) * (pb - mu_b)).sum(axis=pixels) / (pa.shape[-2] * pa.shape[-1] - 1)
    mu_a, mu_b = mu_a[..., 0, 0], mu_b[..., 0, 0]
    value = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (np.float_power(mu_a, 2) + np.float_power(mu_b, 2) + c1) * (var_a + var_b + c2)
    )
    return float(value) if pa.ndim == 2 else value


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
    targets: tuple[TargetReconstruction, ...]
    average_ssim: float


def attack_experiment(
    views: Sequence[tuple[Mode, Graph | None, WeightMatrix | None]],
    n: int = 10,
    seed: int = 0,
    corrupt_node: int = 0,
    iters: int = 1000,
    lr: float = 0.1,
) -> list[AttackResult]:
    """Reconstruct every honest node's image under each view and score it.

    ``views`` is a sequence of (mode, graph, weights); decentralized
    modes need the graph, and weights default to its Metropolis weights.
    Each node holds one synthetic image; all per-node gradients are
    taken at a shared random model. The adversary's observation is
    Y = G^T V, those gradients times the view matrix V
    (protocol.view_matrix), which drops its own gradient.
    Target i is attacked through the Gaussian conditional mean of its
    gradient given Y, Y (V^T V)^+ v_i: a shown gradient comes back as
    itself, an aggregate as a positive multiple of itself, and a node
    absent from the view as zero, which leaves its dummy unchanged.
    Every target of every view is inverted in one `invert_gradient`
    batch and scored in one `ssim` call, and one AttackResult is
    returned per view, in order.
    Dataset, model and per-target dummy initializations derive from
    (seed, node) only, never from the mode or graph, so runs across
    modes are directly comparable. Deterministic per seed.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 nodes, got {n}")
    if not (0 <= corrupt_node < n):
        raise ValueError(f"corrupt node {corrupt_node} out of range")
    if not views:
        raise ValueError("need at least one view")
    root = np.random.SeedSequence(entropy=(int(seed), 0x617474))
    data_ss, model_ss = root.spawn(2)
    images = make_blob_dataset(n, data_ss)
    rng = np.random.default_rng(model_ss)
    model = ToyModel(
        w=0.01 * rng.standard_normal((_CLASSES, _HEIGHT * _WIDTH)),
        b=np.zeros(_CLASSES),
    )
    grads = np.stack([toy_gradient(model, img) for img in images])
    nodes = [node for node in range(n) if node != corrupt_node]
    observed = []
    for mode, graph, weights in views:
        if weights is None and graph is not None:
            weights = metropolis_weights(graph)
        v = view_matrix(mode, corrupt_node, n, graph, weights)
        estimate = grads.T @ v @ np.linalg.pinv(v.T @ v)
        observed += [estimate @ v[node] for node in nodes]
    recons = invert_gradient(
        np.stack(observed),
        model,
        label=[images[node].label for node in nodes] * len(views),
        iters=iters,
        lr=lr,
        seed=[
            np.random.SeedSequence(entropy=(int(seed), int(node)))
            for node in nodes
        ] * len(views),
    )

    scores = ssim(
        np.stack([recon.pixels for recon in recons]),
        np.stack([images[node].pixels for node in nodes] * len(views)),
    )

    results = []
    for idx, (mode, graph, _) in enumerate(views):
        span = slice(idx * len(nodes), (idx + 1) * len(nodes))
        targets = tuple(
            TargetReconstruction(
                node=node,
                is_neighbor=bool(graph.adjacency[corrupt_node, node])
                if mode.decentralized
                else None,
                ssim=float(score),
                image=recon,
            )
            for node, recon, score in zip(nodes, recons[span], scores[span])
        )
        results.append(
            AttackResult(
                mode=mode,
                targets=targets,
                average_ssim=float(np.mean([t.ssim for t in targets])),
            )
        )
    return results
