"""Mutual information, closed-form and estimated.

Two routes to the same quantity:

* One closed form for what a linear view V^T G of i.i.d. standard
  normal variables G reveals about each of them: the Gaussian channel
  formula (Cover and Thomas, Elements of Information Theory, ch. 9),
  written with node i's leverage in the view. It serves every mode,
  since every mode's view is linear (protocol.view_matrix).
* The Kraskov-Stoegbauer-Grassberger (KSG) k-nearest-neighbor
  estimator (variant 1) under the max-norm, plus its Frenzel-Pompe
  conditional extension. Defaults (k=3, max-norm) match the common
  NPEET setup.

All values are in nats. The estimators are deterministic: no jitter is
added, strict-inequality neighbor counting handles ties.

Every KSG estimate counts neighbors through one core, _strict_counts:
a point j counts for query p at radius r when fl(|x_j - p|) <=
nextafter(r, 0) in every coordinate, the distance as computed in
floating point. One-column points are counted on a sorted copy of the
column (_SortedColumn), any other on a kd-tree; both apply that same
rule, so either gives the same counts. On the sorted column the query
points go in sorted order, and one call counts a whole (T, N) stack of
radii, so the estimates that share a one-column marginal count it
together. Every estimate, however its counts were found, is the one
formula _ksg. Every kd-tree query runs on the calling thread (scipy's
default, workers=1): a sweep spreads its estimates over forked worker
processes, one task (a cell, a mode and the corrupt nodes that share
one view) at a time (leakage.run_experiment), and splitting each small query over threads
too cost more in thread starts and lock waits than it saved.

A sweep cell's estimates come from one _CellEstimator, equal to knn_mi
bit for bit, which counts against sorted copies of the cell's columns
and, on a multi-column observation, its max-norm distance rows, _BLOCK
at a time, under the same nextafter(r, 0) rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import digamma

__all__ = [
    "SampleMatrix",
    "MIEstimate",
    "gaussian_view_mi",
    "knn_mi",
    "knn_cmi",
]


@dataclass(frozen=True)
class SampleMatrix:
    """Monte-Carlo draws, one column per scalar variable."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"sample matrix must be 2-d, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample matrix has non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n_variables(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information value in nats with its provenance.

    Closed-form values are exact and nonnegative; knn values may come
    out slightly negative (estimator noise) and are reported as-is so
    the bias stays visible.
    """

    value: float
    estimator: str  # "closed_form" or "knn"
    k: int | None = None

    def __float__(self) -> float:
        return float(self.value)


def gaussian_view_mi(view) -> np.ndarray:
    """I(V^T G; G_i) in nats for every node i, where G ~ N(0, I_n) and
    view is V, an (n,) or (n, r) array whose row i is how G_i enters.

    With h_i = v_i^T (V^T V)^+ v_i, node i's leverage in the view, the
    Gaussian channel formula gives -0.5 * ln(1 - h_i): h_i is the share
    of G_i's variance the view explains. A zero row (a node absent from
    the view) gives 0; where 1 - h_i <= 1e-12 the view determines G_i
    and the value is +inf. For the average of n variables minus one
    known summand this is 0.5 * ln((n-1)/(n-2)); for a gossip aggregate
    sum_j a_j G_j minus a known a_k G_k, 0.5 * ln(s / (s - a_i^2)) with
    s = sum_{j != k} a_j^2.
    """
    v = np.asarray(view, dtype=float)
    v = v.reshape(v.shape[0], -1)
    leverage = np.einsum("ir,rs,is->i", v, np.linalg.pinv(v.T @ v), v)
    mi = np.full(len(v), math.inf)
    finite = 1.0 - leverage > 1e-12
    mi[finite] = -0.5 * np.log1p(-leverage[finite])
    return mi


def _as_points(a: np.ndarray, name: str) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"{name} must be 1-d or 2-d, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} has non-finite entries")
    return pts


def _check_shapes(k: int, *blocks: np.ndarray) -> int:
    n = blocks[0].shape[0]
    if any(b.shape[0] != n for b in blocks):
        raise ValueError("inputs must have the same number of samples")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"need more than k={k} samples, got {n}")
    return n


def _kth_neighbor_radius(joint: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance to each point's k-th nearest neighbor."""
    dist, _ = cKDTree(joint).query(joint, k=k + 1, p=np.inf)
    return dist[:, -1]


class _SortedColumn(NamedTuple):
    """A one-column point set as its neighbors are counted: the values
    in ascending order, and the order (an argsort) that sorts them."""

    values: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, column: np.ndarray) -> _SortedColumn:
        order = np.argsort(column)
        return cls(column[order], order)

    def counts(self, radii: np.ndarray) -> np.ndarray:
        """_strict_counts of the column, in sample order: radii is (N,),
        one radius per sample, or a (T, N) stack counted in one pass."""
        counts = np.empty(radii.shape, dtype=np.intp)
        counts[..., self.order] = _window_counts(self.values, radii[..., self.order])
        return counts


def _window_counts(column: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """For each entry c of the sorted column, centre of its own window,
    and each radius r of it, the entries s with fl(|s - c|) <=
    nextafter(r, 0): those strictly closer than r, or the exact
    duplicates of c when r is 0.

    radii is (N,), one radius per entry, or (T, N), T radii per entry
    taken row by row; the counts have the same shape. The centres go in
    sorted order, so the searches walk the column front to back.

    Rounding is monotone, so for a fixed c fl(|s - c|) does not
    decrease as s moves away from c: the counted entries form one
    window of the column around c. np.searchsorted on c - r and c + r,
    each key itself left out, finds it up to the rounding of those two
    sums; each end then moves, one block of tied entries at a time,
    until the entry just outside the window fails the exact check and
    the entry at its edge passes. An entry at exactly the radius, the
    usual edge of a marginal's window, falls outside at once. c lies in
    its own window and fl(c - r) <= c <= fl(c + r), so neither end
    starts beyond the far edge of the window, and each can only settle
    on its own edge.
    """
    n = len(column)
    strict = np.nextafter(radii, 0.0)
    # -inf and +inf ends fail every check: an end moving outwards stops
    # at them, and one moving inwards stops at the window first
    padded = np.concatenate(([-np.inf], column, [np.inf]))
    lo = np.searchsorted(padded, column - radii, side="right")
    hi = np.searchsorted(padded, column + radii, side="left")
    flat_strict = strict.reshape(-1)
    # (window end, offset of the entry it tests, searchsorted side that
    # steps past that entry's ties, whether the end moves when the
    # entry is within the radius or when it is not)
    for end, offset, side, moves_if_within in (
        (lo, -1, "left", True),
        (lo, 0, "right", False),
        (hi, 0, "right", True),
        (hi, -1, "left", False),
    ):
        within = np.abs(padded[end + offset] - column) <= strict
        todo = np.flatnonzero(within if moves_if_within else ~within)
        end = end.reshape(-1)  # a view: each move writes through to lo or hi
        while todo.size:
            end[todo] = np.searchsorted(padded, padded[end[todo] + offset], side=side)
            within = np.abs(padded[end[todo] + offset] - column[todo % n]) <= flat_strict[todo]
            todo = todo[within == moves_if_within]
    return hi - lo


def _strict_counts(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points strictly inside each radius, the query point included.

    Shrinking each radius by one ulp turns the closed-ball count
    fl(max-norm distance) <= r into a strict one, so the count equals
    n_marginal + 1 exactly as the estimator needs; a zero radius counts
    the exact duplicates of the query point. One-column points are
    counted in windows of their sorted column (_SortedColumn,
    _window_counts): since rounding is monotone the counted points are
    contiguous there, so the window count is exact. For them radii may
    also be a (T, N) stack, one row of radii per estimate, all counted
    in one pass. Others are counted on a kd-tree, with (N,) radii.
    """
    if points.shape[1] == 1:
        return _SortedColumn.of(points[:, 0]).counts(radii)
    tree = cKDTree(points)
    return tree.query_ball_point(points, np.nextafter(radii, 0.0), p=np.inf, return_length=True)


def _ksg(psi: float, cx: np.ndarray, cy: np.ndarray) -> float:
    """psi(k) + psi(N) - <psi(n_x + 1) + psi(n_y + 1)>, given psi = psi(k)
    + psi(N) and every sample's strict counts cx = n_x + 1, cy = n_y + 1."""
    return float(psi - np.mean(digamma(cx) + digamma(cy)))


def knn_mi(x, y, k: int = 3) -> MIEstimate:
    """KSG estimate (variant 1) of I(X; Y) in nats.

    For each sample the max-norm distance to its k-th neighbor in the
    joint space sets a radius; counting strictly-closer neighbors in
    each marginal gives

        psi(k) + psi(N) - <psi(n_x + 1) + psi(n_y + 1)>.

    x, y: (N,) or (N, d) arrays, aligned row-wise.
    """
    xp = _as_points(x, "x")
    yp = _as_points(y, "y")
    n = _check_shapes(k, xp, yp)
    radii = _kth_neighbor_radius(np.hstack([xp, yp]), k)
    if np.all(radii == 0.0):
        raise ValueError("degenerate data: all joint samples are identical")
    value = _ksg(digamma(k) + digamma(n), _strict_counts(xp, radii), _strict_counts(yp, radii))
    return MIEstimate(value=value, estimator="knn", k=k)


def knn_cmi(x, y, z, k: int = 3) -> MIEstimate:
    """Frenzel-Pompe / KSG conditional estimate of I(X; Y | Z) in nats.

    Same radius construction in the (x, y, z) joint space, with counts
    in the (x, z), (y, z) and z marginals:

        psi(k) + <psi(n_z + 1) - psi(n_xz + 1) - psi(n_yz + 1)>.
    """
    xp = _as_points(x, "x")
    yp = _as_points(y, "y")
    zp = _as_points(z, "z")
    n = _check_shapes(k, xp, yp, zp)
    radii = _kth_neighbor_radius(np.hstack([xp, yp, zp]), k)
    if np.all(radii == 0.0):
        raise ValueError("degenerate data: all joint samples are identical")
    cxz = _strict_counts(np.hstack([xp, zp]), radii)
    cyz = _strict_counts(np.hstack([yp, zp]), radii)
    cz = _strict_counts(zp, radii)
    value = float(
        digamma(k) + np.mean(digamma(cz) - digamma(cxz) - digamma(cyz))
    )
    return MIEstimate(value=value, estimator="knn", k=k)


# Rows of a multi-column observation's max-norm distance matrix held at
# once (2 MB at N=1000). DFL at N=1000, n=8 to 50, ran alike with 128
# and 256 rows and with the whole matrix; with 1024 rows, 5 % slower.
_BLOCK = 256

# Nearest observation neighbors kept per point on the matrix path, at
# least; a larger k keeps 4k. A point whose k-th joint neighbor lies
# among them is settled from them alone; any other is recounted on its
# distance row. DFL at n=8, N=1000, k=3 took 0.26/0.12 s at density
# 0.3/0.9 with 16 candidates, 0.19/0.11 s with 32 and 0.18/0.12 s with
# 64; at n=30, density 0.6, 0.97 s with 32 and 1.16 s with 64.
_NEIGHBOR_CANDIDATES = 32


class _CellEstimator:
    """KSG evaluator of one cell's sample columns, built once and never
    changed afterwards, so one instance serves every estimate of the
    cell, in any order and in any process that inherits it.

    The constructor checks k against the sample count as knn_mi does,
    sorts every column (_SortedColumn) and computes every column's self
    term. mi(observed, targets) gives, for each target i, exactly
    knn_mi(observed, G_i) (same radii, same strict counts), and
    self_mi(i) exactly knn_mi(G_i, G_i), raising knn_mi's ValueError for
    a column it would reject: only a mode whose view shows target i
    needs column i's self term. A multi-column observation
    takes each target's radii and counts from each point's nearest
    observation neighbors (_observe_matrix), found once per call, and
    recounts the points they do not settle on their rows of its
    max-norm distance matrix, computed _BLOCK rows at a time
    (_matrix_counts): memory grows with the sample count, not with its
    square. A one-column observation takes every target's radii from
    _kth_neighbor_radius first, then counts the observation once for
    the whole (targets, N) stack of radii with _strict_counts
    (_column_counts). Target counts always come from the target's
    sorted column, one row of radii each.
    """

    def __init__(self, data: np.ndarray, k: int):
        _check_shapes(k, data)
        self.data = data
        self.k = k
        self._psi = float(digamma(k)) + float(digamma(data.shape[0]))
        self._sorted_columns = [_SortedColumn.of(data[:, i]) for i in range(data.shape[1])]
        self._self_mi = [self._self_term(i) for i in range(data.shape[1])]

    def self_mi(self, i: int) -> float:
        """I(G_i; G_i): the term of a target the observation shows."""
        term = self._self_mi[i]
        if term is None:
            raise ValueError("degenerate data: all joint samples are identical")
        return term

    def _self_term(self, i: int) -> float | None:
        """knn_mi(G_i, G_i), ties included. In one dimension a point's
        nearest neighbors on each side come in order, so its k+1 nearest
        distances (itself included) lie in a +-k window of the sorted
        column: the largest of them, its k-th neighbor's, is its radius
        in the joint space, whose max-norm distances are the column's
        own. Both marginals are the column, so both count the same points.
        None where knn_mi rejects the column: all its radii are 0."""
        k = self.k
        column = self._sorted_columns[i]
        pad = np.full(k, np.inf)
        windows = sliding_window_view(np.concatenate([pad, column.values, pad]), 2 * k + 1)
        dist = np.abs(windows - column.values[:, None])
        dist.partition(k, axis=1)
        radii = np.empty(len(dist))
        radii[column.order] = dist[:, k]
        if np.all(radii == 0.0):
            return None
        counts = column.counts(radii)
        return _ksg(self._psi, counts, counts)

    def mi(self, observed: np.ndarray, targets: Sequence[int]) -> list[float]:
        """I(observed; G_i) in nats for each target i, in order, where
        observed is an (N,) or (N, d) array."""
        if not targets:
            return []
        x = observed.reshape(len(observed), -1)
        if x.shape[1] > 1:
            candidates = self._observe_matrix(x)
            counts = [self._matrix_counts(x, candidates, i) for i in targets]
        else:
            counts = self._column_counts(x, targets)
        return [_ksg(self._psi, cx, cy) for cx, cy in counts]

    def _column_counts(
        self, x: np.ndarray, targets: Sequence[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Observation and target counts of each target's mi on the
        one-column observation x: x is counted once, for the stack of
        every target's radii."""
        radii = np.stack(
            [_kth_neighbor_radius(np.hstack([x, self.data[:, i, None]]), self.k) for i in targets]
        )
        counts = _strict_counts(x, radii)
        return [(c, self._sorted_columns[i].counts(r)) for c, r, i in zip(counts, radii, targets)]

    def _observe_matrix(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per point of the multi-column observation x, the indices and
        distances of its m nearest observation neighbors (itself among
        them) and the (m+1)-th smallest distance b, a bound below every
        other point's distance, taken from x's distance rows _BLOCK at a
        time. m = min(max(_NEIGHBOR_CANDIDATES, 4k), N-1): a fixed m
        would settle fewer points the closer k came to it, and none from
        k = m on. With m <= k the candidates cannot hold a k-th neighbor,
        and () is returned."""
        n = len(x)
        m = min(max(_NEIGHBOR_CANDIDATES, 4 * self.k), n - 1)
        if m <= self.k:
            return ()
        nearest = np.empty((n, m + 1), dtype=np.intp)
        near_dist = np.empty((n, m + 1))
        for start in range(0, n, _BLOCK):
            rows = slice(start, start + _BLOCK)
            dist = cdist(x[rows], x, "chebyshev")
            nearest[rows] = np.argpartition(dist, m, axis=1)[:, : m + 1]
            near_dist[rows] = np.take_along_axis(dist, nearest[rows], axis=1)
        return nearest[:, :m], near_dist[:, :m], near_dist[:, m]

    def _matrix_counts(
        self, x: np.ndarray, candidates: tuple[np.ndarray, ...], i: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observation and target counts of target i's mi on the
        multi-column observation x, given _observe_matrix(x).

        For a point with candidate bound b, every point outside its
        candidates is at least b away in the observation, and so in the
        joint space. If the k-th joint distance r among the candidates
        has b >= r, it is the k-th over all points; if also b >
        nextafter(r, 0), no outside point is counted. Such a point is
        settled from its candidates; any other, and every point when no
        candidates are kept, is recounted on its distance row, as
        knn_mi's rule reads: joint distance max(observation distance,
        |y_a - y_b|), k-th smallest (itself at 0 included), count of
        observation distances <= nextafter(r, 0)."""
        y = self.data[:, i]
        if not candidates:
            radii = np.empty(len(y))
            counts = np.empty(len(y), dtype=np.intp)
            rows = np.arange(len(y))
        else:
            nearest, near_dist, bound = candidates
            joint = np.maximum(near_dist, np.abs(y[:, None] - y[nearest]))
            joint.partition(self.k, axis=1)
            radii = joint[:, self.k]
            strict = np.nextafter(radii, 0.0)
            counts = np.count_nonzero(near_dist <= strict[:, None], axis=1)
            rows = np.flatnonzero((bound < radii) | (bound <= strict))
        for start in range(0, rows.size, _BLOCK):
            block = rows[start : start + _BLOCK]
            x_dist = cdist(x[block], x, "chebyshev")
            joint = y[block, None] - y
            np.maximum(np.abs(joint, out=joint), x_dist, out=joint)
            joint.partition(self.k, axis=1)
            radii[block] = joint[:, self.k]
            strict = np.nextafter(radii[block], 0.0)
            counts[block] = np.count_nonzero(x_dist <= strict[:, None], axis=1)
        return counts, self._sorted_columns[i].counts(radii)
