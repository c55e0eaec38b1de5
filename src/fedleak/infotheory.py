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
column, any other on a kd-tree; both apply that same rule, so either
gives the same counts. On the sorted column the query points go in
sorted order, and one call counts a whole (T, N) stack of radii, so
the estimates that share a one-column marginal count it together
(leakage._CellEstimator, built once per sweep cell before the sweep's
workers fork, holds every sample column sorted and counts against
those copies). Every kd-tree query runs on the calling thread (scipy's
default, workers=1): a sweep spreads its estimates over CPUs one
(cell, mode, corrupt node) task at a time per worker process
(leakage.run_experiment), and splitting each small query over threads
too cost more in thread starts and lock waits than it saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import digamma
from scipy.spatial import cKDTree

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
    """A one-column point set as _strict_counts searches it: the values
    in ascending order, and the order (an argsort) that sorts them."""

    values: np.ndarray
    order: np.ndarray


def _count_index(points: np.ndarray) -> _SortedColumn | cKDTree:
    """What _strict_counts searches: the sorted column of one-column
    points, a kd-tree over any other."""
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0])
        return _SortedColumn(points[order, 0], order)
    return cKDTree(points)


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


def _strict_counts(
    points: np.ndarray,
    radii: np.ndarray,
    index: _SortedColumn | cKDTree | None = None,
) -> np.ndarray:
    """Points strictly inside each radius, the query point included.

    Shrinking each radius by one ulp turns the closed-ball count
    fl(max-norm distance) <= r into a strict one, so the count equals
    n_marginal + 1 exactly as the estimator needs; a zero radius counts
    the exact duplicates of the query point. index is _count_index of
    the same points, built here when not passed. One-column points are
    counted in windows of their sorted column (_window_counts): since
    rounding is monotone the counted points are contiguous there, so
    the window count is exact. For them radii may also be a (T, N)
    stack, one row of radii per estimate, all counted in one pass.
    Others are counted on a kd-tree, with (N,) radii.
    """
    if index is None:
        index = _count_index(points)
    if isinstance(index, _SortedColumn):
        counts = np.empty(radii.shape, dtype=np.intp)
        counts[..., index.order] = _window_counts(index.values, radii[..., index.order])
        return counts
    return index.query_ball_point(points, np.nextafter(radii, 0.0), p=np.inf, return_length=True)


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
    cx = _strict_counts(xp, radii)
    cy = _strict_counts(yp, radii)
    value = float(digamma(k) + digamma(n) - np.mean(digamma(cx) + digamma(cy)))
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
