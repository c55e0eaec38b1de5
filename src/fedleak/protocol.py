"""Deployment modes and the adversary's view of one round.

One learning round exchanges per-node gradients. In the centralized
setting a server averages them; in the decentralized setting each node
mixes its neighbors' gradients with one row of the mixing matrix.

A passive adversary sitting at node k receives, depending on the mode:

    CFL      every node's gradient,
    CFL_SA   only the global average (1/n) sum_j g_j,
    DFL      its neighbors' gradients,
    DFL_SA   only its weighted gossip aggregate sum_j a[k,j] g_j.

Secure aggregation is modeled at the observation level (what reaches
the adversary), not cryptographically. The adversary always knows its
own gradient g_k, so extract_observation returns the view with that
known term dropped. It is the one definition of what the adversary
sees: the leakage estimator, the closed forms and the attack all read
it.

Every view is linear in the gradients, g -> g @ V for an (n, r) matrix
V whose row j says how node j's gradient enters the view. view_matrix
returns V as the view of the identity, g = I_n. On the identity each
mode's arithmetic is exact (sums of zeros and ones, or one weight plus
zeros), so V needs no second per-mode definition.
"""

from __future__ import annotations

from enum import Enum
from typing import Container

import numpy as np

from .topology import Graph, WeightMatrix

__all__ = [
    "Mode",
    "ALL_MODES",
    "extract_observation",
    "view_matrix",
]


class Mode(str, Enum):
    """Topology / secure-aggregation configuration of a deployment."""

    CFL = "cfl"
    CFL_SA = "cfl_sa"
    DFL = "dfl"
    DFL_SA = "dfl_sa"

    @property
    def decentralized(self) -> bool:
        return self in (Mode.DFL, Mode.DFL_SA)

    @property
    def secure_aggregation(self) -> bool:
        return self in (Mode.CFL_SA, Mode.DFL_SA)

    @classmethod
    def parse(cls, name: str) -> "Mode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown mode {name!r}; expected one of {valid}")


ALL_MODES = (Mode.CFL, Mode.CFL_SA, Mode.DFL, Mode.DFL_SA)


def extract_observation(
    mode: Mode,
    corrupt_node: int,
    g: np.ndarray,
    graph: Graph | None = None,
    weights: WeightMatrix | None = None,
) -> tuple[np.ndarray, Container[int]]:
    """What the adversary at corrupt_node k observes once its own term is
    dropped, and the nodes whose raw gradient that observation shows.

    g[:, j] is node j's gradient (rows may be dimensions or Monte-Carlo
    samples). Per mode:

        CFL      (g, every node); CFL has no corrupt node, so k may be -1
        CFL_SA   g.sum(axis=1) - g[:, k]             (shows no node)
        DFL      g[:, neighbors of k]                (shows the neighbors)
        DFL_SA   g @ a[k] - a[k,k] * g[:, k]         (shows no node)

    Dropping g_k loses nothing, since k knows it. CFL_SA keeps the sum,
    n times the average it receives: the same information, and taken
    from g directly rather than as n * average - g_k, whose rounding
    differs in the last bits. A DFL observation never contains a
    non-neighbor's gradient. Deterministic in its inputs.
    """
    n = g.shape[1]
    lowest = -1 if mode is Mode.CFL else 0
    if not lowest <= corrupt_node < n:
        raise ValueError(
            f"{mode.value}: corrupt node {corrupt_node} out of range for n={n}"
        )
    if mode.decentralized and graph is None:
        raise ValueError(f"mode {mode.value} requires a graph")
    if mode is Mode.DFL_SA and weights is None:
        raise ValueError("mode dfl_sa requires a weight matrix")
    if graph is not None and graph.n != n:
        raise ValueError(f"graph has n={graph.n} but g has {n} columns")

    k = corrupt_node
    if mode is Mode.CFL:
        return g, range(n)
    if mode is Mode.CFL_SA:
        return g.sum(axis=1) - g[:, k], ()
    if mode is Mode.DFL_SA:
        row = weights.row(k)
        return g @ row - row[k] * g[:, k], ()
    nbrs = graph.neighbors(k)
    if len(nbrs) == 0:
        raise ValueError(f"dfl: corrupt node {k} has no neighbors, so it observes nothing")
    return g[:, nbrs], frozenset(nbrs.tolist())


def view_matrix(
    mode: Mode,
    corrupt_node: int,
    n: int,
    graph: Graph | None = None,
    weights: WeightMatrix | None = None,
) -> np.ndarray:
    """Corrupt node k's view as an (n, r) matrix V: the view of the
    identity. extract_observation(mode, k, g)[0] is g @ V, exactly for
    CFL and DFL and up to rounding for the secure-aggregation modes.
    Row k is zero in every mode but CFL, since k's own term is dropped.
    """
    observed, _ = extract_observation(mode, corrupt_node, np.eye(n), graph, weights)
    return observed.reshape(n, -1)
