"""Communication graphs and gossip mixing matrices.

Decentralized training runs on an undirected, connected graph. Gradient
averaging is performed by repeated multiplication with a mixing matrix A
that is graph-sparse, doubly stochastic and contractive on the
disagreement subspace (spectral radius of A - 11^T/n below one). These
three conditions guarantee convergence of the gossip iteration to the
network-wide average.

Graphs are sampled uniformly among simple graphs with an exact edge
count (rejection-sampled until connected), and mixing matrices use the
Metropolis-Hastings rule, which satisfies all three conditions on any
connected graph without global spectral optimization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .reporting import atomic_write_text

__all__ = [
    "Graph",
    "WeightMatrix",
    "generate_graph",
    "metropolis_weights",
    "min_connected_density",
    "write_edge_list",
    "read_edge_list",
]

# Graphs generate_graph samples before it gives up on a connected one;
# only densities barely above the spanning-tree bound come near it.
_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Edges are stored canonically as sorted (i, j) pairs with i < j; the
    adjacency relation is symmetric by construction and self-loops are
    rejected. Gossip-related operations additionally require the graph
    to be connected (checked where it matters, e.g. metropolis_weights).
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"graph needs at least 2 nodes, got n={self.n}")
        canonical = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canonical.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def density(self) -> float:
        """Fraction of possible edges present: 2m / (n(n-1))."""
        return 2.0 * self.m / (self.n * (self.n - 1))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric boolean n-by-n adjacency matrix."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def neighbors(self, k: int) -> np.ndarray:
        """Sorted array of nodes adjacent to k."""
        return np.flatnonzero(self.adjacency[k])

    @cached_property
    def is_connected(self) -> bool:
        """Breadth-first reachability of every node from node 0."""
        adj = self.adjacency
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return bool(seen.all())


@dataclass(frozen=True)
class WeightMatrix:
    """Mixing matrix A over a graph; entry a[k, j] weights node j's value
    in node k's aggregate. Valid matrices are graph-sparse, row- and
    column-stochastic and contract the disagreement subspace."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("mixing matrix has non-finite entries")
        object.__setattr__(self, "a", a)

    def row(self, k: int) -> np.ndarray:
        return self.a[k]


def min_connected_density(n: int) -> float:
    """Lowest density a connected graph on n nodes can have (spanning tree)."""
    return 2.0 * (n - 1) / (n * (n - 1))


def generate_graph(n: int, target_density: float, seed: int) -> Graph:
    """Sample a connected graph with edge count round(density * n(n-1)/2).

    Candidate node pairs are enumerated in canonical order and shuffled
    with the seeded generator (Fisher-Yates via rng.permutation); the
    first m pairs form the edge set. Sampling repeats until connected,
    so the result is uniform among connected graphs with exactly m
    edges. Deterministic for a fixed seed.

    Raises ValueError when the density cannot give a connected graph
    (below the spanning-tree bound) or lies outside (0, 1], and
    RuntimeError if none of _MAX_ATTEMPTS samples is connected (only
    plausible for densities barely above the bound).
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    if not (0.0 < target_density <= 1.0):
        raise ValueError(f"target_density must be in (0, 1], got {target_density}")
    max_m = n * (n - 1) // 2
    m = int(np.floor(target_density * max_m + 0.5))
    if m < n - 1:
        raise ValueError(
            f"density {target_density} gives m={m} < n-1={n - 1} edges; a "
            f"connected graph on {n} nodes needs density >= "
            f"{min_connected_density(n):.6g}"
        )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        chosen = rng.permutation(len(pairs))[:m]
        g = Graph(n=n, edges=tuple(pairs[idx] for idx in sorted(chosen)))
        if g.is_connected:
            return g
    raise RuntimeError(
        f"no connected graph with n={n}, m={m} found in {_MAX_ATTEMPTS} "
        f"attempts; density {target_density} is too close to the "
        f"connectivity threshold for rejection sampling"
    )


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis-Hastings mixing matrix for a connected graph.

    a[k, j] = 1 / (1 + max(deg(k), deg(j))) on edges, zero off edges,
    and the diagonal absorbs the remainder so every row sums to one.
    The result is symmetric, hence doubly stochastic, and contracts the
    disagreement subspace on any connected graph.

    The 1 + max rule is the Metropolis weighting of Xiao, Boyd and Lall
    (IPSN 2005). Plain 1 / max(deg(k), deg(j)) is not used: on n = 2 it
    gives [[0, 1], [1, 0]], and on any even cycle it leaves an
    eigenvalue of -1, so gossip oscillates instead of converging.
    """
    if not g.is_connected:
        raise ValueError(
            "metropolis weights need a connected graph; the disagreement "
            "spectral radius equals 1 on a disconnected one"
        )
    deg = g.degrees()
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = a[j, i] = w
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return WeightMatrix(a=a)


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Serialize as text: header line 'n m', then one 'i j' pair per line."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> Graph:
    """Parse the edge-list format produced by write_edge_list."""
    text = Path(path).read_text()
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"{path}: expected header line 'n m'")
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j' pair")
        edges.append((int(row[0]), int(row[1])))
    if len(edges) != m:
        raise ValueError(f"{path}: header says m={m} but found {len(edges)} edges")
    return Graph(n=n, edges=tuple(edges))
