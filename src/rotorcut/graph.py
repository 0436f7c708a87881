"""Weighted undirected graphs for Max-Cut.

Edge-list parsing/serialization (Gset-style "n m" header followed by
1-indexed "i j w" lines), random instance generation, cut evaluation, and an
exhaustive Max-Cut oracle for certifying small instances.

All randomness in this package goes through ``numpy.random.default_rng``
(PCG64), so any operation is reproducible from its explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

# 2^(n-1) enumeration; beyond this brute force is not practical anyway.
BRUTE_FORCE_MAX_NODES = 24

WeightMode = Union[str, tuple]


class GraphFormatError(ValueError):
    """Malformed edge-list text or invalid generator request."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph with 0-based vertex indices.

    Edges are stored as (i, j, w) triples with i < j; each unordered pair
    appears at most once and self-loops are rejected. Weight lookup is
    symmetric, with w(i, j) = 0 for non-edges. Instances are immutable and
    safe to share across threads.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 2:
            raise GraphFormatError(f"vertex count must be >= 2, got {self.n}")
        canonical = []
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphFormatError(f"vertex index out of range: ({i}, {j})")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise GraphFormatError(f"duplicate edge {pair}")
            seen.add(pair)
            w = float(w)
            if not np.isfinite(w):
                raise GraphFormatError(f"non-finite weight on edge {pair}")
            canonical.append((pair[0], pair[1], w))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints and weights as (ii, jj, ww) arrays for vector ops."""
        if not self.edges:
            z = np.zeros(0, dtype=np.intp)
            return z, z.copy(), np.zeros(0)
        ii, jj, ww = zip(*self.edges)
        return (
            np.asarray(ii, dtype=np.intp),
            np.asarray(jj, dtype=np.intp),
            np.asarray(ww, dtype=float),
        )

    @cached_property
    def csr_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparsity pattern of the symmetric n x n matrix with an entry at
        (i, j) and (j, i) for every edge plus the full diagonal, in canonical
        CSR order (rows in turn, column indices sorted within a row).

        Returns (indptr, indices, order). For values laid out in triplet
        order, [the m (i, j) entries, the m (j, i) entries, the n diagonal
        entries], ``values[order]`` is the CSR data array.
        """
        ii, jj, _ = self.edge_arrays
        diag = np.arange(self.n, dtype=np.intp)
        rows = np.concatenate([ii, jj, diag])
        cols = np.concatenate([jj, ii, diag])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return indptr, cols[order], order

    @cached_property
    def _weight_map(self) -> dict[tuple[int, int], float]:
        return {(i, j): w for i, j, w in self.edges}

    def weight(self, i: int, j: int) -> float:
        """Symmetric weight lookup; 0.0 for non-edges."""
        pair = (i, j) if i < j else (j, i)
        return self._weight_map.get(pair, 0.0)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def parse_edge_list(text: str) -> Graph:
    """Parse Gset-style edge-list text into a Graph.

    First non-blank line is "n m"; the next m non-blank lines are
    "i j w" with 1-indexed vertices and decimal floating-point weights.
    Indices are normalized to 0-based. Raises GraphFormatError on a
    malformed line, self-loop, duplicate edge, out-of-range index, edge
    count mismatch, or n < 2.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list text")

    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"malformed header line: {lines[0]!r}") from None
    if n < 2:
        raise GraphFormatError(f"vertex count must be >= 2, got {n}")
    if m < 0:
        raise GraphFormatError(f"negative edge count: {m}")
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"expected {m} edge lines, found {len(lines) - 1}"
        )

    edges = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"malformed edge line {lineno}: {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(
                f"malformed edge line {lineno}: {line!r}"
            ) from None
        if not np.isfinite(w):
            raise GraphFormatError(f"non-finite weight on line {lineno}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(
                f"vertex index out of range on line {lineno}: ({i}, {j})"
            )
        if i == j:
            raise GraphFormatError(f"self-loop on line {lineno}: vertex {i}")
        pair = (min(i, j) - 1, max(i, j) - 1)
        if pair in seen:
            raise GraphFormatError(f"duplicate edge on line {lineno}: {pair}")
        seen.add(pair)
        edges.append((pair[0], pair[1], w))

    return Graph(n=n, edges=tuple(edges))


def serialize_edge_list(g: Graph) -> str:
    """Emit the edge-list format with 1-indexed vertices at full precision.

    parse_edge_list(serialize_edge_list(g)) == g.
    """
    out = [f"{g.n} {g.m}"]
    for i, j, w in g.edges:
        out.append(f"{i + 1} {j + 1} {w!r}")
    return "\n".join(out) + "\n"


def generate_graph(n: int, m_edges: int, weight_mode: WeightMode, seed) -> Graph:
    """Random simple graph with exactly m_edges edges, deterministic per seed.

    Edges are drawn without replacement uniformly over unordered pairs by
    rejection sampling; weights are drawn afterwards, over the sorted edge
    set, so the instance depends only on (n, m_edges, weight_mode, seed).

    weight_mode: "unit" for w = 1 on every edge, or a (lo, hi) pair for
    i.i.d. uniform weights on that range.
    """
    if n < 2:
        raise GraphFormatError(f"vertex count must be >= 2, got {n}")
    max_pairs = n * (n - 1) // 2
    if m_edges > max_pairs:
        raise GraphFormatError(
            f"m_edges too large: {m_edges} > n(n-1)/2 = {max_pairs}"
        )
    if m_edges < 0:
        raise GraphFormatError(f"negative edge count: {m_edges}")

    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m_edges:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair not in chosen:
            chosen.add(pair)
    pairs = sorted(chosen)

    if weight_mode == "unit":
        weights = np.ones(m_edges)
    elif isinstance(weight_mode, tuple) and len(weight_mode) == 2:
        lo, hi = float(weight_mode[0]), float(weight_mode[1])
        if not lo < hi:
            raise GraphFormatError(f"invalid weight range ({lo}, {hi})")
        weights = rng.uniform(lo, hi, size=m_edges)
    else:
        raise GraphFormatError(f"unknown weight mode: {weight_mode!r}")

    edges = tuple((i, j, float(w)) for (i, j), w in zip(pairs, weights))
    return Graph(n=n, edges=edges)


def _check_assignment(g: Graph, x) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (g.n,):
        raise ValueError(f"assignment length {x.shape} does not match n={g.n}")
    if not np.all(np.abs(x) == 1):
        raise ValueError("assignment entries must be +1 or -1")
    return x.astype(float)


def cut_value(g: Graph, x) -> float:
    """Total weight of edges crossing the bipartition x in {+1,-1}^n.

    Equals (1/2) * sum_edges w_ij * (1 - x_i x_j).
    """
    xf = _check_assignment(g, x)
    ii, jj, ww = g.edge_arrays
    return float(0.5 * np.sum(ww * (1.0 - xf[ii] * xf[jj])))


def brute_force_max_cut(g: Graph, chunk: int = 1 << 16) -> tuple[float, np.ndarray]:
    """Globally optimal cut by enumerating all 2^(n-1) bipartitions.

    Vertex 0 is fixed to +1 (global spin flip symmetry). Ties are broken
    toward the lexicographically smallest label pattern over vertices
    1..n-1, so the result is deterministic. Guarded at n <= 24.
    """
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"n={g.n} too large for brute force (max {BRUTE_FORCE_MAX_NODES})"
        )
    ii, jj, ww = g.edge_arrays
    n_free = g.n - 1
    total = 1 << n_free
    shifts = np.arange(n_free, dtype=np.uint32)

    best_value = -np.inf
    best_mask = 0
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        # labels[k, v] in {0,1}; vertex 0 is column of zeros
        bits = (masks[:, None] >> shifts[None, :]) & np.uint32(1)
        labels = np.zeros((masks.size, g.n), dtype=np.uint32)
        labels[:, 1:] = bits
        if len(g.edges):
            crossing = labels[:, ii] != labels[:, jj]
            values = crossing.astype(float) @ ww
        else:
            values = np.zeros(masks.size)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_mask = start + k

    x = np.ones(g.n, dtype=int)
    for v in range(1, g.n):
        if (best_mask >> (v - 1)) & 1:
            x[v] = -1
    # report the value through cut_value so it is exactly consistent
    return cut_value(g, x), x
