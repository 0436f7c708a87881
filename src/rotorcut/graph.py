"""Weighted undirected graphs for Max-Cut.

Edge-list parsing/serialization (Gset-style "n m" header followed by
1-indexed "i j w" lines), random instance generation, cut evaluation, and an
exhaustive Max-Cut oracle for certifying small instances.

All randomness in this package goes through ``numpy.random.default_rng``
(PCG64), so any operation is reproducible from its explicit seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Union

import numpy as np
from scipy import sparse

# 2^(n-1) enumeration; beyond this brute force is not practical anyway.
BRUTE_FORCE_MAX_NODES = 24
# bipartitions scored per vectorized block of the enumeration
_BRUTE_FORCE_CHUNK = 1 << 16

# the largest n with n * n < 2**63, so a pair i < j keyed as i * n + j fits
_MAX_VERTICES = math.isqrt(2**63 - 1)
_FLOAT = np.dtype(float)
_BOOLS = frozenset((bool, np.bool_))

WeightMode = Union[str, tuple]


class GraphFormatError(ValueError):
    """Malformed edge-list text or invalid generator request."""


def _integer(name: str, value, minimum: int, error=ValueError, maximum=math.inf) -> int:
    """value as an int, if it is a numbers.Integral but not a bool, in [minimum,
    maximum]; otherwise raises error, GraphFormatError for graph inputs, naming it."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    k = int(value)
    if k < minimum:
        raise error(f"{name} must be >= {minimum}, got {k}")
    if k > maximum:
        raise error(f"{name} must be <= {maximum}, got {k}")
    return k


def _real(name: str, value, minimum: float, strict: bool = False, error=ValueError) -> float:
    """value as a float, if it is a finite numbers.Real but not a bool, >= minimum
    (> minimum when strict); otherwise raises error naming it."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the range of a double
        x = math.inf
    if not (math.isfinite(x) and (x > minimum if strict else x >= minimum)):
        bound = ">" if strict else ">="
        raise error(f"{name} must be a finite number {bound} {minimum}, got {value!r}")
    return x


def _real_array(what: str, x, error=ValueError) -> np.ndarray:
    """x as a float array, if its dtype is integer or float; otherwise raises
    error naming what and the dtype: complex, bool, string, object and ragged
    arrays are refused, not converted. The one dtype rule for arrays, it runs
    on every Metropolis step (_angles) and SR iteration (RbmParams.unpack)."""
    try:
        x = np.asarray(x)
    except ValueError:  # nested sequences of unequal length
        raise error(f"{what} must be real numbers, got a ragged sequence") from None
    if x.dtype is not _FLOAT:  # identity, not equality: a cheap test on the hot path
        if x.dtype.kind not in "iuf":
            raise error(f"{what} must be real numbers, got dtype {x.dtype}")
        x = x.astype(float)
    return x


def _angles(theta, n: int | None, batch: bool = False) -> np.ndarray:
    """theta as a finite float array of shape (n,), with batch also (K, n),
    or of any shape for n None; otherwise raises ValueError naming a dtype
    not integer or float (_real_array), the shape it got and the one it
    needs, or a non-finite angle, before any cosine warns. On the sampling
    hot path that last test is one sum: finite angles have a finite sum
    unless it overflows, which numpy warns of and the exact test accepts."""
    theta = _real_array("rotor angles", theta)
    if n is not None and theta.shape != (n,):
        if not (batch and theta.ndim == 2 and theta.shape[1] == n):
            need = f"({n},) or (K, {n})" if batch else f"({n},)"
            raise ValueError(f"rotor angles must have shape {need}, got {theta.shape}")
    if not math.isfinite(np.add.reduce(theta, axis=None)) and not np.isfinite(theta).all():
        raise ValueError("rotor angles must be finite")
    return theta


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Graph:
    """Simple undirected weighted graph with 0-based vertex indices.

    The edges are stored once, as the arrays edge_arrays = (ii, jj, ww):
    integer endpoints with ii < jj and float weights, read-only. Each
    unordered pair appears at most once and self-loops are rejected.
    Graph(n, edges) takes (i, j, w) triples, and the edges attribute gives
    them back as a tuple of triples, built from the arrays on each access;
    equality, hashing and repr mean what they would on (n, edges).
    Instances are immutable, with read-only arrays, the cached adjacency's
    included, and safe to share across threads.

    The given edges are checked here, as arrays, wherever they came from.
    Weights whose dtype is not integer or float raise GraphFormatError
    naming it (_real_array); a bool endpoint or weight is refused even
    beside numbers. A self-loop, out-of-range index, repeated pair
    or non-finite weight raises GraphFormatError naming the fault, the
    offending edge's position k in the given sequence as edges[k], and its
    0-based endpoints and weight.
    """

    n: int
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __init__(self, n: int, edges):
        given = tuple(edges)
        not_triple = np.fromiter(map(len, given), np.intp, len(given)) != 3
        if not_triple.any():
            k = int(np.argmax(not_triple))
            raise GraphFormatError(
                f"edges[{k}] is not an (i, j, w) triple: {given[k]!r}"
            )
        ii, jj, ww = zip(*given) if given else ((), (), ())
        try:
            ends = np.array((ii, jj))
            integral = ends.ndim == 2 and ends.dtype.kind in "iu"
        except ValueError:  # endpoints that are sequences of unequal length
            integral = False
        # numpy reads a bool beside numbers as 0 or 1, so a scan refuses it
        if given and (not integral or not _BOOLS.isdisjoint(map(type, chain(ii, jj)))):
            raise GraphFormatError("vertex indices must be integers")
        weights = _real_array("edge weights", ww, GraphFormatError)
        if weights.ndim != 1:
            raise GraphFormatError("edge weights must be real numbers, not sequences")
        if not _BOOLS.isdisjoint(map(type, ww)):
            raise GraphFormatError("edge weights must be real numbers, got a bool")
        self._store(n, *ends.astype(np.intp), weights)

    @classmethod
    def _from_arrays(cls, n, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray) -> Graph:
        """The graph on integer endpoint arrays ii, jj and a float weight
        array ww, checked as Graph checks triples; edges[k] in a message is
        position k of the arrays. Takes ownership of ww."""
        g = cls.__new__(cls)
        g._store(n, ii, jj, ww)
        return g

    def _store(self, n, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray) -> None:
        """Check the vertex count and the edges, as the class docstring says,
        and keep the edges as read-only arrays with lo < hi."""
        n = _integer("vertex count", n, 2, GraphFormatError, _MAX_VERTICES)
        lo, hi = np.minimum(ii, jj, dtype=np.intp), np.maximum(ii, jj, dtype=np.intp)
        repeated = np.ones(len(ww), dtype=bool)
        repeated[np.unique(lo * n + hi, return_index=True)[1]] = False
        faults = {
            "self-loop": lo == hi,
            f"vertex index out of range [0, {n})": (lo < 0) | (hi >= n),
            "duplicate edge": repeated,
            "non-finite weight": ~np.isfinite(ww),
        }
        for fault, bad in faults.items():
            if bad.any():
                k = int(np.argmax(bad))
                edge = (int(ii[k]), int(jj[k]), float(ww[k]))
                raise GraphFormatError(f"{fault} at edges[{k}]: {edge}")
        self.__setstate__((n, (lo, hi, ww)))

    def __setstate__(self, state) -> None:
        n, arrays = state
        for a in arrays:
            a.flags.writeable = False
        self.__dict__.update(n=n, edge_arrays=arrays)

    def __getstate__(self):
        # a pickle holds the arrays only; the caches are rebuilt on use
        return self.n, self.edge_arrays

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and all(
            map(np.array_equal, self.edge_arrays, other.edge_arrays)
        )

    def __hash__(self) -> int:
        ii, jj, ww = self.edge_arrays
        # + 0.0 turns -0.0 into 0.0, which it equals
        return hash((self.n, ii.tobytes(), jj.tobytes(), (ww + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as (i, j, w) triples of Python numbers, i < j, in the
        order they were given; built from edge_arrays on each access."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @property
    def m(self) -> int:
        return len(self.edge_arrays[2])

    @cached_property
    def _csr(self) -> tuple[sparse.csr_array, np.ndarray]:
        """(adjacency, _hessian_slots) from one stable sort by (row, column)
        of the 2m + n stored entries: entry k is edge k at (i, j), m + k the
        same edge at (j, i), and 2m + i the diagonal (i, i). Read-only."""
        n, m = self.n, self.m
        ii, jj, ww = self.edge_arrays
        d = np.arange(n, dtype=np.intp)
        rows, cols = np.hstack([(ii, jj), (jj, ii), (d, d)])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        data = np.concatenate([ww, ww, np.zeros(n)])[order]
        adjacency = sparse.csr_array((data, cols[order], indptr), shape=(n, n))
        slots = np.where(order < m, order, order - m)
        for a in (adjacency.data, adjacency.indices, adjacency.indptr, slots):
            a.flags.writeable = False
        return adjacency, slots

    @property
    def adjacency(self) -> sparse.csr_array:
        """Weighted adjacency as a symmetric n x n CSR matrix: w_ij at (i, j)
        and (j, i) for every edge, and an explicit zero on every diagonal
        entry, so the rotor Hessian (objective.cost_hessian) fills this same
        pattern, with column indices sorted in each row. Cached and read-only."""
        return self._csr[0]

    @property
    def _hessian_slots(self) -> np.ndarray:
        """For each stored entry of adjacency, in order, where the rotor
        Hessian takes its value from: k for edge k, at (i, j) or (j, i), and
        m + i for the diagonal entry (i, i). Cached and read-only."""
        return self._csr[1]

    @property
    def total_weight(self) -> float:
        # Python's sum in edge order, as summing the triples gives
        return float(sum(self.edge_arrays[2].tolist()))


def parse_edge_list(text: str) -> Graph:
    """Parse Gset-style edge-list text into a Graph.

    First non-blank line is "n m"; the next m non-blank lines are
    "i j w" with 1-indexed vertices and decimal floating-point weights.
    Blank lines are skipped. Indices are normalized to 0-based. Raises
    GraphFormatError on a malformed header or edge line (naming its line
    number in the text) or an edge count mismatch; Graph raises it for
    self-loops, duplicate edges, out-of-range indices, non-finite weights
    and n < 2.
    """
    lines = text.splitlines()
    rows = list(filter(None, map(str.split, lines)))  # tokens of non-blank lines
    if not rows:
        raise GraphFormatError("empty edge-list text")

    try:
        n, m = map(int, rows[0])
    except ValueError:
        header = next(filter(None, map(str.strip, lines)))
        raise GraphFormatError(f"malformed header line: {header!r}") from None
    m = _integer("edge count", m, 0, GraphFormatError)
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")

    if set(map(len, rows[1:])) <= {3}:
        ii, jj, ww = zip(*rows[1:]) if m else ((), (), ())
        try:
            ends = np.fromiter(map(int, chain(ii, jj)), np.intp, 2 * m)
            weights = np.fromiter(map(float, ww), float, m)
        except (ValueError, OverflowError):
            ends = None
        if ends is not None and ends.min(initial=1) >= 1:
            ends -= 1
            return Graph._from_arrays(n, ends[:m], ends[m:], weights)
    # Line by line: names the first malformed line, or hands Graph the
    # Python ints (an index below 1 or beyond intp) whose fault it names.
    numbered = enumerate(map(str.strip, lines), start=1)
    edges = []
    for lineno, line in [(k, line) for k, line in numbered if line][1:]:
        try:
            i, j, w = line.split()
            edges.append((int(i) - 1, int(j) - 1, float(w)))
        except ValueError:
            raise GraphFormatError(f"malformed edge line {lineno}: {line!r}") from None
    return Graph(n=n, edges=tuple(edges))


def serialize_edge_list(g: Graph) -> str:
    """Emit the edge-list format with 1-indexed vertices at full precision.

    parse_edge_list(serialize_edge_list(g)) == g.
    """
    ii, jj, ww = g.edge_arrays
    triples = zip((ii + 1).tolist(), (jj + 1).tolist(), ww.tolist())
    return f"{g.n} {g.m}\n" + "".join([f"{i} {j} {w!r}\n" for i, j, w in triples])


def generate_graph(n: int, m_edges: int, weight_mode: WeightMode, seed) -> Graph:
    """Random simple graph with exactly m_edges edges, deterministic per seed.

    Edges are drawn without replacement uniformly over unordered pairs by
    rejection sampling; weights are drawn afterwards, over the sorted edge
    set, so the instance depends only on (n, m_edges, weight_mode, seed).

    weight_mode: "unit" for w = 1 on every edge, or a (lo, hi) pair for
    i.i.d. uniform weights on that range, with lo < hi and hi - lo finite.
    """
    n = _integer("n", n, 2, GraphFormatError, _MAX_VERTICES)
    m_edges = _integer("m_edges", m_edges, 0, GraphFormatError)
    max_pairs = n * (n - 1) // 2
    if m_edges > max_pairs:
        raise GraphFormatError(
            f"m_edges too large: {m_edges} > n(n-1)/2 = {max_pairs}"
        )

    rng = np.random.default_rng(seed)
    # A batch of m_edges - len(chosen) candidates adds at most that many
    # pairs, so the stream stops where drawing one pair at a time would and
    # the weights below see the same draws. Pair i < j is kept as i * n + j.
    chosen: set[int] = set()
    while len(chosen) < m_edges:
        i, j = rng.integers(0, n, size=(m_edges - len(chosen), 2)).T
        chosen.update((np.minimum(i, j) * n + np.maximum(i, j))[i != j].tolist())
    ii, jj = np.divmod(np.sort(np.fromiter(chosen, np.int64, m_edges)), n)

    if weight_mode == "unit":
        weights = np.ones(m_edges)
    elif isinstance(weight_mode, tuple) and len(weight_mode) == 2:
        lo, hi = (_real(f"weight_mode[{k}]", bound, -math.inf, error=GraphFormatError)
                  for k, bound in enumerate(weight_mode))
        if not (lo < hi and math.isfinite(hi - lo)):  # uniform draws lo + (hi - lo) u
            raise GraphFormatError(f"invalid weight range ({lo}, {hi})")
        weights = rng.uniform(lo, hi, size=m_edges)
    else:
        raise GraphFormatError(f"unknown weight mode: {weight_mode!r}")

    return Graph._from_arrays(n, ii, jj, weights)


def cut_value(g: Graph, x) -> float:
    """Total weight of edges crossing the bipartition x in {+1,-1}^n.

    Equals (1/2) * sum_edges w_ij * (1 - x_i x_j). ValueError names the
    fault unless x is a real array (_real_array) of shape (n,) of +1 and -1.
    """
    x = _real_array("assignment entries", x)
    if x.shape != (g.n,):
        raise ValueError(f"assignment length {x.shape} does not match n={g.n}")
    if not np.all(np.abs(x) == 1):
        raise ValueError("assignment entries must be +1 or -1")
    ii, jj, ww = g.edge_arrays
    return float(0.5 * np.sum(ww * (1.0 - x[ii] * x[jj])))


def brute_force_max_cut(g: Graph) -> tuple[float, np.ndarray]:
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
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        stop = min(start + _BRUTE_FORCE_CHUNK, total)
        masks = np.arange(start, stop, dtype=np.uint32)
        # labels[k, v] in {0,1}; vertex 0 is column of zeros
        bits = (masks[:, None] >> shifts[None, :]) & np.uint32(1)
        labels = np.zeros((masks.size, g.n), dtype=np.uint32)
        labels[:, 1:] = bits
        values = (labels[:, ii] != labels[:, jj]).astype(float) @ ww
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_mask = start + k

    # x[v] = -1 where bit v - 1 of best_mask is set; x[0] = +1
    x = 1 - 2 * ((best_mask << 1 >> np.arange(g.n)) & 1)
    # report the value through cut_value so it is exactly consistent
    return cut_value(g, x), x
