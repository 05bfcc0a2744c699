"""Core data model for k-partite hypergraphs and their links.

Types
-----
``KPartiteHypergraph``
    k-partite k-uniform edge relation, bit-packed along the last part's
    axis so that fiber neighborhoods and their symmetric differences are
    word-parallel popcounts.
``BipartiteGraph``
    The two-part ``KPartiteHypergraph``, for links and level graphs:
    ``words[x]`` is the packed neighborhood row of left vertex ``x``.
``WeightedTripartite``
    [0, 1] weights over three parts, held either as a dense tensor or
    as layers: packed bipartite graphs on the first two parts, one
    layer per third-part vertex and one weight per layer. ``slab(i)``
    gives the weights of one first-part vertex either way; the dense
    ``weights`` of a layered relation are built only when read.
    ``link`` below builds links of unweighted hypergraphs only.

All objects freeze their arrays after construction, and ``link`` below
is a pure function. Block-tuple densities are counted by
``partitions.block_sums``, the last-part neighborhood of a (k-1)-tuple
``e`` is the packed row ``h.words[e]``, and a vertex degree is the
popcount of its row.
"""

from __future__ import annotations

import numpy as np

from . import bitops
from .errors import PinError


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


class KPartiteHypergraph:
    """k-partite k-uniform hypergraph on parts of fixed sizes.

    Edges are subsets picking exactly one vertex per part. Storage is a
    uint64 array of shape ``part_sizes[:-1] + (n_words,)``: bit ``c`` of
    fiber ``e`` says whether ``e + (c,)`` is an edge. Neighborhoods in
    the last part are therefore single packed rows and the symmetric
    difference of two neighborhoods is one XOR-popcount pass.
    """

    __slots__ = ("k", "part_sizes", "words")

    def __init__(self, part_sizes, words):
        self.part_sizes = tuple(int(s) for s in part_sizes)
        self.k = len(self.part_sizes)
        if self.k < 2:
            raise ValueError("need at least two parts")
        if any(s <= 0 for s in self.part_sizes):
            raise ValueError(f"part sizes must be positive: {self.part_sizes}")
        words = np.asarray(words, dtype=np.uint64)
        expected = self.part_sizes[:-1] + (bitops.n_words(self.part_sizes[-1]),)
        if words.shape != expected:
            raise ValueError(f"word array shape {words.shape}, expected {expected}")
        self.words = _frozen(words)

    @classmethod
    def from_dense(cls, tensor):
        tensor = np.asarray(tensor, dtype=bool)
        return cls(tensor.shape, bitops.pack(tensor))

    @classmethod
    def empty(cls, part_sizes):
        sizes = tuple(int(s) for s in part_sizes)
        return cls(sizes, np.zeros(sizes[:-1] + (bitops.n_words(sizes[-1]),),
                                   dtype=np.uint64))

    def to_dense(self) -> np.ndarray:
        return bitops.unpack(self.words, self.part_sizes[-1])

    @property
    def edge_count(self) -> int:
        return int(bitops.popcount(self.words))

    def fiber_rows(self) -> np.ndarray:
        """All last-part neighborhoods as a flat (N, n_words) view."""
        return self.words.reshape(-1, self.words.shape[-1])

    def edge_columns(self, start=0, stop=None) -> tuple:
        """Edges as k index columns in row-major order, read from the
        set bits of the packed words by ``bitops.list_bits``. ``start``
        and ``stop`` bound the fibers read, as flat indices into
        ``fiber_rows()``."""
        fiber, last = bitops.list_bits(self.fiber_rows()[start:stop])
        return (*np.unravel_index(start + fiber, self.part_sizes[:-1]), last)

    def __eq__(self, other):
        if not isinstance(other, KPartiteHypergraph):
            return NotImplemented
        return self.part_sizes == other.part_sizes and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self):
        return hash((self.part_sizes, self.words.tobytes()))

    def __repr__(self):
        sizes = "x".join(str(s) for s in self.part_sizes)
        return f"{type(self).__name__}({sizes}, edges={self.edge_count})"


class BipartiteGraph(KPartiteHypergraph):
    """A ``KPartiteHypergraph`` of exactly two parts."""

    __slots__ = ()

    def __init__(self, part_sizes, words):
        part_sizes = tuple(part_sizes)
        if len(part_sizes) != 2:
            raise ValueError(
                f"a bipartite graph has two parts, got {len(part_sizes)}")
        super().__init__(part_sizes, words)

    # The inherited method, bound in this class's own ``__dict__``:
    # perfbench/spans.py wraps ``to_dense`` there, per class, for its
    # ``hypercore.to_dense`` metric.
    to_dense = KPartiteHypergraph.to_dense


class WeightedTripartite:
    """Tripartite edge relation with weights in [0, 1] (missing = 0).

    Built from a dense tensor, or by ``from_layers`` from packed level
    graphs: cell (a, b, c) then weighs ``scales[j]`` when graph
    ``j = labels[c]`` has the edge (a, b), and 0 otherwise. A layered
    relation stores t n x n bit matrices instead of n^3 floats; its
    ``weights`` tensor is built on first read and kept, and ``slab``,
    ``sums`` and ``box_sums`` never build it.
    """

    __slots__ = ("part_sizes", "_weights", "_layers")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 3:
            raise ValueError("weight tensor must be 3-d")
        if weights.size and (weights.min() < 0.0 or weights.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        self.part_sizes = weights.shape
        self._weights = _frozen(weights)
        self._layers = None

    @classmethod
    def from_layers(cls, graphs, labels, scales) -> "WeightedTripartite":
        graphs = tuple(graphs)
        labels = np.asarray(labels, dtype=np.int64)
        scales = np.asarray(scales, dtype=np.float64)
        if not graphs or scales.shape != (len(graphs),):
            raise ValueError("need one scale per layer graph")
        if len({g.part_sizes for g in graphs}) != 1:
            raise ValueError("layer graphs differ in shape")
        if labels.ndim != 1 or (labels.size and (
                labels.min() < 0 or labels.max() >= len(graphs))):
            raise ValueError("layer labels must index the graphs")
        if scales.min() < 0.0 or scales.max() > 1.0:
            raise ValueError("weights must lie in [0, 1]")
        self = cls.__new__(cls)
        self.part_sizes = (*graphs[0].part_sizes, labels.size)
        self._weights = None
        self._layers = (graphs, _frozen(labels), _frozen(scales))
        return self

    @property
    def weights(self) -> np.ndarray:
        """The dense n0 x n1 x n2 tensor."""
        if self._weights is None:
            graphs, labels, scales = self._layers
            weights = np.zeros(self.part_sizes)
            for j, g in enumerate(graphs):
                adj = bitops.unpack(g.words, self.part_sizes[1])
                weights[:, :, labels == j] = np.where(adj, scales[j], 0.0)[:, :, None]
            self._weights = _frozen(weights)
        return self._weights

    def slab(self, i) -> np.ndarray:
        """n1 x n2 weights of first-part vertex ``i``."""
        if self._layers is None:
            return self._weights[i]
        graphs, labels, scales = self._layers
        bits = bitops.unpack(np.stack([g.words[i] for g in graphs]), self.part_sizes[1])
        return (bits.T * scales)[:, labels]

    def sums(self) -> tuple:
        """(sum of w, sum of w (1 - w)) over every cell.

        From layers both are sums over the graphs' edge counts; with
        dyadic scales every term is exact, so they equal the dense
        tensor's sums bit for bit.
        """
        if self._layers is None:
            w = self._weights
            variance = 1.0 - w  # w (1 - w) in place: one n^3 temporary, not two
            variance *= w
            return float(w.sum()), float(variance.sum())
        graphs, labels, scales = self._layers
        cells = np.array([g.edge_count for g in graphs]) * np.bincount(
            labels, minlength=len(graphs))
        return float(cells @ scales), float(cells @ (scales * (1.0 - scales)))

    def box_sums(self, members) -> tuple:
        """(sums of w, sums of w (1 - w)) over each of a set of boxes.

        ``members`` holds one 0/1 float matrix per part, vertices by
        boxes, saying which vertices each box holds. Dense input sums
        one first-part slab at a time. From layers, box b gets
        sum_j s_j e_j(b) |C_b & layer j|, and the same with
        s_j (1 - s_j), where e_j(b) counts graph j's edges on
        A_b x B_b by popcount of its rows against B_b's packed mask,
        with no graph unpacked; with dyadic scales every term is
        exact, so both equal the dense sums bit for bit.
        """
        m0, m1, m2 = members
        if self._layers is None:
            by_vertex = np.empty((2, self.part_sizes[0], m0.shape[1]))
            for i, w in enumerate(self._weights):
                for k, cells in enumerate((w, w * (1.0 - w))):
                    by_vertex[k, i] = ((cells @ m2) * m1).sum(axis=0)
            return tuple((by_vertex * m0).sum(axis=1))
        graphs, labels, scales = self._layers
        right = bitops.pack(m1.T != 0)  # each box's second-part side
        edges = np.array([
            (bitops.popcount(g.words[:, None] & right, axis=-1) * m0).sum(axis=0)
            for g in graphs])
        cells = edges * np.array([m2[labels == j].sum(axis=0)
                                  for j in range(len(graphs))])
        return scales @ cells, (scales * (1.0 - scales)) @ cells

    @property
    def k(self) -> int:
        return 3

    def __repr__(self):
        sizes = "x".join(str(s) for s in self.part_sizes)
        return f"WeightedTripartite({sizes})"


def link(h: KPartiteHypergraph, pins) -> BipartiteGraph:
    """Bipartite link of ``k - 2`` pinned vertices.

    ``pins`` is a sequence of ``(part, vertex)`` pairs in distinct
    parts. The result connects the two unpinned parts in part order;
    an edge of the link is a pair completing the pins to an edge of
    ``h``.
    """
    pins = [(int(p), int(v)) for p, v in pins]
    if len(pins) != h.k - 2:
        raise PinError(f"expected {h.k - 2} pins, got {len(pins)}")
    parts = [p for p, _ in pins]
    if len(set(parts)) != len(parts):
        raise PinError(f"pins repeat a part: {sorted(parts)}")
    for p, v in pins:
        if not 0 <= p < h.k:
            raise PinError(f"pin part {p} out of range")
        if not 0 <= v < h.part_sizes[p]:
            raise PinError(f"pin vertex {v} out of range for part {p}")
    free = sorted(set(range(h.k)) - set(parts))
    left, right = free
    pin_of = dict(pins)
    if right == h.k - 1:
        indexer = tuple(
            slice(None) if axis == left else pin_of[axis] for axis in range(h.k - 1)
        )
        return BipartiteGraph((h.part_sizes[left], h.part_sizes[right]),
                              h.words[indexer].copy())
    indexer = tuple(
        slice(None) if axis in (left, right) else pin_of[axis]
        for axis in range(h.k - 1)
    )
    plane = bitops.extract_bit(h.words[indexer], pin_of[h.k - 1])
    return BipartiteGraph.from_dense(plane)

