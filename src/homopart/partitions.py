"""Partitions of vertex parts and refinement algebra.

Conventions used throughout the package:

* block labels are contiguous integers starting at 0;
* label 0 is the designated exceptional block whenever
  ``has_exceptional`` is set (it may be empty, and it is materialized
  rather than implicit so that audits can include or exclude it
  uniformly);
* an ``equitable`` partition has all non-exceptional blocks of equal
  size.

``block_sums`` is the one kernel that sums a tensor over block
tuples: the homogeneity audit, disagreement counts, the similarity
stage's good/bad classification and the exact certificate checks all
read their densities from it, and ``homogeneous`` is the one verdict
on a density. ``block_sums`` counts a ``KPartiteHypergraph`` from its
packed fiber words, a bounded chunk of fibers at a time, and sums any
array, 0/1 or weighted, with one ``np.bincount`` over its cells. It
returns only the sums: a tuple's volume is the product of its block
sizes, and callers build the volumes they divide by from
``PartPartition.sizes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bitops
from .hypercore import KPartiteHypergraph, _frozen


class PartPartition:
    """Partition of one vertex part into labeled blocks."""

    __slots__ = ("part", "labels", "n_blocks", "has_exceptional", "equitable")

    def __init__(self, labels, part=None, n_blocks=None, has_exceptional=False,
                 equitable=False):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a flat vector")
        if labels.size == 0:
            raise ValueError("cannot partition an empty part")
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        inferred = int(labels.max()) + 1
        if n_blocks is None:
            n_blocks = inferred
        if n_blocks < inferred:
            raise ValueError(f"n_blocks={n_blocks} below max label {inferred - 1}")
        self.part = part
        self.labels = _frozen(labels)
        self.n_blocks = int(n_blocks)
        self.has_exceptional = bool(has_exceptional)
        self.equitable = bool(equitable)
        if self.equitable:
            sizes = self.sizes()
            body = sizes[1:] if self.has_exceptional else sizes
            if body.size and not np.all(body == body[0]):
                raise ValueError("equitable flag set but block sizes differ")

    @classmethod
    def trivial(cls, n, part=None):
        """Single block covering the whole part."""
        return cls(np.zeros(n, dtype=np.int64), part=part, equitable=True)

    @classmethod
    def singletons(cls, n, part=None):
        return cls(np.arange(n, dtype=np.int64), part=part, equitable=True)

    @classmethod
    def intervals(cls, n, n_blocks, part=None):
        """``n_blocks`` consecutive equal intervals; requires divisibility."""
        if n % n_blocks != 0:
            raise ValueError(f"{n_blocks} equal intervals do not divide n={n}")
        width = n // n_blocks
        labels = np.repeat(np.arange(n_blocks, dtype=np.int64), width)
        return cls(labels, part=part, n_blocks=n_blocks, equitable=True)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_blocks)

    def block_indices(self, b) -> np.ndarray:
        return np.flatnonzero(self.labels == b)

    def block_of(self, v) -> int:
        return int(self.labels[v])

    def n_body_blocks(self) -> int:
        return self.n_blocks - (1 if self.has_exceptional else 0)

    def exceptional_size(self) -> int:
        if not self.has_exceptional:
            return 0
        return int(np.count_nonzero(self.labels == 0))

    def __eq__(self, other):
        if not isinstance(other, PartPartition):
            return NotImplemented
        return (
            self.part == other.part
            and self.n_blocks == other.n_blocks
            and self.has_exceptional == other.has_exceptional
            and bool(np.array_equal(self.labels, other.labels))
        )

    def __hash__(self):
        return hash((self.part, self.n_blocks, self.labels.tobytes()))

    def __repr__(self):
        tag = ", exceptional" if self.has_exceptional else ""
        return f"PartPartition(n={self.n}, blocks={self.n_blocks}{tag})"


class LayeredPartition:
    """One ``PartPartition`` per part of a k-partite graph."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("need at least one part")
        for i, p in enumerate(parts):
            if p.part is not None and p.part != i:
                raise ValueError(f"partition at position {i} labeled part {p.part}")
        self.parts = parts

    @property
    def k(self) -> int:
        return len(self.parts)

    def __getitem__(self, i) -> PartPartition:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def block_counts(self):
        return tuple(p.n_blocks for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, LayeredPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"LayeredPartition(blocks={self.block_counts()})"


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of a ``beta_refines`` check.

    ``parents[s]`` is the coarse block holding at least a ``1 - beta``
    fraction of fine block ``s`` (unique since ``beta < 1/2``), or -1
    when no such block exists. Empty fine blocks are excluded from the
    verdict; their parent is recorded as -1 as well.
    """

    beta: float
    parents: np.ndarray
    matched: np.ndarray
    considered: np.ndarray
    unmatched_fraction: float
    refines: bool


def common_refinement(n: int, sets, part=None) -> PartPartition:
    """Venn-diagram atoms of the given subsets of ``range(n)``.

    Each set is an array-like mask of length ``n``. Two vertices share
    an atom exactly when they agree on membership in every input set,
    so the result has at most ``2**len(sets)`` blocks and refines each
    input set's two-block partition. Atom labels follow the
    lexicographic order of membership signatures, which makes the
    labeling deterministic.
    """
    table = np.zeros((n, max(1, len(sets))), dtype=bool)
    for j, s in enumerate(sets):
        col = np.asarray(s, dtype=bool)
        if col.shape != (n,):
            raise ValueError(f"set {j} has shape {col.shape}, expected ({n},)")
        table[:, j] = col
    # sort the signatures with the first set as the primary key, then
    # number the runs of equal rows
    order = np.lexsort(table.T[::-1])
    rows = table[order]
    new_atom = np.ones(n, dtype=bool)
    new_atom[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = np.cumsum(new_atom) - 1
    return PartPartition(labels, part=part)


def equalize(p: PartPartition, m: int) -> PartPartition:
    """Equitable refinement with blocks of size exactly ``m``.

    Every input block is chopped into consecutive chunks of ``m``
    vertices (in index order); chunk leftovers are pooled into the
    exceptional block, which is then itself split into ``m``-blocks
    with at most one final remainder. The remainder stays as the
    (possibly empty) exceptional block 0, so no vertex is dropped and
    divisibility is never assumed.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"block size m={m} must be positive")
    if m > p.n:
        raise ValueError(f"block size m={m} exceeds part size {p.n}")
    pool = []
    chunks = []
    for b in range(p.n_blocks):
        idx = p.block_indices(b)
        if b == 0 and p.has_exceptional:
            pool.append(idx)
            continue
        n_full = idx.size // m
        for c in range(n_full):
            chunks.append(idx[c * m:(c + 1) * m])
        if idx.size % m:
            pool.append(idx[n_full * m:])
    pooled = np.concatenate(pool) if pool else np.zeros(0, dtype=np.int64)
    n_full = pooled.size // m
    for c in range(n_full):
        chunks.append(pooled[c * m:(c + 1) * m])
    remainder = pooled[n_full * m:]
    labels = np.zeros(p.n, dtype=np.int64)
    for c, idx in enumerate(chunks):
        labels[idx] = c + 1
    labels[remainder] = 0
    return PartPartition(labels, part=p.part, n_blocks=len(chunks) + 1,
                         has_exceptional=True, equitable=True)


def beta_refines(fine: PartPartition, coarse: PartPartition, beta: float) -> RefinementReport:
    """Check whether ``fine`` beta-refines ``coarse``.

    A fine block is matched when some coarse block contains at least a
    ``1 - beta`` fraction of it; the verdict holds when the unmatched
    fraction of (nonempty) fine blocks is at most ``beta``. Requires
    ``beta < 1/2``, which is what makes the matched parent unique.
    """
    beta = float(beta)
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta={beta} rejected; the parent is only unique for beta < 1/2")
    if fine.n != coarse.n:
        raise ValueError("partitions cover different universes")
    overlap = np.bincount(
        fine.labels * coarse.n_blocks + coarse.labels,
        minlength=fine.n_blocks * coarse.n_blocks,
    ).reshape(fine.n_blocks, coarse.n_blocks)
    sizes = overlap.sum(axis=1)
    considered = sizes > 0
    best = overlap.argmax(axis=1)
    best_mass = overlap[np.arange(fine.n_blocks), best]
    matched = considered & (best_mass >= (1.0 - beta) * sizes)
    parents = np.where(matched, best, -1).astype(np.int64)
    n_considered = int(considered.sum())
    n_unmatched = int((considered & ~matched).sum())
    frac = n_unmatched / n_considered if n_considered else 0.0
    return RefinementReport(
        beta=beta,
        parents=_frozen(parents),
        matched=_frozen(matched),
        considered=_frozen(considered),
        unmatched_fraction=float(frac),
        refines=bool(frac <= beta),
    )


# Cells unpacked at a time by the packed path of ``block_sums``.
_BLOCK_SUMS_CHUNK_CELLS = 1 << 20


def block_sums(tensor, parts) -> np.ndarray:
    """Weight sum of every block tuple, as float64.

    ``parts`` holds one ``PartPartition`` per axis of ``tensor``; the
    sums are indexed by block labels, one axis per part. Empty blocks
    give zero sums. No volume table is built: a tuple's cell count is
    the product of its block sizes, and callers take it from
    ``PartPartition.sizes`` over just the tuples they divide.

    A ``KPartiteHypergraph`` is counted from its packed fiber rows by
    ``_packed_sums``, with no n^k array built. Its counts are exact
    integers, so sum over volume equals the block's mean bit for bit.
    When every block of the last part is one vertex, as on the grid of
    a singleton partition's audit, the counts are the fibers' bits
    taken in block order, with no one-hot product.
    An array, 0/1 or weighted, is summed by one ``np.bincount`` over
    the cells, keyed by each cell's combined block labels. That is
    exact on 0/1 or dyadic input; on other weights the sums are taken
    in cell order and may differ in the last bit from another order.
    """
    if isinstance(tensor, KPartiteHypergraph):
        return _packed_sums(tensor, parts)
    shape = tuple(p.n_blocks for p in parts)
    keys = np.ravel_multi_index(np.ix_(*[p.labels for p in parts]), shape)
    return np.bincount(keys.ravel(), weights=np.ravel(tensor),
                       minlength=math.prod(shape)).reshape(shape)


def _packed_sums(h: KPartiteHypergraph, parts) -> np.ndarray:
    """Edge count of every block tuple, as float64, from packed fibers.

    The fibers are ordered by their block key over the first k-1
    parts with a stable sort. A bounded chunk of them at a time is
    unpacked and multiplied by a one-hot matrix of the last part's
    labels. The matrix is float32 while every count fits its 24-bit
    significand (n_last < 2^24) and float64 beyond, so the counts are
    exact. When the last part has n_last blocks of one vertex each,
    the product is skipped: a fiber's counts are its unpacked bits,
    taken at the vertex of each block in block order. An int64 cumsum
    over the sorted fibers, differenced at the end of each key's run,
    gives that key's row; a run that crosses into the next chunk
    carries its partial sum there. A chunk in which every fiber is a
    run of its own, as under singleton blocks, writes its counts
    directly; there the cumsum's int64 passes over the counts would
    make the count about four times slower.
    """
    *lead, last = parts
    n_last = h.part_sizes[-1]
    onehot = None
    if last.n_blocks == n_last and (last.sizes() == 1).all():
        # one vertex per block: a fiber's counts are its bits in block order
        vertex_of = np.empty(n_last, dtype=np.int64)
        vertex_of[last.labels] = np.arange(n_last)
    else:
        exact = np.float32 if n_last < 1 << 24 else np.float64
        onehot = np.zeros((n_last, last.n_blocks), dtype=exact)
        onehot[np.arange(n_last), last.labels] = 1.0
    lead_shape = tuple(p.n_blocks for p in lead)
    keys = np.ravel_multi_index(np.ix_(*[p.labels for p in lead]),
                                lead_shape).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
    rows = h.fiber_rows()
    sums = np.zeros((math.prod(lead_shape), last.n_blocks))
    chunk = max(1, _BLOCK_SUMS_CHUNK_CELLS // n_last)
    carry = np.zeros(last.n_blocks, dtype=np.int64)  # open run's partial sum
    for start in range(0, keys.size, chunk):
        stop = min(start + chunk, keys.size)
        bits = bitops.unpack(rows[order[start:stop]], n_last)
        counts = (bits.take(vertex_of, axis=1) if onehot is None
                  else bits.astype(exact) @ onehot)
        run_ends = ends[np.searchsorted(ends, start):np.searchsorted(ends, stop)]
        if run_ends.size == stop - start and not carry.any():
            sums[keys[run_ends]] = counts  # every fiber is a run of its own
            continue
        counts = counts.astype(np.int64)
        counts[0] += carry
        cum = np.cumsum(counts, axis=0, out=counts)
        at_ends = cum[run_ends - start]
        sums[keys[run_ends]] = np.diff(at_ends, axis=0,
                                       prepend=np.zeros_like(carry)[None])
        carry = cum[-1] - (at_ends[-1] if run_ends.size else 0)
    return sums.reshape(lead_shape + (last.n_blocks,))


def homogeneous(d, eps):
    """Density at most ``eps`` or at least ``1 - eps`` (elementwise)."""
    return (d <= eps) | (d >= 1.0 - eps)
