"""Verification side of the pipeline.

Everything here recomputes its verdicts from first principles. Block
densities and disagreement pairs are read off
``partitions.block_sums``, one counting pass over every cell.
``_counted`` is the one place that turns input into what it counts:
0/1 graphs and bool arrays become a packed ``KPartiteHypergraph``,
counted from the fiber words without a dense copy, and other arrays
and weighted relations take the dense path. ``_as_tensor`` is the one
dense converter: the witness searches, ``verify_witness`` (the
independent recheck) and ``gowers.quasirandomness_audit`` take their
float64 copies from it, and the VC search reads unpacked 0/1 rows.
The audited tuples are always the row-major product of each part's
non-empty blocks, so a ``HomogeneityReport`` names them by those
block lists alone. Regularity witnesses come from one subset
search: ``_mask_chunks`` enumerates the subsets of the small side (or
random draws stand in for them), a matmul scores them, and
``_prefix_scan`` optimizes the remaining side. VC dimension is found
by hereditary search: the shattered d-sets are grown only from
shattered (d-1)-sets whose every (d-1)-subset is shattered, each
tested with one ``np.bincount`` of per-row codes, and the search stops
at the first d with fewer distinct rows than 2^d. The witness is the
lexicographically first shattered set of the largest size. The audit
functions accept weighted tensors as well; weighted verdicts are
flagged as the extension they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParamsError
from .hypercore import BipartiteGraph, KPartiteHypergraph, WeightedTripartite, link
from .partitions import LayeredPartition, PartPartition, block_sums, homogeneous
from .rng import generator


def _as_tensor(h) -> tuple[np.ndarray, bool]:
    """Dense weight tensor plus a flag for genuinely weighted input."""
    if isinstance(h, (KPartiteHypergraph, BipartiteGraph)):
        return h.to_dense().astype(np.float64), False
    if isinstance(h, WeightedTripartite):
        return np.asarray(h.weights, dtype=np.float64), True
    arr = np.asarray(h)
    if arr.dtype == bool:
        return arr.astype(np.float64), False
    return arr.astype(np.float64), True


def _counted(h) -> tuple:
    """(what ``block_sums`` counts for ``h``, its part sizes, weighted
    flag): a ``KPartiteHypergraph`` for 0/1 graphs (a ``BipartiteGraph``'s
    rows are 2-partite fibers) and bool arrays, else ``_as_tensor``."""
    if isinstance(h, np.ndarray) and h.dtype == bool and h.ndim >= 2:
        h = KPartiteHypergraph.from_dense(h)
    elif isinstance(h, BipartiteGraph):
        h = KPartiteHypergraph((h.n_left, h.n_right), h.rows)
    if isinstance(h, KPartiteHypergraph):
        return h, h.part_sizes, False
    tensor, weighted = _as_tensor(h)
    return tensor, tensor.shape, weighted


def _passes(normalized: float, eps: float) -> bool:
    return normalized <= eps + 1e-12  # the audit verdict, up to rounding


# Block-tuple cells divided at a time by ``homogeneity_audit``, rounded
# to whole leading blocks.
_AUDIT_CHUNK_CELLS = 1 << 16


def _product_rows(blocks) -> np.ndarray:
    """The row-major product of the block lists as (rows, k) int64
    label rows, each column filled once by broadcasting."""
    k = len(blocks)
    rows = np.empty(tuple(b.size for b in blocks) + (k,), dtype=np.int64)
    for i, axis in enumerate(np.ix_(*blocks)):
        rows[..., i] = axis
    return rows.reshape(-1, k)


@dataclass(frozen=True, eq=False)
class HomogeneityReport:
    """Outcome of a block-tuple density audit.

    ``mass`` is the number of cells inside non-homogeneous block
    tuples and ``normalized_mass`` that count over all cells; the
    audit passes when the normalized mass is at most eps. The audited
    tuples are those of non-zero volume: the row-major product of
    ``blocks``, the non-empty block labels of each part in ascending
    order. They are held as ``densities`` (float64) and the ``ok``
    mask, one entry per tuple.

    ``labels``, the (tuples, k) int64 array of block labels, is built
    from the block lists on first read; ``failing`` builds the
    (labels, density, verdict) triples of the failing tuples. Two
    reports are equal when their scalars, densities, verdicts and block
    lists are.
    """

    eps: float
    passed: bool
    mass: int
    normalized_mass: float
    weighted: bool
    densities: np.ndarray
    ok: np.ndarray
    blocks: tuple

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return _product_rows(self.blocks)

    def _label_chunks(self, max_rows):
        """The label rows in order, as consecutive (m, k) int64 arrays,
        each covering whole leading blocks: at most ``max_rows`` rows
        unless one leading block has more."""
        lead, *rest = self.blocks
        step = max(1, max_rows // max(1, math.prod(b.size for b in rest)))
        for start in range(0, lead.size, step):
            yield _product_rows((lead[start:start + step], *rest))

    def failing(self) -> tuple:
        """(block labels, density, ok) of each failing tuple, in order."""
        bad = np.flatnonzero(~self.ok)
        grid = np.unravel_index(bad, [b.size for b in self.blocks])
        labels = np.stack([b[i] for b, i in zip(self.blocks, grid)], axis=-1)
        return tuple(zip(map(tuple, labels.tolist()),
                         self.densities[bad].tolist(), self.ok[bad].tolist()))

    def _scalars(self) -> tuple:
        return (self.eps, self.passed, self.mass,
                self.normalized_mass, self.weighted)

    def __eq__(self, other):
        if not isinstance(other, HomogeneityReport):
            return NotImplemented
        # equal block lists give equal label rows in the same order
        return (self._scalars() == other._scalars()
                and np.array_equal(self.densities, other.densities)
                and np.array_equal(self.ok, other.ok)
                and len(self.blocks) == len(other.blocks)
                and all(map(np.array_equal, self.blocks, other.blocks)))

    def __hash__(self):
        return hash(self._scalars())


def homogeneity_audit(h, partition: LayeredPartition,
                      eps: float) -> HomogeneityReport:
    """Check every block tuple for density in [0, eps] or [1-eps, 1].

    Exceptional blocks take part like any other: they are blocks of
    the partition, and hiding them would understate the mass. Empty
    blocks contribute nothing.

    The block-tuple sums come from ``block_sums`` and a density is sum
    over volume, the product of the tuple's k block sizes. 0/1 input
    (see ``_counted``) is counted from its packed fiber rows, so every
    sum is an exact integer and the densities equal the per-block
    means bit for bit.
    Weighted input is summed in cell order, so for non-dyadic weights
    a density can differ in its last bit from a mean summed in another
    order.

    A block tuple has non-zero volume exactly when each of its blocks
    is non-empty, so the audited tuples are the grid of non-empty
    blocks. Each part is relabeled onto its non-empty blocks before
    counting, so the sums come out on that grid, in row-major order,
    with no table over the empty blocks. The sums are divided in
    place, a bounded group of leading blocks at a time, by volumes
    taken as int64 products of the block sizes; no volume table over
    the whole grid is built. The report names the tuples by the
    non-empty block lists alone.

    A partition must have one part per graph part, each covering that
    part's vertices; otherwise ``ValueError`` names the mismatch. eps
    must lie in [0, 1/2): from 1/2 on every density counts as
    homogeneous, so every partition would pass.
    """
    if not 0.0 <= eps < 0.5:
        raise InfeasibleParamsError(f"eps={eps} outside [0, 1/2)")
    counted, shape, weighted = _counted(h)
    if partition.k != len(shape):
        raise ValueError(f"partition has {partition.k} parts, "
                         f"graph has {len(shape)}")
    for i, (p, n) in enumerate(zip(partition, shape)):
        if p.n != n:
            raise ValueError(f"partition part {i} has {p.n} vertices, "
                             f"graph part {i} has {n}")
    nonempty = [np.flatnonzero(p.sizes()) for p in partition]
    grid = []
    for p, blocks in zip(partition, nonempty):
        rank = np.zeros(p.n_blocks, dtype=np.int64)
        rank[blocks] = np.arange(blocks.size)
        grid.append(PartPartition(rank[p.labels], n_blocks=blocks.size))
    lead, *rest = [p.sizes() for p in grid]
    inner = functools.reduce(np.multiply.outer, rest, np.int64(1)).ravel()
    densities = block_sums(counted, grid).reshape(lead.size, inner.size)
    ok = np.empty(densities.shape, dtype=bool)
    mass = 0
    step = max(1, _AUDIT_CHUNK_CELLS // inner.size)
    for start in range(0, lead.size, step):
        rows = slice(start, start + step)
        volumes = np.multiply.outer(lead[rows], inner)
        densities[rows] /= volumes
        ok[rows] = homogeneous(densities[rows], eps)
        mass += int(volumes[~ok[rows]].sum())
    total = math.prod(shape)
    normalized = mass / total if total else 0.0
    return HomogeneityReport(
        eps=eps,
        passed=_passes(normalized, eps),
        mass=mass,
        normalized_mass=normalized,
        weighted=weighted,
        densities=densities.ravel(),
        ok=ok.ravel(),
        blocks=tuple(nonempty),
    )


def disagreement_threshold(eps: float, n: int, k: int, s: int) -> float:
    """Lower bound eps^2 (1-eps) n^(k+1) / s forced by a failed audit,
    where s is the number of blocks per part."""
    return eps**2 * (1.0 - eps) * float(n) ** (k + 1) / s


def disagreement_pairs(h, partition: LayeredPartition) -> tuple:
    """Exact per-coordinate counts of same-block disagreement pairs.

    The coordinate-i count is the number of pairs (e, e') with e an
    edge, e' a non-edge, agreeing outside coordinate i, and with their
    two part-i vertices in one block of the part-i partition. Within a
    fixed line segment that is (#edges) * (#non-edges), read off
    ``block_sums`` with singleton blocks on every other coordinate.
    0/1 graphs are counted from their packed words (see ``_counted``);
    arrays and weighted relations must hold only 0 and 1.
    """
    counted, shape, weighted = _counted(h)
    if weighted and not ((counted == 0) | (counted == 1)).all():
        raise ValueError("disagreement pairs need a 0/1 tensor")
    counts = []
    for i in range(len(shape)):
        parts = [partition[i] if j == i else PartPartition.singletons(n)
                 for j, n in enumerate(shape)]
        ones = block_sums(counted, parts).astype(np.int64)  # exact: 0/1 sums
        volumes = functools.reduce(np.multiply.outer,
                                   [p.sizes() for p in parts])
        counts.append(int((ones * (volumes - ones)).sum()))
    return tuple(counts)


@dataclass(frozen=True)
class RegularityWitness:
    """Subsets certifying a density deviation, with both densities."""

    subsets: tuple
    sub_density: float
    base_density: float
    deviation: float
    exact: bool


def weak_regularity_witness(
    h,
    blocks: tuple,
    eps: float,
    *,
    exact_bits: int = 16,
    draws: int = 2000,
    seed: int = 0,
) -> RegularityWitness | None:
    """Search for subsets of a block triple with density off by > eps.

    ``blocks`` is one index array per part. When the two smallest
    blocks fit in ``exact_bits`` bits together the search is exact:
    every subset of the second-smallest block is scored against one
    subset of the smallest at a time, and the third side is optimized
    by a prefix scan, which loses nothing. Otherwise ``draws`` random
    subset pairs are scored the same way, and ``draws < 1`` is a
    ``ValueError``. Returns None when no witness is found (a
    certificate of weak eps-regularity only in exact mode).
    """
    tensor, _ = _as_tensor(h)
    if tensor.ndim != 3:
        raise ValueError("weak regularity runs on tripartite input")
    blocks = tuple(np.asarray(b, dtype=np.int64) for b in blocks)
    sizes = [b.size for b in blocks]
    if min(sizes) == 0:
        return None
    sub = tensor[np.ix_(*blocks)]
    base = float(sub.mean())
    order = np.argsort(sizes, kind="stable")
    a, b, c = order[0], order[1], order[2]
    exact = sizes[a] + sizes[b] <= exact_bits

    moved = np.moveaxis(sub, (a, b, c), (0, 1, 2))
    n_a, n_b, n_c = moved.shape
    flat = moved.reshape(n_a, n_b * n_c)
    if exact:
        ys = next(_mask_chunks(n_b, 1, chunk_bits=n_b))
        pairs = ((x, ys) for chunk in _mask_chunks(n_a, 1) for x in chunk)
    else:
        if draws < 1:
            raise ValueError(f"a sampled search needs draws >= 1, got {draws}")
        # row r holds draw r's A coins, then its B coins: the same
        # stream, in the same order, as separate A and B draws
        rng = generator(seed, "weak-witness")
        coins = (rng.random((draws, n_a + n_b)) < 0.5).astype(np.float64)
        coins = coins[coins[:, :n_a].any(axis=1) & coins[:, n_a:].any(axis=1)]
        pairs = ((row[:n_a], row[None, n_a:]) for row in coins)

    best = None
    for x, ys in pairs:
        # third-side sums of x times every ys row, by one matmul
        scores = ys @ (x @ flat).reshape(n_b, n_c)
        hit = _prefix_scan(scores, base, x.sum() * ys.sum(axis=1), 1)
        if hit and (best is None or hit[2] > best[2]):
            row, ic, dev, d = hit
            best = (x, ys[row], dev, d, ic)
    if best is None:
        return None
    x, y, dev, d, ic = best
    if dev <= eps:
        return None
    picks = [None, None, None]
    picks[a], picks[b], picks[c] = np.flatnonzero(x), np.flatnonzero(y), ic
    subsets = tuple(blocks[i][picks[i]] for i in range(3))
    return RegularityWitness(
        subsets=subsets,
        sub_density=float(d),
        base_density=base,
        deviation=float(dev),
        exact=exact,
    )


def verify_witness(h, witness: RegularityWitness) -> float:
    """Recompute a witness deviation directly from the tensor."""
    tensor, _ = _as_tensor(h)
    sub = tensor[np.ix_(*witness.subsets)]
    return float(sub.mean())


def _mask_chunks(n: int, min_size: int, chunk_bits: int = 16):
    """All subsets of range(n) with at least min_size elements, as 0/1
    pattern matrices in mask order, chunked for memory."""
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    bit = np.arange(n, dtype=np.uint64)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint64)
        patterns = ((masks[:, None] >> bit[None, :]) & 1).astype(np.float64)
        keep = patterns.sum(axis=1) >= min_size
        if keep.any():
            yield patterns[keep]


def _prefix_scan(scores: np.ndarray, base: float, scales: np.ndarray,
                 min_size: int):
    """Prefix-scan response for many candidate subsets at once.

    Row r of ``scores`` holds per-column sums for candidate r; the best
    deviation over prefixes (ascending or descending, length at least
    ``min_size``) of every row is found in one pass. Returns (row,
    column indices, deviation, density) or None.
    """
    c, n = scores.shape
    if c == 0 or n < min_size:
        return None
    order = np.argsort(scores, axis=1, kind="stable")
    js = np.arange(1, n + 1, dtype=np.float64)
    best = None
    for idx in (order, order[:, ::-1]):
        sorted_scores = np.take_along_axis(scores, idx, axis=1)
        dens = np.cumsum(sorted_scores, axis=1) / (scales[:, None] * js[None, :])
        dev = np.abs(dens - base)
        dev[:, : min_size - 1] = -1.0
        r, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if best is None or dev[r, j] > best[2] + 1e-15:
            best = (
                int(r),
                np.sort(idx[r, : j + 1]),
                float(dev[r, j]),
                float(dens[r, j]),
            )
    return best


def bipartite_regularity_witness(
    g,
    delta: float,
    *,
    exact_bits: int = 22,
    draws: int = 4000,
    seed: int = 0,
) -> RegularityWitness | None:
    """Find X, Y with |X| >= delta n_A, |Y| >= delta n_B and density
    deviating from the base by more than delta.

    One side's subsets are enumerated exactly when it fits in
    ``exact_bits`` bits; otherwise ``draws`` random subsets are tried,
    and ``draws < 1`` is a ``ValueError``. The other side is always
    optimized exactly by prefix scan under its size floor.
    """
    adj, _ = _as_tensor(g)
    n_a, n_b = adj.shape
    base = float(adj.mean())
    min_a = max(1, math.ceil(delta * n_a - 1e-9))
    min_b = max(1, math.ceil(delta * n_b - 1e-9))
    flip = n_b < n_a
    if flip:
        adj = adj.T
        n_a, n_b = n_b, n_a
        min_a, min_b = min_b, min_a

    exact = n_a <= exact_bits
    if exact:
        masks_iter = _mask_chunks(n_a, min_a)
    else:
        if draws < 1:
            raise ValueError(f"a sampled search needs draws >= 1, got {draws}")
        rng = generator(seed, "bipartite-witness")
        draws_m = (rng.random((draws, n_a)) < 0.5)
        draws_m = draws_m[draws_m.sum(axis=1) >= min_a]
        masks_iter = [draws_m.astype(np.float64)]

    best = None
    for patterns in masks_iter:
        scales = patterns.sum(axis=1)
        per_b = patterns @ adj  # (chunk, n_b) column scores per subset
        hit = _prefix_scan(per_b, base, scales, min_b)
        if hit and (best is None or hit[2] > best[2] + 1e-15):
            row, ib, dev, d = hit[0], hit[1], hit[2], hit[3]
            best = (np.flatnonzero(patterns[row] > 0), ib, dev, d)
    if best is None or best[2] <= delta:
        return None
    ia, ib, dev, d = best
    if flip:
        ia, ib = ib, ia
    subsets = (ia, ib)  # both sorted: flatnonzero and _prefix_scan
    return RegularityWitness(
        subsets=subsets,
        sub_density=float(d),
        base_density=base,
        deviation=float(dev),
        exact=exact,
    )


@dataclass(frozen=True)
class VCResult:
    dim: int
    at_cap: bool
    witness: tuple


# Row codes that vc_dimension scores at once; candidates beyond that
# are scored in chunks, which bounds its memory on wide inputs.
_VC_CHUNK_CODES = 1 << 20


def _vc_lookup(keys: list, subsets: np.ndarray, n_b: int) -> np.ndarray:
    """Index of each row of ``subsets`` (sorted column sets of one
    size) among the shattered sets of that size, or -1.

    ``keys[t]`` lists the shattered t-sets in lex order, each as
    (index of its (t-1)-prefix) * n_b + last column, which makes it
    sorted; a missed prefix (-1) makes every later key negative.
    """
    index = np.zeros(len(subsets), dtype=np.intp)
    for t in range(subsets.shape[1]):
        level = keys[t + 1]
        query = index * n_b + subsets[:, t]
        pos = np.minimum(np.searchsorted(level, query), len(level) - 1)
        index = np.where(level[pos] == query, pos, -1)
    return index


def vc_dimension(g, *, cap: int = 8) -> VCResult:
    """VC dimension of the left-neighborhood set system over the right
    vertices, up to ``cap``.

    Shattering is hereditary, so the search grows level by level: the
    candidate d-sets are the shattered (d-1)-sets, each extended by a
    larger column, and an extension is tested only when every one of
    its (d-1)-subsets was shattered too. Each candidate carries one
    code per row (``code * 2 + bit`` over its columns in order) and is
    shattered when one ``np.bincount`` of those codes leaves none of
    the 2^d values empty. The search stops at the first size with no
    shattered set, or before it, at the first d with fewer distinct
    rows than 2^d (Sauer-Shelah). Extending a lex-ordered level in
    increasing column order keeps each level in lex order, so the
    witness is the lexicographically first shattered set of the
    largest size. When every size up to ``cap`` is shattered the
    result is flagged as a lower bound with ``at_cap``.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if isinstance(g, BipartiteGraph):
        rows = g.to_dense()
    else:
        rows = np.asarray(g, dtype=bool)
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return VCResult(0, False, ())
    rows = np.unique(rows, axis=0)
    n_rows, n_b = rows.shape
    bits = rows.T.astype(np.intp)
    # A code below 2^d <= n_rows fits the smallest type holding n_rows.
    code_type = np.min_scalar_type(n_rows)
    # The shattered 1-sets are the non-constant columns. Each level
    # holds its shattered sets in lex order, their row codes, the
    # index of each set's prefix in the level below, and its key.
    single = np.flatnonzero(bits.any(axis=1) & ~bits.all(axis=1))
    if single.size == 0:
        return VCResult(0, False, ())
    sets = single[:, None]
    codes = bits[single].astype(code_type)
    prefix = np.zeros(single.size, dtype=np.intp)
    keys = [None, single]
    chunk = max(1, _VC_CHUNK_CODES // n_rows)
    for d in range(2, min(cap, n_b) + 1):
        if n_rows < 2**d:
            break
        # Set i extends by the last column of each later set j with
        # the same prefix, so two of its (d-1)-subsets are shattered.
        count = (np.searchsorted(prefix, prefix, side="right")
                 - np.arange(len(sets)) - 1)
        ends = np.cumsum(count)
        found = []
        start = 0
        while start < len(sets):
            base = ends[start] - count[start]
            stop = max(start + 1,
                       int(np.searchsorted(ends, base + chunk, side="right")))
            runs = count[start:stop]
            parent = np.repeat(np.arange(start, stop), runs)
            sibling = (parent + 1 + np.arange(parent.size)
                       - np.repeat(np.cumsum(runs) - runs, runs))
            col = sets[sibling, -1]
            cand = np.column_stack([sets[parent], col])
            for drop in range(d - 2):
                sub = np.delete(cand, drop, axis=1)
                keep = _vc_lookup(keys, sub, n_b) >= 0
                parent, col, cand = parent[keep], col[keep], cand[keep]
            cand_codes = codes[parent].astype(np.intp) * 2 + bits[col]
            offsets = np.arange(len(cand))[:, None] << d
            counts = np.bincount((cand_codes + offsets).ravel(),
                                 minlength=len(cand) << d)
            hit = counts.reshape(len(cand), 2**d).all(axis=1)
            found.append((cand[hit], cand_codes[hit].astype(code_type),
                          parent[hit], parent[hit] * n_b + col[hit]))
            start = stop
        if not any(len(f[0]) for f in found):
            break
        sets, codes, prefix, level = (np.concatenate(part)
                                      for part in zip(*found))
        keys.append(level)
    dim = sets.shape[1]
    return VCResult(dim, dim == cap, tuple(int(c) for c in sets[0]))


def slicewise_vc(h: KPartiteHypergraph, *, cap: int = 8) -> dict:
    """Largest link VC dimension per pinned part.

    For every vertex of every part, the remaining bipartite link is
    measured in both orientations; the report maps each part to its
    maximum and carries the overall value under the key "max". Each
    distinct link of a part is measured once: links are keyed on their
    packed rows (``n_right``, the rows' shape and bytes), and a vertex
    whose link repeats an earlier one of its part adds nothing new.
    """
    if h.k != 3:
        raise ValueError("slicewise VC is defined for tripartite input")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    out = {}
    at_cap = False
    for part in range(3):
        out[part] = 0
        measured = set()
        for v in range(h.part_sizes[part]):
            g = link(h, ((part, v),))
            key = (g.n_right, g.rows.shape, g.rows.tobytes())
            if key in measured:
                continue
            measured.add(key)
            adj = g.to_dense()
            for res in (vc_dimension(adj, cap=cap),
                        vc_dimension(adj.T, cap=cap)):
                out[part] = max(out[part], res.dim)
                at_cap = at_cap or res.at_cap
    out["max"] = max(out[p] for p in range(3))
    out["at_cap"] = at_cap
    return out
