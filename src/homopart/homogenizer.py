"""Homogeneous-partition pipeline for k-partite k-graphs.

The pipeline runs in two stages:

1. ``tuple_partition`` covers the (k-1)-tuple product by anchor classes
   whose members have pairwise-similar neighborhoods in the target
   part, and keeps one packed neighborhood per non-empty class.
2. ``homogeneous_partition`` runs stage 1 once per target part and
   refines each part by the Venn atoms of those neighborhoods,
   equalized to a fixed block size.

``similarity_partition`` is the bipartite stage on its own: it turns a
homogeneous partition of a bipartite graph into an equipartition of
the left side whose blocks have pairwise-similar neighborhoods. The
acceptance tests check its contract; ``homogeneous_partition`` does
not call it.

Paper-mode constants are implemented exactly and fail loudly when they
exceed desk scale; practical mode keeps every structural step and
replaces the astronomically large anchor count with adaptive coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bitops
from .auditor import _two_part
from .errors import CoverageError, InfeasibleParamsError
from .hypercore import KPartiteHypergraph
from .partitions import (
    LayeredPartition,
    PartPartition,
    block_sums,
    common_refinement,
    equalize,
    homogeneous,
)
from .rng import derive, generator

MODES = ("paper", "practical")


def similarity_block_count(gamma: float, r: int) -> int:
    """Number of non-exceptional blocks q = ceil((1-gamma) 3r/gamma)."""
    if not 0.0 < gamma < 1.0:
        raise InfeasibleParamsError(f"gamma={gamma} outside (0, 1)")
    if r < 1:
        raise InfeasibleParamsError(f"r={r} must be at least 1")
    # 1e-9 guard absorbs float noise in the rational target value
    return math.ceil((1.0 - gamma) * 3.0 * r / gamma - 1e-9)


def similarity_input_tolerance(gamma: float) -> float:
    """Homogeneity gamma^3/48 expected of the input block pairs."""
    return gamma**3 / 48.0


def similarity_block_size(n: int, gamma: float, r: int) -> int:
    """Common block size m, the integer form of gamma n / (3r).

    Rounding must keep q * m >= (1 - gamma) n, otherwise the
    exceptional block overflows its gamma n budget, so m rounds up
    from (1 - gamma) n / q; this equals gamma n / (3r) whenever that
    value is an integer. Some (gamma, r, n) admit no integer in the
    feasible window, which ``similarity_partition`` reports as
    infeasible via the q * m <= n check.
    """
    q = similarity_block_count(gamma, r)
    return math.ceil((1.0 - gamma) * n / q - 1e-9)


@dataclass(frozen=True)
class ToleranceParams:
    """Tolerance cascade tying the target homogeneity to the links'.

    ``gamma`` is the similarity tolerance handed to the bipartite
    stage; ``similarity_input_tolerance(gamma)`` is the homogeneity
    that stage expects of its input partition, which is also what the
    link hypothesis assumes. Both follow the fixed formulas in every
    mode.
    """

    eps: float
    k: int
    r: int
    mode: str = "practical"

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise InfeasibleParamsError(f"eps={self.eps} outside (0, 1/2)")
        if self.k < 2:
            raise InfeasibleParamsError(f"k={self.k} must be at least 2")
        if self.r < 1:
            raise InfeasibleParamsError(f"r={self.r} must be at least 1")
        if self.mode not in MODES:
            raise InfeasibleParamsError(f"unknown mode {self.mode!r}")

    @property
    def gamma(self) -> float:
        return self.eps / (6.0 * self.k)

    @property
    def q(self) -> int:
        return similarity_block_count(self.gamma, self.r)

    def paper_anchor_count(self) -> int:
        """Anchor count (q/gamma)^(k-1) log(2/eps) of the sampling step."""
        return math.ceil(
            (self.q / self.gamma) ** (self.k - 1) * math.log(2.0 / self.eps)
        )


@dataclass(frozen=True)
class SimilarityResult:
    """Equipartition of the left side plus the run's diagnostics.

    ``partition`` has exceptional block 0 and blocks 1..q of size m.
    ``contract_met`` is False when eviction left fewer than q full
    blocks, which signals that the input partition was less homogeneous
    than promised; the partition is still returned for inspection.
    """

    partition: PartPartition
    q: int
    m: int
    gamma: float
    representatives: tuple
    bad_blocks: tuple
    bad_mass: int
    evicted: int
    shortfall: int
    max_intra_symdiff: int
    contract_met: bool


def _pairwise_symdiff(rows: np.ndarray) -> np.ndarray:
    return bitops.popcount(rows[:, None, :] ^ rows[None, :, :], axis=-1)


def similarity_partition(
    g: KPartiteHypergraph,
    left: PartPartition,
    right: PartPartition,
    gamma: float,
    r: int,
) -> SimilarityResult:
    """Partition the left side into q equal blocks of similar vertices.

    ``g`` has two parts, as a ``BipartiteGraph`` does: ``words[x]`` is
    the packed neighborhood of left vertex ``x``. A 2-d array of 0s and
    1s is packed into one first. ``left``/``right`` is
    a homogeneous partition of ``g`` with at most ``r`` left blocks
    (homogeneity is the caller's contract and is re-detected here only
    through the good/bad block classification). The returned blocks
    each have size m = gamma n/(3r); every pair of vertices inside one
    block has neighborhood symmetric difference at most gamma times the
    right side's size, which is asserted by a full popcount scan before
    returning.
    """
    _two_part(g, "similarity_partition")
    if not isinstance(g, KPartiteHypergraph):
        g = np.asarray(g)
        if not ((g == 0) | (g == 1)).all():
            raise ValueError("similarity_partition needs a 0/1 adjacency")
        g = KPartiteHypergraph.from_dense(g)
    n_x, n_y = g.part_sizes
    if (left.n, right.n) != (n_x, n_y):
        raise ValueError("partition sizes do not match the graph")
    if left.n_body_blocks() > r:
        raise InfeasibleParamsError(
            f"left partition has {left.n_body_blocks()} blocks, allowed r={r}"
        )
    q = similarity_block_count(gamma, r)
    m = similarity_block_size(n_x, gamma, r)
    if m < 1 or q * m > n_x:
        raise InfeasibleParamsError(
            f"q={q}, m={m} infeasible for n={n_x} (need q*m <= n and m >= 1)"
        )
    input_tol = similarity_input_tolerance(gamma)

    # good/bad classification of left blocks by the mass of right
    # blocks forming a non-homogeneous pair with them, counted from the
    # packed rows
    sums = block_sums(g, (left, right))
    volumes = np.multiply.outer(left.sizes(), right.sizes())
    mixed = (volumes > 0) & ~homogeneous(sums / np.maximum(volumes, 1),
                                         input_tol)
    mass = mixed.astype(np.int64) @ right.sizes()
    bad = [int(b) for b in np.flatnonzero(mass > (gamma**2 / 16.0) * n_y)]
    bad_mass = int(left.sizes()[bad].sum())

    evict_threshold = gamma * n_y / 2.0
    exceptional = []
    representatives = []
    kept_chunks = []
    for b in range(left.n_blocks):
        bx = left.block_indices(b)
        if bx.size == 0:
            continue
        if b in bad:
            exceptional.append(bx)
            continue
        rows = g.words[bx]
        # sum_j |N_i ^ N_j| = sum_c s_c + sum_c x_ic (|bx| - 2 s_c), with
        # x the block's rows and s its column counts
        x = bitops.unpack(rows, n_y)
        s = x.sum(axis=0)
        totals = s.sum() + x @ (bx.size - 2 * s)
        rep_pos = int(np.argmin(totals))
        representatives.append((b, int(bx[rep_pos])))
        dist = bitops.symdiff_sizes(rows, rows[rep_pos])
        keep = dist < evict_threshold
        exceptional.append(bx[~keep])
        kept = bx[keep]
        n_full = kept.size // m
        for c in range(n_full):
            kept_chunks.append(kept[c * m:(c + 1) * m])
        exceptional.append(kept[n_full * m:])

    evicted = int(sum(len(e) for e in exceptional)) - bad_mass
    shortfall = max(0, q - len(kept_chunks))
    for chunk in kept_chunks[q:]:
        exceptional.append(chunk)
    kept_chunks = kept_chunks[:q]

    labels = np.zeros(n_x, dtype=np.int64)
    for i, chunk in enumerate(kept_chunks):
        labels[chunk] = i + 1
    partition = PartPartition(
        labels,
        part=left.part,
        n_blocks=len(kept_chunks) + 1,
        has_exceptional=True,
        equitable=True,
    )

    # postcondition scan: block sizes, exceptional budget, intra-block
    # neighborhood distances
    max_intra, widest = 0, 0
    for b, chunk in enumerate(kept_chunks, 1):
        spread = int(_pairwise_symdiff(g.words[chunk]).max())
        if spread > max_intra:
            max_intra, widest = spread, b
    contract_met = shortfall == 0
    if contract_met:
        if partition.exceptional_size() > gamma * n_x + 1e-9:
            raise AssertionError(
                f"exceptional block 0 holds {partition.exceptional_size()} "
                f"vertices, over gamma * n = {gamma * n_x}")
        if max_intra > gamma * n_y + 1e-9:
            raise AssertionError(
                f"block {widest} holds neighborhoods {max_intra} apart, "
                f"over gamma * n = {gamma * n_y}")
    return SimilarityResult(
        partition=partition,
        q=q,
        m=m,
        gamma=gamma,
        representatives=tuple(representatives),
        bad_blocks=tuple(bad),
        bad_mass=bad_mass,
        evicted=evicted,
        shortfall=shortfall,
        max_intra_symdiff=max_intra,
        contract_met=contract_met,
    )


@dataclass(frozen=True)
class TuplePartition:
    """Partition of the source-tuple product into anchor classes.

    ``labels`` is an int tensor over the source parts (ascending part
    order, the target part removed); label 0 is the uncovered class,
    label i >= 1 collects the tuples whose neighborhood lies within
    ``threshold`` of anchor i's. ``anchors[i-1]`` is that anchor tuple
    in the same coordinate convention. ``representative_rows`` holds
    the packed neighborhood of each non-empty class's lexicographically
    least member, in label order.
    """

    source_parts: tuple
    target_part: int
    labels: np.ndarray
    anchors: tuple
    anchor_rows: np.ndarray
    representative_rows: np.ndarray
    threshold: float
    eps: float
    mode: str
    uncovered: int
    budget: float

    @property
    def n_classes(self) -> int:
        return len(self.anchors)

    def exceptional_count(self) -> int:
        return int(np.count_nonzero(self.labels == 0))


def _verify_tuple_partition(result: TuplePartition, rows: np.ndarray):
    """Check that every covered tuple lies within the threshold of its
    class's anchor, in one pass over all covered tuples; raise
    ``AssertionError`` naming the farthest tuple otherwise."""
    flat = result.labels.ravel()
    covered = np.flatnonzero(flat)
    if covered.size:
        dist = bitops.popcount(
            rows[covered] ^ result.anchor_rows[flat[covered] - 1], axis=-1
        )
        worst = int(np.argmax(dist))
        if dist[worst] > result.threshold + 1e-9:
            tup = tuple(int(v) for v in np.unravel_index(covered[worst],
                                                         result.labels.shape))
            raise AssertionError(
                f"tuple {tup} lies {int(dist[worst])} from the anchor of "
                f"class {int(flat[covered[worst]])}, over the threshold "
                f"{result.threshold}")


def _target_rows(h: KPartiteHypergraph, target: int) -> np.ndarray:
    """Packed neighborhoods in part ``target`` of every tuple over the
    other parts, in row-major order, as an (N, n_words) array.

    For the last part these are the fiber rows. For another part they
    are built from one word column of the packed words at a time, the
    rows of 64 consecutive last-part vertices: the target axis of the
    column is moved last, its bits are unpacked, and each bit plane is
    packed along the target axis.
    """
    if target == h.k - 1:
        return h.fiber_rows()
    sizes = h.part_sizes
    source_sizes = sizes[:target] + sizes[target + 1:]
    rows = np.empty(source_sizes + (bitops.n_words(sizes[target]),),
                    dtype=np.uint64)
    for w in range(h.words.shape[-1]):
        lo = w * bitops.WORD_BITS
        hi = min(lo + bitops.WORD_BITS, sizes[-1])
        column = np.moveaxis(h.words[..., w], target, -1)
        bits = bitops.unpack(column[..., None], hi - lo)
        # packbits reads the transposed view about three times slower
        # than a contiguous copy of it
        rows[..., lo:hi, :] = bitops.pack(
            np.ascontiguousarray(np.swapaxes(bits, -1, -2)))
    return rows.reshape(-1, rows.shape[-1])


def _distinct_rows(rows: np.ndarray) -> tuple:
    """(distinct rows, inverse): ``rows == distinct[inverse]``, found by
    one lexsort over the word columns."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(rows.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def tuple_partition(
    h: KPartiteHypergraph,
    params: ToleranceParams,
    seed: int,
    *,
    target_part: int | None = None,
    max_anchors: int = 512,
) -> TuplePartition:
    """Cover the (k-1)-tuple product by neighborhood-similarity classes.

    Anchors are drawn with the given seed; every tuple is assigned to
    the lowest-index anchor whose target-part neighborhood is within
    eps*n/2 of its own, remaining tuples form class 0. In paper mode
    the anchor count follows the fixed formula and is drawn uniformly
    from all tuples, so an anchor may already be covered and its class
    may be empty; in practical mode anchors are drawn uniformly from
    the still-uncovered tuples until the uncovered mass drops to
    eps * (number of tuples), or ``max_anchors`` is hit, in which case
    a CoverageError carrying the achieved mass is raised.

    The neighborhoods are read from the packed words without
    permuting the hypergraph and deduplicated once. An anchor compares
    only the still-open distinct neighborhoods and covers every tuple
    of a near one; the uncovered tuples, from which practical mode
    draws, are kept as one ascending array of flat indices, compacted
    through the dedup inverse after each anchor. Before returning,
    every covered tuple is checked against its anchor's neighborhood
    from its own row.

    Link partitions do not appear here: the assignment needs only
    neighborhoods and anchors. The link hypothesis enters through
    ``params.r``, which sets paper mode's anchor count.
    """
    k = h.k
    if target_part is None:
        target_part = k - 1
    if not 0 <= target_part < k:
        raise ValueError(f"target part {target_part} out of range")
    sources = tuple(p for p in range(k) if p != target_part)
    source_sizes = tuple(h.part_sizes[p] for p in sources)
    n_target = h.part_sizes[target_part]
    n_tuples = math.prod(source_sizes)
    rows = _target_rows(h, target_part)
    distinct, inverse = _distinct_rows(rows)
    threshold = params.eps * n_target / 2.0
    budget = params.eps * n_tuples

    if params.mode == "paper":
        t = params.paper_anchor_count()
        if t > max_anchors:
            raise InfeasibleParamsError(
                f"paper-mode anchor count t={t} exceeds the cap {max_anchors}; "
                "use practical mode"
            )
        rng = generator(seed, f"tuple/{target_part}/anchors")
        anchor_flat = rng.integers(0, n_tuples, size=t)
    else:
        anchor_flat = None  # drawn adaptively below

    # Tuples with one row are at one distance from every anchor, so a
    # distinct row is covered with all its tuples or not at all.
    row_label = np.zeros(distinct.shape[0], dtype=np.int64)
    open_rows = np.arange(distinct.shape[0])  # uncovered distinct rows
    anchors = []
    anchor_rows = []

    def place(flat_idx):
        nonlocal open_rows
        row = rows[flat_idx]
        near = bitops.symdiff_sizes(distinct[open_rows], row) <= threshold
        row_label[open_rows[near]] = len(anchors) + 1
        open_rows = open_rows[~near]
        anchors.append(tuple(np.unravel_index(flat_idx, source_sizes)))
        anchor_rows.append(row)

    if params.mode == "paper":
        for a in anchor_flat:
            place(int(a))
    else:
        rng = generator(seed, f"tuple/{target_part}/anchors")
        open_idx = np.arange(n_tuples)  # uncovered flat indices, ascending
        while open_idx.size > budget and len(anchors) < max_anchors:
            place(int(open_idx[rng.integers(open_idx.size)]))
            open_idx = open_idx[row_label[inverse[open_idx]] == 0]
    labels = row_label[inverse]

    uncovered = int(np.count_nonzero(labels == 0))
    if uncovered > budget + 1e-9:
        raise CoverageError(uncovered, budget, len(anchors))
    # first occurrence in row-major order is the lexicographically
    # least member; labels come out ascending, empty classes absent
    classes, first = np.unique(labels, return_index=True)
    result = TuplePartition(
        source_parts=sources,
        target_part=target_part,
        labels=labels.reshape(source_sizes),
        anchors=tuple(anchors),
        anchor_rows=np.array(anchor_rows, dtype=np.uint64).reshape(
            len(anchors), -1
        ),
        representative_rows=rows[first[classes > 0]],
        threshold=threshold,
        eps=params.eps,
        mode=params.mode,
        uncovered=uncovered,
        budget=budget,
    )
    _verify_tuple_partition(result, rows)
    return result


@dataclass(frozen=True)
class PipelineReport:
    """Assembly record of a homogeneous_partition run."""

    eps: float
    inner_eps: float
    mode: str
    p: int
    block_size: tuple
    budget: float
    passes: tuple = field(repr=False)


def homogeneous_partition(
    h: KPartiteHypergraph,
    oracle,
    eps: float,
    seed: int,
    *,
    mode: str = "practical",
    max_anchors: int = 512,
) -> tuple[LayeredPartition, PipelineReport]:
    """Equipartition of every part, homogeneous at tolerance eps.

    Runs ``tuple_partition`` once per target part at the reduced
    tolerance eps^2/(8k), refines each part by the Venn atoms of the
    neighborhoods of the classes' representatives (each pass's
    ``representative_rows``), and equalizes at block size
    eps^2 n/(8kp) where p is the largest atom count. That size is
    floored at 1, which makes every block a singleton at desk sizes,
    where eps^2 n/(8kp) is below one vertex. The audit module is the
    authority on whether the output meets eps; this function
    guarantees structure, not the verdict.

    ``oracle.r``, the per-side block bound of the link hypothesis, is
    all this function reads of ``oracle``; only paper mode's constants
    depend on it. An instance generated with r = 0 has no oracle
    (None), which is rejected like any r below 1.
    """
    if not 0.0 < eps < 0.5:
        raise InfeasibleParamsError(f"eps={eps} outside (0, 1/2)")
    k = h.k
    inner_eps = eps**2 / (8.0 * k)
    r = 0 if oracle is None else oracle.r
    params = ToleranceParams(eps=inner_eps, k=k, r=r, mode=mode)
    passes = []
    for target in range(k):
        tp = tuple_partition(
            h,
            params,
            derive_pass_seed(seed, target),
            target_part=target,
            max_anchors=max_anchors,
        )
        passes.append(tp)

    atom_parts = [
        common_refinement(
            h.part_sizes[i],
            list(bitops.unpack(tp.representative_rows, h.part_sizes[i])),
            part=i,
        )
        for i, tp in enumerate(passes)
    ]
    p = max(ap.n_blocks for ap in atom_parts)
    sizes = []
    final = []
    for i in range(k):
        n_i = h.part_sizes[i]
        m = max(1, math.floor(eps**2 * n_i / (8.0 * k * p) + 1e-9))
        sizes.append(m)
        final.append(equalize(atom_parts[i], m))
    budget = 8.0 * k * p / eps**2
    report = PipelineReport(
        eps=eps,
        inner_eps=inner_eps,
        mode=mode,
        p=p,
        block_size=tuple(sizes),
        budget=budget,
        passes=tuple(passes),
    )
    return LayeredPartition(final), report


def derive_pass_seed(seed: int, target: int) -> int:
    return derive(seed, f"pipeline/target{target}")
