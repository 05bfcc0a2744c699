"""Tower-type lower-bound machine.

Builds the layered weighted tripartite graphs whose links all admit
small regular partitions while the graph itself defeats every small
weakly regular partition. The pieces: a stunted doubling sequence of
interval partitions, orthogonal set families drawn by rejection
sampling (fair coins, or a Reed-Muller code where coins cannot
succeed), the level graphs and their dyadic weight stack, per-vertex
link certificates, quasirandomness audits, the refinement cascade that
extracts irregularity witnesses from undersized candidate partitions,
and a sampler down to an unweighted graph.

Paper mode enforces the full parameter regime, which puts real runs far
out of desk reach; toy mode keeps the structural pipeline bit for bit
identical but lets the caller pick the layer count, growth function,
and coupling threshold, recording every relaxation on the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bitops
from .auditor import (RegularityWitness, _as_tensor, _counted, _mask_chunks,
                      bipartite_regularity_witness)
from .errors import DivisibilityError, FamilyRejectionError, InfeasibleParamsError
from .hypercore import BipartiteGraph, KPartiteHypergraph, WeightedTripartite, _frozen
from .partitions import (
    LayeredPartition,
    PartPartition,
    beta_refines,
    block_sums,
    common_refinement,
)
from .rng import derive, generator

MODES = ("paper", "toy")

#: schedule bound above which the cascade induction is unsound
CASCADE_BETA_CAP = 1.0 / 72.0


def growth_function(m: int) -> int:
    """Default level growth max(floor(e^(m/16)), 2)."""
    return max(int(math.floor(math.exp(m / 16.0))), 2)


def layer_count(eps: float) -> int:
    """Layer count floor(log_7(1/eps)/4 - 3) for the strict regime."""
    x = 0.25 * (math.log(1.0 / eps) / math.log(7.0)) - 3.0
    return int(math.floor(x + 1e-9))


def coupling_threshold(delta: float) -> int:
    """Growth-stunting threshold ceil(4/delta^4)."""
    return math.ceil(4.0 / float(delta) ** 4 - 1e-9)


@dataclass(frozen=True)
class GowersParams:
    """Materialized parameter set for one construction run.

    ``levels`` holds the full sequence m_0..m_t. Each entry divides the
    next, the ratio never exceeds the growth function at the previous
    value, and the growth is stunted to exactly ``s0`` at the critical
    step. ``relaxations`` names every strict-regime constraint a toy
    run replaced; it is empty in paper mode.
    """

    eps: float
    delta: float
    mode: str
    t: int
    s0: int
    levels: tuple
    seed: int
    relaxations: tuple = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if len(self.levels) != self.t + 1 or self.levels[0] != 1:
            raise ValueError("levels must run m_0=1 through m_t")
        for prev, cur in zip(self.levels, self.levels[1:]):
            if cur <= prev or cur % prev:
                raise ValueError("each level must be a proper multiple of the last")

    def ratio(self, r: int) -> int:
        """Fine blocks per coarse block at level r (called M elsewhere)."""
        return self.levels[r] // self.levels[r - 1]


def build_sequence(eps, delta, mode="paper", *, t=None, growth=None, s0=None,
                   seed=0) -> GowersParams:
    """Derive the level sequence for the given regime.

    Paper mode computes everything from (eps, delta) and rejects
    overrides; eps too large for at least one layer is an error that
    points at toy mode. Toy mode requires an explicit layer count and
    an integer growth, the constant ratio of each level to the last,
    accepts an ``s0`` override, and drops the delta <= eps coupling if
    asked to, stamping each relaxation into the result.
    """
    eps = float(eps)
    delta = float(delta)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} out of range (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} out of range (0, 1)")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    relaxations = []
    if mode == "paper":
        if t is not None or growth is not None or s0 is not None:
            raise ValueError("paper mode derives t, growth, and s0 itself")
        if delta > eps:
            raise ValueError(f"paper mode needs delta <= eps, got {delta} > {eps}")
        t = layer_count(eps)
        if t < 1:
            raise InfeasibleParamsError(
                f"eps={eps} leaves no layers (t={t}); paper mode needs "
                f"eps <= 7^-16, use toy mode with explicit t and growth"
            )
        grow = growth_function
        s0 = coupling_threshold(delta)
    else:
        if t is None or growth is None:
            raise ValueError("toy mode needs explicit t and growth")
        t = int(t)
        if t < 1:
            raise ValueError(f"need at least one layer, got t={t}")
        ratio = int(growth)
        grow = lambda m: ratio
        relaxations += ["t", "growth"]
        if s0 is None:
            s0 = coupling_threshold(delta)
        else:
            s0 = int(s0)
            relaxations.append("s0")
        if delta > eps:
            relaxations.append("delta-coupling")
    if s0 < 2:
        raise ValueError(f"threshold s0={s0} must be at least 2")

    levels = [1]
    for r in range(1, t + 1):
        try:
            phi = int(grow(levels[-1]))
        except OverflowError:
            raise InfeasibleParamsError(
                f"growth({levels[-1]}) at level {r} overflows a float"
            ) from None
        if phi < 2:
            raise ValueError(f"growth({levels[-1]}) = {phi} is below 2")
        if levels[-1] < s0 and phi >= s0:
            levels.append(levels[-1] * s0)
        else:
            levels.append(levels[-1] * phi)
        assert levels[-1] // levels[-2] <= max(phi, s0)
    return GowersParams(
        eps=eps,
        delta=delta,
        mode=mode,
        t=t,
        s0=int(s0),
        levels=tuple(levels),
        seed=int(seed),
        relaxations=tuple(relaxations),
    )


@dataclass(frozen=True)
class OrthogonalFamily:
    """Accepted two-coloring family over [M], one partition per index.

    ``x_side[i, j]`` says element j sits on the X side of partition i.
    The acceptance event bounds by 3m/4 the number of indices on which
    any two distinct elements agree. ``item1_checked`` records whether
    the size and intersection bands were in scope for this M, and
    ``construction`` how the sides were drawn: ``"coins"`` or
    ``"code"`` (see ``orthogonal_family``).
    """

    m: int
    M: int
    x_side: np.ndarray
    item1_checked: bool
    attempts: int
    construction: str = "coins"

    def side_sums(self, lam: np.ndarray) -> tuple:
        """(X-side, Y-side) weight totals of ``lam`` per partition."""
        lam = np.asarray(lam, dtype=np.float64)
        x = self.x_side @ lam
        return x, float(lam.sum()) - x


def _item1_violations(side: np.ndarray) -> int:
    m, M = side.shape
    band = M ** (2.0 / 3.0)
    s = side.astype(np.float64)
    sizes = s.sum(axis=1)
    bad = int((np.abs(sizes - M / 2.0) > band).sum())
    bad += int((np.abs((M - sizes) - M / 2.0) > band).sum())
    # one Gram matrix G = |X_i & X_j| gives the other two intersections:
    # |X_i & Y_j| = |X_i| - G_ij and |Y_i & Y_j| = M - |X_i| - |X_j| + G_ij,
    # all small exact integers
    gram = s @ s.T
    off = ~np.eye(m, dtype=bool)
    for inter in (gram, sizes[:, None] - gram,
                  M - sizes[:, None] - sizes[None, :] + gram):
        bad += int((np.abs(inter - M / 4.0)[off] > band).sum())
    return bad


def _agreement_excess(side: np.ndarray, cap: float) -> tuple:
    """(pairs of distinct elements agreeing on more than ``cap``
    partitions, the most agreements of any such pair).

    The +-1 Gram entry of a pair is agreements minus disagreements. It
    is formed 256 rows at a time, over the pairs right of the diagonal
    only, so no M x M array is built. Every entry is an integer of size
    at most m, exact in float32.
    """
    m, M = side.shape
    s = np.where(side.T, np.float32(1.0), np.float32(-1.0))
    # agreements exceed the cap exactly when the entry exceeds 2 cap - m
    limit, over, worst = 2.0 * cap - m, 0, -m
    block = 256
    below = np.tri(block, dtype=bool)
    for lo in range(0, M, block):
        rows = s[lo:lo + block]
        h = rows.shape[0]
        gram = rows @ s[lo:].T
        gram[:, :h][below[:h, :h]] = -m  # the diagonal and the pairs left of it
        over += int(np.count_nonzero(gram > limit))
        worst = max(worst, int(gram.max()))
    return over, (m + worst) // 2


def _coin_union_bound(m: int, M: int) -> float:
    """Expected number of pairs over the 3m/4 agreement cap under fair coins."""
    over = sum(math.comb(m, a) for a in range(math.floor(0.75 * m) + 1, m + 1))
    return math.comb(M, 2) * over / 2 ** m


def _family_construction(m: int, M: int) -> str:
    """``"coins"`` where fair coins accept at least every other attempt.

    Past that, ``"code"`` if the shortened second-order Reed-Muller
    code of length m surely has M words, else ``"coins"`` again, which
    then fails with its statistics. M <= e^(m/16) is the Hoeffding
    form of the union bound and skips the exact binomial sum.
    """
    if M <= growth_function(m) or _coin_union_bound(m, M) <= 0.5:
        return "coins"
    s = (m - 1).bit_length()
    dim = 1 + s + math.comb(s, 2) - (2 ** s - m)
    return "code" if dim >= 0 and 2 ** dim >= M else "coins"


def _gf2_left_kernel(a: np.ndarray) -> np.ndarray:
    """Rows spanning {u : u a = 0} over GF(2)."""
    k, t = a.shape
    aug = np.concatenate([a % 2, np.eye(k, dtype=np.int64)], axis=1)
    rank = 0
    for col in range(t):
        hits = np.flatnonzero(aug[rank:, col])
        if hits.size == 0:
            continue
        aug[[rank, rank + hits[0]]] = aug[[rank + hits[0], rank]]
        others = np.flatnonzero(aug[:, col])
        aug[others[others != rank]] ^= aug[rank]
        rank += 1
    return aug[rank:, t:]


def _code_sides(rng, m: int, M: int) -> np.ndarray:
    """Sides of M distinct words of a shortened RM(2, s) code.

    RM(2, s) evaluates every polynomial of degree at most 2 in s
    variables at the 2^s points of F_2^s; its minimum distance is
    2^(s-2) (1 for s < 2). With 2^(s-1) < m <= 2^s, keeping the words
    that vanish on 2^s - m random points and deleting those points
    leaves a linear code of length m and distance at least ceil(m/4),
    so two distinct words agree on at most 3m/4 coordinates. Word j,
    shifted by one random vector, gives element j's side in each of
    the m partitions.
    """
    s = (m - 1).bit_length()
    points = (np.arange(2 ** s)[:, None] >> np.arange(s)) & 1
    monomials = [np.ones(2 ** s, dtype=np.int64)]
    monomials += [points[:, a] for a in range(s)]
    monomials += [points[:, a] & points[:, b]
                  for a, b in itertools.combinations(range(s), 2)]
    full = np.array(monomials, dtype=np.int64)
    order = rng.permutation(2 ** s)
    dropped, kept = order[:2 ** s - m], order[2 ** s - m:]
    basis = _gf2_left_kernel(full[:, dropped]) @ full[:, kept] % 2
    k = basis.shape[0]
    words = rng.choice(2 ** k, size=M, replace=False)
    bits = (words[:, None] >> np.arange(k)) & 1
    side = (bits @ basis + rng.integers(0, 2, m)) % 2
    return side.T.astype(bool, order="C")


def orthogonal_family(m, M, seed=0, max_attempts=64) -> OrthogonalFamily:
    """Draw families until both acceptance checks pass.

    Where the union bound over the ~M^2/2 pairs keeps fair coins from
    breaking the agreement cap in at least half of the attempts
    (always when M <= e^(m/16)), each element picks a side by fair
    coin. Past that the coins are hopeless, e.g. at (m, M) = (30, 2000)
    about 5e3 pairs break the cap per attempt. There each attempt
    takes M distinct words of a shortened second-order Reed-Muller
    code instead (see ``_code_sides``), whose distance meets the cap
    by construction; at m = 30 it has 2^14 words. The size and
    intersection bands are checked only when M >= ln^3(4 m^2); the
    agreement event is always checked. When the code is too small for
    M, the coins run anyway and the attempt cap triggers with the
    failing statistics attached. Each attempt counts the pairs over the
    cap, and finds the worst agreement, from the Gram entries of the
    +-1 sides formed a block of rows at a time over the upper triangle
    (see ``_agreement_excess``), so no M x M array is built.
    """
    m, M = int(m), int(M)
    if m < 1:
        raise ValueError(f"need at least one partition, got m={m}")
    if M < 2:
        raise ValueError(f"ground set needs at least 2 elements, got M={M}")
    check_item1 = M >= math.log(4.0 * m * m) ** 3
    cap = 0.75 * m
    construction = _family_construction(m, M)
    stats = {}
    for attempt in range(int(max_attempts)):
        rng = generator(seed, f"orthogonal/{m}x{M}/attempt{attempt}")
        if construction == "code":
            side = _code_sides(rng, m, M)
        else:
            side = rng.random((m, M)) < 0.5
        item1_bad = _item1_violations(side) if check_item1 else 0
        event_bad, worst = _agreement_excess(side, cap)
        if item1_bad == 0 and event_bad == 0:
            return OrthogonalFamily(
                m=m,
                M=M,
                x_side=_frozen(side),
                item1_checked=check_item1,
                attempts=attempt + 1,
                construction=construction,
            )
        stats = {
            "m": m,
            "M": M,
            "construction": construction,
            "item1_violations": item1_bad,
            "agreement_violations": event_bad,
            "worst_agreement": worst,
            "agreement_cap": cap,
        }
    raise FamilyRejectionError(int(max_attempts), stats)


@dataclass(frozen=True)
class Item2Report:
    """Margin count for one weight vector against a family.

    ``count`` is the number of partitions whose lighter side still
    carries more than ``eps`` of the total weight; the guarantee is
    ``count >= eta * m`` whenever the stated hypotheses hold, and
    ``problems`` lists the hypotheses that did not.
    """

    count: int
    required: float
    satisfied: bool
    hypothesis_ok: bool
    problems: tuple
    mins: np.ndarray


def item2_margin(family: OrthogonalFamily, lam, eps, zeta, eta) -> Item2Report:
    """Count partitions with both sides heavier than ``eps``.

    ``lam`` must be a probability vector over the family's ground set;
    that much is a hard error. The spread hypotheses (zeta at most a
    half, the (1-eta)(1-4 eps) slack inequality, and max(lam) at most
    1 - zeta) are reported rather than enforced, since the count is
    still meaningful without them. When they do hold, the agreement
    event carried by every accepted family forces the count to at
    least eta * m, and that is asserted.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (family.M,):
        raise ValueError(f"weight vector must have length {family.M}")
    if (lam < 0).any():
        raise ValueError("weights must be nonnegative")
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(lam.sum()):.6g}")

    problems = []
    if zeta > 0.5:
        problems.append(f"zeta={zeta:.6g} above 1/2")
    if (1.0 - eta) * (1.0 - 4.0 * eps) < 1.0 - zeta + zeta * zeta - 1e-12:
        problems.append("slack inequality (1-eta)(1-4eps) >= 1-zeta+zeta^2 fails")
    if float(lam.max()) > 1.0 - zeta + 1e-12:
        problems.append(f"max weight {float(lam.max()):.6g} above 1-zeta")

    xs, ys = family.side_sums(lam)
    mins = np.minimum(xs, ys)
    count = int((mins > eps).sum())
    required = float(eta) * family.m
    hypothesis_ok = not problems
    satisfied = count >= required - 1e-9
    if hypothesis_ok and not satisfied:
        raise AssertionError(
            f"margin count {count} below guaranteed {required:.6g} "
            f"despite valid hypotheses"
        )
    return Item2Report(
        count=count,
        required=required,
        satisfied=satisfied,
        hypothesis_ok=hypothesis_ok,
        problems=tuple(problems),
        mins=_frozen(mins),
    )


@dataclass(frozen=True)
class IntervalLayering:
    """Interval partitions per level plus the level graphs.

    ``a_levels[r]`` and ``b_levels[r]`` split the first two parts into
    ``levels[r]`` equal intervals; each level refines the previous one
    exactly. ``c_layers`` splits the third part into one interval per
    level. ``families[r-1]`` and ``graphs[r-1]`` belong to level r.
    The level graphs are symmetric, so one level-bit table serves
    vertex v of both parts. It counts nothing itself: box sums come
    from ``box_sums`` on the build's layered ``weighted``, link counts
    from ``block_sums`` over ``level_bits``.
    """

    n: int
    levels: tuple
    a_levels: tuple
    b_levels: tuple
    c_layers: PartPartition
    families: tuple
    graphs: tuple

    @property
    def t(self) -> int:
        return len(self.levels) - 1

    def layer_of(self, c: int) -> int:
        """1-based level of a third-part vertex."""
        return self.c_layers.block_of(c) + 1

    def layer_indices(self, r: int) -> np.ndarray:
        return self.c_layers.block_indices(r - 1)

    def layer_weights(self) -> np.ndarray:
        """Weight 2^-r of layer r, for r = 1..t."""
        return 2.0 ** -np.arange(1, self.t + 1)

    def level_bits(self, v: int) -> np.ndarray:
        """n x t table: bit r-1 of row x says level graph r has the edge
        (v, x), which is also the edge (x, v)."""
        return bitops.unpack(np.stack([g.rows[v] for g in self.graphs]), self.n).T

    def level_tables(self) -> np.ndarray:
        """n x n x t array whose row v is ``level_bits(v)``, from one
        unpack of the t level graphs."""
        dense = bitops.unpack(np.stack([g.rows for g in self.graphs]), self.n)
        return np.ascontiguousarray(dense.transpose(1, 2, 0))


@dataclass(frozen=True)
class GowersBuild:
    """One tower construction at size n.

    Its weights are stored only as ``layering.graphs`` and the layer
    labels: ``weighted`` is a layered ``WeightedTripartite`` over them.

    ``_memo`` holds the certificate work of the build, so that each
    distinct link is certified once. Its keys name everything a value
    depends on, and the build's level graphs never change:

    - ``("atoms", bits)``: the (atoms, layer partition) pair that
      ``link_certificate`` gives a first- or second-part vertex whose
      n x t table of level bits has the bytes ``bits``. The atoms are
      the Venn atoms of those columns and the layer partition is the
      same for every vertex, so vertices with equal tables share them.
    - ``("exact", kind, link, partitions)``: the ``CertificateCheck``
      of an exact claim. ``link`` is the int layer r of a third-part
      vertex, whose link is 2^-r G_r, or the level-bit bytes of a
      first- or second-part vertex, so the two never share a key; with
      the claimed ``partitions``, compared by value, they fix every
      count the check reads, so a claim that differs in any of them
      misses.
    - ``("quasirandom", r, delta, draws, seed)``: the (audit, witness)
      pair of level r, which depends on nothing else.
    - ``("level bits",)``: ``layering.level_tables()``, the level-bit
      tables of every vertex, from which both keys above take a
      first- or second-part vertex's bits.
    """

    params: GowersParams
    n: int
    weighted: WeightedTripartite
    layering: IntervalLayering
    _memo: dict = field(default_factory=dict, compare=False, repr=False)


def level_graph(n: int, family: OrthogonalFamily) -> BipartiteGraph:
    """Level graph on n+n vertices from per-interval side choices.

    A first-part vertex in coarse interval i at fine offset k meets a
    second-part vertex in coarse interval j at fine offset k' exactly
    when the side of k in partition j agrees with the side of k' in
    partition i, which realizes the two complete blocks per interval
    pair. The rule reads the same with the two vertices swapped, so
    the graph is symmetric: (a, b) is an edge exactly when (b, a) is.
    """
    n = int(n)
    m, M = family.m, family.M
    if n % (m * M):
        raise DivisibilityError(f"n={n} is not divisible by {m * M} fine intervals")
    coarse = np.arange(n) // (n // m)
    fine = (np.arange(n) % (n // m)) // (n // (m * M))
    side = family.x_side
    dense = side[coarse[None, :], fine[:, None]] == side[coarse[:, None], fine[None, :]]
    assert (dense == dense.T).all()
    return BipartiteGraph.from_dense(dense)


def build_weighted(params: GowersParams, n: int) -> GowersBuild:
    """Assemble the weighted graph and all level structure at size n.

    Each part has n vertices; n must be divisible by the finest level
    and by the layer count so every interval is exact. Level r
    contributes weight 2^-r on its layer of the third part wherever
    the level graph has an edge, so every cell weight is exactly 0 or
    2^-r for its layer, and the stack stays within [0, 1]. Only the t
    packed level graphs and the layer labels are stored; the n^3
    ``weighted.weights`` tensor is built if and when it is read.
    """
    n = int(n)
    t = params.t
    finest = params.levels[-1]
    if n % finest:
        raise DivisibilityError(
            f"n={n} is not divisible by the finest level {finest}"
        )
    if n % t:
        raise DivisibilityError(f"n={n} does not split into {t} equal layers")

    a_levels = tuple(PartPartition.intervals(n, m, part=0) for m in params.levels)
    b_levels = tuple(PartPartition.intervals(n, m, part=1) for m in params.levels)
    c_layers = PartPartition.intervals(n, t, part=2)
    for fine, coarse in zip(a_levels[1:], a_levels[:-1]):
        assert beta_refines(fine, coarse, 0.0).refines
    for fine, coarse in zip(b_levels[1:], b_levels[:-1]):
        assert beta_refines(fine, coarse, 0.0).refines

    families = []
    graphs = []
    for r in range(1, t + 1):
        fam = orthogonal_family(
            params.levels[r - 1],
            params.ratio(r),
            seed=derive(params.seed, f"gowers/level{r}"),
        )
        families.append(fam)
        graphs.append(level_graph(n, fam))

    layering = IntervalLayering(
        n=n,
        levels=params.levels,
        a_levels=a_levels,
        b_levels=b_levels,
        c_layers=c_layers,
        families=tuple(families),
        graphs=tuple(graphs),
    )
    weighted = WeightedTripartite.from_layers(
        layering.graphs, c_layers.labels, layering.layer_weights()
    )
    return GowersBuild(params=params, n=n, weighted=weighted, layering=layering)


@dataclass(frozen=True)
class LinkCertificate:
    """Claimed regular partition of one vertex link.

    ``partitions`` covers the two remaining parts in part order. The
    three kinds: a third-part vertex on a deep level carries the
    trivial pair (the whole level graph is regular); one on a shallow
    level carries the level intervals, every pair of which is constant;
    a first- or second-part vertex carries the overlap atoms of its
    per-level neighborhoods against the layer partition, constant on
    every pair. ``size_bound`` is the a-priori cap for the kind.
    """

    part: int
    vertex: int
    kind: str
    level: int | None
    partitions: LayeredPartition
    size_bound: int


def link_certificate(build: GowersBuild, part: int, v: int) -> LinkCertificate:
    """The certificate of the link of vertex ``v`` of ``part``.

    Each call returns a new certificate and a new ``LayeredPartition``.
    For a first- or second-part vertex the two ``PartPartition`` inside
    come from the build's memo under ``("atoms", level-bit bytes)``:
    the atoms depend only on the vertex's level bits, so every vertex
    with the same table shares them.
    """
    lay = build.layering
    params = build.params
    n = build.n
    v = int(v)
    if part not in (0, 1, 2):
        raise ValueError(f"part {part} out of range")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for part {part}")

    if part == 2:
        r = lay.layer_of(v)
        if params.levels[r - 1] >= params.s0:
            trivial = PartPartition.trivial(n)
            return LinkCertificate(
                part=2,
                vertex=v,
                kind="quasirandom",
                level=r,
                partitions=LayeredPartition([trivial, trivial]),
                size_bound=1,
            )
        return LinkCertificate(
            part=2,
            vertex=v,
            kind="constant-boxes",
            level=r,
            partitions=LayeredPartition([lay.a_levels[r], lay.b_levels[r]]),
            size_bound=params.s0 ** 2,
        )

    # first- or second-part vertex: the other interval side is atomized
    # by the per-level neighborhoods, the layer side is kept as is
    bits = _level_bits(build, v)
    key = ("atoms", bits.tobytes())
    if key not in build._memo:
        build._memo[key] = (
            common_refinement(n, list(bits.T)),
            PartPartition(lay.c_layers.labels, n_blocks=params.t),
        )
    atoms, layer_part = build._memo[key]
    return LinkCertificate(
        part=part,
        vertex=v,
        kind="layer-constant",
        level=None,
        partitions=LayeredPartition([atoms, layer_part]),
        size_bound=2 ** params.t,
    )


def _level_bits(build: GowersBuild, v: int) -> np.ndarray:
    """``level_bits(v)``, read from the tables in the build's memo,
    which are computed once per build."""
    key = ("level bits",)
    if key not in build._memo:
        build._memo[key] = build.layering.level_tables()
    return build._memo[key][v]


@dataclass(frozen=True)
class CertificateCheck:
    kind: str
    exact: bool
    ok: bool
    worst: tuple | None
    audit: "QuasirandomnessReport | None" = None
    witness: RegularityWitness | None = None


def verify_certificate(build: GowersBuild, cert: LinkCertificate, *,
                       delta=None, draws=2000, seed=0) -> CertificateCheck:
    """Check a certificate against the actual link weights.

    Constant-boxes and layer-constant claims are exact: every certified
    block pair must carry a single weight value. They are counted from
    the level rows, never from the dense weights. A third-part vertex on
    layer r has the link 2^-r G_r, so a pair A x B is constant exactly
    when G_r has 0 or |A||B| edges on it, counted by ``block_sums`` on
    the packed rows of G_r. For a first- or second-part vertex v,
    ``block_sums`` of its n x t table of level bits against (left
    blocks, one block per level) counts |A & N_r(v)|; a pair A x C is
    constant exactly when every layer C meets has a count of 0 or |A|,
    and every count is 0 where C meets more than one layer. ``worst``
    is the first failing pair in (a, b) order with its least and
    greatest weight, read from the same counts: 0 and 2^-r for a
    third-part vertex on layer r; otherwise 2^-l over the layers l that
    C meets and where A has a hit, and 0 where such a layer lacks a hit
    in A. Quasirandom claims are checked one-sidedly, by the
    quasirandomness audit plus a sampled witness search on the level
    graph; ``ok`` then means no witness surfaced within the budget of
    ``draws`` subsets, which must be at least 1 when the search is
    sampled.

    Every check goes through the build's memo (see ``GowersBuild``).
    An exact check is kept under its kind, link (the int layer r, or
    the level-bit bytes) and claimed partitions, which fix all the
    counts above, and a hit returns the stored check; vertex v of the
    first and of the second part share one. The audit and witness
    depend only on the level and the search settings, so they run once
    per (level, delta, draws, seed), and every quasirandom certificate
    on that level gets the same two objects.
    """
    lay = build.layering
    if cert.kind == "quasirandom":
        r = cert.level
        d = build.params.delta if delta is None else float(delta)
        key = ("quasirandom", r, d, draws, seed)
        if key not in build._memo:
            g = lay.graphs[r - 1]
            audit = quasirandomness_audit(
                g,
                d,
                b_intervals=lay.b_levels[r - 1],
                level_M=build.params.ratio(r),
            )
            wit = bipartite_regularity_witness(g, d, draws=draws, seed=seed)
            build._memo[key] = (audit, wit)
        audit, wit = build._memo[key]
        return CertificateCheck(
            kind=cert.kind,
            exact=False,
            ok=wit is None,
            worst=None,
            audit=audit,
            witness=wit,
        )

    if cert.part == 2:
        link = lay.layer_of(cert.vertex)
        key = ("exact", cert.kind, link, cert.partitions)
    else:
        link = _level_bits(build, cert.vertex)
        key = ("exact", cert.kind, link.tobytes(), cert.partitions)
    if key not in build._memo:
        build._memo[key] = _exact_check(lay, cert, link)
    return build._memo[key]


def _exact_check(lay: IntervalLayering, cert: LinkCertificate,
                 link) -> CertificateCheck:
    """The exact check of ``cert``, whose link is layer ``link`` of a
    third-part vertex or the level-bit table ``link`` of another."""
    left, right = cert.partitions[0], cert.partitions[1]
    if cert.part == 2:
        edges = block_sums(_counted(lay.graphs[link - 1])[0], (left, right))
        cells = np.multiply.outer(left.sizes(), right.sizes())
        off = (edges != 0) & (edges != cells)
    else:
        t = lay.t
        hits = block_sums(link, (left, PartPartition.singletons(t)))
        full = hits == left.sizes()[:, None]
        meets = np.bincount(
            right.labels * t + lay.c_layers.labels, minlength=right.n_blocks * t
        ).reshape(-1, t) > 0
        lit = (hits != 0).astype(np.int64)
        mixed = lit * ~full
        off = (mixed @ meets.T > 0) | ((lit @ meets.T > 0) & (meets.sum(axis=1) > 1))
    worst = None
    if off.any():
        a, b = np.argwhere(off)[0]
        if cert.part == 2:
            low, high = 0.0, 2.0 ** -link
        else:
            # a failing pair has a hit on some layer its right block meets
            weights = lay.layer_weights()[meets[b] & (hits[a] != 0)]
            high = weights.max()
            low = 0.0 if (meets[b] & ~full[a]).any() else weights.min()
        worst = ((int(a), int(b)), float(low), float(high))
    return CertificateCheck(
        kind=cert.kind, exact=True, ok=worst is None, worst=worst
    )


@dataclass(frozen=True)
class QuasirandomnessReport:
    """Two-condition regularity audit of a level graph.

    Condition 1 bounds how many right-side vertices have degree off
    the mean by more than delta^4 n. Condition 2 bounds codegree mass
    over large right subsets; it is decided exactly by subset
    enumeration at small n and otherwise by the sufficient pointwise
    statistic (cross-interval codegree excess plus the same-interval
    mass term). The optional bands report per-vertex degree and
    cross-interval codegree against 1/2 and 1/4 at tolerance
    ``band_tol`` = M^(-1/3) for the level ratio M; they are
    informational.
    """

    n: int
    delta: float
    density: float
    degree_violations: int
    degree_allowance: float
    condition1: bool
    condition2_mode: str
    condition2: bool
    condition2_worst: float
    band_tol: float | None = None
    degree_band: bool | None = None
    codegree_band: bool | None = None

    @property
    def passed(self) -> bool:
        return self.condition1 and self.condition2


def quasirandomness_audit(g, delta, *, b_intervals=None,
                          level_M=None) -> QuasirandomnessReport:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} out of range (0, 1)")
    adj, _ = _as_tensor(g)
    if adj.ndim != 2:
        raise ValueError(f"the audit needs a 2-d adjacency, got {adj.ndim}-d")
    if adj.shape[0] != adj.shape[1]:
        raise ValueError("the audit needs equal part sizes")
    n = adj.shape[0]
    d = float(adj.mean())

    degs = adj.sum(axis=0)  # degree of each right-side vertex
    off = np.abs(degs - d * n)
    violations = int((off > delta ** 4 * n + 1e-9).sum())
    allowance = delta ** 4 * n / 8.0
    condition1 = violations <= allowance + 1e-9

    codeg = adj.T @ adj
    f = codeg - d * d * n

    if n <= 22:  # every subset is enumerated, 2^n of them
        mode = "exact"
        min_size = max(1, math.ceil(delta * n - 1e-9))
        worst = -math.inf
        for pat in _mask_chunks(n, min_size):
            sizes = pat.sum(axis=1)
            s = ((pat @ f) * pat).sum(axis=1)
            margin = s - (delta ** 3 / 2.0) * n * sizes ** 2
            worst = max(worst, float(margin.max()))
        condition2 = worst < 0.0
        condition2_worst = worst
    else:
        if b_intervals is None:
            raise ValueError(
                f"n={n} is past the exact range; pass the coarse right-side "
                f"intervals for the statistic check"
            )
        mode = "statistic"
        labels = b_intervals.labels
        m = b_intervals.n_blocks
        same = labels[:, None] == labels[None, :]
        cross_max = float(f[~same].max()) if (~same).any() else -math.inf
        pointwise_ok = cross_max <= (delta ** 3 / 4.0) * n + 1e-9
        same_interval_ok = m >= 4.0 / delta ** 4 - 1e-9
        condition2 = pointwise_ok and same_interval_ok
        condition2_worst = cross_max - (delta ** 3 / 4.0) * n

    degree_band = codegree_band = None
    tol = None
    if level_M is not None:
        tol = float(level_M) ** (-1.0 / 3.0)
        degree_band = bool((np.abs(degs - n / 2.0) <= tol * n + 1e-9).all())
        if b_intervals is not None:
            labels = b_intervals.labels
            cross = labels[:, None] != labels[None, :]
            codegree_band = bool(
                (np.abs(codeg[cross] - n / 4.0) <= tol * n + 1e-9).all()
            ) if cross.any() else True

    return QuasirandomnessReport(
        n=n,
        delta=delta,
        density=d,
        degree_violations=violations,
        degree_allowance=allowance,
        condition1=condition1,
        condition2_mode=mode,
        condition2=condition2,
        condition2_worst=condition2_worst,
        band_tol=tol,
        degree_band=degree_band,
        codegree_band=codegree_band,
    )


@dataclass(frozen=True)
class CascadeWitness:
    """Irregular triple extracted from a failed refinement level.

    The complete and empty sub-boxes live inside the candidate blocks
    (s, u, ell); their weighted densities differ by exactly 2^-level.
    ``complete`` and ``empty`` are the two sub-triples as verifiable
    witnesses against the block base density.
    """

    level: int
    side: str
    s: int
    u: int
    ell: int
    coarse: int
    margin_index: int
    complete: RegularityWitness
    empty: RegularityWitness
    gap: float


@dataclass(frozen=True)
class CascadeLevel:
    r: int
    beta: float
    valid: bool
    runnable: bool
    a_report: object
    b_report: object
    refines: bool | None
    witnesses: tuple


@dataclass(frozen=True)
class CascadeReport:
    eps: float
    betas: tuple
    levels: tuple


def _extract_witness(build, fine_part, other_part, third, r, beta_prev, eps,
                     prev_fine, cur_fine, prev_other):
    """Walk the failed-refinement proof and return a witness, or None.

    ``fine_part`` failed to refine level r (reports ``prev_fine`` and
    ``cur_fine``), ``other_part`` (report ``prev_other``) supplies the
    crossing block and ``third`` the layer block; the witness is side
    A, its boxes in that part order. All index choices scan in
    ascending order, so extraction is deterministic. The base,
    complete and empty box means come from one ``box_sums`` call on the
    build's layered weights, exact as dyadic sums; the complete mean
    is asserted to be exactly 2^-r and the empty one 0.
    """
    lay = build.layering
    params = build.params
    n = build.n
    fam = lay.families[r - 1]
    m = params.levels[r - 1]
    M = params.ratio(r)
    w_coarse = n // m
    w_fine = n // params.levels[r]

    lost = np.flatnonzero(prev_fine.matched & ~cur_fine.matched)
    for s in lost:
        i = int(prev_fine.parents[s])
        block = fine_part.block_indices(int(s))
        inside = block[block // w_coarse == i]
        mu_counts = np.bincount(
            (inside % w_coarse) // w_fine, minlength=M
        ).astype(np.float64)
        mu = mu_counts / block.size
        total = float(mu.sum())
        if total <= 0.0:
            continue
        lam = mu / total
        margin = item2_margin(
            fam, lam, 2.0 * eps, zeta=6.0 * beta_prev, eta=5.0 * beta_prev
        )
        good = set(np.flatnonzero(margin.mins > 2.0 * eps).tolist())
        if not good:
            continue

        pick = None
        for u in range(prev_other.matched.size):
            if prev_other.matched[u] and int(prev_other.parents[u]) in good:
                pick = (int(u), int(prev_other.parents[u]))
                break
        if pick is None:
            continue
        u, h = pick

        fine_of = lambda idx: (idx % w_coarse) // w_fine
        v_x = inside[fam.x_side[h, fine_of(inside)]]
        v_y = inside[~fam.x_side[h, fine_of(inside)]]
        other = other_part.block_indices(u)
        other_in = other[other // w_coarse == h]
        w_x = other_in[fam.x_side[i, fine_of(other_in)]]
        w_y = other_in[~fam.x_side[i, fine_of(other_in)]]
        if not (v_x.size and v_y.size):
            continue
        if w_x.size >= w_y.size:
            w_pick, v_complete, v_empty = w_x, v_x, v_y
        else:
            w_pick, v_complete, v_empty = w_y, v_y, v_x
        if not w_pick.size:
            continue

        layer = lay.layer_indices(r)
        chosen_ell = None
        for ell in range(third.n_blocks):
            rl = third.block_indices(ell)
            rc = np.intersect1d(rl, layer, assume_unique=True)
            if rl.size and rc.size and rc.size >= eps * rl.size:
                chosen_ell = (ell, rl, rc)
                break
        if chosen_ell is None:
            continue
        ell, r_block, rc = chosen_ell

        boxes = ((block, other, r_block), (v_complete, w_pick, rc),
                 (v_empty, w_pick, rc))
        members = np.zeros((3, n, len(boxes)))
        for j, picks in enumerate(boxes):
            for part, idx in enumerate(picks):
                members[part, idx, j] = 1.0
        sums, _ = build.weighted.box_sums(members)
        base, d_complete, d_empty = (
            float(weight) / math.prod(idx.size for idx in picks)
            for weight, picks in zip(sums, boxes))
        assert d_complete == 2.0 ** -r and d_empty == 0.0

        complete = RegularityWitness(
            subsets=boxes[1],
            sub_density=d_complete,
            base_density=base,
            deviation=abs(d_complete - base),
            exact=True,
        )
        empty = RegularityWitness(
            subsets=boxes[2],
            sub_density=d_empty,
            base_density=base,
            deviation=abs(d_empty - base),
            exact=True,
        )
        return CascadeWitness(
            level=r,
            side="A",
            s=int(s),
            u=u,
            ell=ell,
            coarse=i,
            margin_index=h,
            complete=complete,
            empty=empty,
            gap=d_complete - d_empty,
        )
    return None


def _side_b(wit: CascadeWitness) -> CascadeWitness:
    """``wit``, found with the first two parts swapped, as side B with
    its boxes in part order. The level graphs are symmetric, so the
    weights are too under that swap."""
    unswap = lambda box: replace(box, subsets=box.subsets[1::-1] + box.subsets[2:])
    return replace(wit, side="B", complete=unswap(wit.complete),
                   empty=unswap(wit.empty))


def refinement_cascade(build: GowersBuild, candidate: LayeredPartition,
                       eps=None) -> CascadeReport:
    """Walk the interval levels checking 7^r-scaled refinement.

    The candidate must cover all three parts with nonempty blocks of
    equal size up to a factor of two (empty blocks are tolerated and
    ignored). Each level r is checked at beta_r = 7^r eps^(1/4);
    levels with beta_r at or above 1/2 cannot even be tested and are
    flagged, those above 1/72 are flagged as outside the sound
    schedule but still tested. Where refinement fails and the previous
    level matched, a witness is extracted: a complete and an empty
    sub-box, both counted on the level graphs, whose densities differ
    by exactly 2^-r and so certify the failure without a search.
    """
    if candidate.k != 3:
        raise ValueError("the cascade runs on a three-part candidate")
    eps = build.params.eps if eps is None else float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} out of range (0, 1)")
    sizes = np.concatenate([p.sizes() for p in candidate])
    nonzero = sizes[sizes > 0]
    if not nonzero.size:
        raise ValueError("candidate has no nonempty blocks")
    if nonzero.max() > 2 * nonzero.min():
        raise ValueError(
            f"candidate blocks span {nonzero.min()}..{nonzero.max()}, "
            f"more than a factor of two"
        )
    for part in range(3):
        if candidate[part].n != build.n:
            raise ValueError(f"candidate part {part} does not cover {build.n} vertices")

    lay = build.layering
    t = build.params.t
    betas = tuple(7.0 ** r * eps ** 0.25 for r in range(t + 1))
    prev_a = prev_b = None
    if betas[0] < 0.5:
        prev_a = beta_refines(candidate[0], lay.a_levels[0], betas[0])
        prev_b = beta_refines(candidate[1], lay.b_levels[0], betas[0])

    levels = []
    for r in range(1, t + 1):
        beta = betas[r]
        valid = beta <= CASCADE_BETA_CAP + 1e-12
        runnable = beta < 0.5
        if not runnable:
            levels.append(CascadeLevel(
                r=r, beta=beta, valid=valid, runnable=False,
                a_report=None, b_report=None, refines=None, witnesses=(),
            ))
            prev_a = prev_b = None
            continue
        a_rep = beta_refines(candidate[0], lay.a_levels[r], beta)
        b_rep = beta_refines(candidate[1], lay.b_levels[r], beta)
        refines = a_rep.refines and b_rep.refines
        witnesses = []
        if not refines and prev_a is not None and prev_b is not None:
            if not a_rep.refines:
                wit = _extract_witness(
                    build, candidate[0], candidate[1], candidate[2], r,
                    betas[r - 1], eps, prev_a, a_rep, prev_b,
                )
                if wit is not None:
                    witnesses.append(wit)
            if not b_rep.refines and not witnesses:
                wit = _extract_witness(
                    build, candidate[1], candidate[0], candidate[2], r,
                    betas[r - 1], eps, prev_b, b_rep, prev_a,
                )
                if wit is not None:
                    witnesses.append(_side_b(wit))
        levels.append(CascadeLevel(
            r=r, beta=beta, valid=valid, runnable=True,
            a_report=a_rep, b_report=b_rep, refines=refines,
            witnesses=tuple(witnesses),
        ))
        prev_a, prev_b = a_rep, b_rep
    return CascadeReport(eps=eps, betas=betas, levels=tuple(levels))


@dataclass(frozen=True)
class BoxCheck:
    expected: float
    observed: float
    sigma: float
    within: bool


@dataclass(frozen=True)
class ConcentrationReport:
    full: BoxCheck
    boxes: tuple
    n_within: int
    fraction_within: float


@dataclass(frozen=True)
class SampleResult:
    graph: KPartiteHypergraph
    report: ConcentrationReport


def _box_verdict(weight_sum, sampled_sum, variance_sum, cells) -> BoxCheck:
    expected = float(weight_sum) / cells
    observed = float(sampled_sum) / cells
    sigma = math.sqrt(variance_sum) / cells
    within = abs(observed - expected) <= 3.0 * sigma + 1e-12
    return BoxCheck(expected=expected, observed=observed, sigma=sigma, within=within)


def sample_unweighted(weighted: WeightedTripartite, seed=0, *, boxes=100,
                      box_fraction=0.5) -> SampleResult:
    """Independent per-cell coin at each cell's weight.

    Cells draw from one counter-based stream in memory order, so the
    sampled graph is a pure function of (weights, seed). Weight-1
    cells are always present and weight-0 cells always absent. The
    report compares sampled against expected density on the full box
    and on ``boxes`` random sub-boxes holding a ``box_fraction`` of
    each part, with a three-sigma band from the exact Bernoulli-sum
    variance of each box. ``boxes`` must be nonnegative and
    ``box_fraction`` in (0, 1].

    The cells are drawn one first-part vertex at a time: each slab
    ``weighted.slab(i)`` takes the next n1 x n2 draws of the stream,
    which are the same bits one n0 x n1 x n2 draw would give, and is
    packed at once. Neither dense nor layered input builds an n^3
    array here. Each part gets a 0/1 matrix saying which of its
    vertices every box holds. The boxes' weight and variance sums come
    from ``weighted.box_sums``, in closed form on layered input. The
    sampled cells are summed in the draw pass: for each slab, one
    matmul sums them over every box's third-part vertices, and the
    second- and first-part matrices finish the sums. On the dyadic
    weights of ``build_weighted`` every partial sum is exact, so the
    report equals a cell-by-cell gather of each box bit for bit; on
    other weights the sums agree to rounding. The full box's weight
    and variance sums come from ``weighted.sums()``.
    """
    boxes = int(boxes)
    if boxes < 0:
        raise ValueError(f"box count must be nonnegative, got boxes={boxes}")
    if not 0.0 < box_fraction <= 1.0:
        raise ValueError(f"box_fraction={box_fraction} out of range (0, 1]")
    shape = weighted.part_sizes
    n0, n1, n2 = shape

    rng = generator(seed, "sample/boxes")
    sizes = [max(1, math.ceil(box_fraction * s)) for s in shape]
    members = [np.zeros((s, boxes)) for s in shape]
    for b in range(boxes):
        for axis, s in enumerate(shape):
            members[axis][rng.choice(s, size=sizes[axis], replace=False), b] = 1.0
    # sampled cells per box, one first-part vertex at a time so the
    # temporaries stay small
    draws = generator(seed, "sample/cells")
    words = np.empty((n0, n1, bitops.n_words(n2)), dtype=np.uint64)
    by_vertex = np.empty((n0, boxes))
    for i in range(n0):
        drawn = draws.random((n1, n2)) < weighted.slab(i)
        words[i] = bitops.pack(drawn)
        by_vertex[i] = ((drawn @ members[2]) * members[1]).sum(axis=0)
    graph = KPartiteHypergraph(shape, words)
    weight_sum, variance_sum = weighted.sums()
    full = _box_verdict(weight_sum, graph.edge_count, variance_sum, math.prod(shape))

    box_weights, box_variances = weighted.box_sums(members)
    box_sampled = (by_vertex * members[0]).sum(axis=0)
    cells = math.prod(sizes)
    checks = [_box_verdict(*sums, cells)
              for sums in zip(box_weights, box_sampled, box_variances)]
    n_within = sum(1 for c in checks if c.within)
    report = ConcentrationReport(
        full=full,
        boxes=tuple(checks),
        n_within=n_within,
        fraction_within=n_within / len(checks) if checks else 1.0,
    )
    return SampleResult(graph=graph, report=report)
