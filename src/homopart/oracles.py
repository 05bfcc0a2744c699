"""Link-partition oracles.

The tuple pipeline assumes that every pinned link admits a homogeneous
partition with at most r blocks per side. An oracle is any object with
attributes ``r`` and ``provenance`` and a method
``partition(pins, side) -> PartPartition`` returning such a partition
of the requested side; homogeneity of what it returns is a contract,
auditable through the auditor module, not re-checked here.

Four provenances are provided: planted structure carried by a
generator, a greedy density-split search, an exhaustive search over
small sides, and partitions loaded from a sidecar file.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleParamsError, PinError
from .hypercore import KPartiteHypergraph, link
from .partitions import PartPartition, block_sums, homogeneous


class LinkPartitionOracle:
    """Interface shared by all oracle flavors."""

    r: int
    provenance: str

    def partition(self, pins, side: int) -> PartPartition:
        raise NotImplementedError


class PlantedOracle(LinkPartitionOracle):
    """Ground-truth partitions planted by an instance generator.

    Planted families are block-constant, so one fixed partition per
    part is homogeneous for every pinned link; pins are accepted for
    interface compatibility and only validated, never used.
    """

    provenance = "planted"

    def __init__(self, side_partitions: dict[int, PartPartition], r: int):
        self.side_partitions = dict(side_partitions)
        self.r = r
        for part, p in self.side_partitions.items():
            if p.n_body_blocks() > r:
                raise InfeasibleParamsError(
                    f"planted partition of part {part} has "
                    f"{p.n_body_blocks()} blocks, allowed r={r}"
                )

    def partition(self, pins, side: int) -> PartPartition:
        if any(p == side for p, _ in pins):
            raise PinError(f"part {side} is pinned")
        try:
            return self.side_partitions[side]
        except KeyError:
            raise PinError(f"no planted partition for part {side}") from None


class GreedyOracle(LinkPartitionOracle):
    """Recursive density splits until homogeneous or r blocks per side.

    Each step takes the block pair with the largest non-homogeneous
    mass and splits one of its blocks by majority degree into the
    other; ties and the choice of side are resolved deterministically,
    so repeated calls agree. Results are memoized per pin tuple.
    """

    provenance = "greedy"

    def __init__(self, h: KPartiteHypergraph, eps_prime: float, r: int):
        self.h = h
        self.eps_prime = float(eps_prime)
        self.r = int(r)
        self._cache = {}

    def partition(self, pins, side: int) -> PartPartition:
        pins = tuple(sorted((int(p), int(v)) for p, v in pins))
        if any(p == side for p, _ in pins):
            raise PinError(f"part {side} is pinned")
        key = pins
        if key not in self._cache:
            self._cache[key] = self._solve(pins)
        lo, hi, blocks_lo, blocks_hi = self._cache[key]
        if side == lo:
            return _blocks_to_partition(blocks_lo, self.h.part_sizes[lo], lo)
        if side == hi:
            return _blocks_to_partition(blocks_hi, self.h.part_sizes[hi], hi)
        raise PinError(f"part {side} is not free for these pins")

    def _solve(self, pins):
        g = link(self.h, pins)
        free = sorted(set(range(self.h.k)) - {p for p, _ in pins})
        lo, hi = free
        adj = g.to_dense()
        blocks_lo = [np.arange(g.n_left)]
        blocks_hi = [np.arange(g.n_right)]
        eps = self.eps_prime
        while True:
            sums, mass = block_sums(adj, (
                PartPartition.from_blocks(blocks_lo, g.n_left),
                PartPartition.from_blocks(blocks_hi, g.n_right),
            ))
            d = sums / mass
            viol = ~homogeneous(d, eps)
            if not viol.any():
                break
            order = np.argsort(-(mass * viol).ravel(), kind="stable")
            progressed = False
            for flat in order:
                a, b = np.unravel_index(flat, d.shape)
                if not viol[a, b]:
                    break
                for side_blocks, other_blocks, along_rows in (
                    (blocks_lo, blocks_hi, True),
                    (blocks_hi, blocks_lo, False),
                ):
                    tgt = side_blocks[a if along_rows else b]
                    other = other_blocks[b if along_rows else a]
                    if len(side_blocks) >= self.r:
                        continue
                    deg = (
                        adj[np.ix_(tgt, other)].sum(axis=1)
                        if along_rows
                        else adj[np.ix_(other, tgt)].sum(axis=0)
                    )
                    high = deg >= other.size / 2.0
                    if high.all() or not high.any():
                        continue
                    pos = a if along_rows else b
                    side_blocks[pos] = tgt[high]
                    side_blocks.append(tgt[~high])
                    progressed = True
                    break
                if progressed:
                    break
            if not progressed:
                break
        return lo, hi, blocks_lo, blocks_hi


def _blocks_to_partition(blocks, n, part):
    labels = np.zeros(n, dtype=np.int64)
    order = sorted(range(len(blocks)), key=lambda i: int(blocks[i].min()))
    for new, old in enumerate(order):
        labels[blocks[old]] = new
    return PartPartition(labels, part=part, n_blocks=len(blocks))


def _partitions_up_to(n: int, r: int):
    """All set partitions of range(n) with at most r blocks, as label
    arrays in restricted-growth order."""
    out = []
    labels = np.zeros(n, dtype=np.int64)

    def grow(i, used):
        if i == n:
            out.append(labels.copy())
            return
        for b in range(min(used + 1, r)):
            labels[i] = b
            grow(i + 1, max(used, b + 1))

    grow(0, 0)
    return np.array(out)


class ExhaustiveOracle(LinkPartitionOracle):
    """Joint exhaustive search over both sides of small links.

    Minimizes the total mass of non-homogeneous block pairs over all
    partitions with at most r blocks per side; first optimum in
    restricted-growth order wins. Sides are limited to 12 vertices and
    the candidate-pair count is guarded, so this flavor is a test and
    calibration tool, not a production path.
    """

    provenance = "exhaustive"
    MAX_PAIRS = 6_000_000

    def __init__(self, h: KPartiteHypergraph, eps_prime: float, r: int):
        self.h = h
        self.eps_prime = float(eps_prime)
        self.r = int(r)
        self._cache = {}

    def partition(self, pins, side: int) -> PartPartition:
        pins = tuple(sorted((int(p), int(v)) for p, v in pins))
        if any(p == side for p, _ in pins):
            raise PinError(f"part {side} is pinned")
        if pins not in self._cache:
            self._cache[pins] = self._solve(pins)
        lo, hi, labels_lo, labels_hi = self._cache[pins]
        if side == lo:
            return _labels_to_partition(labels_lo, lo)
        if side == hi:
            return _labels_to_partition(labels_hi, hi)
        raise PinError(f"part {side} is not free for these pins")

    def _solve(self, pins):
        g = link(self.h, pins)
        free = sorted(set(range(self.h.k)) - {p for p, _ in pins})
        lo, hi = free
        if g.n_left > 12 or g.n_right > 12:
            raise InfeasibleParamsError(
                "exhaustive search is limited to 12 vertices per side"
            )
        cand_lo = _partitions_up_to(g.n_left, self.r)
        cand_hi = _partitions_up_to(g.n_right, self.r)
        if len(cand_lo) * len(cand_hi) > self.MAX_PAIRS:
            raise InfeasibleParamsError(
                f"{len(cand_lo)}x{len(cand_hi)} candidate pairs exceed the "
                "guard; use GreedyOracle"
            )
        adj = g.to_dense().astype(np.int64)
        ind_lo = _indicators(cand_lo, self.r)  # (Clo, r, n_left)
        ind_hi = _indicators(cand_hi, self.r)
        sz_lo = ind_lo.sum(axis=2)  # (Clo, r)
        sz_hi = ind_hi.sum(axis=2)
        edge = np.einsum("xan,nm->xam", ind_lo, adj)  # (Clo, r, n_right)
        best = (np.inf, 0, 0)
        chunk = max(1, self.MAX_PAIRS // (len(cand_hi) * self.r * self.r * 4))
        for s in range(0, len(cand_lo), chunk):
            e = np.einsum("xam,ybm->xyab", edge[s:s + chunk], ind_hi)
            m = sz_lo[s:s + chunk, None, :, None] * sz_hi[None, :, None, :]
            with np.errstate(invalid="ignore"):
                d = np.where(m > 0, e / np.maximum(m, 1), 0.0)
            viol = (d > self.eps_prime) & (d < 1.0 - self.eps_prime)
            cost = (m * viol).sum(axis=(2, 3))
            flat = int(np.argmin(cost))
            x, y = np.unravel_index(flat, cost.shape)
            if cost[x, y] < best[0]:
                best = (float(cost[x, y]), s + int(x), int(y))
        return lo, hi, cand_lo[best[1]], cand_hi[best[2]]


def _indicators(cands: np.ndarray, r: int) -> np.ndarray:
    return (cands[:, None, :] == np.arange(r)[None, :, None]).astype(np.int64)


def _labels_to_partition(labels: np.ndarray, part: int) -> PartPartition:
    return PartPartition(
        labels.astype(np.int64), part=part, n_blocks=int(labels.max()) + 1
    )


class FileOracle(LinkPartitionOracle):
    """Partitions loaded from a sidecar table.

    ``table`` maps (pins, side) to a PartPartition, with pins sorted by
    part; the io module produces such tables from .links files. A key
    ``((), side)`` serves as a pin-independent fallback for that side.
    """

    provenance = "external-file"

    def __init__(self, table: dict, r: int):
        self.table = dict(table)
        self.r = int(r)

    def partition(self, pins, side: int) -> PartPartition:
        pins = tuple(sorted((int(p), int(v)) for p, v in pins))
        if any(p == side for p, _ in pins):
            raise PinError(f"part {side} is pinned")
        hit = self.table.get((pins, side))
        if hit is None:
            hit = self.table.get(((), side))
        if hit is None:
            raise PinError(f"no stored partition for pins={pins}, side={side}")
        return hit
