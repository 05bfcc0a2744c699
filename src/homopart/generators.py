"""Seeded instance families for pipeline runs and calibration.

Two families are planted: ``planted-boxes`` (edges constant on a grid
of blocks, one interval partition per part) and ``product``, which is
planted-boxes on three parts with a trivial third partition, so every
third-part link equals one fixed planted bipartite graph. Both carry
ground-truth partitions that make every link 0-homogeneous with at
most r blocks per side, and a PlantedOracle holding them with that r;
``homogeneous_partition`` reads nothing of it. ``interval-threshold``
plants interval partitions that are only approximately homogeneous,
and ``uniform-random`` is the negative control with no usable link
structure. Every instance is built straight into the packed words of
a ``KPartiteHypergraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitops
from .errors import InfeasibleParamsError
from .hypercore import KPartiteHypergraph
from .partitions import PartPartition
from .rng import generator

FAMILIES = ("planted-boxes", "product", "interval-threshold", "uniform-random")


class PlantedOracle:
    """The link hypothesis an instance was planted with.

    Holds one partition per part and the per-side block bound ``r``
    that each of them respects. Planted families are block-constant,
    so one fixed partition per part is homogeneous for every pinned
    link.
    """

    def __init__(self, side_partitions: dict[int, PartPartition], r: int):
        self.side_partitions = dict(side_partitions)
        self.r = r
        for part, p in self.side_partitions.items():
            if p.n_body_blocks() > r:
                raise InfeasibleParamsError(
                    f"planted partition of part {part} has "
                    f"{p.n_body_blocks()} blocks, allowed r={r}"
                )


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters that determine one instance byte for byte."""

    k: int
    n: tuple
    family: str
    r: int
    eps_prime: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if self.family not in FAMILIES:
            raise InfeasibleParamsError(f"unknown family {self.family!r}")
        if self.k < 2:
            raise InfeasibleParamsError(f"k={self.k} must be at least 2")
        if len(self.n) != self.k:
            raise InfeasibleParamsError(
                f"got {len(self.n)} part sizes for k={self.k}"
            )
        if any(v < 1 for v in self.n):
            raise InfeasibleParamsError("part sizes must be positive")
        if self.family != "uniform-random" and self.r < 1:
            raise InfeasibleParamsError(
                f"family {self.family!r} plants link structure and needs r >= 1"
            )
        if self.family == "product" and self.k != 3:
            raise InfeasibleParamsError("product family is tripartite")


@dataclass(frozen=True)
class Instance:
    """A generated hypergraph plus its planted structure, if any."""

    spec: InstanceSpec
    h: KPartiteHypergraph
    oracle: PlantedOracle | None
    side_partitions: dict
    exact_links: bool


def _near_equal_intervals(n: int, blocks: int, part) -> PartPartition:
    bounds = np.linspace(0, n, blocks + 1).astype(np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for b in range(blocks):
        labels[bounds[b]:bounds[b + 1]] = b
    return PartPartition(
        labels, part=part, n_blocks=blocks, equitable=n % blocks == 0
    )


def _block_pattern(rng, shape) -> np.ndarray:
    pattern = rng.random(shape) < 0.5
    if pattern.all() or not pattern.any():
        # keep degenerate draws out so instances always have structure
        pattern.flat[0] = not pattern.flat[0]
    return pattern


def generate(spec: InstanceSpec) -> Instance:
    """Materialize the instance determined by ``spec``, packed word by
    word with no n^k array.

    Block-constant families pack one last-part row per block tuple and
    gather the rows by the labels of the first k-1 parts. The other
    two fill one first-part slab at a time, in the order of the float
    additions and of the random stream that a whole-tensor build
    would take, so the bits are the same.
    """
    rng = generator(spec.seed, f"gen/{spec.family}")
    k, n = spec.k, spec.n
    parts = {
        i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
        for i in range(k) if spec.r >= 1
    }
    if spec.family == "product":
        parts[2] = PartPartition.trivial(n[2], part=2)
    exact = spec.family in ("planted-boxes", "product")
    if exact:
        pattern = _block_pattern(rng, tuple(p.n_blocks for p in parts.values()))
        rows = bitops.pack(pattern[..., parts[k - 1].labels])
        words = rows[np.ix_(*[parts[i].labels for i in range(k - 1)])]
    else:
        words = np.empty(n[:-1] + (bitops.n_words(n[-1]),), dtype=np.uint64)
        coords = [(np.arange(v) + 0.5) / v for v in n]
        rest = np.ix_(*coords[1:])
        for x0, slab in zip(coords[0], words):
            if spec.family == "interval-threshold":
                bits = sum(rest, x0) <= k / 2.0
            else:
                bits = rng.random(n[1:]) < 0.5
            slab[...] = bitops.pack(bits)
    return Instance(
        spec=spec,
        h=KPartiteHypergraph(n, words),
        oracle=PlantedOracle(parts, spec.r) if parts else None,
        side_partitions=parts,
        exact_links=exact,
    )
