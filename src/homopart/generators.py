"""Seeded instance families for pipeline runs and calibration.

Two families are planted: ``planted-boxes`` (edges constant on a grid
of blocks, one interval partition per part) and ``product`` (a
tripartite graph whose every third-part link equals one fixed planted
bipartite graph). Both carry ground-truth partitions that make every
link 0-homogeneous with at most r blocks per side, and a PlantedOracle
holding them with that r; ``homogeneous_partition`` reads only the r.
``interval-threshold`` plants interval partitions that are only
approximately homogeneous, and ``uniform-random`` is the negative
control with no usable link structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParamsError
from .hypercore import BipartiteGraph, KPartiteHypergraph
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

    def bipartite(self) -> BipartiteGraph:
        if self.spec.k != 2:
            raise ValueError("bipartite view needs k=2")
        return BipartiteGraph.from_dense(self.h.to_dense())


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
    """Materialize the instance determined by ``spec``."""
    rng = generator(spec.seed, f"gen/{spec.family}")
    k, n = spec.k, spec.n
    if spec.family == "planted-boxes":
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        }
        pattern = _block_pattern(rng, tuple(parts[i].n_blocks for i in range(k)))
        grids = np.ix_(*[parts[i].labels for i in range(k)])
        dense = pattern[grids]
        return Instance(
            spec=spec,
            h=KPartiteHypergraph.from_dense(dense),
            oracle=PlantedOracle(parts, spec.r),
            side_partitions=parts,
            exact_links=True,
        )
    if spec.family == "product":
        rows = _near_equal_intervals(n[0], min(spec.r, n[0]), part=0)
        cols = _near_equal_intervals(n[1], min(spec.r, n[1]), part=1)
        pattern = _block_pattern(rng, (rows.n_blocks, cols.n_blocks))
        g = pattern[np.ix_(rows.labels, cols.labels)]
        dense = np.repeat(g[:, :, None], n[2], axis=2)
        parts = {0: rows, 1: cols, 2: PartPartition.trivial(n[2], part=2)}
        return Instance(
            spec=spec,
            h=KPartiteHypergraph.from_dense(dense),
            oracle=PlantedOracle(parts, spec.r),
            side_partitions=parts,
            exact_links=True,
        )
    if spec.family == "interval-threshold":
        axes = np.ix_(*[(np.arange(v) + 0.5) / v for v in n])
        dense = sum(axes) <= k / 2.0
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        }
        return Instance(
            spec=spec,
            h=KPartiteHypergraph.from_dense(dense),
            oracle=PlantedOracle(parts, spec.r),
            side_partitions=parts,
            exact_links=False,
        )
    # uniform-random
    dense = rng.random(n) < 0.5
    if spec.r >= 1:
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        }
        oracle = PlantedOracle(parts, spec.r)
    else:
        parts = {}
        oracle = None
    return Instance(
        spec=spec,
        h=KPartiteHypergraph.from_dense(dense),
        oracle=oracle,
        side_partitions=parts,
        exact_links=False,
    )
