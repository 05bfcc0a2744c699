"""The packed generator against a dense reference build."""

import numpy as np
import pytest

from homopart import InstanceSpec, KPartiteHypergraph, PartPartition, generate
from homopart.generators import (
    FAMILIES,
    PlantedOracle,
    _block_pattern,
    _near_equal_intervals,
)
from homopart.rng import generator


def reference_generate(spec):
    """Each family built as a dense n^k tensor, then packed: (words,
    side partitions, oracle r or None, exact_links)."""
    rng = generator(spec.seed, f"gen/{spec.family}")
    k, n = spec.k, spec.n
    if spec.family == "planted-boxes":
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        }
        pattern = _block_pattern(rng, tuple(parts[i].n_blocks for i in range(k)))
        grids = np.ix_(*[parts[i].labels for i in range(k)])
        dense, exact = pattern[grids], True
    elif spec.family == "product":
        rows = _near_equal_intervals(n[0], min(spec.r, n[0]), part=0)
        cols = _near_equal_intervals(n[1], min(spec.r, n[1]), part=1)
        pattern = _block_pattern(rng, (rows.n_blocks, cols.n_blocks))
        g = pattern[np.ix_(rows.labels, cols.labels)]
        dense = np.repeat(g[:, :, None], n[2], axis=2)
        parts = {0: rows, 1: cols, 2: PartPartition.trivial(n[2], part=2)}
        exact = True
    elif spec.family == "interval-threshold":
        axes = np.ix_(*[(np.arange(v) + 0.5) / v for v in n])
        dense = sum(axes) <= k / 2.0
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        }
        exact = False
    else:
        dense = rng.random(n) < 0.5
        parts = {
            i: _near_equal_intervals(n[i], min(spec.r, n[i]), part=i)
            for i in range(k)
        } if spec.r >= 1 else {}
        exact = False
    oracle = PlantedOracle(parts, spec.r) if parts else None
    return (KPartiteHypergraph.from_dense(dense).words, parts,
            oracle and oracle.r, exact)


# part sizes off the 64-bit word boundary, kept under a million cells
# so the dense reference stays cheap
SHAPES = [(63, 65), (130, 63), (65, 130),
          (63, 65, 130), (130, 5, 63),
          (3, 65, 4, 130), (5, 7, 63, 65)]
CASES = [
    (family, shape, r)
    for family in FAMILIES
    for shape in SHAPES
    for r in (0, 1, 16)
    if (family != "product" or len(shape) == 3)
    and (family == "uniform-random" or r >= 1)
]


@pytest.mark.parametrize("family, shape, r", CASES)
def test_generate_matches_dense_reference(family, shape, r):
    spec = InstanceSpec(k=len(shape), n=shape, family=family, r=r,
                        eps_prime=0.1, seed=sum(shape) + r)
    words, parts, oracle_r, exact = reference_generate(spec)
    inst = generate(spec)
    assert np.array_equal(inst.h.words, words)
    assert inst.side_partitions == parts
    assert (inst.oracle and inst.oracle.r) == oracle_r
    if inst.oracle is not None:
        assert inst.oracle.side_partitions == parts
    assert inst.exact_links == exact


def test_bipartite_view_wraps_the_words():
    inst = generate(InstanceSpec(k=2, n=(63, 130), family="planted-boxes",
                                 r=3, eps_prime=0.1, seed=4))
    g = inst.h
    assert g.part_sizes == (63, 130)
    assert np.array_equal(g.to_dense(), inst.h.to_dense())
