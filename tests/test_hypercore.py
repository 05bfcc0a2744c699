"""Hypergraph core: packed storage, links, fiber neighborhoods, and
block densities as ``block_sums`` counts them.

Derived expectations are computed by independent oracles defined at the
top of this file (naive edge scans over dense tensors), never by the
code under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    BipartiteGraph,
    KPartiteHypergraph,
    PartPartition,
    WeightedTripartite,
    link,
)
from homopart import bitops
from homopart.errors import PinError
from homopart.partitions import block_sums
from homopart.rng import generator


# ---------------------------------------------------------------- oracles


def scan_density(tensor, subsets):
    """Edge fraction of a sub-box by direct iteration over all cells."""
    total = 0
    cells = 0
    for idx in itertools.product(*[np.flatnonzero(s) for s in subsets]):
        cells += 1
        total += float(tensor[idx])
    return total / cells


def scan_link_degree(tensor, pin_part, pin_vertex, left_part, x):
    """Count edges through a pin with given left-coordinate, by full scan."""
    count = 0
    for idx in zip(*np.nonzero(tensor)):
        if idx[pin_part] == pin_vertex and idx[left_part] == x:
            count += 1
    return count


def scan_neighborhood(tensor, e):
    """Boolean last-axis fiber of a (k-1)-tuple, by direct indexing."""
    return np.array([bool(tensor[tuple(e) + (v,)]) for v in range(tensor.shape[-1])])


def box_density(h, masks):
    """Density of the sub-box picked by one bool mask per part, read
    from ``block_sums`` over the partitions {outside, inside}."""
    parts = [PartPartition(np.asarray(m, dtype=np.int64), n_blocks=2) for m in masks]
    inside = (1,) * len(masks)
    volume = math.prod(int(np.count_nonzero(m)) for m in masks)
    return block_sums(h, parts)[inside] / volume


def full_masks(h):
    return [np.ones(s, dtype=bool) for s in h.part_sizes]


def has_edge(g, x, y):
    """Bit (x, y) of a bipartite graph's packed rows."""
    return bool(bitops.extract_bit(g.words[x], y))


def hypergraph(sizes, edges):
    """The hypergraph on parts of ``sizes`` with the given edges."""
    dense = np.zeros(sizes, dtype=bool)
    for edge in edges:
        dense[tuple(edge)] = True
    return KPartiteHypergraph.from_dense(dense)


def random_tensor(shape, p, seed, label):
    rng = generator(seed, label)
    return rng.random(shape) < p


def product_tensor(g_dense, n_c):
    """H = G x C: cell (a, b, c) is an edge iff ab is an edge of G."""
    return np.repeat(g_dense[:, :, None], n_c, axis=2)


# ---------------------------------------------------------------- density


def test_density_complete_cube():
    h = KPartiteHypergraph.from_dense(np.ones((2, 2, 2), dtype=bool))
    assert box_density(h, full_masks(h)) == 1.0


def test_density_single_edge():
    h = hypergraph((2, 2, 2), [(0, 1, 0)])
    assert box_density(h, full_masks(h)) == 1 / 8


def test_density_weighted_mean():
    w = np.zeros((1, 1, 2))
    w[0, 0, 0] = 0.25
    w[0, 0, 1] = 0.75
    h = WeightedTripartite(w)
    assert box_density(h.weights, full_masks(h)) == 0.5


def test_density_matches_scan_on_random_subboxes():
    tensor = random_tensor((5, 4, 6), 0.4, seed=11, label="test/density")
    h = KPartiteHypergraph.from_dense(tensor)
    rng = generator(11, "test/density/subsets")
    for _ in range(20):
        masks = []
        for s in h.part_sizes:
            m = rng.random(s) < 0.6
            if not m.any():
                m[int(rng.integers(s))] = True
            masks.append(m)
        assert box_density(h, masks) == pytest.approx(scan_density(tensor, masks))


# ------------------------------------------------------------------- link


def test_link_perfect_matching():
    h = hypergraph((1, 2, 2), [(0, 0, 0), (0, 1, 1)])
    g = link(h, [(0, 0)])
    assert g.to_dense().tolist() == [[True, False], [False, True]]


def test_link_isolated_pin_is_empty():
    h = hypergraph((2, 2, 2), [(0, 0, 0)])
    g = link(h, [(0, 1)])
    assert g.edge_count == 0


def test_link_duplicate_part_pins_rejected():
    h = KPartiteHypergraph.from_dense(np.ones((2, 2, 2, 2), dtype=bool))
    with pytest.raises(PinError):
        link(h, [(1, 0), (1, 1)])


def test_link_degrees_match_scan_seed42():
    # Every pin role in turn; degrees of the link must equal brute-force
    # counts of incident edges restricted to that pin.
    tensor = random_tensor((6, 6, 6), 0.5, seed=42, label="test/link")
    h = KPartiteHypergraph.from_dense(tensor)
    for pin_part in range(3):
        left_part = min(p for p in range(3) if p != pin_part)
        for pin_vertex in range(6):
            degrees = link(h, [(pin_part, pin_vertex)]).to_dense().sum(axis=1)
            for x in range(6):
                expected = scan_link_degree(tensor, pin_part, pin_vertex, left_part, x)
                assert degrees[x] == expected


def test_link_4graph_pinned_last_axis():
    # k=4 with the last part pinned exercises the bit-plane extraction
    # path rather than the contiguous row slice.
    tensor = random_tensor((3, 3, 3, 3), 0.5, seed=5, label="test/link4")
    h = KPartiteHypergraph.from_dense(tensor)
    g = link(h, [(0, 2), (3, 1)])
    for x in range(3):
        for y in range(3):
            assert has_edge(g, x, y) == bool(tensor[2, x, y, 1])


def test_link_is_the_two_part_hypergraph_of_its_slab():
    tensor = random_tensor((4, 5, 6), 0.5, seed=9, label="test/link-slab")
    h = KPartiteHypergraph.from_dense(tensor)
    for part in range(3):
        for v in range(h.part_sizes[part]):
            g = link(h, [(part, v)])
            assert type(g) is BipartiteGraph
            assert g == KPartiteHypergraph.from_dense(np.take(tensor, v, axis=part))


# -------------------------------------------------------- bipartite graph


def test_bipartite_graph_is_a_two_part_hypergraph():
    dense = np.zeros((3, 4), dtype=bool)
    dense[[0, 0, 1, 2, 2], [0, 3, 1, 2, 3]] = True
    g = BipartiteGraph.from_dense(dense)
    h = KPartiteHypergraph((3, 4), g.words)
    assert isinstance(g, KPartiteHypergraph)
    assert g == h and h == g and hash(g) == hash(h)
    assert (g.part_sizes, g.edge_count) == ((3, 4), 5)
    assert repr(g) == "BipartiteGraph(3x4, edges=5)"
    assert repr(h) == "KPartiteHypergraph(3x4, edges=5)"
    assert np.array_equal(g.to_dense(), dense)
    # the benchmark's tracer wraps to_dense in each class's own __dict__
    assert "to_dense" in vars(BipartiteGraph)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_bipartite_graph_needs_two_parts(shape):
    words = bitops.pack(np.ones(shape, dtype=bool))
    for build in (lambda: BipartiteGraph.from_dense(np.ones(shape, dtype=bool)),
                  lambda: BipartiteGraph(shape, words)):
        with pytest.raises(ValueError, match=f"two parts, got {len(shape)}"):
            build()


def test_bipartite_graph_refuses_an_empty_side():
    with pytest.raises(ValueError, match="positive"):
        BipartiteGraph((0, 3), np.zeros((0, 1), dtype=np.uint64))


# ----------------------------------------------------------- neighborhood
# The last-part neighborhood of a (k-1)-tuple e is the packed row h.words[e].


def test_neighborhood_complete_and_empty():
    comp = KPartiteHypergraph.from_dense(np.ones((2, 3, 4), dtype=bool))
    assert bitops.popcount(comp.words[1, 2]) == 4
    emp = KPartiteHypergraph.empty((2, 3, 4))
    assert bitops.popcount(emp.words[1, 2]) == 0


def test_neighborhood_product_structure():
    g = random_tensor((8, 8), 0.5, seed=42, label="test/product-g")
    h = KPartiteHypergraph.from_dense(product_tensor(g, 8))
    sizes = bitops.popcount(h.words, axis=-1)
    assert np.array_equal(sizes, np.where(g, 8, 0))


def test_neighborhood_matches_scan():
    tensor = random_tensor((4, 5, 6), 0.5, seed=3, label="test/nbhd")
    h = KPartiteHypergraph.from_dense(tensor)
    for e in itertools.product(range(4), range(5)):
        got = bitops.unpack(h.words[e], 6)
        assert (got == scan_neighborhood(tensor, e)).all()


def test_link_neighborhood_consistency():
    # y in N(pins + x) iff (x, y) is an edge of link(pins), all tuples.
    tensor = random_tensor((6, 6, 6), 0.5, seed=9, label="test/consistency")
    h = KPartiteHypergraph.from_dense(tensor)
    for v in range(6):
        g = link(h, [(0, v)])
        for x in range(6):
            for y in range(6):
                assert has_edge(g, x, y) == bool(bitops.extract_bit(h.words[v, x], y))


@pytest.mark.parametrize("shape", [(5, 1), (7, 2), (4, 3), (3, 2, 5), (0, 3)])
def test_popcount_along_last_axis_matches_bit_scan(shape):
    words = generator(21, f"popcount/{shape}").integers(
        0, 2**64, size=shape, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=-1)
    counts = bitops.popcount(words, axis=-1)
    assert counts.dtype == np.int64 and counts.shape == shape[:-1]
    assert np.array_equal(counts, bits.sum(axis=-1))
    row = words.reshape(-1, shape[-1])[:1]
    if row.size:
        want = np.unpackbits((words ^ row[0]).view(np.uint8), axis=-1).sum(axis=-1)
        assert np.array_equal(bitops.symdiff_sizes(words, row[0]), want)


def padded_pack(mask):
    """Packed words by padding the packed bytes out to whole words."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    pad = 8 * bitops.n_words(mask.shape[-1]) - packed.shape[-1]
    width = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
    return np.ascontiguousarray(np.pad(packed, width)).view(np.uint64)


@pytest.mark.parametrize("lead", [(), (3, 2)], ids=["1d", "3d"])
@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 144])
def test_pack_matches_padded_bytes(lead, width):
    mask = generator(22, f"pack/{lead}/{width}").random(lead + (width,)) < 0.5
    words = bitops.pack(mask)
    want = padded_pack(mask)
    assert words.dtype == np.uint64 and words.shape == want.shape
    assert words.tobytes() == want.tobytes()
    for j in range(width):
        assert np.array_equal(bitops.extract_bit(words, j), mask[..., j])
    assert np.array_equal(bitops.unpack(words, width), mask)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_bit_lister_and_locator_agree_with_pack(width):
    mask = generator(23, f"bits/{width}").random((6, width)) < 0.3
    mask[1] = False
    mask[2] = True
    words = bitops.pack(mask)
    row, j = bitops.list_bits(words)
    want_row, want_j = np.nonzero(mask)
    assert np.array_equal(row, want_row) and np.array_equal(j, want_j)
    # every listed bit set through the locator into zeroed words
    rebuilt = np.zeros_like(words)
    word, bit = bitops.locate_bit(j)
    np.bitwise_or.at(rebuilt, (row, word), bit)
    assert rebuilt.tobytes() == words.tobytes()


def test_symdiff_triangle_inequality():
    tensor = random_tensor((5, 5, 7), 0.5, seed=21, label="test/triangle")
    h = KPartiteHypergraph.from_dense(tensor)
    tuples = list(itertools.product(range(5), range(5)))
    rng = generator(21, "test/triangle/pick")
    for _ in range(50):
        ia, ib, ic = rng.choice(len(tuples), size=3)
        na, nb, nc = (h.words[tuples[i]] for i in (ia, ib, ic))
        count = bitops.popcount
        assert count(na ^ nc) <= count(na ^ nb) + count(nb ^ nc)


# ------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_density_monotone_under_adding_edges(data):
    shape = (3, 3, 3)
    cells = list(itertools.product(*[range(s) for s in shape]))
    base = data.draw(st.sets(st.sampled_from(cells)), label="base")
    extra = data.draw(st.sets(st.sampled_from(cells)), label="extra")
    h1 = hypergraph(shape, base)
    h2 = hypergraph(shape, base | extra)
    assert box_density(h1, full_masks(h1)) <= box_density(h2, full_masks(h2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_density_invariant_under_part_relabeling(seed):
    tensor = random_tensor((4, 4, 4), 0.5, seed=seed, label="test/relabel")
    h = KPartiteHypergraph.from_dense(tensor)
    perm = generator(seed, "test/relabel/perm").permutation(4)
    h2 = KPartiteHypergraph.from_dense(tensor[perm])
    sub = np.zeros(4, dtype=bool)
    sub[:2] = True
    full = np.ones(4, dtype=bool)
    assert box_density(h, [sub, full, full]) == pytest.approx(
        box_density(h2, [sub[perm], full, full]))
