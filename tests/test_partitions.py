"""Partition algebra: common refinement, equalize, beta-refinement,
and the block-sum kernel."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    KPartiteHypergraph,
    LayeredPartition,
    PartPartition,
    beta_refines,
    common_refinement,
    equalize,
    homogeneity_audit,
)
from homopart import partitions
from homopart.partitions import block_sums, homogeneous


# ---------------------------------------------------------------- oracles


def signature_atoms(n, sets):
    """Group elements of range(n) by their membership signature."""
    atoms = {}
    for v in range(n):
        sig = tuple(bool(s[v]) for s in sets)
        atoms.setdefault(sig, []).append(v)
    return set(frozenset(a) for a in atoms.values())


def partition_atoms(p):
    return set(frozenset(p.block_indices(b).tolist()) for b in range(p.n_blocks)
               if p.block_indices(b).size)


# ------------------------------------------------------ common refinement


def test_refinement_identical_sets():
    s = np.zeros(8, dtype=bool)
    s[[1, 2, 5]] = True
    p = common_refinement(8, [s, s])
    assert p.n_blocks == 2
    assert partition_atoms(p) == {frozenset([1, 2, 5]), frozenset([0, 3, 4, 6, 7])}


def test_refinement_general_position():
    n1 = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
    n2 = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=bool)
    p = common_refinement(8, [n1, n2])
    assert p.n_blocks <= 4
    assert partition_atoms(p) == signature_atoms(8, [n1, n2])


def test_refinement_block_count_bound():
    rng = np.random.default_rng(14)
    for t in range(1, 6):
        sets = [rng.random(20) < 0.5 for _ in range(t)]
        p = common_refinement(20, sets)
        assert p.n_blocks <= 2**t
        # each input set is a union of atoms
        for s in sets:
            for b in range(p.n_blocks):
                idx = p.block_indices(b)
                assert s[idx].all() or not s[idx].any()


def test_refinement_idempotent():
    rng = np.random.default_rng(3)
    sets = [rng.random(15) < 0.5 for _ in range(3)]
    p = common_refinement(15, sets)
    blocks = [p.labels == b for b in range(p.n_blocks)]
    q = common_refinement(15, blocks)
    assert partition_atoms(q) == partition_atoms(p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_refinement_signatures_property(data):
    n = data.draw(st.integers(1, 24), label="n")
    t = data.draw(st.integers(0, 5), label="t")
    sets = [np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            for _ in range(t)]
    p = common_refinement(n, sets)
    assert partition_atoms(p) == signature_atoms(n, sets)


# ----------------------------------------------------------------- equalize


def test_equalize_divisible():
    p = PartPartition([0] * 6 + [1] * 6)
    q = equalize(p, 3)
    sizes = q.sizes()
    assert q.has_exceptional and q.n_blocks == 5
    assert sizes[0] == 0
    assert (sizes[1:] == 3).all()


def test_equalize_pools_leftovers():
    # blocks {5, 7}, m=3: chunks 3+3 and leftovers 2+1 pooled into one
    # more block of 3, remainder empty.
    p = PartPartition([0] * 5 + [1] * 7)
    q = equalize(p, 3)
    sizes = q.sizes()
    assert q.n_blocks == 5
    assert sizes[0] == 0
    assert (sizes[1:] == 3).all()


def test_equalize_remainder_kept():
    p = PartPartition.trivial(10)
    q = equalize(p, 4)
    assert q.sizes().tolist() == [2, 4, 4]
    assert q.exceptional_size() == 2


def test_equalize_existing_exceptional_pooled_first():
    # an input exceptional block goes whole to the pool, not chunked
    p = PartPartition([0] * 4 + [1] * 6, has_exceptional=True)
    q = equalize(p, 3)
    # 6-block gives two chunks; pool = 4 old exceptional -> one chunk + 1
    assert sorted(q.sizes().tolist()) == [1, 3, 3, 3]
    assert q.exceptional_size() == 1


def test_equalize_m_too_large():
    p = PartPartition.trivial(5)
    with pytest.raises(ValueError):
        equalize(p, 6)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equalize_properties(data):
    n = data.draw(st.integers(1, 40), label="n")
    n_blocks = data.draw(st.integers(1, min(6, n)), label="blocks")
    labels = np.array(
        data.draw(st.lists(st.integers(0, n_blocks - 1), min_size=n, max_size=n)))
    labels[:n_blocks] = np.arange(n_blocks)  # keep labels contiguous
    m = data.draw(st.integers(1, n), label="m")
    q = equalize(PartPartition(labels), m)
    sizes = q.sizes()
    assert sizes.sum() == n
    assert (sizes[1:] == m).all()
    assert sizes[0] < m  # remainder strictly smaller than a block
    assert q.equitable and q.has_exceptional


# ------------------------------------------------------------ beta refines


def test_beta_identical_zero_refines():
    p = PartPartition([0] * 5 + [1] * 4)
    rep = beta_refines(p, p, 0.0)
    assert rep.refines
    assert rep.matched.all()
    assert rep.parents.tolist() == [0, 1]


def test_beta_strict_refinement():
    coarse = PartPartition([0] * 6 + [1] * 6)
    fine = PartPartition(np.repeat(np.arange(4), 3))
    rep = beta_refines(fine, coarse, 0.0)
    assert rep.refines
    assert rep.parents.tolist() == [0, 0, 1, 1]


def test_beta_straddling_block_unmatched():
    # fine block split 60/40 across two parents needs >= 70% on one
    # side at beta = 0.3, so it stays unmatched
    coarse = PartPartition([0] * 6 + [1] * 4)
    fine = PartPartition.trivial(10)
    rep = beta_refines(fine, coarse, 0.3)
    assert not rep.matched[0]
    assert rep.parents[0] == -1
    assert not rep.refines


def test_beta_half_rejected():
    p = PartPartition.trivial(4)
    with pytest.raises(ValueError):
        beta_refines(p, p, 0.5)


def test_beta_monotone():
    rng = np.random.default_rng(8)
    coarse = PartPartition(rng.integers(0, 3, size=30))
    fine = PartPartition(rng.integers(0, 5, size=30))
    betas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.49]
    verdicts = [beta_refines(fine, coarse, b).refines for b in betas]
    # once true, stays true for larger beta
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later or not earlier


def test_zero_refinement_transitive():
    rng = np.random.default_rng(5)
    coarse = PartPartition(rng.integers(0, 2, size=24))
    # build mid refining coarse, fine refining mid
    mid_labels = coarse.labels * 2 + (rng.random(24) < 0.5)
    _, mid_labels = np.unique(mid_labels, return_inverse=True)
    mid = PartPartition(mid_labels)
    fine_labels = mid.labels * 2 + (rng.random(24) < 0.5)
    _, fine_labels = np.unique(fine_labels, return_inverse=True)
    fine = PartPartition(fine_labels)
    assert beta_refines(fine, mid, 0.0).refines
    assert beta_refines(mid, coarse, 0.0).refines
    assert beta_refines(fine, coarse, 0.0).refines


# -------------------------------------------------------------- block sums


def brute_block_sums(tensor, parts):
    """Sum and count per block tuple, one cell at a time."""
    sums = np.zeros(tuple(p.n_blocks for p in parts))
    volumes = np.zeros(sums.shape, dtype=np.int64)
    for cell in itertools.product(*[range(n) for n in tensor.shape]):
        key = tuple(int(p.labels[v]) for p, v in zip(parts, cell))
        sums[key] += tensor[cell]
        volumes[key] += 1
    return sums, volumes


def size_products(parts):
    return functools.reduce(np.multiply.outer, [p.sizes() for p in parts])


@pytest.mark.parametrize("shape", [(5, 7), (4, 3, 6)])
def test_block_sums_match_brute(shape):
    rng = np.random.default_rng(len(shape))
    # every part has an empty exceptional block 0, and part 0 also
    # leaves label 2 empty
    parts = []
    for i, n in enumerate(shape):
        labels = rng.integers(1, 4, n)
        if i == 0:
            labels[labels == 2] = 3
        labels[:2] = [1, 3]
        parts.append(PartPartition(labels, part=i, n_blocks=4,
                                   has_exceptional=True))
    edges = rng.random(shape) < 0.5
    sums = block_sums(edges, parts)
    want_sums, want_volumes = brute_block_sums(edges, parts)
    assert sums.dtype == np.float64
    assert np.array_equal(sums, want_sums)
    assert sums[2].sum() == 0
    # callers take a tuple's volume as the product of its block sizes
    volumes = size_products(parts)
    assert np.array_equal(volumes, want_volumes)
    assert volumes[0].sum() == 0 and volumes[:, 0].sum() == 0
    assert volumes[2].sum() == 0
    assert volumes.sum() == edges.size

    weights = rng.random(shape)  # non-dyadic: sums agree up to rounding
    sums = block_sums(weights, parts)
    want_sums, _ = brute_block_sums(weights, parts)
    assert np.allclose(sums, want_sums, rtol=1e-12, atol=1e-12)


def blocks_with_gaps(shape, seed, singleton_lead=False):
    """Six blocks per part with blocks 0, 3 and 5 empty in every part,
    the last included; with ``singleton_lead`` the parts before the
    last are singletons instead, so every fiber is a run of its own."""
    rng = np.random.default_rng(seed)
    parts = []
    for i, n in enumerate(shape):
        if singleton_lead and i < len(shape) - 1:
            parts.append(PartPartition.singletons(n, part=i))
            continue
        labels = rng.choice([1, 2, 4], size=n)
        labels[:3] = [1, 2, 4]
        parts.append(PartPartition(labels, part=i, n_blocks=6,
                                   has_exceptional=True))
    return parts


@pytest.mark.parametrize("shape", [
    (9, 70), (6, 130), (5, 4, 70), (3, 4, 130), (3, 3, 4, 70), (3, 3, 3, 130),
])
@pytest.mark.parametrize("fill", ["random", "empty", "complete"])
@pytest.mark.parametrize("chunk_cells", [None, 200])
def test_packed_block_sums_match_brute(monkeypatch, shape, fill, chunk_cells):
    # the last parts span two and three words, neither a multiple of 64;
    # 200 cells a chunk puts one or two fibers in each, so key runs
    # cross chunk boundaries
    if chunk_cells is not None:
        monkeypatch.setattr(partitions, "_BLOCK_SUMS_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    edges = {"random": rng.random(shape) < 0.4,
             "empty": np.zeros(shape, dtype=bool),
             "complete": np.ones(shape, dtype=bool)}[fill]
    h = KPartiteHypergraph.from_dense(edges)
    for parts in (blocks_with_gaps(shape, 1),
                  blocks_with_gaps(shape, 2, singleton_lead=True)):
        sums = block_sums(h, parts)
        want_sums, want_volumes = brute_block_sums(edges, parts)
        assert sums.dtype == want_sums.dtype
        assert sums.tobytes() == want_sums.tobytes()
        assert np.array_equal(size_products(parts), want_volumes)
        assert sums.tobytes() == block_sums(edges, parts).tobytes()


@pytest.mark.parametrize("shape", [
    (9, 70), (6, 130), (5, 4, 70), (3, 4, 130), (3, 3, 4, 70), (3, 3, 3, 130),
])
@pytest.mark.parametrize("labels", ["identity", "shuffled", "one-shared"])
@pytest.mark.parametrize("chunk_cells", [None, 200])
def test_single_vertex_last_blocks_match_brute(monkeypatch, shape, labels,
                                               chunk_cells):
    # a last part of one-vertex blocks is counted by a column take; a
    # shuffle puts block b on another vertex than b, and "one-shared"
    # keeps n_last blocks but puts two vertices in one and leaves one
    # empty, which must not be counted as a take
    if chunk_cells is not None:
        monkeypatch.setattr(partitions, "_BLOCK_SUMS_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    edges = rng.random(shape) < 0.4
    h = KPartiteHypergraph.from_dense(edges)
    n_last = shape[-1]
    vertex_labels = (np.arange(n_last) if labels == "identity"
                     else rng.permutation(n_last))
    if labels == "one-shared":
        vertex_labels[vertex_labels == 5] = 9
    last = PartPartition(vertex_labels, part=len(shape) - 1, n_blocks=n_last)
    for lead in (blocks_with_gaps(shape, 1)[:-1],
                 blocks_with_gaps(shape, 2, singleton_lead=True)[:-1]):
        parts = [*lead, last]
        sums = block_sums(h, parts)
        want_sums, _ = brute_block_sums(edges, parts)
        assert sums.dtype == want_sums.dtype
        assert sums.tobytes() == want_sums.tobytes()
        assert sums.tobytes() == block_sums(edges, parts).tobytes()


def test_packed_block_sums_exact_past_float32():
    # a one-block last part of 2^24 + 1 vertices: its count lies past
    # the integers float32 holds exactly
    n = (1 << 24) + 1
    h = KPartiteHypergraph.from_dense(np.ones((1, n), dtype=bool))
    parts = [PartPartition.trivial(1, part=0), PartPartition.trivial(n, part=1)]
    assert block_sums(h, parts).tolist() == [[float(n)]]
    report = homogeneity_audit(h, LayeredPartition(parts), 0.0)
    assert report.densities.tolist() == [1.0]
    assert report.passed


def test_homogeneous_boundaries():
    d = np.array([0.0, 0.2, 0.21, 0.5, 0.79, 0.8, 1.0])
    assert homogeneous(d, 0.2).tolist() == [True, True, False, False,
                                            False, True, True]


# ------------------------------------------------------------ constructors


def test_intervals_requires_divisibility():
    p = PartPartition.intervals(12, 4)
    assert (p.sizes() == 3).all()
    with pytest.raises(ValueError):
        PartPartition.intervals(10, 4)


def test_equitable_flag_validated():
    with pytest.raises(ValueError):
        PartPartition(np.array([0, 0, 1]), equitable=True)
