"""Auditor tests, each checked against a from-scratch recomputation."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    BipartiteGraph,
    InstanceSpec,
    KPartiteHypergraph,
    LayeredPartition,
    PartPartition,
    WeightedTripartite,
    bipartite_regularity_witness,
    disagreement_pairs,
    disagreement_threshold,
    generate,
    homogeneity_audit,
    quasirandomness_audit,
    similarity_partition,
    slicewise_vc,
    vc_dimension,
    verify_witness,
    weak_regularity_witness,
)
from homopart import auditor
from homopart.auditor import RegularityWitness
from homopart import io as hio
from homopart.errors import InfeasibleParamsError
from homopart.partitions import block_sums, homogeneous
from homopart.rng import generator


def interval_layers(sizes, blocks):
    return LayeredPartition(
        [PartPartition.intervals(n, blocks, part=i) for i, n in enumerate(sizes)]
    )


def brute_audit(dense, layers, eps):
    """Audit verdicts by plain nested loops."""
    k = dense.ndim
    mass = 0
    rows = []
    for labels in itertools.product(
        *[range(layers[i].n_blocks) for i in range(k)]
    ):
        cells = [layers[i].block_indices(labels[i]) for i in range(k)]
        vol = 1
        for c in cells:
            vol *= len(c)
        if vol == 0:
            continue
        hits = 0
        for tup in itertools.product(*[c.tolist() for c in cells]):
            if dense[tup]:
                hits += 1
        d = hits / vol
        ok = d <= eps or d >= 1 - eps
        if not ok:
            mass += vol
        rows.append((labels, d, ok))
    return mass, rows


def brute_disagreement(dense, layers):
    """Per-coordinate disagreement pairs by scanning all cell pairs."""
    k = dense.ndim
    counts = [0] * k
    for i in range(k):
        p = layers[i]
        for e in np.ndindex(*dense.shape):
            if not dense[e]:
                continue
            for v in range(dense.shape[i]):
                f = e[:i] + (v,) + e[i + 1:]
                if dense[f]:
                    continue
                if p.block_of(e[i]) == p.block_of(v):
                    counts[i] += 1
    return tuple(counts)


def numpy_disagreement(dense, layers):
    """Per-coordinate disagreement pairs from boolean masks: on every
    line along coordinate i and in every block of part i, the edges
    times the non-edges."""
    counts = []
    for i in range(dense.ndim):
        lines = np.moveaxis(dense, i, -1)
        total = 0
        for b in range(layers[i].n_blocks):
            mask = layers[i].labels == b
            ones = lines[..., mask].sum(axis=-1, dtype=np.int64)
            total += int((ones * (mask.sum() - ones)).sum())
        counts.append(total)
    return tuple(counts)


def forbid_dense_copies(monkeypatch):
    """Make unpacking a whole packed graph an error."""
    def to_dense(self):
        raise AssertionError(f"dense copy of {self!r}")
    monkeypatch.setattr(KPartiteHypergraph, "to_dense", to_dense)
    monkeypatch.setattr(BipartiteGraph, "to_dense", to_dense)


def brute_density(dense, subsets):
    total = 0
    vol = 1
    for s in subsets:
        vol *= len(s)
    for tup in itertools.product(*[list(s) for s in subsets]):
        if dense[tup]:
            total += 1
    return total / vol


class TestHomogeneityAudit:
    def test_worked_half_dense_block(self):
        dense = np.zeros((4, 4, 4), dtype=bool)
        dense[:2, :2, :2] = np.arange(8).reshape(2, 2, 2) % 2 == 0
        h = KPartiteHypergraph.from_dense(dense)
        rep = homogeneity_audit(h, interval_layers((4, 4, 4), 2), 0.1)
        assert rep.mass == 8
        assert rep.normalized_mass == pytest.approx(0.125)
        assert not rep.passed
        assert len(rep.failing()) == 1
        assert rep.failing()[0][0] == (0, 0, 0)
        assert rep.failing()[0][1] == pytest.approx(0.5)

    def test_complete_passes(self):
        h = KPartiteHypergraph.from_dense(np.ones((4, 4, 4), dtype=bool))
        rep = homogeneity_audit(h, interval_layers((4, 4, 4), 2), 0.1)
        assert rep.passed and rep.mass == 0

    def test_singletons_always_pass(self):
        spec = InstanceSpec(
            k=3, n=(5, 5, 5), family="uniform-random", r=2, eps_prime=0.0, seed=8
        )
        inst = generate(spec)
        layers = LayeredPartition(
            [PartPartition.singletons(5, part=i) for i in range(3)]
        )
        rep = homogeneity_audit(inst.h, layers, 0.0)
        assert rep.passed and rep.mass == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), eps=st.floats(0.05, 0.4))
    def test_matches_brute(self, seed, eps):
        spec = InstanceSpec(
            k=3, n=(4, 6, 4), family="uniform-random", r=2, eps_prime=0.0, seed=seed
        )
        inst = generate(spec)
        layers = LayeredPartition(
            [
                PartPartition.intervals(4, 2, part=0),
                PartPartition.intervals(6, 3, part=1),
                PartPartition.intervals(4, 2, part=2),
            ]
        )
        rep = homogeneity_audit(inst.h, layers, eps)
        dense = inst.h.to_dense()
        mass, rows = brute_audit(dense, layers, eps)
        assert rep.mass == mass
        got_rows = report_rows(rep)
        assert len(got_rows) == len(rows)
        for got, want in zip(got_rows, rows):
            assert got[0] == want[0]
            # brute_audit's hits / vol is correctly rounded, and so is
            # an exact 0/1 sum over the volume: equal to the last bit
            assert got[1] == want[1]
            assert got[2] == want[2]

    def test_weighted_input_flagged(self):
        w = np.full((3, 3, 3), 0.5)
        rep = homogeneity_audit(
            WeightedTripartite(w), interval_layers((3, 3, 3), 1), 0.2
        )
        assert rep.weighted
        assert not rep.passed
        rep2 = homogeneity_audit(
            WeightedTripartite(np.full((3, 3, 3), 0.97)),
            interval_layers((3, 3, 3), 1),
            0.1,
        )
        assert rep2.weighted and rep2.passed

    def test_exceptional_blocks_are_audited(self):
        dense = np.zeros((4, 4, 4), dtype=bool)
        dense[0] = True  # vertex 0 of part 0 differs from vertex 1
        h = KPartiteHypergraph.from_dense(dense)
        labels = np.array([0, 0, 1, 1])
        p0 = PartPartition(labels, part=0, n_blocks=2, has_exceptional=True)
        layers = LayeredPartition(
            [p0] + [PartPartition.trivial(4, part=i) for i in (1, 2)]
        )
        rep = homogeneity_audit(h, layers, 0.1)
        assert not rep.passed
        assert any(r[0][0] == 0 and not r[2] for r in report_rows(rep))

    @pytest.mark.parametrize("sizes, message", [
        ((6, 6, 6, 6), "partition has 4 parts, graph has 3"),
        ((6, 6), "partition has 2 parts, graph has 3"),
        ((6, 4, 6), "partition part 1 has 4 vertices, graph part 1 has 6"),
    ])
    def test_partition_must_fit_graph(self, sizes, message):
        inst = generate(InstanceSpec(
            k=3, n=(6, 6, 6), family="planted-boxes", r=2, eps_prime=0.1, seed=1
        ))
        with pytest.raises(ValueError, match=message):
            homogeneity_audit(inst.h, interval_layers(sizes, 2), 0.2)

    @pytest.mark.parametrize("eps", [0.5, 0.6, 2.0, -0.1])
    def test_eps_outside_range_rejected(self, eps):
        # from eps 1/2 on every density counts as homogeneous
        inst = generate(InstanceSpec(
            k=3, n=(6, 6, 6), family="planted-boxes", r=2, eps_prime=0.1, seed=1
        ))
        with pytest.raises(InfeasibleParamsError, match=r"outside \[0, 1/2\)"):
            homogeneity_audit(inst.h, interval_layers((6, 6, 6), 2), eps)


def reference_homogeneity_audit(h, partition, eps):
    """(labels, densities, ok, mass) by boolean masks over the whole
    block-tuple table, as the audit computed them before it read the
    grid of non-empty blocks."""
    tensor, _ = auditor._as_tensor(h)
    parts = [partition[i] for i in range(tensor.ndim)]
    sums = block_sums(tensor, parts)
    volumes = functools.reduce(np.multiply.outer, [p.sizes() for p in parts])
    audited = volumes > 0
    densities = sums[audited] / volumes[audited]
    ok = homogeneous(densities, eps)
    return (np.argwhere(audited), densities, ok,
            int(volumes[audited][~ok].sum()))


def partition_with_empty_blocks(sizes, seed):
    """Five blocks per part with exceptional block 0. Part 0 has an
    empty exceptional block and an empty block 2, part 1 a non-empty
    exceptional block and an empty block 3, and the other parts have
    no empty block; every part has a singleton block 4."""
    rng = np.random.default_rng(seed)
    parts = []
    for i, n in enumerate(sizes):
        labels = rng.integers(0, 4, size=n)
        labels[:4] = np.arange(4)
        if i == 0:
            labels[labels == 0] = 1
            labels[labels == 2] = 3
        elif i == 1:
            labels[labels == 3] = 1
        labels[-1] = 4
        parts.append(PartPartition(labels, part=i, n_blocks=5,
                                   has_exceptional=True))
    return LayeredPartition(parts)


class TestAuditGrid:
    @pytest.mark.parametrize("sizes", [(7, 9), (6, 7, 8), (5, 6, 5, 7)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_boolean_mask_audit(self, sizes, weighted, seed):
        rng = np.random.default_rng(100 + seed)
        cells = rng.random(sizes)
        if weighted:
            h = WeightedTripartite(cells) if len(sizes) == 3 else cells
        else:
            h = KPartiteHypergraph.from_dense(cells < 0.3)
        layers = partition_with_empty_blocks(sizes, seed)
        assert layers[0].sizes()[0] == 0 and layers[0].sizes()[2] == 0
        assert layers[1].sizes()[0] > 0 and layers[1].sizes()[3] == 0
        rep = homogeneity_audit(h, layers, 0.3)
        labels, densities, ok, mass = reference_homogeneity_audit(h, layers, 0.3)
        assert rep.weighted == weighted
        assert rep.labels.dtype == labels.dtype
        assert rep.labels.shape == labels.shape
        assert np.array_equal(rep.labels, labels)
        assert rep.densities.dtype == densities.dtype
        assert rep.densities.tobytes() == densities.tobytes()
        assert rep.ok.dtype == ok.dtype and np.array_equal(rep.ok, ok)
        assert rep.mass == mass and type(rep.mass) is int
        # one label row per tuple of non-empty blocks, in product order
        nonempty = [np.flatnonzero(p.sizes()).tolist() for p in layers]
        assert rep.labels.tolist() == [list(t) for t in itertools.product(*nonempty)]

    def test_one_nonempty_block_in_a_part(self):
        # blocks 1 and 2 of part 0 are empty, so the grid has 1 x 3 tuples
        h = KPartiteHypergraph.from_dense(np.ones((3, 3), dtype=bool))
        layers = LayeredPartition([
            PartPartition(np.zeros(3, dtype=np.int64), part=0, n_blocks=3),
            PartPartition.singletons(3, part=1),
        ])
        rep = homogeneity_audit(h, layers, 0.1)
        assert rep.labels.tolist() == [[0, 0], [0, 1], [0, 2]]
        assert rep.passed and rep.mass == 0


class TestPackedAudit:
    """The audit counts 0/1 input from packed fiber rows; these compare
    it with the dense bincount reference on every shape of input."""

    @pytest.mark.parametrize("sizes", [
        (9, 70), (5, 130), (4, 5, 70), (3, 4, 130), (3, 3, 4, 70), (3, 4, 3, 130),
    ])
    @pytest.mark.parametrize("fill", ["random", "empty", "complete"])
    def test_packed_matches_dense(self, sizes, fill):
        rng = np.random.default_rng(sum(sizes))
        dense = {"random": rng.random(sizes) < 0.5,
                 "empty": np.zeros(sizes, dtype=bool),
                 "complete": np.ones(sizes, dtype=bool)}[fill]
        h = KPartiteHypergraph.from_dense(dense)
        # blocks 0 and 3 are empty in every part, the last included
        parts = []
        for i, n in enumerate(sizes):
            labels = rng.choice([1, 2, 4], size=n)
            labels[:3] = [1, 2, 4]
            parts.append(PartPartition(labels, part=i, n_blocks=5,
                                       has_exceptional=True))
        layers = LayeredPartition(parts)
        for eps in (0.0, 0.2, 0.45):
            rep = homogeneity_audit(h, layers, eps)
            assert_same_report(rep, homogeneity_audit(h.to_dense(), layers, eps))
            labels, densities, ok, mass = reference_homogeneity_audit(
                h, layers, eps)
            assert rep.labels.tolist() == labels.tolist()
            assert rep.densities.tobytes() == densities.tobytes()
            assert np.array_equal(rep.ok, ok) and rep.mass == mass
            assert not rep.weighted
            assert rep.labels.shape == (3 ** len(sizes), len(sizes))


def assert_same_report(got, want):
    """Field by field, densities by their bytes."""
    assert got == want
    for name in ("eps", "passed", "mass", "normalized_mass", "weighted"):
        assert getattr(got, name) == getattr(want, name)
        assert type(getattr(got, name)) is type(getattr(want, name))
    for name in ("labels", "densities", "ok"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def eager_rows(layers, rep):
    """(labels, rows, failing) of a report built eagerly: the label
    rows as the product of each part's non-empty blocks, zipped with
    the report's densities and verdicts."""
    nonempty = [np.flatnonzero(p.sizes()) for p in layers]
    labels = np.array(list(itertools.product(*nonempty)), dtype=np.int64)
    rows = tuple(zip(map(tuple, labels.tolist()), rep.densities.tolist(),
                     rep.ok.tolist()))
    return labels, rows, tuple(r for r in rows if not r[2])


def report_rows(rep):
    """(labels, density, verdict) of every audited tuple of a report."""
    return tuple(zip(map(tuple, rep.labels.tolist()), rep.densities.tolist(),
                     rep.ok.tolist()))


class TestLazyReport:
    """An audit keeps its non-empty block lists, not its label rows;
    everything read from the rows must equal an eager product."""

    @pytest.mark.parametrize("sizes", [(7, 9), (6, 7, 8), (5, 6, 5, 7)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_match_eager_product(self, monkeypatch, tmp_path, sizes,
                                      weighted):
        rng = np.random.default_rng(len(sizes))
        cells = rng.random(sizes)
        h = cells if weighted else KPartiteHypergraph.from_dense(cells < 0.4)
        # part 0: empty exceptional block 0 and empty block 2 between
        # non-empty blocks 1 and 3
        layers = partition_with_empty_blocks(sizes, 3)
        rep = homogeneity_audit(h, layers, 0.2)
        assert not rep.passed and rep.failing()
        assert [b.tolist() for b in rep.blocks] == [
            np.flatnonzero(p.sizes()).tolist() for p in layers]
        assert "labels" not in rep.__dict__
        labels, rows, failing = eager_rows(layers, rep)
        assert rep.failing() == failing
        assert "labels" not in rep.__dict__
        # a chunk covers whole leading blocks, at least one
        inner = len(labels) // rep.blocks[0].size
        for max_rows in (1, inner, 2 * inner + 1, len(labels)):
            chunks = list(rep._label_chunks(max_rows))
            assert all(len(c) <= max(max_rows, inner) for c in chunks)
            assert np.concatenate(chunks).tobytes() == labels.tobytes()
        assert "labels" not in rep.__dict__

        # the file, written one leading block at a time, holds the
        # eager rows and reads back to equal block lists, with neither
        # side building its labels
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 16 * inner)
        path = tmp_path / "r.audit"
        hio.write_audit(path, rep)
        text = path.read_text().splitlines()[3:]
        assert text == [" ".join(map(str, t)) + f" {d!r} "
                        + ("pass" if ok else "fail") for t, d, ok in rows]
        back = hio.read_audit(path)
        assert [b.tolist() for b in back.blocks] == [
            b.tolist() for b in rep.blocks]
        assert back == rep and rep == back
        assert "labels" not in rep.__dict__ and "labels" not in back.__dict__
        assert back.failing() == failing

        assert rep.labels.dtype == np.int64
        assert rep.labels.tobytes() == labels.tobytes()
        assert report_rows(rep) == rows
        assert report_rows(back) == rows

    def test_equality_sees_a_moved_label(self):
        h = KPartiteHypergraph.from_dense(
            np.random.default_rng(0).random((4, 5, 6)) < 0.5)
        rep = homogeneity_audit(h, interval_layers((4, 5, 6), 1), 0.2)
        blocks = [b.copy() for b in rep.blocks]
        assert dataclasses.replace(rep, blocks=tuple(blocks)) == rep
        blocks[2][-1] += 1  # the last block of part 2 moves to a new label
        moved = dataclasses.replace(rep, blocks=tuple(blocks))
        assert moved != rep and rep != moved
        assert not np.array_equal(moved.labels, rep.labels)

    @pytest.mark.parametrize("sizes", [(7, 9), (6, 7, 8), (5, 6, 5, 7)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunked_division_is_bit_identical(self, monkeypatch, sizes,
                                               weighted):
        rng = np.random.default_rng(sum(sizes))
        cells = rng.random(sizes)
        h = cells if weighted else KPartiteHypergraph.from_dense(cells < 0.4)
        layers = partition_with_empty_blocks(sizes, 4)
        whole = homogeneity_audit(h, layers, 0.2)
        labels, densities, ok, mass = reference_homogeneity_audit(h, layers, 0.2)
        assert whole.densities.tobytes() == densities.tobytes()
        assert np.array_equal(whole.ok, ok) and whole.mass == mass
        for cells_per_chunk in (1, 7, 40):
            monkeypatch.setattr(auditor, "_AUDIT_CHUNK_CELLS", cells_per_chunk)
            assert_same_report(homogeneity_audit(h, layers, 0.2), whole)


def test_singleton_audit_holds_no_label_rows():
    """The analyze workload's planted audit at n=144: the pipeline's
    singleton partition, with its empty exceptional block, over 144^3
    block tuples. 144^3 label rows alone would take 71 MiB."""
    import tracemalloc

    n = 144
    inst = generate(InstanceSpec(k=3, n=(n,) * 3, family="planted-boxes",
                                 r=3, eps_prime=0.1, seed=1))
    layers = LayeredPartition([
        PartPartition(np.arange(1, n + 1), part=i, n_blocks=n + 1,
                      has_exceptional=True) for i in range(3)])
    tracemalloc.start()
    try:
        rep = homogeneity_audit(inst.h, layers, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.densities.size == n**3 and rep.passed
    assert "labels" not in rep.__dict__
    assert peak < 48 * 2**20


class TestDisagreementPairs:
    def test_single_edge_line(self):
        dense = np.zeros((1, 1, 2), dtype=bool)
        dense[0, 0, 0] = True
        h = KPartiteHypergraph.from_dense(dense)
        layers = LayeredPartition(
            [
                PartPartition.trivial(1, part=0),
                PartPartition.trivial(1, part=1),
                PartPartition.trivial(2, part=2),
            ]
        )
        assert disagreement_pairs(h, layers) == (0, 0, 1)

    def test_complete_has_none(self):
        h = KPartiteHypergraph.from_dense(np.ones((3, 3, 3), dtype=bool))
        assert disagreement_pairs(h, interval_layers((3, 3, 3), 1)) == (0, 0, 0)

    def test_threshold_formula(self):
        assert disagreement_threshold(0.25, 4, 3, 2) == pytest.approx(6.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_matches_brute(self, seed):
        spec = InstanceSpec(
            k=3, n=(4, 4, 4), family="uniform-random", r=2, eps_prime=0.0, seed=seed
        )
        inst = generate(spec)
        layers = interval_layers((4, 4, 4), 2)
        got = disagreement_pairs(inst.h, layers)
        assert got == brute_disagreement(inst.h.to_dense(), layers)
        # the repr enters the determinism blob: Python ints, not np.int64
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("sizes", [(5, 6), (4, 5, 4), (4, 4, 5, 4)])
    def test_matches_brute_with_empty_blocks(self, sizes):
        # volumes from the block sizes, counts from block_sums
        dense = np.random.default_rng(len(sizes)).random(sizes) < 0.5
        layers = partition_with_empty_blocks(sizes, 5)
        got = disagreement_pairs(KPartiteHypergraph.from_dense(dense), layers)
        assert got == brute_disagreement(dense, layers)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("sizes", [(5, 6, 4), (9, 70), (5, 6, 66),
                                       (5, 5, 6, 65)])
    def test_counts_packed_words_without_dense_copies(self, monkeypatch,
                                                      sizes):
        # bool, float 0/1 and packed input give the plain-numpy counts,
        # and no packed graph is unpacked whole on the way
        dense = np.random.default_rng(sum(sizes)).random(sizes) < 0.5
        layers = partition_with_empty_blocks(sizes, len(sizes))
        want = numpy_disagreement(dense, layers)
        if dense.size <= 120:
            assert want == brute_disagreement(dense, layers)
        inputs = [dense, dense.astype(np.float64),
                  KPartiteHypergraph.from_dense(dense)]
        if len(sizes) == 2:
            inputs.append(BipartiteGraph.from_dense(dense))
        forbid_dense_copies(monkeypatch)
        for h in inputs:
            assert disagreement_pairs(h, layers) == want, type(h)

    def test_rejects_weights_other_than_zero_and_one(self):
        cells = np.zeros((3, 3, 3))
        cells[0, 1, 2] = 0.5
        with pytest.raises(ValueError, match="0/1"):
            disagreement_pairs(cells, interval_layers((3, 3, 3), 1))
        with pytest.raises(ValueError, match="0/1"):
            disagreement_pairs(WeightedTripartite(cells),
                               interval_layers((3, 3, 3), 1))

    @pytest.mark.parametrize("eps", [0.2, 0.25])
    def test_failed_audit_forces_pairs(self, eps):
        # the quantitative link between a failed audit and the
        # per-coordinate disagreement counts, on seeded 4-per-part runs
        for seed in range(40):
            spec = InstanceSpec(
                k=3, n=(4, 4, 4), family="uniform-random", r=2,
                eps_prime=0.0, seed=seed,
            )
            inst = generate(spec)
            layers = interval_layers((4, 4, 4), 2)
            rep = homogeneity_audit(inst.h, layers, eps)
            if rep.passed:
                continue
            total = sum(disagreement_pairs(inst.h, layers))
            assert total >= disagreement_threshold(eps, 4, 3, 2)


class TestWeakRegularityWitness:
    def blocks(self, n):
        return tuple(np.arange(n) for _ in range(3))

    def test_complete_has_no_witness(self):
        h = KPartiteHypergraph.from_dense(np.ones((4, 4, 4), dtype=bool))
        assert weak_regularity_witness(h, self.blocks(4), 0.2) is None

    def test_half_with_empty_corner(self):
        g = np.zeros((4, 4), dtype=bool)
        g[:2, :] = True
        g[0, 3] = False
        dense = np.repeat(g[:, :, None], 4, axis=2)
        h = KPartiteHypergraph.from_dense(dense)
        wit = weak_regularity_witness(h, self.blocks(4), 0.2)
        assert wit is not None and wit.exact
        assert wit.deviation > 0.2
        # bit-for-bit re-verification from the tensor
        assert verify_witness(h, wit) == pytest.approx(wit.sub_density)
        assert brute_density(dense, wit.subsets) == pytest.approx(
            wit.sub_density
        )

    def test_exact_mode_finds_true_optimum(self):
        rng = np.random.default_rng(3)
        dense = rng.random((3, 3, 3)) < 0.5
        h = KPartiteHypergraph.from_dense(dense)
        base = dense.mean()
        best = 0.0
        idx = [0, 1, 2]
        for subs in itertools.product(
            *[
                [s for s in powerset(range(3)) if s]
                for _ in idx
            ]
        ):
            dev = abs(brute_density(dense, subs) - base)
            best = max(best, dev)
        wit = weak_regularity_witness(h, self.blocks(3), 0.0, exact_bits=6)
        assert wit is not None
        assert wit.deviation == pytest.approx(best)

    def test_sampled_mode_on_large_blocks(self):
        g = np.zeros((30, 30), dtype=bool)
        g[:15, :] = True
        dense = np.repeat(g[:, :, None], 30, axis=2)
        h = KPartiteHypergraph.from_dense(dense)
        wit = weak_regularity_witness(h, self.blocks(30), 0.2, seed=1)
        assert wit is not None
        assert not wit.exact
        assert wit.deviation > 0.2
        assert verify_witness(h, wit) == pytest.approx(wit.sub_density)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_sampled_mode_needs_a_draw(self, draws):
        g = np.zeros((30, 30), dtype=bool)
        g[:15, :] = True
        h = KPartiteHypergraph.from_dense(np.repeat(g[:, :, None], 30, axis=2))
        with pytest.raises(ValueError, match="draws"):
            weak_regularity_witness(h, self.blocks(30), 0.2, draws=draws)
        # the exact search draws nothing, so the count does not matter
        assert weak_regularity_witness(h, self.blocks(4), 0.2, draws=draws) is None


def powerset(items):
    items = list(items)
    out = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def brute_bipartite_best(adj, delta):
    n_a, n_b = adj.shape
    base = adj.mean()
    min_a = max(1, int(np.ceil(delta * n_a - 1e-9)))
    min_b = max(1, int(np.ceil(delta * n_b - 1e-9)))
    best = 0.0
    for xs in powerset(range(n_a)):
        if len(xs) < min_a:
            continue
        for ys in powerset(range(n_b)):
            if len(ys) < min_b:
                continue
            d = adj[np.ix_(xs, ys)].mean()
            best = max(best, abs(d - base))
    return best


class TestBipartiteWitness:
    def test_complete_and_empty_have_none(self):
        assert bipartite_regularity_witness(
            BipartiteGraph.from_dense(np.ones((10, 10), dtype=bool)), 0.25
        ) is None
        assert bipartite_regularity_witness(
            BipartiteGraph.from_dense(np.zeros((10, 10), dtype=bool)), 0.25
        ) is None

    def test_half_graph_split_found(self):
        n = 22
        half = np.tri(n, n, -1, dtype=bool)
        wit = bipartite_regularity_witness(
            BipartiteGraph.from_dense(half), 0.3
        )
        assert wit is not None and wit.exact
        assert wit.deviation > 0.3
        assert len(wit.subsets[0]) >= 0.3 * n - 1e-9
        assert len(wit.subsets[1]) >= 0.3 * n - 1e-9
        d = half[np.ix_(wit.subsets[0], wit.subsets[1])].mean()
        assert d == pytest.approx(wit.sub_density)

    def test_exact_mode_matches_brute_optimum(self):
        rng = np.random.default_rng(7)
        adj = rng.random((7, 7)) < 0.5
        wit = bipartite_regularity_witness(
            BipartiteGraph.from_dense(adj), 0.0
        )
        best = brute_bipartite_best(adj.astype(float), 0.0)
        assert wit is not None
        assert wit.deviation == pytest.approx(best)

    def test_sampled_mode_finds_gross_irregularity(self):
        n = 40
        half = np.tri(n, n, -1, dtype=bool)
        wit = bipartite_regularity_witness(
            BipartiteGraph.from_dense(half), 0.3, exact_bits=10, draws=2000,
            seed=2,
        )
        assert wit is not None
        assert not wit.exact
        assert wit.deviation > 0.3

    @pytest.mark.parametrize("shape", [(22, 22), (9, 70)])
    def test_graph_input_matches_its_dense_array(self, shape):
        rng = np.random.default_rng(shape[1])
        dense = np.tri(*shape, -1, dtype=bool) ^ (rng.random(shape) < 0.1)
        g = BipartiteGraph.from_dense(dense)
        wit = bipartite_regularity_witness(g, 0.25)
        assert wit is not None
        assert verify_witness(g, wit) == verify_witness(dense, wit) \
            == pytest.approx(wit.sub_density)
        layers = LayeredPartition([
            PartPartition(rng.integers(0, 3, n), part=i, n_blocks=3)
            for i, n in enumerate(shape)
        ])
        assert homogeneity_audit(g, layers, 0.2) == \
            homogeneity_audit(dense, layers, 0.2)
        assert disagreement_pairs(g, layers) == disagreement_pairs(dense, layers)


# --- the single-shot witness searches, kept as references ----------------


def reference_masks(n, min_size, chunk_bits=16):
    """Every subset of range(n) with at least min_size elements, as
    float64 0/1 rows in mask order, 2^chunk_bits masks to a chunk."""
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    bit = np.arange(n, dtype=np.uint64)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint64)
        patterns = ((masks[:, None] >> bit[None, :]) & 1).astype(np.float64)
        keep = patterns.sum(axis=1) >= min_size
        if keep.any():
            yield patterns[keep]


def reference_prefix_scan(scores, base, scales, min_size):
    """(row, columns, deviation, density) of the best prefix, from one
    float64 grid over every row per direction."""
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
            best = (int(r), np.sort(idx[r, : j + 1]), float(dev[r, j]),
                    float(dens[r, j]))
    return best


def reference_bipartite_witness(g, delta, *, exact_bits=22, draws=4000,
                                seed=0):
    """The search scoring every draw, or every chunk of 2^16 masks, by
    one float64 product and one ``reference_prefix_scan``."""
    adj, _ = auditor._as_tensor(g)
    n_a, n_b = adj.shape
    base = float(adj.mean())
    min_a = max(1, math.ceil(delta * n_a - 1e-9))
    min_b = max(1, math.ceil(delta * n_b - 1e-9))
    flip = n_b < n_a
    if flip:
        adj, n_a, n_b, min_a, min_b = adj.T, n_b, n_a, min_b, min_a
    exact = n_a <= exact_bits
    if exact:
        chunks = reference_masks(n_a, min_a)
    else:
        coins = generator(seed, "bipartite-witness").random((draws, n_a)) < 0.5
        chunks = [coins[coins.sum(axis=1) >= min_a].astype(np.float64)]
    best = None
    for patterns in chunks:
        hit = reference_prefix_scan(patterns @ adj, base,
                                    patterns.sum(axis=1), min_b)
        if hit and (best is None or hit[2] > best[2] + 1e-15):
            best = (np.flatnonzero(patterns[hit[0]] > 0), *hit[1:])
    if best is None or best[2] <= delta:
        return None
    ia, ib, dev, d = best
    if flip:
        ia, ib = ib, ia
    return RegularityWitness((ia, ib), d, base, dev, exact)


def reference_weak_witness(h, blocks, eps, *, exact_bits=16, draws=2000,
                           seed=0):
    """The weak search scoring all subsets of the middle block against
    one subset of the smallest by one float64 product."""
    tensor, _ = auditor._as_tensor(h)
    blocks = tuple(np.asarray(b, dtype=np.int64) for b in blocks)
    sizes = [b.size for b in blocks]
    sub = tensor[np.ix_(*blocks)]
    base = float(sub.mean())
    a, b, c = np.argsort(sizes, kind="stable")
    exact = sizes[a] + sizes[b] <= exact_bits
    moved = np.moveaxis(sub, (a, b, c), (0, 1, 2))
    n_a, n_b, n_c = moved.shape
    flat = moved.reshape(n_a, n_b * n_c)
    if exact:
        ys = next(reference_masks(n_b, 1, chunk_bits=n_b))
        pairs = ((x, ys) for chunk in reference_masks(n_a, 1) for x in chunk)
    else:
        rng = generator(seed, "weak-witness")
        coins = (rng.random((draws, n_a + n_b)) < 0.5).astype(np.float64)
        coins = coins[coins[:, :n_a].any(axis=1) & coins[:, n_a:].any(axis=1)]
        pairs = ((row[:n_a], row[None, n_a:]) for row in coins)
    best = None
    for x, ys in pairs:
        scores = ys @ (x @ flat).reshape(n_b, n_c)
        hit = reference_prefix_scan(scores, base, x.sum() * ys.sum(axis=1), 1)
        if hit and (best is None or hit[2] > best[2]):
            best = (x, ys[hit[0]], hit[2], hit[3], hit[1])
    if best is None or best[2] <= eps:
        return None
    x, y, dev, d, ic = best
    picks = [None, None, None]
    picks[a], picks[b], picks[c] = np.flatnonzero(x), np.flatnonzero(y), ic
    return RegularityWitness(tuple(blocks[i][picks[i]] for i in range(3)),
                             d, base, dev, exact)


def witness_bits(w):
    """Every field of a witness, the subsets as raw bytes."""
    if w is None:
        return None
    return (tuple((s.dtype.str, s.tobytes()) for s in w.subsets),
            w.sub_density, w.base_density, w.deviation, w.exact)


def near_tie(n):
    """Weights 0.7 on one corner block, 0.3 on the opposite one, 0.5
    elsewhere: the best deviations of the two scan directions, 0.7 -
    0.5 and 0.5 - 0.3, differ in their last bits."""
    w = np.full((n, n), 0.5)
    w[: n // 2, : n // 2] = 0.7
    w[n // 2:, n // 2:] = 0.3
    return w


def random_01(shape, seed, p=0.5):
    return np.random.default_rng(seed).random(shape) < p


BIPARTITE_CASES = {
    "01-exact": (lambda: random_01((12, 40), 1), 0.2, {}),
    "01-exact-two-chunks": (lambda: random_01((17, 21), 2), 0.25, {}),
    "01-sampled": (lambda: np.tri(60, 80, 10, dtype=bool)
                   ^ random_01((60, 80), 3, 0.05), 0.2,
                   {"exact_bits": 10, "draws": 2000, "seed": 4}),
    "01-flipped": (lambda: BipartiteGraph.from_dense(random_01((50, 9), 5)),
                   0.3, {}),
    "01-half-graph": (lambda: np.tri(40, 40, -1, dtype=bool), 0.3,
                      {"exact_bits": 8, "draws": 700, "seed": 2}),
    "weighted-exact": (lambda: np.random.default_rng(6).random((10, 30)),
                       0.1, {}),
    "weighted-sampled": (lambda: np.random.default_rng(7).random((40, 50)),
                         0.1, {"exact_bits": 8, "draws": 1500, "seed": 8}),
    "near-tie-exact": (lambda: near_tie(12), 0.1, {}),
    "near-tie-sampled": (lambda: near_tie(40), 0.1,
                         {"exact_bits": 4, "draws": 900, "seed": 9}),
}

WEAK_CASES = {
    "01-exact": (lambda: random_01((3, 4, 5), 10), {}),
    "01-exact-long-third": (lambda: random_01((4, 7, 300), 11), {}),
    "01-sampled": (lambda: random_01((10, 12, 9), 12),
                   {"exact_bits": 4, "draws": 300, "seed": 13}),
    "weighted-exact": (lambda: np.random.default_rng(14).random((3, 4, 6)), {}),
    "weighted-sampled": (lambda: np.random.default_rng(15).random((9, 8, 7)),
                         {"exact_bits": 4, "draws": 300, "seed": 16}),
}


class TestBlockedWitnessSearch:
    """The witness searches score and scan ``_SCAN_CELLS`` cells at a
    time; each gives the single-shot reference's witness bit for bit,
    with the budget at its default and cut to a few rows."""

    @pytest.mark.parametrize("cells", [None, 97], ids=["default", "cut"])
    @pytest.mark.parametrize("case", BIPARTITE_CASES)
    def test_bipartite_matches_single_shot(self, monkeypatch, case, cells):
        make, delta, kwargs = BIPARTITE_CASES[case]
        if cells is not None:
            monkeypatch.setattr(auditor, "_SCAN_CELLS", cells)
        g = make()
        want = reference_bipartite_witness(g, delta, **kwargs)
        assert want is not None
        assert witness_bits(bipartite_regularity_witness(g, delta, **kwargs)) \
            == witness_bits(want)

    @pytest.mark.parametrize("cells", [None, 97], ids=["default", "cut"])
    @pytest.mark.parametrize("case", WEAK_CASES)
    def test_weak_matches_single_shot(self, monkeypatch, case, cells):
        make, kwargs = WEAK_CASES[case]
        if cells is not None:
            monkeypatch.setattr(auditor, "_SCAN_CELLS", cells)
        h = make()
        blocks = tuple(np.arange(n) for n in h.shape)
        want = reference_weak_witness(h, blocks, 0.05, **kwargs)
        assert want is not None
        assert witness_bits(weak_regularity_witness(h, blocks, 0.05, **kwargs)) \
            == witness_bits(want)

    def test_near_tie_keeps_the_first_direction(self):
        # ascending, the scan reaches density 0.3, deviation 0.2;
        # descending, its float sums reach 0.7000000000000001, deviation
        # 0.20000000000000007. That is within 1e-15, so the ascending
        # direction, scanned first, stands
        wit = bipartite_regularity_witness(near_tie(12), 0.1)
        assert (wit.sub_density, wit.deviation) == (0.3, 0.2)
        assert witness_bits(wit) == witness_bits(
            reference_bipartite_witness(near_tie(12), 0.1))

    def test_level_graph_search_in_bounded_memory(self):
        # the tower's deepest level graph at n=144, searched with the
        # certificate check's 2000 draws; the single-shot search peaked
        # at 10 MB
        import tracemalloc

        from homopart import build_sequence, build_weighted

        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=1)
        g = build_weighted(params, 144).layering.graphs[-1]
        tracemalloc.start()
        try:
            wit = bipartite_regularity_witness(g, 0.5, draws=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wit is None
        assert peak < 8 * 2**20

    def test_exhaustive_search_in_bounded_memory(self):
        # all 2^14 subsets of the small side against 144 columns; the
        # single-shot search held 2^14 x 144 float64 grids, 124 MB
        import tracemalloc

        g = random_01((14, 144), 17)
        tracemalloc.start()
        try:
            wit = bipartite_regularity_witness(g, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wit is not None and wit.exact
        assert peak < 16 * 2**20


def brute_shattered(rows, combo):
    seen = set()
    for r in rows:
        seen.add(tuple(bool(r[c]) for c in combo))
    return len(seen) == 2 ** len(combo)


def brute_vc(rows):
    n_b = rows.shape[1]
    best = 0
    for d in range(1, n_b + 1):
        hit = False
        for combo in itertools.combinations(range(n_b), d):
            if brute_shattered(rows, combo):
                hit = True
                break
        if not hit:
            return best
        best = d
    return best


def reference_vc(rows, cap):
    """The exhaustive search: every column subset of every size in
    ``itertools.combinations`` order, one ``np.unique`` per subset."""
    rows = np.asarray(rows, dtype=bool)
    n_b = rows.shape[1]
    if rows.shape[0] == 0 or n_b == 0:
        return (0, False, ())
    dim, witness = 0, ()
    for d in range(1, min(cap, n_b) + 1):
        found = None
        for combo in itertools.combinations(range(n_b), d):
            if np.unique(rows[:, combo], axis=0).shape[0] == 2**d:
                found = combo
                break
        if found is None:
            return (dim, False, witness)
        dim, witness = d, found
    return (dim, dim == cap, witness)


def vc_triple(rows, cap):
    res = vc_dimension(rows, cap=cap)
    return (res.dim, res.at_cap, res.witness)


def cube(d):
    return np.array(
        [[(m >> j) & 1 for j in range(d)] for m in range(2**d)], dtype=bool
    )


class TestVCDimension:
    def test_constant_graphs(self):
        complete = BipartiteGraph.from_dense(np.ones((6, 6), dtype=bool))
        assert vc_dimension(complete).dim == 0
        assert vc_dimension(np.zeros((6, 6), dtype=bool)).dim == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matchings(self, n):
        assert vc_dimension(np.eye(n, dtype=bool)).dim == 1

    @pytest.mark.parametrize("n", [6, 8])
    def test_half_graphs(self, n):
        assert vc_dimension(np.tri(n, n, -1, dtype=bool)).dim == 1

    def test_witness_is_shattered(self):
        rng = np.random.default_rng(5)
        rows = rng.random((10, 6)) < 0.5
        res = vc_dimension(rows)
        if res.dim > 0:
            assert brute_shattered(rows, res.witness)

    def test_at_cap_flag(self):
        rows = cube(4)
        res = vc_dimension(rows, cap=2)
        assert res.dim == 2 and res.at_cap
        full = vc_dimension(rows, cap=8)
        assert full.dim == 4 and not full.at_cap

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_brute_on_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((5, 5)) < rng.uniform(0.2, 0.8)
        assert vc_dimension(rows).dim == brute_vc(rows)

    def test_matches_reference_search(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            shape = (int(rng.integers(1, 41)), int(rng.integers(1, 13)))
            rows = rng.random(shape) < rng.uniform(0.1, 0.9)
            cap = int(rng.integers(1, 9))
            assert vc_triple(rows, cap) == reference_vc(rows, cap), (rows, cap)

    @pytest.mark.parametrize("rows", [
        np.ones((1, 7), dtype=bool),
        np.array([[1, 0, 1, 0, 0, 1]], dtype=bool),
        np.array([[1], [0], [1]], dtype=bool),
        np.ones((4, 1), dtype=bool),
        np.zeros((0, 5), dtype=bool),
        np.zeros((5, 0), dtype=bool),
        np.eye(4, dtype=bool),
        # 6 rows shatter pairs of 40 columns but can never shatter 3.
        np.random.default_rng(3).random((6, 40)) < 0.5,
        cube(3)[np.arange(7)],
        np.repeat(cube(3), 3, axis=0),
    ], ids=["1-row-full", "1-row", "1-col", "1-col-const", "0-rows",
            "0-cols", "eye", "6x40", "cube-minus-one", "repeated-cube"])
    @pytest.mark.parametrize("cap", [1, 2, 3, 8])
    def test_edge_shapes_match_reference(self, rows, cap):
        assert vc_triple(rows, cap) == reference_vc(rows, cap)

    @pytest.mark.parametrize("cap", [2, 8])
    def test_full_cube_matches_reference(self, cap):
        rows = cube(4)
        assert vc_triple(rows, cap) == reference_vc(rows, cap)
        assert vc_triple(rows, cap) == (
            (2, True, (0, 1)) if cap == 2 else (4, False, (0, 1, 2, 3))
        )

    def test_chunked_levels_match_reference(self, monkeypatch):
        # One candidate per chunk: every level is scored piecewise.
        monkeypatch.setattr(auditor, "_VC_CHUNK_CODES", 1)
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = rng.random((int(rng.integers(4, 33)), 9)) < 0.5
            cap = int(rng.integers(1, 9))
            assert vc_triple(rows, cap) == reference_vc(rows, cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cap"):
            vc_dimension(np.eye(4, dtype=bool), cap=cap)
        with pytest.raises(ValueError, match="cap"):
            slicewise_vc(KPartiteHypergraph.empty((2, 2, 2)), cap=cap)


# Each bipartite entry point, called on ``g`` with valid other arguments.
TWO_PART_ENTRY_POINTS = {
    "vc_dimension": vc_dimension,
    "bipartite_regularity_witness":
        lambda g: bipartite_regularity_witness(g, 0.3),
    "similarity_partition": lambda g: similarity_partition(
        g, PartPartition.trivial(3), PartPartition.trivial(3), 0.3, 1),
    "quasirandomness_audit": lambda g: quasirandomness_audit(g, 0.5),
}


class TestTwoPartInput:
    @pytest.mark.parametrize("name", TWO_PART_ENTRY_POINTS)
    @pytest.mark.parametrize("make, parts", [
        (lambda: np.ones(4, dtype=bool), 1),
        (lambda: np.ones((3, 3, 3), dtype=bool), 3),
        (lambda: np.ones((3, 3, 3)), 3),
        (lambda: KPartiteHypergraph.from_dense(np.ones((3, 3, 3), dtype=bool)), 3),
        (lambda: WeightedTripartite(np.full((3, 3, 3), 0.5)), 3),
    ], ids=["1-d", "3-d-bool", "3-d-float", "3-part", "weighted"])
    def test_other_part_counts_rejected(self, monkeypatch, name, make, parts):
        # input other than two parts used to fail with IndexError or
        # "too many values to unpack", or to pass a check on two axes
        g = make()

        def to_dense(self):
            raise AssertionError("the check made a dense copy")

        monkeypatch.setattr(KPartiteHypergraph, "to_dense", to_dense)
        with pytest.raises(ValueError, match=f"2-d adjacency, got {parts}-d"):
            TWO_PART_ENTRY_POINTS[name](g)

    def test_two_part_hypergraph_is_a_bipartite_graph(self):
        dense = np.random.default_rng(8).random((12, 12)) < 0.5
        g = BipartiteGraph.from_dense(dense)
        h = KPartiteHypergraph.from_dense(dense)
        assert vc_dimension(h) == vc_dimension(g) == vc_dimension(dense)
        assert (quasirandomness_audit(h, 0.5) == quasirandomness_audit(g, 0.5)
                == quasirandomness_audit(dense, 0.5))
        witnesses = [bipartite_regularity_witness(x, 0.3) for x in (h, g, dense)]
        assert len({(w.deviation, *map(bytes, w.subsets)) for w in witnesses}) == 1

    def test_similarity_partition_takes_arrays(self):
        # a 2-d array passed _two_part and then failed on ``part_sizes``
        rng = np.random.default_rng(9)
        left = PartPartition(np.repeat([0, 1], 60), n_blocks=2)
        dense = np.zeros((120, 120), dtype=bool)
        dense[:60, rng.permutation(120)[:90]] = True
        dense ^= rng.random(dense.shape) < 0.02
        trivial = PartPartition.trivial(120)
        results = [similarity_partition(x, left, trivial, 0.3, 2)
                   for x in (BipartiteGraph.from_dense(dense), dense,
                             dense.astype(np.float64), dense.astype(np.int8))]
        assert len({(r.partition.labels.tobytes(), r.q, r.m, r.bad_blocks,
                     r.evicted, r.max_intra_symdiff) for r in results}) == 1
        ones = similarity_partition(np.ones((120, 120), dtype=bool), trivial,
                                    trivial, 0.3, 1)
        assert (ones.q, ones.m, ones.bad_blocks) == (7, 12, ())
        with pytest.raises(ValueError, match="0/1 adjacency"):
            similarity_partition(np.full((120, 120), 0.5), trivial, trivial,
                                 0.3, 1)


def benchmark_instance(family, n):
    return generate(InstanceSpec(
        k=3, n=(n, n, n), family=family, r=3, eps_prime=0.1, seed=5
    )).h


def brute_slicewise(h):
    """Uncapped per-part maximum of brute_vc over every link, both
    orientations."""
    dense = h.to_dense()
    return {
        part: max(
            max(brute_vc(slab), brute_vc(slab.T))
            for slab in (np.take(dense, v, axis=part)
                         for v in range(h.part_sizes[part]))
        )
        for part in range(3)
    }


class TestSlicewiseVC:
    def test_product_is_max_over_roles(self):
        spec = InstanceSpec(
            k=3, n=(6, 6, 6), family="product", r=2, eps_prime=0.0, seed=42
        )
        inst = generate(spec)
        sv = slicewise_vc(inst.h)
        dense = inst.h.to_dense()
        expect = {0: 0, 1: 0, 2: 0}
        slicers = {
            0: lambda v: dense[v, :, :],
            1: lambda v: dense[:, v, :],
            2: lambda v: dense[:, :, v],
        }
        for part in range(3):
            for v in range(6):
                adj = slicers[part](v)
                expect[part] = max(
                    expect[part], brute_vc(adj), brute_vc(adj.T)
                )
        for part in range(3):
            assert sv[part] == expect[part]
        assert sv["max"] == max(expect.values())

    def test_empty_graph(self):
        sv = slicewise_vc(KPartiteHypergraph.empty((5, 5, 5)))
        assert sv["max"] == 0

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_planted_stays_small(self, n):
        spec = InstanceSpec(
            k=3, n=(n, n, n), family="planted-boxes", r=3, eps_prime=0.0, seed=1
        )
        inst = generate(spec)
        assert slicewise_vc(inst.h)["max"] <= 3

    def test_random_growth_with_size(self):
        values = []
        for n in (6, 8, 10):
            spec = InstanceSpec(
                k=3, n=(n, n, n), family="uniform-random", r=2,
                eps_prime=0.0, seed=2,
            )
            values.append(slicewise_vc(generate(spec).h)["max"])
        assert values == sorted(values)
        assert values[-1] >= 2

    @pytest.mark.parametrize("family,n", [
        ("uniform-random", 10), ("planted-boxes", 18),
    ])
    def test_benchmark_sizes_match_brute(self, family, n):
        h = benchmark_instance(family, n)
        expect = brute_slicewise(h)
        sv = slicewise_vc(h)
        assert {part: sv[part] for part in range(3)} == expect
        assert sv["max"] == max(expect.values())
        assert sv["at_cap"] == (sv["max"] >= 8)

    @pytest.mark.parametrize("family, n, distinct", [
        ("planted-boxes", 18, 3), ("uniform-random", 10, 10),
    ])
    def test_each_distinct_link_is_measured_once(self, monkeypatch, family, n,
                                                 distinct):
        h = benchmark_instance(family, n)
        dense = h.to_dense()
        for part in range(3):
            slabs = {np.take(dense, v, axis=part).tobytes() for v in range(n)}
            assert len(slabs) == distinct
        # charge each vc_dimension call to the part of the last link taken
        pinned, calls = [], []
        real_link, real_vc = auditor.link, auditor.vc_dimension
        monkeypatch.setattr(auditor, "link", lambda h, pins: (
            pinned.append(pins[0][0]) or real_link(h, pins)))
        monkeypatch.setattr(auditor, "vc_dimension", lambda adj, **kw: (
            calls.append(pinned[-1]) or real_vc(adj, **kw)))
        sv = slicewise_vc(h)
        assert pinned == [part for part in range(3) for _ in range(n)]
        assert calls == [part for part in range(3) for _ in range(2 * distinct)]
        expect = brute_slicewise(h)
        assert {part: sv[part] for part in range(3)} == expect
        assert sv["max"] == max(expect.values())

    def test_cap_one_sets_at_cap(self):
        h = benchmark_instance("uniform-random", 10)
        expect = brute_slicewise(h)
        sv = slicewise_vc(h, cap=1)
        assert {part: sv[part] for part in range(3)} == {
            part: min(expect[part], 1) for part in range(3)
        }
        assert sv["max"] == 1 and sv["at_cap"]
