"""Homogenizer tests.

The brute-force helpers at the top recompute every checked quantity
from dense arrays and Python sets, with none of the packed-word
machinery the library uses.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    FAMILIES,
    BipartiteGraph,
    InstanceSpec,
    KPartiteHypergraph,
    PartPartition,
    PlantedOracle,
    generate,
    homogeneity_audit,
    homogeneous_partition,
    similarity_block_count,
    similarity_block_size,
    similarity_input_tolerance,
    similarity_partition,
    tuple_partition,
)
from homopart import homogenizer
from homopart.errors import CoverageError, InfeasibleParamsError
from homopart.rng import generator


def dense_neighborhood(dense, tup):
    """Target-side neighborhood of a source tuple, as a plain set."""
    return frozenset(np.flatnonzero(dense[tup]).tolist())


def dense_symdiff(dense, t1, t2):
    return len(dense_neighborhood(dense, t1) ^ dense_neighborhood(dense, t2))


def brute_assignment(dense, anchors, threshold):
    """Lowest-index-anchor labels for every source tuple, 0 = none."""
    shape = dense.shape[:-1]
    labels = np.zeros(shape, dtype=np.int64)
    for tup in np.ndindex(*shape):
        for i, a in enumerate(anchors):
            if dense_symdiff(dense, tup, a) <= threshold:
                labels[tup] = i + 1
                break
    return labels


def brute_block_checks(adj, result, gamma):
    """Re-derive the similarity contract from the dense matrix."""
    p = result.partition
    sizes = p.sizes()
    assert p.has_exceptional
    assert len(set(sizes[1:].tolist())) == 1, "unequal block sizes"
    assert sizes[1] == result.m
    assert sizes[0] <= gamma * adj.shape[0] + 1e-9
    worst = 0
    for b in range(1, p.n_blocks):
        idx = p.block_indices(b)
        for i in range(len(idx)):
            ni = set(np.flatnonzero(adj[idx[i]]).tolist())
            for j in range(i + 1, len(idx)):
                nj = set(np.flatnonzero(adj[idx[j]]).tolist())
                worst = max(worst, len(ni ^ nj))
    assert worst <= gamma * adj.shape[1] + 1e-9
    return worst


class TestSimilarityConstants:
    def test_block_count_formula(self):
        assert similarity_block_count(0.1, 5) == 135
        assert similarity_block_count(0.3, 1) == 7

    def test_input_tolerance(self):
        assert similarity_input_tolerance(0.1) == pytest.approx(1e-3 / 48.0)

    @given(
        n=st.integers(10, 500),
        gamma=st.floats(0.05, 0.45),
        r=st.integers(1, 6),
    )
    def test_leftover_budget_whenever_feasible(self, n, gamma, r):
        q = similarity_block_count(gamma, r)
        m = similarity_block_size(n, gamma, r)
        assert m >= 1
        if q * m <= n:
            assert n - q * m <= gamma * n + 1e-5


class TestSimilarityPartition:
    def test_complete_graph_worked_numbers(self):
        g = BipartiteGraph.from_dense(np.ones((120, 120), dtype=bool))
        res = similarity_partition(
            g,
            PartPartition.trivial(120, part=0),
            PartPartition.trivial(120, part=1),
            0.3,
            1,
        )
        assert res.q == 7
        assert res.m == 12
        assert res.partition.exceptional_size() == 36
        assert res.max_intra_symdiff == 0
        assert res.contract_met
        sizes = res.partition.sizes()
        assert list(sizes[1:]) == [12] * 7

    # (0.1, 3) is skipped: no integer block size fits its window at n=120
    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_planted_instances_meet_contract(self, gamma, r):
        if (gamma, r) == (0.1, 3):
            pytest.skip("no feasible block size at n=120")
        spec = InstanceSpec(
            k=2, n=(120, 120), family="planted-boxes", r=r, eps_prime=0.0, seed=17
        )
        inst = generate(spec)
        g = inst.h
        res = similarity_partition(
            g, inst.side_partitions[0], inst.side_partitions[1], gamma, r
        )
        assert res.contract_met
        worst = brute_block_checks(g.to_dense(), res, gamma)
        # planted blocks have identical neighborhoods
        assert worst == 0

    def test_infeasible_window_raises(self):
        spec = InstanceSpec(
            k=2, n=(120, 120), family="planted-boxes", r=3, eps_prime=0.0, seed=1
        )
        inst = generate(spec)
        with pytest.raises(InfeasibleParamsError):
            similarity_partition(
                inst.h,
                inst.side_partitions[0],
                inst.side_partitions[1],
                0.1,
                3,
            )

    def test_left_block_cap_enforced(self):
        g = BipartiteGraph.from_dense(np.ones((12, 12), dtype=bool))
        left = PartPartition.intervals(12, 3, part=0)
        with pytest.raises(InfeasibleParamsError):
            similarity_partition(
                g, left, PartPartition.trivial(12, part=1), 0.3, 2
            )

    def test_noisy_input_still_within_budget(self):
        # a quarter of one planted block rewired; eviction must absorb it
        spec = InstanceSpec(
            k=2, n=(120, 120), family="planted-boxes", r=2, eps_prime=0.0, seed=23
        )
        inst = generate(spec)
        dense = inst.h.to_dense().copy()
        dense[:3, :] = ~dense[:3, :]
        g = BipartiteGraph.from_dense(dense)
        res = similarity_partition(
            g, inst.side_partitions[0], inst.side_partitions[1], 0.3, 2
        )
        if res.contract_met:
            brute_block_checks(dense, res, 0.3)


    def test_bad_blocks_are_python_ints(self):
        # half-density blocks are non-homogeneous against the whole
        # right side, so both left blocks are bad; bad_blocks enters
        # the determinism blob by repr, where np.int64 prints otherwise
        dense = np.random.default_rng(0).random((120, 120)) < 0.5
        res = similarity_partition(
            BipartiteGraph.from_dense(dense),
            PartPartition.intervals(120, 2, part=0),
            PartPartition.trivial(120, part=1),
            0.3,
            2,
        )
        assert res.bad_blocks == (0, 1)
        assert all(type(b) is int for b in res.bad_blocks)
        assert res.bad_mass == 120 and type(res.bad_mass) is int
        assert not res.contract_met

    @pytest.mark.parametrize("n", [60, 130])
    def test_classification_counts_packed_rows(self, monkeypatch, n):
        # left block 1 is half random against right block 0, so it is
        # bad; the others are constant. The bad blocks must follow from
        # plain-numpy block means, with no graph unpacked whole.
        rng = np.random.default_rng(n)
        left = PartPartition.intervals(n, 2, part=0)
        right = PartPartition(np.arange(n) * 3 // n, part=1)
        dense = (left.labels[:, None] + right.labels[None, :]) % 2 == 0
        noisy = np.ix_(left.block_indices(1), right.block_indices(0))
        dense[noisy] = rng.random(dense[noisy].shape) < 0.5
        gamma, r = 0.3, 2
        means = np.array([[dense[np.ix_(left.block_indices(a),
                                        right.block_indices(b))].mean()
                           for b in range(3)] for a in range(2)])
        tol = similarity_input_tolerance(gamma)
        mixed = (means > tol) & (means < 1.0 - tol)
        mass = mixed.astype(np.int64) @ right.sizes()
        bad = tuple(np.flatnonzero(mass > gamma**2 / 16.0 * n).tolist())
        assert bad == (1,)

        def to_dense(self):
            raise AssertionError("dense copy of a packed graph")
        monkeypatch.setattr(KPartiteHypergraph, "to_dense", to_dense)
        monkeypatch.setattr(BipartiteGraph, "to_dense", to_dense)
        res = similarity_partition(BipartiteGraph.from_dense(dense), left,
                                   right, gamma, r)
        assert res.bad_blocks == bad
        assert res.bad_mass == left.sizes()[1]


class TestTuplePartition:
    def test_product_two_anchors_cover_everything(self):
        spec = InstanceSpec(
            k=3, n=(8, 8, 8), family="product", r=2, eps_prime=0.0, seed=42
        )
        inst = generate(spec)
        tp = tuple_partition(inst.h, 0.2, seed=42)
        assert tp.n_classes == 2
        assert tp.exceptional_count() == 0

    def test_empty_graph_single_class(self):
        h = KPartiteHypergraph.empty((6, 6, 6))
        tp = tuple_partition(h, 0.2, seed=0)
        assert tp.n_classes == 1
        assert tp.exceptional_count() == 0

    @pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.6, math.nan])
    def test_eps_validation(self, eps):
        h = KPartiteHypergraph.empty((4, 4, 4))
        with pytest.raises(InfeasibleParamsError, match="outside"):
            tuple_partition(h, eps, seed=0)

    @pytest.mark.parametrize(
        "family,n,eps,seed",
        [
            ("planted-boxes", 8, 0.2, 42),
            ("uniform-random", 6, 0.4, 5),
            ("interval-threshold", 7, 0.3, 9),
        ],
    )
    def test_labels_match_brute_assignment(self, family, n, eps, seed):
        spec = InstanceSpec(
            k=3, n=(n, n, n), family=family, r=2, eps_prime=0.0, seed=seed
        )
        inst = generate(spec)
        tp = tuple_partition(inst.h, eps, seed=seed)
        dense = inst.h.to_dense()
        expect = brute_assignment(dense, tp.anchors, tp.threshold)
        assert np.array_equal(tp.labels, expect)
        assert tp.exceptional_count() <= tp.budget + 1e-9

    def test_anchors_label_themselves(self):
        spec = InstanceSpec(
            k=3, n=(8, 8, 8), family="planted-boxes", r=3, eps_prime=0.0, seed=6
        )
        inst = generate(spec)
        tp = tuple_partition(inst.h, 0.25, seed=6)
        for i, a in enumerate(tp.anchors):
            assert tp.labels[a] == i + 1

    def test_off_default_target_part(self):
        spec = InstanceSpec(
            k=4, n=(5, 6, 5, 4), family="planted-boxes", r=2, eps_prime=0.0, seed=8
        )
        inst = generate(spec)
        tp = tuple_partition(inst.h, 0.3, seed=8, target_part=1)
        assert tp.source_parts == (0, 2, 3)
        assert tp.labels.shape == (5, 5, 4)
        dense = np.moveaxis(inst.h.to_dense(), 1, -1)
        expect = brute_assignment(dense, tp.anchors, tp.threshold)
        assert np.array_equal(tp.labels, expect)

    def test_coverage_failure_reports_mass(self):
        spec = InstanceSpec(
            k=3, n=(12, 12, 12), family="uniform-random", r=2, eps_prime=0.0, seed=3
        )
        inst = generate(spec)
        with pytest.raises(CoverageError) as err:
            tuple_partition(inst.h, 0.2, seed=3, max_anchors=32)
        assert err.value.n_anchors == 32
        assert err.value.uncovered > err.value.budget

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        eps=st.floats(0.1, 0.45),
        draw=st.integers(0, 3),
    )
    def test_assignment_semantics_hold_generally(self, seed, eps, draw):
        family = ["planted-boxes", "uniform-random", "interval-threshold",
                  "product"][draw]
        spec = InstanceSpec(
            k=3, n=(5, 5, 5), family=family, r=2, eps_prime=0.0, seed=seed
        )
        inst = generate(spec)
        tp = tuple_partition(inst.h, eps, seed=seed)
        dense = inst.h.to_dense()
        assert np.array_equal(
            tp.labels, brute_assignment(dense, tp.anchors, tp.threshold)
        )
        assert tp.exceptional_count() <= tp.budget + 1e-9


class TestOracles:
    def test_planted_oracle_validation(self):
        parts = {
            0: PartPartition.intervals(8, 2, part=0),
            1: PartPartition.intervals(8, 4, part=1),
        }
        with pytest.raises(InfeasibleParamsError):
            PlantedOracle(parts, r=2)
        assert PlantedOracle(parts, r=4).r == 4


class TestHomogeneousPartition:
    def test_complete_graph_collapses(self):
        h = KPartiteHypergraph.from_dense(np.ones((24, 24, 24), dtype=bool))
        oracle = PlantedOracle(
            {i: PartPartition.trivial(24, part=i) for i in range(3)}, r=1
        )
        lp, rep = homogeneous_partition(h, oracle, eps=0.2, seed=1)
        assert rep.p == 1
        assert all(tp.n_classes == 1 for tp in rep.passes)

    def test_product_two_box_run(self):
        spec = InstanceSpec(
            k=3, n=(60, 60, 60), family="product", r=2, eps_prime=0.0, seed=7
        )
        inst = generate(spec)
        lp, rep = homogeneous_partition(inst.h, inst.oracle, eps=0.2, seed=7)
        assert rep.p == 2
        assert rep.budget == pytest.approx(8 * 3 * rep.p / 0.2**2)
        assert rep.budget == pytest.approx(1200.0)
        for i in range(3):
            assert lp[i].n_body_blocks() <= rep.budget
        # atom count stays within the 2^t bound of the pass sizes
        assert rep.p <= 2 ** max(tp.n_classes for tp in rep.passes)
        # with singleton-size blocks every cell is 0/1 dense
        dense = inst.h.to_dense()
        rng = np.random.default_rng(0)
        for _ in range(20):
            blocks = [
                int(rng.integers(1, lp[i].n_blocks)) for i in range(3)
            ]
            cells = np.ix_(*[lp[i].block_indices(blocks[i]) for i in range(3)])
            d = dense[cells].mean()
            assert d in (0.0, 1.0)

    def test_deterministic_across_runs(self):
        for family in ("planted-boxes", "interval-threshold", "product"):
            spec = InstanceSpec(
                k=3, n=(30, 30, 30), family=family, r=2, eps_prime=0.0, seed=9
            )
            inst = generate(spec)
            lp1, _ = homogeneous_partition(inst.h, inst.oracle, eps=0.25, seed=4)
            lp2, _ = homogeneous_partition(inst.h, inst.oracle, eps=0.25, seed=4)
            for i in range(3):
                assert np.array_equal(lp1[i].labels, lp2[i].labels), family

    def test_uniform_random_fails_coverage(self):
        spec = InstanceSpec(
            k=3, n=(30, 30, 30), family="uniform-random", r=2, eps_prime=0.0, seed=2
        )
        inst = generate(spec)
        with pytest.raises(CoverageError) as err:
            homogeneous_partition(
                inst.h, inst.oracle, eps=0.2, seed=2, max_anchors=128
            )
        assert err.value.uncovered > err.value.budget

    def test_instance_without_link_hypothesis_runs(self):
        # uniform-random at r=0 plants nothing, so generate gives no oracle
        inst = generate(InstanceSpec(
            k=3, n=(6, 6, 6), family="uniform-random", r=0, eps_prime=0.0, seed=1
        ))
        assert inst.oracle is None
        lp, _ = homogeneous_partition(inst.h, inst.oracle, 0.2, 1)
        assert lp.block_counts() == (7, 7, 7)
        assert homogeneity_audit(inst.h, lp, 0.2).passed

    @pytest.mark.parametrize("family", FAMILIES)
    def test_oracle_is_not_read(self, family):
        # the planted partitions, a bare oracle and None give one result
        inst = generate(InstanceSpec(
            k=3, n=(9, 8, 10), family=family, r=2, eps_prime=0.0, seed=9
        ))
        want_lp, want = homogeneous_partition(inst.h, inst.oracle, 0.25, 4)
        for oracle in (PlantedOracle({}, inst.oracle.r), None):
            lp, got = homogeneous_partition(inst.h, oracle, 0.25, 4)
            for i in range(3):
                assert np.array_equal(lp[i].labels, want_lp[i].labels)
            assert repr(got) == repr(want)
            for tp, tp_want in zip(got.passes, want.passes):
                assert tp.labels.tobytes() == tp_want.labels.tobytes()
                assert tp.anchors == tp_want.anchors
                assert (tp.representative_rows.tobytes()
                        == tp_want.representative_rows.tobytes())

    def test_eps_validation(self):
        h = KPartiteHypergraph.from_dense(np.ones((6, 6, 6), dtype=bool))
        oracle = PlantedOracle(
            {i: PartPartition.trivial(6, part=i) for i in range(3)}, r=1
        )
        with pytest.raises(InfeasibleParamsError):
            homogeneous_partition(h, oracle, eps=0.7, seed=0)


# --- tuple classes and representatives against the per-class scans -------
#
# ``tuple_partition`` compacts one array of open tuples per anchor and
# checks every covered tuple; ``homogeneous_partition`` finds all class
# representatives in one pass. These are the loops they replaced, kept
# as the reference they must match field by field.


def reference_tuple_partition(h, eps, seed, target_part, max_anchors=512):
    """(labels, anchors, anchor_rows, uncovered) from the covered-mask loop:
    every anchor rescans all tuples for the uncovered ones."""
    k = h.k
    sources = tuple(p for p in range(k) if p != target_part)
    rows = KPartiteHypergraph.from_dense(
        np.transpose(h.to_dense(), sources + (target_part,))).fiber_rows()
    source_sizes = tuple(h.part_sizes[p] for p in sources)
    n_tuples = math.prod(source_sizes)
    threshold = eps * h.part_sizes[target_part] / 2.0
    budget = eps * n_tuples
    rng = generator(seed, f"tuple/{target_part}/anchors")
    labels = np.zeros(n_tuples, dtype=np.int64)
    covered = np.zeros(n_tuples, dtype=bool)
    anchors = []
    anchor_rows = []

    def place(flat_idx):
        row = rows[flat_idx]
        fresh = ~covered
        dist = np.bitwise_count(rows[fresh] ^ row).sum(axis=-1, dtype=np.int64)
        hit = np.flatnonzero(fresh)[dist <= threshold]
        labels[hit] = len(anchors) + 1
        covered[hit] = True
        anchors.append(tuple(np.unravel_index(flat_idx, source_sizes)))
        anchor_rows.append(row)

    while (int(np.count_nonzero(~covered)) > budget
           and len(anchors) < max_anchors):
        open_idx = np.flatnonzero(~covered)
        place(int(open_idx[rng.integers(open_idx.size)]))
    uncovered = int(np.count_nonzero(~covered))
    if uncovered > budget + 1e-9:
        raise CoverageError(uncovered, budget, len(anchors))
    anchor_rows = np.array(anchor_rows, dtype=np.uint64).reshape(
        len(anchors), -1)
    reference_verify(labels, anchor_rows, rows, threshold, seed)
    return labels.reshape(source_sizes), tuple(anchors), anchor_rows, uncovered


def reference_verify(flat, anchor_rows, rows, threshold, seed):
    """The per-class verifier: one scan per class, 2048 sampled members
    of classes over 4096."""
    for i in range(1, len(anchor_rows) + 1):
        members = np.flatnonzero(flat == i)
        if members.size == 0:
            continue
        if members.size > 4096:
            pick = generator(seed, f"tuple-verify/{i}").choice(
                members.size, size=2048, replace=False)
            members = members[pick]
        dist = np.bitwise_count(rows[members] ^ anchor_rows[i - 1]).sum(
            axis=-1, dtype=np.int64)
        assert int(dist.max()) <= threshold + 1e-9


def reference_venn_inputs(h, tp):
    """Neighborhood of each non-empty class's lexicographically least
    member, one ``argwhere`` per class."""
    dense = np.transpose(h.to_dense(), tp.source_parts + (tp.target_part,))
    sets = []
    for i in range(1, tp.n_classes + 1):
        members = np.argwhere(tp.labels == i)
        if members.size == 0:
            continue
        sets.append(dense[tuple(int(v) for v in members[0])])
    return sets


def assert_matches_reference(h, tp, eps, seed):
    labels, anchors, anchor_rows, uncovered = reference_tuple_partition(
        h, eps, seed, tp.target_part)
    assert tp.labels.dtype == labels.dtype
    assert tp.labels.tobytes() == labels.tobytes()
    assert tp.labels.shape == labels.shape
    assert tp.anchors == anchors
    assert tp.anchor_rows.shape == anchor_rows.shape
    assert tp.anchor_rows.tobytes() == anchor_rows.tobytes()
    assert tp.uncovered == uncovered


def venn_inputs_of(monkeypatch, h, *args, **kwargs):
    """Run ``homogeneous_partition`` and capture each part's Venn inputs."""
    seen = {}
    real = homogenizer.common_refinement

    def spy(n, sets, part=None):
        seen[part] = [np.asarray(s, dtype=bool) for s in sets]
        return real(n, sets, part=part)

    monkeypatch.setattr(homogenizer, "common_refinement", spy)
    lp, rep = homogeneous_partition(h, *args, **kwargs)
    return lp, rep, [seen[i] for i in range(h.k)]


def assert_same_sets(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


class TestReferenceScans:
    @pytest.mark.parametrize("family,seed", [
        ("interval-threshold", 1), ("planted-boxes", 2), ("uniform-random", 3),
    ])
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_practical_tuple_partition(self, family, seed, target):
        spec = InstanceSpec(k=3, n=(14, 12, 16), family=family, r=3,
                            eps_prime=0.0, seed=seed)
        h = generate(spec).h
        tp = tuple_partition(h, 0.3, seed, target_part=target)
        assert_matches_reference(h, tp, 0.3, seed)

    @pytest.mark.parametrize("family", [
        "interval-threshold", "planted-boxes", "uniform-random",
    ])
    @pytest.mark.parametrize("target", [0, 1])
    def test_k2_tuple_partition(self, family, target):
        # at k = 2 a pass's tuples are the 9 or 11 vertices of the one
        # source part
        spec = InstanceSpec(k=2, n=(9, 11), family=family, r=2,
                            eps_prime=0.0, seed=4)
        h = generate(spec).h
        tp = tuple_partition(h, 0.45, 5, target_part=target)
        assert tp.labels.shape == (spec.n[1 - target],)
        assert_matches_reference(h, tp, 0.45, 5)

    def test_coverage_error_matches_reference(self):
        spec = InstanceSpec(k=3, n=(12, 12, 12), family="uniform-random",
                            r=2, eps_prime=0.0, seed=3)
        h = generate(spec).h
        for target in range(3):
            with pytest.raises(CoverageError) as got:
                tuple_partition(h, 0.2, 3, target_part=target,
                                max_anchors=32)
            with pytest.raises(CoverageError) as want:
                reference_tuple_partition(h, 0.2, 3, target, 32)
            assert ((got.value.uncovered, got.value.budget,
                     got.value.n_anchors)
                    == (want.value.uncovered, want.value.budget,
                        want.value.n_anchors))

    @pytest.mark.parametrize("family,seed", [
        ("interval-threshold", 1), ("planted-boxes", 2), ("uniform-random", 3),
    ])
    def test_practical_venn_inputs(self, monkeypatch, family, seed):
        spec = InstanceSpec(k=3, n=(10, 9, 11), family=family, r=3,
                            eps_prime=0.0, seed=seed)
        inst = generate(spec)
        lp, rep, venn = venn_inputs_of(monkeypatch, inst.h, inst.oracle,
                                       0.45, seed)
        for target, tp in enumerate(rep.passes):
            assert_matches_reference(
                inst.h, tp, rep.inner_eps,
                homogenizer.derive_pass_seed(seed, target))
            assert_same_sets(venn[target], reference_venn_inputs(inst.h, tp))

    @pytest.mark.parametrize("family", [
        "interval-threshold", "planted-boxes", "uniform-random",
    ])
    def test_k2_venn_inputs(self, monkeypatch, family):
        spec = InstanceSpec(k=2, n=(9, 11), family=family, r=2,
                            eps_prime=0.0, seed=4)
        inst = generate(spec)
        lp, rep, venn = venn_inputs_of(monkeypatch, inst.h, inst.oracle,
                                       0.2, 6)
        assert len(rep.passes) == 2
        for target, tp in enumerate(rep.passes):
            assert_matches_reference(
                inst.h, tp, rep.inner_eps,
                homogenizer.derive_pass_seed(6, target))
            assert_same_sets(venn[target], reference_venn_inputs(inst.h, tp))

    @pytest.mark.parametrize("family,seed", [
        ("interval-threshold", 1), ("planted-boxes", 2), ("uniform-random", 3),
    ])
    def test_loose_classes_venn_inputs(self, monkeypatch, family, seed):
        # the pipeline's own tolerance eps^2/(8k) makes every class an
        # exact-twin class at test sizes, where any member would do; at
        # eps 0.3 some tuples stay uncovered and, outside the planted
        # boxes, classes hold distinct neighborhoods, so the choice of
        # member shows
        spec = InstanceSpec(k=3, n=(14, 12, 16), family=family, r=3,
                            eps_prime=0.0, seed=seed)
        inst = generate(spec)
        loose = 0.3
        real = homogenizer.tuple_partition

        def loose_pass(h, eps, seed, **kwargs):
            return real(h, loose, seed, **kwargs)

        monkeypatch.setattr(homogenizer, "tuple_partition", loose_pass)
        lp, rep, venn = venn_inputs_of(monkeypatch, inst.h, inst.oracle,
                                       0.2, seed)
        assert any(tp.uncovered for tp in rep.passes)
        mixed = 0
        for target, tp in enumerate(rep.passes):
            assert_matches_reference(
                inst.h, tp, loose, homogenizer.derive_pass_seed(seed, target))
            assert_same_sets(venn[target], reference_venn_inputs(inst.h, tp))
            rows = np.moveaxis(inst.h.to_dense(), target, -1)
            mixed += sum(np.unique(rows[tp.labels == i], axis=0).shape[0] > 1
                         for i in range(1, tp.n_classes + 1))
        assert mixed or family == "planted-boxes"


# --- tuple classes from deduplicated rows --------------------------------
#
# ``tuple_partition`` builds each target's rows from the packed words and
# compares an anchor with the distinct rows only. These cases span few
# and all-distinct rows, rows of two words at k = 2 and a middle
# target, each against the covered-mask reference.


def reference_rows(h, target):
    sources = tuple(p for p in range(h.k) if p != target)
    return KPartiteHypergraph.from_dense(
        np.transpose(h.to_dense(), sources + (target,))).fiber_rows()


class TestDistinctRows:
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_few_distinct_rows(self, target):
        spec = InstanceSpec(k=3, n=(9, 70, 66), family="planted-boxes", r=3,
                            eps_prime=0.0, seed=8)
        h = generate(spec).h
        rows = reference_rows(h, target)
        assert np.unique(rows, axis=0).shape[0] <= 2 ** 3
        tp = tuple_partition(h, 0.3, 8, target_part=target)
        assert_matches_reference(h, tp, 0.3, 8)

    @pytest.mark.parametrize("target", [0, 2])
    def test_every_row_distinct(self, target):
        spec = InstanceSpec(k=3, n=(70, 6, 70), family="uniform-random", r=2,
                            eps_prime=0.0, seed=9)
        h = generate(spec).h
        rows = reference_rows(h, target)
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
        tp = tuple_partition(h, 0.3, 9, target_part=target)
        assert tp.n_classes > 100
        assert_matches_reference(h, tp, 0.3, 9)

    @pytest.mark.parametrize("family", ["planted-boxes", "uniform-random"])
    @pytest.mark.parametrize("target", [0, 1])
    def test_two_word_rows_at_k2(self, family, target):
        spec = InstanceSpec(k=2, n=(70, 9), family=family, r=2,
                            eps_prime=0.0, seed=10)
        h = generate(spec).h
        tp = tuple_partition(h, 0.45, 11, target_part=target)
        assert tp.anchor_rows.shape[1] == (2 if target == 0 else 1)
        assert_matches_reference(h, tp, 0.45, 11)

    @pytest.mark.parametrize("family", ["planted-boxes", "interval-threshold"])
    @pytest.mark.parametrize("target", [1, 2])
    def test_middle_target_at_k4(self, family, target):
        spec = InstanceSpec(k=4, n=(5, 6, 7, 66), family=family, r=2,
                            eps_prime=0.0, seed=12)
        h = generate(spec).h
        tp = tuple_partition(h, 0.3, 12, target_part=target)
        assert tp.source_parts == tuple(p for p in range(4) if p != target)
        assert_matches_reference(h, tp, 0.3, 12)

    def test_verifier_raises_on_a_tuple_off_its_anchor(self):
        spec = InstanceSpec(k=3, n=(8, 9, 70), family="uniform-random", r=2,
                            eps_prime=0.0, seed=13)
        h = generate(spec).h
        tp = tuple_partition(h, 0.3, 13)
        rows = h.fiber_rows()
        homogenizer._verify_tuple_partition(tp, rows)
        dist = np.bitwise_count(rows ^ tp.anchor_rows[0]).sum(axis=-1)
        far = int(np.argmax(dist))
        assert dist[far] > tp.threshold
        labels = tp.labels.copy()
        tup = np.unravel_index(far, labels.shape)
        labels[tup] = 1
        corrupt = dataclasses.replace(tp, labels=labels)
        with pytest.raises(AssertionError,
                           match=re.escape(str(tuple(int(v) for v in tup)))):
            homogenizer._verify_tuple_partition(corrupt, rows)

    def test_verifier_runs_under_optimize(self):
        # the postconditions are explicit raises, so ``python -O``, which
        # strips assert statements, keeps them
        code = (
            "import dataclasses, numpy as np\n"
            "from homopart import InstanceSpec, generate, homogenizer\n"
            "h = generate(InstanceSpec(k=3, n=(8, 9, 70), family='uniform-random',"
            " r=2, eps_prime=0.0, seed=13)).h\n"
            "tp = homogenizer.tuple_partition(h, 0.3, 13)\n"
            "rows = h.fiber_rows()\n"
            "far = int(np.argmax(np.bitwise_count(rows ^ tp.anchor_rows[0]).sum(axis=-1)))\n"
            "labels = tp.labels.copy()\n"
            "labels.reshape(-1)[far] = 1\n"
            "try:\n"
            "    homogenizer._verify_tuple_partition("
            "dataclasses.replace(tp, labels=labels), rows)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(homogenizer.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "raised"
