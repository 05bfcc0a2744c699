"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single summary line (visible with -s, or in the
captured output when a test fails) and re-derives its expected
quantities from scratch inside this file: exhaustive neighborhood
scans, brute-force shattering, direct recomputation of densities.
Nothing here trusts a library-reported flag when the underlying
property can be checked directly.

Criterion 5 asks for M = 2000 sign partitions over m = 30 indices.
Fair coins cannot get there: one pair breaks the 3m/4 agreement cap
with probability P(Bin(30, 1/2) >= 23) ~ 2.6e-3, about 5e3 expected
violations per attempt. ``orthogonal_family`` then draws the elements'
sides from a shortened second-order Reed-Muller code, whose distance
meets the cap by construction. The companion test runs the same
checks at m = 150, where fair coins are accepted.
"""

import hashlib
import platform
import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from homopart import (
    InstanceSpec,
    KPartiteHypergraph,
    LayeredPartition,
    PartPartition,
    beta_refines,
    build_sequence,
    build_weighted,
    disagreement_pairs,
    disagreement_threshold,
    generate,
    homogeneity_audit,
    homogeneous_partition,
    item2_margin,
    link_certificate,
    orthogonal_family,
    refinement_cascade,
    sample_unweighted,
    similarity_partition,
    tuple_partition,
    vc_dimension,
    verify_certificate,
    verify_witness,
)
from homopart.errors import FamilyRejectionError
from homopart.rng import generator
from test_gowers import _agreement_counts

N_SIM = 120
SIM_COMBOS = [
    (0.1, 1), (0.1, 2), (0.1, 4),
    (0.2, 1), (0.2, 2), (0.2, 3), (0.2, 4),
    (0.3, 1), (0.3, 2), (0.3, 3), (0.3, 4),
]  # (0.1, 3) admits no integer block size at n=120


def report(number, slug, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" {detail}" if detail else ""
    print(f"criterion {number} ({slug}): {verdict} t={elapsed:.1f}s{tail}")


def pairwise_symdiff_max(rows: np.ndarray) -> int:
    """Largest pairwise Hamming distance, by BLAS on the 0/1 matrix."""
    if rows.shape[0] < 2:
        return 0
    a = rows.astype(np.float64)
    same = a @ a.T + (1.0 - a) @ (1.0 - a).T
    d = rows.shape[1] - np.rint(same).astype(np.int64)
    np.fill_diagonal(d, 0)
    return int(d.max())


def test_criterion_01_similarity_contract():
    t0 = time.perf_counter()
    violations = []
    for case in range(50):
        gamma, r = SIM_COMBOS[case % len(SIM_COMBOS)]
        inst = generate(InstanceSpec(
            k=2, n=(N_SIM, N_SIM), family="planted-boxes", r=r,
            eps_prime=0.0, seed=case,
        ))
        g = inst.h
        res = similarity_partition(
            g, inst.side_partitions[0], inst.side_partitions[1], gamma, r,
        )
        sizes = res.partition.sizes()
        if not (sizes[1:] == res.m).all() or len(sizes) != res.q + 1:
            violations.append((case, "unequal blocks", list(sizes)))
        if res.partition.exceptional_size() > gamma * N_SIM + 1e-9:
            violations.append((case, "exceptional too large",
                               res.partition.exceptional_size()))
        dense = g.to_dense()
        for b in range(1, res.partition.n_blocks):
            members = res.partition.block_indices(b)
            worst = pairwise_symdiff_max(dense[members])
            if worst > gamma * N_SIM + 1e-9:
                violations.append((case, f"block {b} symdiff {worst}", gamma))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 5.0
    report(1, "similarity-contract", ok, elapsed,
           f"violations={len(violations)}")
    assert violations == []
    assert elapsed < 5.0


def test_criterion_02_tuple_classes():
    t0 = time.perf_counter()
    n = 60
    violations = []
    for family in ("product", "planted-boxes"):
        for seed in range(10):
            inst = generate(InstanceSpec(
                k=3, n=(n, n, n), family=family, r=3, eps_prime=0.0,
                seed=seed,
            ))
            tp = tuple_partition(inst.h, 0.2, seed=seed)
            if tp.exceptional_count() > 0.2 * n * n:
                violations.append((family, seed, "uncovered",
                                   tp.exceptional_count()))
            rows = inst.h.to_dense().reshape(n * n, n)
            labels = tp.labels.ravel()
            for c in range(1, tp.n_classes + 1):
                worst = pairwise_symdiff_max(rows[labels == c])
                if worst > 0.2 * n + 1e-9:
                    violations.append((family, seed, f"class {c}", worst))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    report(2, "tuple-classes", ok, elapsed, f"violations={len(violations)}")
    assert violations == []
    assert elapsed < 30.0


def test_criterion_03_pipeline_end_to_end():
    t0 = time.perf_counter()
    violations = []
    for i in range(20):
        n = 60 if i < 10 else 120
        r = 1 + i % 3
        inst = generate(InstanceSpec(
            k=3, n=(n, n, n), family="planted-boxes", r=r, eps_prime=0.1,
            seed=i,
        ))
        partition, rep = homogeneous_partition(inst.h, inst.oracle, 0.2, i)
        audit = homogeneity_audit(inst.h, partition, 0.2)
        if not audit.passed or audit.normalized_mass > 0.2 + 1e-12:
            violations.append((i, "audit", audit.normalized_mass))
        s = 8 * 3 * rep.p / 0.2**2
        for p in partition:
            if p.n_blocks > s:
                violations.append((i, "block count", p.n_blocks, s))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    report(3, "pipeline-end-to-end", ok, elapsed,
           f"violations={len(violations)}")
    assert violations == []
    assert elapsed < 300.0


def test_criterion_04_disagreement_bound():
    t0 = time.perf_counter()
    counterexamples = []
    audited_failures = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = KPartiteHypergraph.from_dense(rng.random((n, n, n)) < 0.5)
        partition = LayeredPartition([
            PartPartition(rng.integers(0, 2, n), part=i, n_blocks=2)
            for i in range(3)
        ])
        total = sum(disagreement_pairs(h, partition))
        for eps in (0.2, 0.25):
            audit = homogeneity_audit(h, partition, eps)
            if not audit.passed:
                audited_failures += 1
                bound = disagreement_threshold(eps, n, 3, 2)
                if total < bound:
                    counterexamples.append((seed, eps, total, bound))
    elapsed = time.perf_counter() - t0
    ok = not counterexamples and elapsed < 60.0
    report(4, "disagreement-bound", ok, elapsed,
           f"failed_audits={audited_failures} counterexamples="
           f"{len(counterexamples)}")
    assert audited_failures > 0  # the sample must actually exercise the bound
    assert counterexamples == []
    assert elapsed < 60.0


def brute_family_checks(fam):
    """Recompute pairwise sign agreements and the acceptance event."""
    side = fam.x_side.astype(np.float64)
    agree = side.T @ side + (1.0 - side).T @ (1.0 - side)
    agree = np.rint(agree).astype(np.int64)
    assert np.array_equal(agree, _agreement_counts(fam.x_side))
    off = ~np.eye(fam.M, dtype=bool)
    return int(agree[off].max()) <= 0.75 * fam.m


def admissible_weights(fam, count, seed):
    rng = generator(seed, "acceptance/margins")
    return [rng.dirichlet(np.ones(fam.M)) for _ in range(count)]


def test_criterion_05_orthogonal_family_statistics():
    t0 = time.perf_counter()
    m, M, cap = 30, 2000, 5
    attempts = []
    accepted = []
    for seed in range(100):
        try:
            fam = orthogonal_family(m, M, seed=seed, max_attempts=cap)
            attempts.append(fam.attempts)
            accepted.append(fam)
        except FamilyRejectionError as err:
            attempts.append(err.attempts)
    event_ok = all(brute_family_checks(fam) for fam in accepted)
    item1_ok = all(fam.item1_checked for fam in accepted)
    margins_ok = True
    for fam in accepted:
        for lam in admissible_weights(fam, 50, seed=0):
            rep = item2_margin(fam, lam, 0.02, 0.2, 0.05)
            margins_ok = (margins_ok and rep.hypothesis_ok
                          and rep.count >= 0.05 * fam.m)
    med = statistics.median(attempts)
    elapsed = time.perf_counter() - t0
    ok = (event_ok and item1_ok and margins_ok and med <= 4
          and len(accepted) >= 1 and elapsed < 60.0)
    report(5, "orthogonal-family-statistics", ok, elapsed,
           f"accepted={len(accepted)}/100 median_attempts={med} "
           f"(attempt cap {cap})")
    assert event_ok and item1_ok and margins_ok
    assert elapsed < 60.0
    # every word pair of the code meets the agreement cap, so an attempt
    # fails only on the item-1 bands
    assert len(accepted) >= 1
    assert med <= 4


def test_criterion_05_companion_gated_families():
    t0 = time.perf_counter()
    m, M = 150, 2000
    attempts = []
    families = []
    for seed in range(20):
        fam = orthogonal_family(m, M, seed=seed, max_attempts=8)
        attempts.append(fam.attempts)
        families.append(fam)
    assert all(fam.item1_checked for fam in families)
    assert all(brute_family_checks(fam) for fam in families)
    med = statistics.median(attempts)
    assert med <= 4
    margins = 0
    for fam in families[:3]:
        for lam in admissible_weights(fam, 50, seed=0):
            rep = item2_margin(fam, lam, 0.02, 0.2, 0.05)
            assert rep.hypothesis_ok
            assert rep.count >= 0.05 * fam.m
            margins += 1
    elapsed = time.perf_counter() - t0
    report(5, "companion-gated-families", True, elapsed,
           f"accepted=20/20 median_attempts={med} margins={margins}")
    assert elapsed < 60.0


def toy_build_120():
    params = build_sequence(1e-6, 0.5, mode="toy", t=3, growth=2, s0=4, seed=1)
    return build_weighted(params, 120)


def test_criterion_06_tower_build_and_certificates():
    t0 = time.perf_counter()
    build = toy_build_120()
    lay = build.layering

    for r in range(1, lay.t + 1):
        slab = build.weighted.weights[:, :, lay.layer_indices(r)]
        values = np.unique(slab)
        assert set(values).issubset({0.0, 2.0 ** -r})

    for levels in (lay.a_levels, lay.b_levels):
        for r in range(1, lay.t + 1):
            chain = beta_refines(levels[r], levels[r - 1], 0.0)
            assert chain.refines

    exact_checked = quasirandom_checked = exceptions = 0
    for part in range(3):
        for v in range(120):
            cert = link_certificate(build, part, v)
            if cert.kind == "quasirandom":
                check = verify_certificate(build, cert, draws=10_000, seed=0)
                quasirandom_checked += 1
                if check.witness is not None or not check.ok:
                    exceptions += 1
            else:
                check = verify_certificate(build, cert)
                exact_checked += 1
                if not (check.exact and check.ok and check.worst is None):
                    exceptions += 1
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and elapsed < 120.0
    report(6, "tower-build-and-certificates", ok, elapsed,
           f"exact={exact_checked} quasirandom={quasirandom_checked} "
           f"exceptions={exceptions}")
    assert exact_checked + quasirandom_checked == 360
    assert quasirandom_checked > 0
    assert exceptions == 0
    assert elapsed < 120.0


def test_criterion_07_cascade_witnesses():
    t0 = time.perf_counter()
    params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4,
                            seed=11)
    build = build_weighted(params, 8)
    candidate = LayeredPartition([
        PartPartition.trivial(8, part=i) for i in range(3)
    ])
    cascade = refinement_cascade(build, candidate)
    witnesses = [w for level in cascade.levels for w in level.witnesses]
    assert witnesses, "trivial candidate must yield at least one witness"
    strong = 0
    for w in witnesses:
        complete = verify_witness(build.weighted, w.complete)
        empty = verify_witness(build.weighted, w.empty)
        # bit-for-bit: the stored densities are the recomputed ones
        assert complete == w.complete.sub_density
        assert empty == w.empty.sub_density
        assert w.gap == complete - empty
        if w.gap >= 2.0 ** -params.t:
            strong += 1
    elapsed = time.perf_counter() - t0
    ok = strong >= 1 and elapsed < 60.0
    report(7, "cascade-witnesses", ok, elapsed,
           f"witnesses={len(witnesses)} strong={strong}")
    assert strong >= 1
    assert elapsed < 60.0


def test_criterion_08_sampling_concentration():
    t0 = time.perf_counter()
    build = toy_build_120()
    worst = 100
    for seed in range(10):
        result = sample_unweighted(build.weighted, seed)
        assert result.report.full.within
        worst = min(worst, result.report.n_within)
        assert result.report.n_within >= 97
    elapsed = time.perf_counter() - t0
    ok = worst >= 97 and elapsed < 60.0
    report(8, "sampling-concentration", ok, elapsed,
           f"worst_boxes_within={worst}/100")
    assert elapsed < 60.0


def brute_vc(adj) -> int:
    """Independent shattering check over all column subsets."""
    adj = np.asarray(adj, dtype=bool)
    n_right = adj.shape[1]
    masks = {int(sum(1 << j for j in range(n_right) if row[j]))
             for row in adj}
    best = 0
    for d in range(1, n_right + 1):
        found = False
        for cols in combinations(range(n_right), d):
            s_mask = sum(1 << j for j in cols)
            patterns = {mask & s_mask for mask in masks}
            if len(patterns) == 1 << d:
                found = True
                break
        if found:
            best = d
        else:
            break
    return best


def test_criterion_09_vc_oracles():
    t0 = time.perf_counter()
    disagreements = []

    for n in (3, 4, 5):
        assert vc_dimension(np.ones((n, n), dtype=bool)).dim == 0
        assert vc_dimension(np.zeros((n, n), dtype=bool)).dim == 0
        assert vc_dimension(np.eye(n, dtype=bool)).dim == 1
        half = np.tril(np.ones((n, n), dtype=bool))
        assert vc_dimension(half).dim == 1

    rng = np.random.default_rng(90)
    for _ in range(1000):
        a = int(rng.integers(1, 6))
        b = int(rng.integers(1, 6))
        adj = rng.random((a, b)) < 0.5
        got = vc_dimension(adj).dim
        expect = brute_vc(adj)
        if got != expect:
            disagreements.append((adj.tolist(), got, expect))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 120.0
    report(9, "vc-oracles", ok, elapsed,
           f"disagreements={len(disagreements)}")
    assert disagreements == []
    assert elapsed < 120.0


def determinism_blob() -> bytes:
    """Rerun the artifact-producing computations of the other criteria
    and serialize every result.

    Large outputs (weight tensors, sampled graphs) enter as their raw
    bytes rather than files, and the two slowest rosters are cut to a
    representative subset (pipeline runs at n=60; ten rejection seeds),
    keeping three full repetitions affordable. Everything else reruns
    at full size with the same seeds as the criteria above.
    """
    chunks = []

    for case in range(50):
        gamma, r = SIM_COMBOS[case % len(SIM_COMBOS)]
        inst = generate(InstanceSpec(
            k=2, n=(N_SIM, N_SIM), family="planted-boxes", r=r,
            eps_prime=0.0, seed=case,
        ))
        res = similarity_partition(
            inst.h, inst.side_partitions[0],
            inst.side_partitions[1], gamma, r,
        )
        chunks.append(res.partition.labels.tobytes())
        chunks.append(repr((res.q, res.m, res.bad_blocks,
                            res.max_intra_symdiff)).encode())

    for family in ("product", "planted-boxes"):
        for seed in range(10):
            inst = generate(InstanceSpec(
                k=3, n=(60, 60, 60), family=family, r=3, eps_prime=0.0,
                seed=seed,
            ))
            tp = tuple_partition(inst.h, 0.2, seed=seed)
            chunks.append(tp.labels.tobytes())
            chunks.append(repr((tp.anchors, tp.uncovered)).encode())

    for i in range(10):
        inst = generate(InstanceSpec(
            k=3, n=(60, 60, 60), family="planted-boxes", r=1 + i % 3,
            eps_prime=0.1, seed=i,
        ))
        partition, _ = homogeneous_partition(inst.h, inst.oracle, 0.2, i)
        audit = homogeneity_audit(inst.h, partition, 0.2)
        for p in partition:
            chunks.append(p.labels.tobytes())
        chunks.append(repr((audit.passed, audit.mass,
                            audit.normalized_mass)).encode())

    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = KPartiteHypergraph.from_dense(rng.random((n, n, n)) < 0.5)
        partition = LayeredPartition([
            PartPartition(rng.integers(0, 2, n), part=i, n_blocks=2)
            for i in range(3)
        ])
        chunks.append(repr(disagreement_pairs(h, partition)).encode())

    for seed in range(10):
        try:
            fam = orthogonal_family(30, 2000, seed=seed, max_attempts=5)
            chunks.append(fam.x_side.tobytes())
        except FamilyRejectionError as err:
            chunks.append(repr(sorted(err.stats.items())).encode())

    build = toy_build_120()
    chunks.append(build.weighted.weights.tobytes())
    for part in range(3):
        for v in range(120):
            cert = link_certificate(build, part, v)
            check = verify_certificate(build, cert, seed=0)
            chunks.append(repr((part, v, cert.kind, cert.level,
                                check.ok)).encode())
            for p in cert.partitions:
                chunks.append(p.labels.tobytes())

    params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4,
                            seed=11)
    small = build_weighted(params, 8)
    candidate = LayeredPartition([
        PartPartition.trivial(8, part=i) for i in range(3)
    ])
    cascade = refinement_cascade(small, candidate)
    for level in cascade.levels:
        for w in level.witnesses:
            chunks.append(repr((w.level, w.side, w.s, w.u, w.ell, w.gap,
                                w.complete.subsets, w.empty.subsets)).encode())

    for seed in range(10):
        result = sample_unweighted(build.weighted, seed)
        chunks.append(result.graph.words.tobytes())
        chunks.append(repr((result.report.n_within,
                            result.report.full.observed)).encode())

    return b"\x00".join(chunks)


# SHA-256 of determinism_blob(), reproduced on numpy 2.4.6 and Python
# 3.11.7. A numpy whose random streams differ gives other bytes.
DETERMINISM_SHA256 = (
    "e567cc7d8484fbe9220bed052eb58302db9283453b0370cc8dc72421ad36add5")


def test_criterion_10_rerun_determinism():
    t0 = time.perf_counter()
    blobs = [determinism_blob() for _ in range(3)]
    elapsed = time.perf_counter() - t0
    identical = blobs[0] == blobs[1] == blobs[2]
    report(10, "rerun-determinism", identical, elapsed,
           f"blob_bytes={len(blobs[0])}")
    assert identical
    assert hashlib.sha256(blobs[0]).hexdigest() == DETERMINISM_SHA256, (
        "determinism_blob() changed; its digest was reproduced on numpy "
        f"2.4.6 and Python 3.11.7, this is numpy {np.__version__} and "
        f"Python {platform.python_version()}")
