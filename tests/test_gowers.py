"""Tests for the tower-type construction module.

Oracles here rebuild the structures from their verbal descriptions:
the level graph from the two-complete-boxes picture (not the side
agreement formula the implementation uses), agreement counts from
per-pair loops, the quasirandomness conditions from a powerset
sweep, and the sampler's box report from a gather of each box's
cells. Expected values frozen below were computed from those oracles
or by hand from the defining arithmetic.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    BipartiteGraph,
    KPartiteHypergraph,
    LayeredPartition,
    PartPartition,
    WeightedTripartite,
    bipartite_regularity_witness,
    build_sequence,
    build_weighted,
    coupling_threshold,
    growth_function,
    item2_margin,
    layer_count,
    level_graph,
    link_certificate,
    orthogonal_family,
    quasirandomness_audit,
    refinement_cascade,
    sample_unweighted,
    verify_certificate,
    verify_witness,
    weak_regularity_witness,
)
from homopart.errors import (
    DivisibilityError,
    FamilyRejectionError,
    InfeasibleParamsError,
)
from homopart.gowers import (
    BoxCheck,
    GowersParams,
    IntervalLayering,
    _agreement_excess,
    _item1_violations,
)
from homopart import gowers
from homopart import io as hio
from homopart.partitions import block_sums
from homopart.rng import generator


def brute_box_graph(n, family):
    """Level adjacency assembled box by box from the description."""
    m, M = family.m, family.M
    wc, wf = n // m, n // (m * M)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(m):
        for j in range(m):
            x_cols = set(np.flatnonzero(family.x_side[i]).tolist())
            x_rows = set(np.flatnonzero(family.x_side[j]).tolist())
            for k in range(M):
                for kp in range(M):
                    same_x = k in x_rows and kp in x_cols
                    same_y = k not in x_rows and kp not in x_cols
                    if not (same_x or same_y):
                        continue
                    rows = range(i * wc + k * wf, i * wc + (k + 1) * wf)
                    cols = range(j * wc + kp * wf, j * wc + (kp + 1) * wf)
                    for a in rows:
                        for b in cols:
                            adj[a, b] = True
    return adj


def brute_weights(layering):
    n, t = layering.n, layering.t
    w = np.zeros((n, n, n))
    width = n // t
    for r in range(1, t + 1):
        adj = brute_box_graph(n, layering.families[r - 1])
        for c in range((r - 1) * width, r * width):
            w[:, :, c] = np.where(adj, 2.0 ** -r, 0.0)
    return w


def _agreement_counts(side):
    """M x M table of the partitions on which two elements agree.

    One +-1 float matmul so BLAS carries the M x M product: S.T @ S is
    agreements minus disagreements, so (m + S.T @ S) / 2 counts the
    agreements, and every term is a small exact integer.
    """
    s = 2.0 * side - 1.0
    z = (side.shape[0] + s.T @ s) / 2.0
    return np.rint(z).astype(np.int64)


def first_failure(rep):
    """The first cascade level that does not refine, or None."""
    return next((lv for lv in rep.levels if lv.refines is False), None)


def brute_agreement(x_side, j, jp):
    return sum(1 for row in x_side if bool(row[j]) == bool(row[jp]))


def three_matmul_item1(side):
    """Band violations with one matmul per pair of sides (X/X, X/Y, Y/Y)."""
    m, M = side.shape
    band = M ** (2.0 / 3.0)
    s = side.astype(np.float64)
    sizes = s.sum(axis=1)
    bad = int((np.abs(sizes - M / 2.0) > band).sum())
    bad += int((np.abs((M - sizes) - M / 2.0) > band).sum())
    off = ~np.eye(m, dtype=bool)
    for left, right in ((s, s), (s, 1.0 - s), (1.0 - s, 1.0 - s)):
        bad += int((np.abs(left @ right.T - M / 4.0)[off] > band).sum())
    return bad


def reference_box_check(weights, sampled, idx):
    """One box's report from a gather of its cells."""
    sub_w = weights[np.ix_(*idx)]
    sub_s = sampled[np.ix_(*idx)]
    cells = sub_w.size
    expected = float(sub_w.mean())
    observed = float(sub_s.mean())
    sigma = float(np.sqrt((sub_w * (1.0 - sub_w)).sum()) / cells)
    within = abs(observed - expected) <= 3.0 * sigma + 1e-12
    return BoxCheck(expected=expected, observed=observed, sigma=sigma, within=within)


def reference_sample(weights, seed, boxes, box_fraction):
    """(sampled cells, full-box check, sub-box checks), box by box."""
    sampled = generator(seed, "sample/cells").random(weights.shape) < weights
    full = reference_box_check(
        weights, sampled, tuple(np.arange(s) for s in weights.shape))
    rng = generator(seed, "sample/boxes")
    checks = []
    for _ in range(boxes):
        idx = tuple(
            np.sort(rng.choice(s, size=max(1, math.ceil(box_fraction * s)),
                               replace=False))
            for s in weights.shape
        )
        checks.append(reference_box_check(weights, sampled, idx))
    return sampled, full, tuple(checks)


def dense_certificate_check(weights, cert):
    """(ok, worst) of an exact certificate from the dense link slice:
    every cell against its block pair's mean from ``block_sums``."""
    link = np.take(weights, cert.vertex, axis=cert.part)
    left, right = cert.partitions
    sums = block_sums(link, (left, right))
    volumes = np.multiply.outer(left.sizes(), right.sizes())
    means = sums / np.maximum(volumes, 1)
    off = link != means[np.ix_(left.labels, right.labels)]
    if not off.any():
        return True, None
    a, b = np.argwhere(block_sums(off, (left, right)) > 0)[0]
    box = link[np.ix_(left.block_indices(a), right.block_indices(b))]
    return False, ((int(a), int(b)), float(box.min()), float(box.max()))


def tampered_partitions(cert, n, rng):
    """Random, refined, merged and layer-mixing variants of a
    certificate's (left, right) pair."""
    left, right = (np.asarray(p.labels) for p in cert.partitions)
    shift = int(rng.integers(1, n))
    k = int(rng.integers(1, 6))
    pairs = [
        (rng.integers(0, k, n), rng.integers(0, int(rng.integers(1, 6)), n)),
        # singleton rows against pairs of columns: a pair short of one
        # cell must fail
        (np.arange(n), rng.integers(0, n // 2, n)),
        (left * 2 + rng.integers(0, 2, n), right * 2 + rng.integers(0, 2, n)),
        (np.minimum(left, max(left.max() - 1, 0)), right),
        (left, np.minimum(right, max(right.max() - 1, 0))),
        # intervals shifted off the layer (or level) boundaries, so
        # blocks straddle two layers
        (left, (np.arange(n) + shift) % n // max(1, n // k)),
        (left, np.where(right == right.max(), 0, right)),
    ]
    return [LayeredPartition([PartPartition(a), PartPartition(b)])
            for a, b in pairs]


def same_witness(a, b):
    if a is None or b is None:
        return a is b
    return (all(np.array_equal(x, y) for x, y in zip(a.subsets, b.subsets))
            and (a.sub_density, a.base_density, a.deviation, a.exact)
            == (b.sub_density, b.base_density, b.deviation, b.exact))


def brute_quasirandom(adj, delta):
    """(cond1, violations, cond2, worst margin) by full enumeration."""
    adj = adj.astype(np.float64)
    n = adj.shape[0]
    d = adj.mean()
    degs = adj.sum(axis=0)
    violations = int(sum(1 for x in range(n) if abs(degs[x] - d * n) > delta ** 4 * n + 1e-9))
    cond1 = violations <= delta ** 4 * n / 8.0 + 1e-9
    codeg = adj.T @ adj
    min_size = max(1, math.ceil(delta * n - 1e-9))
    cond2, worst = True, -math.inf
    for size in range(min_size, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = sum(codeg[x, y] - d * d * n for x in combo for y in combo)
            margin = s - (delta ** 3 / 2.0) * n * size * size
            worst = max(worst, margin)
            if margin >= 0.0:
                cond2 = False
    return cond1, violations, cond2, worst


@pytest.fixture(scope="module")
def toy_build():
    params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4, seed=11)
    return build_weighted(params, 8)


@pytest.fixture(scope="module")
def shallow_threshold_build():
    # s0 = 2 makes the top level cross the threshold, so its layer
    # vertices get quasirandom certificates
    params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=2, seed=7)
    return build_weighted(params, 8)


@pytest.fixture(scope="module")
def sampled_search_build():
    # the quasirandom level graph is 48 x 48, past the exact subset
    # search, so the witness search draws random subsets
    params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4, seed=1)
    return build_weighted(params, 48)


@pytest.fixture(scope="module")
def wide_family():
    return orthogonal_family(120, 1000, seed=3)


class TestSequence:
    def test_threshold_and_growth_values(self):
        assert coupling_threshold(0.5) == 64
        assert growth_function(1) == 2
        assert growth_function(2) == 2
        assert growth_function(16) == 2
        assert growth_function(32) == 7

    def test_layer_count_values(self):
        assert layer_count(7.0 ** -20) == 2
        assert layer_count(7.0 ** -16) == 1
        assert layer_count(1e-4) < 1

    def test_paper_sequence(self):
        params = build_sequence(7.0 ** -20, 7.0 ** -20)
        assert params.t == 2
        assert params.levels == (1, 2, 4)
        assert params.relaxations == ()
        assert params.mode == "paper"
        assert params.ratio(1) == 2 and params.ratio(2) == 2

    def test_paper_eps_too_large_recommends_toy(self):
        with pytest.raises(InfeasibleParamsError, match="toy"):
            build_sequence(1e-4, 1e-5)

    def test_paper_rejects_overrides(self):
        with pytest.raises(ValueError, match="paper mode"):
            build_sequence(7.0 ** -20, 7.0 ** -20, t=3)

    def test_paper_needs_delta_below_eps(self):
        with pytest.raises(ValueError, match="delta <= eps"):
            build_sequence(7.0 ** -20, 0.5)

    def test_toy_requires_t_and_growth(self):
        with pytest.raises(ValueError, match="explicit t and growth"):
            build_sequence(0.1, 0.5, mode="toy")

    def test_toy_relaxations_stamped(self):
        full = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4)
        assert full.relaxations == ("t", "growth", "s0", "delta-coupling")
        minimal = build_sequence(0.3, 0.2, mode="toy", t=1, growth=2)
        assert minimal.relaxations == ("t", "growth")

    def test_branch_rule_stunts_growth(self):
        # growth would jump past s0 = 3 from m = 1, so the first step
        # is clamped to s0; the second step is free again
        params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=5, s0=3)
        assert params.levels == (1, 3, 15)

    def test_default_growth_overflow_names_the_level(self):
        # level 7 of the default growth is 269,383,296, and e^(m/16)
        # at that m is past the largest float; paper mode reaches t=7 at
        # eps=7^-41 and t=8 at 7^-45, and its s0 stunts no step there
        assert build_sequence(7.0 ** -41, 7.0 ** -41).levels == (
            1, 2, 4, 8, 16, 32, 224, 269_383_296)
        with pytest.raises(InfeasibleParamsError, match="level 8"):
            build_sequence(7.0 ** -45, 7.0 ** -45)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GowersParams(eps=0.1, delta=0.1, mode="toy", t=1, s0=4,
                         levels=(1, 3, 4), seed=0)
        with pytest.raises(ValueError):
            GowersParams(eps=0.1, delta=0.1, mode="paper", t=1, s0=4,
                         levels=(2, 4), seed=0)

    @given(ratio=st.integers(2, 5), t=st.integers(1, 4))
    def test_toy_levels_multiply(self, ratio, t):
        params = build_sequence(0.3, 0.3, mode="toy", t=t, growth=ratio, s0=max(ratio, 2))
        for r in range(1, t + 1):
            assert params.levels[r] % params.levels[r - 1] == 0
            assert params.ratio(r) <= max(ratio, params.s0)


class TestOrthogonalFamily:
    def test_trivial_split(self):
        fam = orthogonal_family(1, 2, seed=0)
        assert int(fam.x_side.sum()) == 1
        assert _agreement_counts(fam.x_side)[0, 1] == 0
        assert not fam.item1_checked

    def test_band_example(self, wide_family):
        fam = wide_family
        assert fam.attempts == 1
        # the size gate ln^3(4 m^2) sits above M here, so the bands are
        # not part of acceptance; they still hold for this draw
        assert not fam.item1_checked
        sizes = np.einsum("ij->i", fam.x_side.astype(np.int64))
        assert sizes.min() >= 400 and sizes.max() <= 600
        s = fam.x_side.astype(np.float64)
        off = ~np.eye(fam.m, dtype=bool)
        for left, right in ((s, s), (s, 1 - s), (1 - s, 1 - s)):
            inter = np.einsum("ik,jk->ij", left, right)[off]
            assert inter.min() >= 150 and inter.max() <= 350

    def test_band_example_spot_checks(self, wide_family):
        fam = wide_family
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j = rng.choice(fam.m, size=2, replace=False)
            xi = set(np.flatnonzero(fam.x_side[i]).tolist())
            xj = set(np.flatnonzero(fam.x_side[j]).tolist())
            assert 150 <= len(xi & xj) <= 350
            assert 150 <= len(xi - xj) <= 350

    def test_gated_item1(self):
        fam = orthogonal_family(150, 2000, seed=1)
        assert fam.item1_checked
        assert fam.attempts <= 4
        sizes = fam.x_side.sum(axis=1)
        band = 2000 ** (2.0 / 3.0)
        assert np.all(np.abs(sizes - 1000.0) <= band)

    def test_agreement_counts_match_brute(self):
        fam = orthogonal_family(6, 3, seed=5, max_attempts=256)
        z = _agreement_counts(fam.x_side)
        for j in range(3):
            for jp in range(3):
                assert z[j, jp] == brute_agreement(fam.x_side, j, jp)
        off = z[~np.eye(3, dtype=bool)]
        assert off.max() <= 0.75 * 6

    def test_infeasible_pair_raises(self):
        # no family exists: words of length 8 that agree on at most 6
        # places differ in two, so deleting one place keeps them
        # distinct and there are at most 2^7 = 128 of them
        with pytest.raises(FamilyRejectionError) as info:
            orthogonal_family(8, 2000, seed=1, max_attempts=3)
        err = info.value
        assert err.attempts == 3
        assert err.stats["agreement_violations"] > 0
        assert "3 attempts" in str(err)

    def test_rejection_stats_match_brute(self):
        with pytest.raises(FamilyRejectionError) as info:
            orthogonal_family(8, 2000, seed=1, max_attempts=3)
        # the statistics describe the last attempt, whose sides are coins
        rng = generator(1, "orthogonal/8x2000/attempt2")
        side = rng.random((8, 2000)) < 0.5
        z = _agreement_counts(side)
        off = z[~np.eye(2000, dtype=bool)]
        assert info.value.stats == {
            "m": 8,
            "M": 2000,
            "construction": "coins",
            "item1_violations": _item1_violations(side),
            "agreement_violations": int((off > 6).sum()) // 2,
            "worst_agreement": int(off.max()),
            "agreement_cap": 6.0,
        }

    @pytest.mark.parametrize("m,M,p,bad", [
        (5, 40, 0.5, False), (12, 300, 0.5, False), (30, 2000, 0.5, False),
        (12, 300, 0.8, True), (7, 64, 0.95, True), (9, 125, 0.2, True),
    ])
    def test_item1_violations_match_three_matmuls(self, m, M, p, bad):
        side = generator(6, f"item1/{m}x{M}/{p}").random((m, M)) < p
        want = three_matmul_item1(side)
        assert _item1_violations(side) == want
        assert (want > 0) == bad

    # the check takes 256 rows at a time
    @pytest.mark.parametrize("m,M", [
        (5, 2), (12, 50), (9, 257), (8, 300), (16, 512), (8, 2000),
    ], ids=["M2", "under-one-block", "one-row-over", "ragged", "two-blocks",
            "infeasible-8x2000"])
    def test_blocked_agreement_matches_table(self, m, M):
        side = generator(7, f"agree/{m}x{M}").random((m, M)) < 0.5
        cap = 0.75 * m
        pairs = _agreement_counts(side)[np.triu_indices(M, 1)]
        want = (int((pairs > cap).sum()), int(pairs.max()))
        assert _agreement_excess(side, cap) == want

    def test_blocked_agreement_on_code_family(self):
        fam = orthogonal_family(30, 2000, seed=1, max_attempts=3)
        pairs = _agreement_counts(fam.x_side)[np.triu_indices(2000, 1)]
        assert _agreement_excess(fam.x_side, 22.5) == (0, int(pairs.max()))

    def test_no_attempts_carry_no_stats(self):
        with pytest.raises(FamilyRejectionError) as info:
            orthogonal_family(8, 64, seed=0, max_attempts=0)
        assert info.value.stats == {}

    def test_code_beyond_coin_regime(self):
        # fair coins break the cap ~5e3 times per attempt at (30, 2000);
        # the shortened Reed-Muller code has 2^14 words at distance 8
        fam = orthogonal_family(30, 2000, seed=1, max_attempts=3)
        assert fam.construction == "code"
        assert fam.item1_checked
        assert len({col.tobytes() for col in fam.x_side.T}) == 2000
        z = _agreement_counts(fam.x_side)
        for j, jp in ((0, 1), (5, 1999), (700, 1300)):
            assert z[j, jp] == brute_agreement(fam.x_side, j, jp)
        assert z[~np.eye(2000, dtype=bool)].max() <= 22

    @pytest.mark.parametrize("m,M", [(12, 128), (24, 256), (28, 1000), (60, 1000)])
    def test_code_words_meet_cap(self, m, M):
        fam = orthogonal_family(m, M, seed=2)
        assert fam.construction == "code"
        side = fam.x_side.astype(np.int64)
        agree = side.T @ side + (1 - side).T @ (1 - side)
        assert np.array_equal(agree, _agreement_counts(fam.x_side))
        assert agree[~np.eye(M, dtype=bool)].max() <= 0.75 * m

    def test_coin_regime_keeps_coins(self, wide_family):
        assert wide_family.construction == "coins"
        assert orthogonal_family(6, 3, seed=5).construction == "coins"

    def test_determinism(self):
        a = orthogonal_family(4, 2, seed=9)
        b = orthogonal_family(4, 2, seed=9)
        assert np.array_equal(a.x_side, b.x_side)
        assert a.attempts == b.attempts

    def test_validation(self):
        with pytest.raises(ValueError):
            orthogonal_family(0, 4)
        with pytest.raises(ValueError):
            orthogonal_family(3, 1)

    @settings(deadline=None, max_examples=25)
    @given(m=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
    def test_accepted_families_satisfy_event(self, m, seed):
        fam = orthogonal_family(m, 2, seed=seed, max_attempts=256)
        table = _agreement_counts(fam.x_side)
        for j, jp in itertools.permutations(range(2), 2):
            z = brute_agreement(fam.x_side, j, jp)
            assert z == table[j, jp]
            assert z <= 0.75 * m


class TestItem2Margin:
    def test_uniform_all_qualify(self, wide_family):
        lam = np.full(1000, 1e-3)
        rep = item2_margin(wide_family, lam, 0.02, 0.5, 0.05)
        assert rep.count == 120
        assert rep.hypothesis_ok and rep.satisfied
        sizes = wide_family.x_side.sum(axis=1)
        expect = np.minimum(sizes, 1000 - sizes) / 1000.0
        assert rep.mins == pytest.approx(expect)

    def test_concentrated_extremal_arithmetic(self, wide_family):
        for zeta in (0.1, 0.3, 0.5):
            lam = np.zeros(1000)
            lam[0], lam[1] = 1.0 - zeta, zeta
            assert float((lam ** 2).sum()) == pytest.approx(1 - 2 * zeta + 2 * zeta ** 2)
            rep = item2_margin(wide_family, lam, 0.02, zeta, 0.01)
            assert rep.count >= 0

    def test_boundary_concentration_meets_guarantee(self, wide_family):
        lam = np.zeros(1000)
        lam[0] = lam[1] = 0.5
        rep = item2_margin(wide_family, lam, 0.02, 0.5, 0.05)
        assert rep.hypothesis_ok
        assert rep.count >= 0.05 * 120

    def test_degenerate_weight_flagged(self, wide_family):
        lam = np.zeros(1000)
        lam[0] = 1.0
        rep = item2_margin(wide_family, lam, 0.02, 0.5, 0.05)
        assert not rep.hypothesis_ok
        assert any("max weight" in p for p in rep.problems)
        assert rep.count == 0

    def test_zeta_above_half_flagged(self, wide_family):
        lam = np.full(1000, 1e-3)
        rep = item2_margin(wide_family, lam, 0.02, 0.6, 0.05)
        assert any("zeta" in p for p in rep.problems)

    def test_validation(self, wide_family):
        with pytest.raises(ValueError, match="length"):
            item2_margin(wide_family, np.full(5, 0.2), 0.02, 0.5, 0.05)
        bad = np.full(1000, 1e-3)
        bad[0] = -1e-3
        bad[1] = 3e-3
        with pytest.raises(ValueError, match="nonnegative"):
            item2_margin(wide_family, bad, 0.02, 0.5, 0.05)
        with pytest.raises(ValueError, match="sum to 1"):
            item2_margin(wide_family, np.full(1000, 2e-3), 0.02, 0.5, 0.05)

    def test_guarantee_over_random_admissible_vectors(self, wide_family):
        rng = np.random.default_rng(4)
        zeta, eta, eps = 0.5, 0.05, 0.02
        for _ in range(25):
            lam = rng.dirichlet(np.full(1000, 0.3))
            while lam.max() > 1.0 - zeta:
                lam = 0.5 * lam + 0.5 / 1000.0
            rep = item2_margin(wide_family, lam, eps, zeta, eta)
            assert rep.hypothesis_ok
            assert rep.count >= eta * 120 - 1e-9


class TestBuildWeighted:
    def test_weights_match_box_oracle(self, toy_build):
        assert np.array_equal(toy_build.weighted.weights,
                              brute_weights(toy_build.layering))

    def test_weight_support_per_layer(self, toy_build):
        w = toy_build.weighted.weights
        layering = toy_build.layering
        for c in range(8):
            r = layering.layer_of(c)
            vals = set(np.unique(w[:, :, c]).tolist())
            assert vals <= {0.0, 2.0 ** -r}

    def test_weights_range(self, toy_build):
        w = toy_build.weighted.weights
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_per_box_edge_counts(self, toy_build):
        # per coarse pair the level graph holds exactly the two
        # complete boxes, nothing else
        n = toy_build.n
        for r in (1, 2):
            fam = toy_build.layering.families[r - 1]
            adj = toy_build.layering.graphs[r - 1].to_dense()
            m, M = fam.m, fam.M
            wc, wf = n // m, n // (m * M)
            for i in range(m):
                for j in range(m):
                    count = int(adj[i * wc:(i + 1) * wc, j * wc:(j + 1) * wc].sum())
                    xi = int(fam.x_side[i].sum())
                    xj = int(fam.x_side[j].sum())
                    assert count == (xi * xj + (M - xi) * (M - xj)) * wf * wf

    def test_layering_structure(self, toy_build):
        lay = toy_build.layering
        assert lay.t == 2
        for r, m in enumerate(lay.levels):
            assert lay.a_levels[r].n_blocks == m
            assert np.all(lay.a_levels[r].sizes() == 8 // m)
        assert np.all(lay.c_layers.sizes() == 4)
        assert lay.layer_of(0) == 1 and lay.layer_of(7) == 2
        assert np.array_equal(lay.layer_indices(2), np.arange(4, 8))

    def test_divisibility_errors(self):
        params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4)
        with pytest.raises(DivisibilityError, match="finest level"):
            build_weighted(params, 10)
        three = build_sequence(1e-18, 0.5, mode="toy", t=3, growth=2, s0=4)
        with pytest.raises(DivisibilityError, match="layers"):
            build_weighted(three, 16)

    def test_determinism_and_seed_sensitivity(self):
        params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4, seed=11)
        a = build_weighted(params, 8)
        b = build_weighted(params, 8)
        assert np.array_equal(a.weighted.weights, b.weighted.weights)
        other = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4, seed=12)
        c = build_weighted(other, 8)
        assert not np.array_equal(a.weighted.weights, c.weighted.weights)

    @pytest.mark.parametrize("t, n, eps", [
        (3, 48, 1e-12), (3, 144, 1e-12), (5, 960, 1e-24),
    ])
    def test_level_graphs_equal_their_transpose(self, t, n, eps):
        # the second part reads its level bits and its cascade witnesses
        # off the first part's on this symmetry
        params = build_sequence(eps, 0.5, mode="toy", t=t, growth=2, s0=4,
                                seed=1)
        for g in build_weighted(params, n).layering.graphs:
            adj = g.to_dense()
            assert np.array_equal(adj, adj.T)

    def test_level_graph_standalone(self, toy_build):
        fam = toy_build.layering.families[0]
        g = level_graph(8, fam)
        assert np.array_equal(g.to_dense(), toy_build.layering.graphs[0].to_dense())
        with pytest.raises(DivisibilityError):
            level_graph(9, fam)

    def test_deep_level_density_near_half(self, shallow_threshold_build):
        # past the coupling threshold the level graph density sits at
        # 1/2 up to toy-scale fluctuation
        g = shallow_threshold_build.layering.graphs[1]
        d = g.to_dense().mean()
        assert abs(d - 0.5) <= 0.15


class TestLinkCertificate:
    def test_shallow_c_vertex_constant_boxes(self, toy_build):
        for v, want_level, want_blocks in ((0, 1, 2), (7, 2, 4)):
            cert = link_certificate(toy_build, 2, v)
            assert cert.kind == "constant-boxes"
            assert cert.level == want_level
            assert [p.n_blocks for p in cert.partitions] == [want_blocks] * 2
            check = verify_certificate(toy_build, cert)
            assert check.ok and check.exact and check.worst is None

    def test_same_vertex_gives_equal_certificates(self, toy_build):
        kinds = set()
        for part in range(3):
            a = link_certificate(toy_build, part, 5)
            b = link_certificate(toy_build, part, 5)
            assert a is not b and a.partitions is not b.partitions
            assert a == b and a.partitions == b.partitions
            assert hash(a) == hash(b)
            kinds.add(a.kind)
        assert kinds == {"constant-boxes", "layer-constant"}
        moved = list(a.partitions)
        moved[0] = PartPartition(np.roll(moved[0].labels, 1), part=0)
        assert LayeredPartition(moved) != a.partitions

    def test_certified_values_are_dyadic(self, toy_build):
        w = toy_build.weighted.weights
        cert = link_certificate(toy_build, 2, 5)
        link = w[:, :, 5]
        r = cert.level
        for a in range(cert.partitions[0].n_blocks):
            ai = cert.partitions[0].block_indices(a)
            for b in range(cert.partitions[1].n_blocks):
                bi = cert.partitions[1].block_indices(b)
                sub = link[np.ix_(ai, bi)]
                assert sub.min() == sub.max()
                assert sub.min() in (0.0, 2.0 ** -r)

    def test_deep_c_vertex_quasirandom(self, shallow_threshold_build):
        cert = link_certificate(shallow_threshold_build, 2, 7)
        assert cert.kind == "quasirandom"
        assert cert.level == 2
        assert all(p.n_blocks == 1 for p in cert.partitions)
        check = verify_certificate(shallow_threshold_build, cert)
        # one-sided semantics: pass means no witness within budget
        assert check.ok and not check.exact
        assert check.witness is None
        assert check.audit is not None

    def test_quasirandom_checks_shared_per_level(self, sampled_search_build):
        build = sampled_search_build
        layer = build.layering.layer_indices(3)
        checks = []
        for c in layer:
            cert = link_certificate(build, 2, int(c))
            assert cert.kind == "quasirandom" and cert.level == 3
            checks.append(verify_certificate(build, cert, delta=0.1))
        assert checks[0].witness is not None
        for check in checks[1:]:
            assert check.audit is checks[0].audit
            assert check.witness is checks[0].witness

    @pytest.mark.parametrize("variant", [
        {"draws": 50}, {"seed": 3}, {"delta": 0.2},
    ])
    def test_other_search_settings_not_served_cached_pair(self, variant):
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=1)
        build = build_weighted(params, 48)
        cert = link_certificate(build, 2, 40)
        base = verify_certificate(build, cert, delta=0.1)
        kwargs = {"delta": 0.1, **variant}
        check = verify_certificate(build, cert, **kwargs)
        fresh = verify_certificate(build_weighted(params, 48), cert, **kwargs)
        assert check.audit == fresh.audit
        assert same_witness(check.witness, fresh.witness)
        assert check.ok == fresh.ok
        # the variant's search finds another witness, so a stale pair shows
        assert not same_witness(check.witness, base.witness)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_sampled_search_needs_a_draw(self, sampled_search_build, draws):
        build = sampled_search_build
        cert = link_certificate(build, 2, 40)
        with pytest.raises(ValueError, match="draws"):
            verify_certificate(build, cert, draws=draws)
        graph = build.layering.graphs[2]
        with pytest.raises(ValueError, match="draws"):
            bipartite_regularity_witness(graph, 0.5, draws=draws)
        # an exact search draws nothing, so the count does not matter
        small = graph.to_dense()[:20, :20]
        assert same_witness(bipartite_regularity_witness(small, 0.5, draws=draws),
                            bipartite_regularity_witness(small, 0.5))

    def test_ab_vertex_layer_constant(self, toy_build):
        w = toy_build.weighted.weights
        for part, v in ((0, 3), (1, 5)):
            cert = link_certificate(toy_build, part, v)
            assert cert.kind == "layer-constant"
            assert cert.partitions[0].n_blocks <= 2 ** 2
            assert cert.partitions[1].n_blocks == 2
            check = verify_certificate(toy_build, cert)
            assert check.ok and check.exact
            link = w[v] if part == 0 else w[:, v, :]
            for a in range(cert.partitions[0].n_blocks):
                ai = cert.partitions[0].block_indices(a)
                for b in range(cert.partitions[1].n_blocks):
                    bi = cert.partitions[1].block_indices(b)
                    sub = link[np.ix_(ai, bi)]
                    assert sub.min() == sub.max()
                    assert sub.min() in (0.0, 0.5, 0.25)

    def test_atom_bound_three_layers(self):
        params = build_sequence(1e-18, 0.5, mode="toy", t=3, growth=2, s0=4, seed=2)
        build = build_weighted(params, 24)
        cert = link_certificate(build, 0, 11)
        assert cert.kind == "layer-constant"
        assert cert.partitions[0].n_blocks <= 8
        assert cert.size_bound == 8
        assert verify_certificate(build, cert).ok

    def test_threshold_square_bound_arithmetic(self):
        assert coupling_threshold(0.5) ** 2 == 4096
        assert 4096 <= 17 / 0.5 ** 8 == 4352

    def test_size_bound_fields(self, toy_build):
        cert = link_certificate(toy_build, 2, 7)
        assert cert.size_bound == 16
        assert cert.partitions[0].n_blocks <= cert.size_bound

    def test_validation(self, toy_build):
        with pytest.raises(ValueError):
            link_certificate(toy_build, 3, 0)
        with pytest.raises(ValueError):
            link_certificate(toy_build, 0, 99)

    def test_tampered_certificate_fails(self, toy_build):
        cert = link_certificate(toy_build, 2, 0)
        coarse = LayeredPartition([PartPartition.trivial(8), PartPartition.trivial(8)])
        fake = dataclasses.replace(cert, partitions=coarse)
        check = verify_certificate(toy_build, fake)
        assert not check.ok
        assert check.worst == ((0, 0), 0.0, 0.5)
        # the link is 0.5 on rows 0-3 x cols 0-3, 0.5 on rows 4-7 x
        # cols 4-7 and 0 elsewhere; block 0 of the left side is empty,
        # pair (1, 0) is constant, and (1, 1) is the first that is not
        left = PartPartition(np.repeat([1, 2], 4), n_blocks=3)
        right = PartPartition(np.repeat([0, 1], [3, 5]))
        fake = dataclasses.replace(cert, partitions=LayeredPartition([left, right]))
        check = verify_certificate(toy_build, fake)
        assert not check.ok
        assert check.worst == ((1, 1), 0.0, 0.5)
        assert all(type(i) is int for i in check.worst[0])


class TestCertificateMemo:
    """A build certifies each distinct link once; what it serves from
    its memo must equal what a build without any memo computes."""

    N = 48

    @pytest.fixture(scope="class")
    def params(self):
        return build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                              seed=1)

    @pytest.fixture(scope="class")
    def shared(self, params):
        """One build certified over all 3n vertices."""
        build = build_weighted(params, self.N)
        for part in range(3):
            for v in range(self.N):
                verify_certificate(build, link_certificate(build, part, v))
        return build

    def test_shared_build_matches_fresh_build_per_vertex(self, params, shared):
        kinds = set()
        for part in range(3):
            for v in range(self.N):
                cert = link_certificate(shared, part, v)
                check = verify_certificate(shared, cert)
                fresh = build_weighted(params, self.N)
                want = link_certificate(fresh, part, v)
                want_check = verify_certificate(fresh, want)
                assert cert == want, (part, v)
                assert ((check.kind, check.exact, check.ok, check.worst)
                        == (want_check.kind, want_check.exact, want_check.ok,
                            want_check.worst)), (part, v)
                assert check.audit == want_check.audit
                assert same_witness(check.witness, want_check.witness)
                kinds.add(cert.kind)
        assert kinds == {"quasirandom", "constant-boxes", "layer-constant"}
        # the memo holds far fewer links than the 3n certified
        links = sum(key[0] == "exact" for key in shared._memo)
        assert links < self.N

    @pytest.mark.parametrize("part", [0, 1])
    def test_rolled_atoms_get_their_own_failing_check(self, shared, part):
        w = shared.weighted.weights
        for v in (0, self.N - 1):
            cert = link_certificate(shared, part, v)
            atoms, layers = cert.partitions
            rolled = LayeredPartition(
                [PartPartition(np.roll(atoms.labels, 1)), layers])
            fake = dataclasses.replace(cert, partitions=rolled)
            check = verify_certificate(shared, fake)
            assert check.exact and not check.ok and check.worst is not None
            assert (check.ok, check.worst) == dense_certificate_check(w, fake)
            # the honest claim keeps its own passing check
            assert verify_certificate(shared, cert).ok

    def test_same_claim_on_another_layer_gets_its_own_check(self, shared):
        # the trivial pair fails on every layer, with that layer's weight
        w = shared.weighted.weights
        coarse = LayeredPartition([PartPartition.trivial(self.N)] * 2)
        for r in (1, 2):
            c = int(shared.layering.layer_indices(r)[0])
            cert = link_certificate(shared, 2, c)
            assert cert.kind == "constant-boxes" and cert.level == r
            fake = dataclasses.replace(cert, partitions=coarse)
            check = verify_certificate(shared, fake)
            assert check.worst == ((0, 0), 0.0, 2.0 ** -r)
            assert (check.ok, check.worst) == dense_certificate_check(w, fake)

    @pytest.mark.parametrize("part, v, kind", [
        (0, 3, "constant-boxes"), (1, 7, "constant-boxes"),
        (2, 0, "layer-constant"),
    ])
    def test_check_carries_its_own_kind(self, shared, part, v, kind):
        cert = link_certificate(shared, part, v)
        honest = verify_certificate(shared, cert)
        assert honest.kind == cert.kind != kind
        check = verify_certificate(shared, dataclasses.replace(cert, kind=kind))
        assert check.kind == kind
        assert (check.exact, check.ok, check.worst) == (
            honest.exact, honest.ok, honest.worst)
        assert verify_certificate(shared, cert).kind == cert.kind

    def test_level_tables_hold_every_vertex_level_bits(self, shared):
        rng = np.random.default_rng(4)
        random = tuple(BipartiteGraph.from_dense(rng.random((self.N, self.N)) < 0.5)
                       for _ in range(3))
        for lay in (shared.layering,
                    dataclasses.replace(shared.layering, graphs=random)):
            tables = lay.level_tables()
            assert tables.shape == (self.N, self.N, 3)
            for v in range(self.N):
                assert tables[v].tobytes() == lay.level_bits(v).tobytes(), v

    def test_level_bits_computed_once_per_build(self, params, monkeypatch):
        calls = []
        real = IntervalLayering.level_tables
        monkeypatch.setattr(IntervalLayering, "level_tables", lambda self: (
            calls.append(self) or real(self)))
        monkeypatch.setattr(IntervalLayering, "level_bits", lambda *args: (
            pytest.fail("level_bits called per vertex")))
        build = build_weighted(params, self.N)
        for _ in range(2):
            for part in range(3):
                for v in range(self.N):
                    verify_certificate(build, link_certificate(build, part, v))
        assert len(calls) == 1

    def test_each_distinct_link_is_checked_once(self, params, monkeypatch):
        # at n=144 the first and second parts' 288 vertices have 8
        # distinct level-bit tables between them, and the third part
        # has 2 shallow layers; the deep layer's claim is quasirandom
        n = 144
        calls = []
        real = gowers._exact_check
        monkeypatch.setattr(gowers, "_exact_check", lambda lay, cert, link: (
            calls.append(cert.part) or real(lay, cert, link)))
        build = build_weighted(params, n)
        for part in range(3):
            for v in range(n):
                assert verify_certificate(build, link_certificate(build, part, v)).ok
        assert len(calls) == 10 and calls.count(2) == 2
        for v in (0, n - 1):
            assert (verify_certificate(build, link_certificate(build, 1, v))
                    is verify_certificate(build, link_certificate(build, 0, v)))

    def test_equal_level_bits_share_atoms(self, shared):
        lay = shared.layering
        tables = [lay.level_bits(v).tobytes() for v in range(self.N)]
        same = [v for v in range(1, self.N) if tables[v] == tables[0]]
        other = next(v for v in range(self.N) if tables[v] != tables[0])
        assert same
        a = link_certificate(shared, 0, 0)
        for v in same:
            b = link_certificate(shared, 0, v)
            assert b.partitions is not a.partitions
            assert b.partitions[0] is a.partitions[0]
            assert b.partitions[1] is a.partitions[1]
        assert link_certificate(shared, 0, other).partitions[0] != a.partitions[0]


def _ladder(build):
    n = build.n
    return [LayeredPartition([PartPartition.intervals(n, m, part=i)
                              for i in range(3)])
            for m in build.params.levels]


class TestFactoredTower:
    """The tower is stored as its level graphs and layer labels; every
    check counts from them and must match the dense n^3 tensor."""

    @pytest.fixture(scope="class", params=[(24, 2), (48, 1)],
                    ids=["n24", "n48"])
    def build(self, request):
        n, seed = request.param
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=seed)
        return build_weighted(params, n)

    def test_slabs_and_sums_match_dense_tensor(self, build):
        w = build.weighted.weights
        dense = WeightedTripartite(w)
        for i in range(build.n):
            assert build.weighted.slab(i).tobytes() == w[i].tobytes()
            assert dense.slab(i).tobytes() == w[i].tobytes()
        want = (float(w.sum()), float(((1.0 - w) * w).sum()))
        assert build.weighted.sums() == want
        assert dense.sums() == want

    def test_box_sums_match_dense_tensor(self, build):
        n, boxes = build.n, 30
        rng = np.random.default_rng(n)
        members = [(rng.random((n, boxes)) < 0.5).astype(np.float64)
                   for _ in range(3)]
        w = build.weighted.weights
        got = build.weighted.box_sums(members)
        want = WeightedTripartite(w).box_sums(members)
        for g, d in zip(got, want, strict=True):
            assert g.tobytes() == d.tobytes()
        for b in range(boxes):
            box = np.ix_(*(np.flatnonzero(part[:, b]) for part in members))
            assert got[0][b] == w[box].sum()
            assert got[1][b] == (w[box] * (1.0 - w[box])).sum()

    def test_from_layers_validation(self, build):
        graphs = build.layering.graphs
        labels = build.layering.c_layers.labels
        with pytest.raises(ValueError, match="scale"):
            WeightedTripartite.from_layers(graphs, labels, [0.5, 0.25])
        with pytest.raises(ValueError, match="labels"):
            WeightedTripartite.from_layers(graphs, labels + 1, [0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match="shape"):
            WeightedTripartite.from_layers(
                (graphs[0], level_graph(8, orthogonal_family(1, 2, seed=0))),
                labels % 2, [0.5, 0.25])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightedTripartite.from_layers(graphs, labels, [2.0, 0.25, 0.125])

    def test_exact_checks_match_dense_reference(self, build):
        w = build.weighted.weights
        rng = np.random.default_rng(build.n)
        outcomes = set()
        for part in range(3):
            for v in range(build.n):
                cert = link_certificate(build, part, v)
                if cert.kind == "quasirandom":
                    continue
                variants = [cert.partitions]
                if v % 5 == 0:
                    variants += tampered_partitions(cert, build.n, rng)
                for partitions in variants:
                    fake = dataclasses.replace(cert, partitions=partitions)
                    check = verify_certificate(build, fake)
                    assert check.exact
                    want = dense_certificate_check(w, fake)
                    assert (check.ok, check.worst) == want, (part, v)
                    outcomes.add((part, check.ok))
        assert outcomes == {(p, ok) for p in range(3) for ok in (True, False)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_equals_one_shot_draw(self, tmp_path, seed):
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=seed)
        layered = build_weighted(params, 48).weighted
        path = tmp_path / "g.w3g"
        hio.write_w3g(path, layered)
        sampled, full, boxes = reference_sample(layered.weights, seed, 100, 0.5)
        words = KPartiteHypergraph.from_dense(sampled).words
        for weighted in (layered, WeightedTripartite(layered.weights),
                         hio.read_w3g(path)):
            result = sample_unweighted(weighted, seed=seed)
            assert result.graph.words.tobytes() == words.tobytes()
            assert result.report.full == full
            assert result.report.boxes == boxes

    def test_cascade_densities_equal_dense_means(self, build):
        w = build.weighted.weights
        n = build.n
        shifted = LayeredPartition([
            PartPartition((np.arange(n) + 3) % n // (n // 4), part=i)
            for i in range(3)
        ])
        witnesses = 0
        for candidate in _ladder(build) + [shifted]:
            for level in refinement_cascade(build, candidate).levels:
                for wit in level.witnesses:
                    witnesses += 1
                    own = candidate[0 if wit.side == "A" else 1].block_indices(wit.s)
                    other = candidate[1 if wit.side == "A" else 0].block_indices(wit.u)
                    blocks = (own, other) if wit.side == "A" else (other, own)
                    base = w[np.ix_(*blocks, candidate[2].block_indices(wit.ell))]
                    for box in (wit.complete, wit.empty):
                        sub = w[np.ix_(*box.subsets)].mean()
                        assert box.sub_density == float(sub)
                        assert box.base_density == float(base.mean())
                    assert wit.gap == 2.0 ** -wit.level
        assert witnesses >= 3

    def test_pass_never_builds_dense_weights(self):
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=5)
        build = build_weighted(params, 48)
        for part in range(3):
            for v in range(48):
                verify_certificate(build, link_certificate(build, part, v))
        for candidate in _ladder(build):
            refinement_cascade(build, candidate)
        sample_unweighted(build.weighted, seed=5)
        assert build.weighted._weights is None

    def test_memory_stays_below_weight_tensor(self):
        # the n^3 float64 tensor would be 885 MB at n = 480
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=1)
        tracemalloc.start()
        try:
            build = build_weighted(params, 480)
            for part in range(3):
                for v in range(480):
                    cert = link_certificate(build, part, v)
                    assert verify_certificate(build, cert).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestQuasirandomnessAudit:
    def test_complete_graph_passes(self):
        rep = quasirandomness_audit(np.ones((8, 8), dtype=bool), 0.5)
        assert rep.condition1 and rep.degree_violations == 0
        assert rep.condition2 and rep.condition2_worst < 0
        assert rep.condition2_mode == "exact"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_exact_mode_matches_brute(self, seed, delta):
        rng = np.random.default_rng(seed)
        adj = rng.random((8, 8)) < 0.5
        rep = quasirandomness_audit(adj, delta)
        c1, violations, c2, worst = brute_quasirandom(adj, delta)
        assert rep.condition1 == c1
        assert rep.degree_violations == violations
        assert rep.condition2 == c2
        assert rep.condition2_worst == pytest.approx(worst)

    def test_requires_intervals_past_exact_range(self):
        with pytest.raises(ValueError, match="intervals"):
            quasirandomness_audit(np.ones((24, 24), dtype=bool), 0.5)

    def test_statistic_mode_complete(self):
        rep = quasirandomness_audit(
            np.ones((32, 32), dtype=bool), 0.7,
            b_intervals=PartPartition.intervals(32, 32, part=1),
        )
        assert rep.condition2_mode == "statistic"
        assert rep.condition1 and rep.condition2

    def test_statistic_same_interval_gate(self):
        # too few intervals: the same-interval mass cannot be absorbed,
        # so the sufficient statistic stays inconclusive
        rep = quasirandomness_audit(
            np.ones((32, 32), dtype=bool), 0.5,
            b_intervals=PartPartition.intervals(32, 8, part=1),
        )
        assert not rep.condition2

    def test_band_example_wide_level(self):
        # a 64x64 family is the smallest with comfortable acceptance;
        # bands at M^(-1/3) = 1/4 hold with lots of room
        fam = orthogonal_family(64, 64, seed=0)
        assert fam.attempts == 1
        g = level_graph(4096, fam)
        rep = quasirandomness_audit(
            g, 0.5,
            b_intervals=PartPartition.intervals(4096, 64, part=1),
            level_M=64,
        )
        assert rep.condition1 and rep.degree_violations == 0
        assert rep.degree_band and rep.codegree_band
        assert abs(rep.density - 0.5) <= 0.5 ** 4 / 2
        # the pointwise codegree statistic is calibrated for much
        # larger M and legitimately stays inconclusive here
        assert rep.condition2_mode == "statistic"
        assert not rep.condition2

    def test_degenerate_column_fails_condition1(self):
        adj = np.zeros((12, 12), dtype=bool)
        adj[:, 0] = True
        rep = quasirandomness_audit(adj, 0.5)
        assert not rep.condition1

    def test_band_reporting_controls(self):
        adj = np.ones((8, 8), dtype=bool)
        plain = quasirandomness_audit(adj, 0.5)
        assert plain.degree_band is None and plain.codegree_band is None
        assert plain.band_tol is None
        # at M=2 the default tolerance 2^(-1/3) n admits the complete
        # graph's degrees n and cross codegrees n
        banded = quasirandomness_audit(
            adj, 0.5, b_intervals=PartPartition.intervals(8, 4, part=1),
            level_M=2,
        )
        assert banded.band_tol == 2.0 ** (-1.0 / 3.0)
        assert banded.degree_band and banded.codegree_band

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            quasirandomness_audit(np.ones((4, 6), dtype=bool), 0.5)

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 4)])
    def test_adjacency_must_be_2d(self, shape):
        # a 3-d array used to pass the square check on its first two axes
        with pytest.raises(ValueError, match=f"2-d adjacency, got {len(shape)}-d"):
            quasirandomness_audit(np.ones(shape, dtype=bool), 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=rf"delta={delta} out of range \(0, 1\)"):
            quasirandomness_audit(np.ones((8, 8), dtype=bool), delta)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_quasirandom_certificate_check_rejects_bad_delta(self, delta):
        # these raised ZeroDivisionError, a NaN-to-integer error, and
        # returned a check for delta=-0.5
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=1)
        build = build_weighted(params, 48)
        cert = link_certificate(build, 2, 40)
        assert cert.kind == "quasirandom"
        with pytest.raises(ValueError, match=rf"delta={delta} out of range"):
            verify_certificate(build, cert, delta=delta)


def _trivial_candidate(n):
    return LayeredPartition([
        PartPartition.trivial(n, part=0),
        PartPartition.trivial(n, part=1),
        PartPartition.trivial(n, part=2),
    ])


class TestRefinementCascade:
    def test_exact_candidate_zero_refines(self, toy_build):
        candidate = LayeredPartition([
            PartPartition.intervals(8, 4, part=0),
            PartPartition.intervals(8, 4, part=1),
            PartPartition.intervals(8, 4, part=2),
        ])
        rep = refinement_cascade(toy_build, candidate)
        assert [level.refines for level in rep.levels] == [True, True]
        assert all(not level.witnesses for level in rep.levels)

    def test_trivial_candidate_level1_witness(self, toy_build):
        rep = refinement_cascade(toy_build, _trivial_candidate(8))
        first = first_failure(rep)
        assert first.r == 1
        wit = first.witnesses[0]
        assert wit.level == 1
        assert wit.complete.sub_density == 0.5
        assert wit.empty.sub_density == 0.0
        assert wit.gap == 2.0 ** -1
        assert wit.gap >= 2.0 ** -toy_build.params.t
        assert [len(s) for s in wit.complete.subsets] == [4, 4, 4]

    def test_witness_reverifies_through_auditor(self, toy_build):
        rep = refinement_cascade(toy_build, _trivial_candidate(8))
        wit = first_failure(rep).witnesses[0]
        assert verify_witness(toy_build.weighted, wit.complete) == wit.complete.sub_density
        assert verify_witness(toy_build.weighted, wit.empty) == wit.empty.sub_density
        assert wit.complete.base_density == 0.1875
        # the trivial candidate's blocks are whole parts; the generic
        # search on them must find irregularity too
        blocks = tuple(np.arange(8) for _ in range(3))
        search = weak_regularity_witness(
            toy_build.weighted, blocks, toy_build.params.eps)
        assert search is not None
        assert search.base_density == wit.complete.base_density
        assert search.deviation > 0.0

    def test_witness_respects_blocks(self, toy_build):
        rep = refinement_cascade(toy_build, _trivial_candidate(8))
        wit = first_failure(rep).witnesses[0]
        layer = toy_build.layering.layer_indices(wit.level)
        assert set(wit.complete.subsets[2].tolist()) <= set(layer.tolist())
        assert set(wit.complete.subsets[0].tolist()) <= set(range(8))
        # complete and empty share the second-part subset
        assert np.array_equal(wit.complete.subsets[1], wit.empty.subsets[1])

    @pytest.fixture(scope="class", params=[48, 144], ids=["n48", "n144"])
    def tower(self, request):
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=1)
        build = build_weighted(params, request.param)
        return build, WeightedTripartite(build.weighted.weights)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_coarse_second_part_gets_side_b_witness(self, tower, r):
        # the first part refines level r and the second only level r-1,
        # so level r fails on side B alone
        build, dense = tower
        n, levels = build.n, build.params.levels
        candidate = LayeredPartition([
            PartPartition.intervals(n, levels[r], part=0),
            PartPartition.intervals(n, levels[r - 1], part=1),
            PartPartition.intervals(n, levels[r], part=2),
        ])
        rep = refinement_cascade(build, candidate)
        found = [wit for level in rep.levels for wit in level.witnesses]
        assert len(found) == 1
        wit = found[0]
        assert rep.levels[r - 1].witnesses[0] is wit
        assert (wit.level, wit.side, wit.gap) == (r, "B", 2.0 ** -r)
        assert (wit.complete.sub_density, wit.empty.sub_density) == (2.0 ** -r, 0.0)
        for box in (wit.complete, wit.empty):
            assert verify_witness(dense, box) == box.sub_density
            # the boxes are in part order: the crossing block u is in the
            # first part, the block s that failed to refine in the second
            assert np.isin(box.subsets[0], candidate[0].block_indices(wit.u)).all()
            assert np.isin(box.subsets[1], candidate[1].block_indices(wit.s)).all()
            assert np.isin(box.subsets[2], candidate[2].block_indices(wit.ell)).all()

    def test_beta_schedule_documents_eps_requirement(self, toy_build):
        rep = refinement_cascade(toy_build, _trivial_candidate(8), eps=1e-4)
        level2 = rep.levels[1]
        assert level2.beta == pytest.approx(4.9)
        assert not level2.valid and not level2.runnable
        assert level2.refines is None
        assert not rep.levels[0].runnable  # beta_1 = 0.7 already too big

    def test_beta_flags_with_tiny_eps(self, toy_build):
        rep = refinement_cascade(toy_build, _trivial_candidate(8))
        assert all(level.valid and level.runnable for level in rep.levels)
        assert rep.betas[0] == pytest.approx(1e-18 ** 0.25)

    def test_factor_two_precondition(self, toy_build):
        skew = LayeredPartition([
            PartPartition(np.array([0, 1, 1, 1, 1, 1, 1, 1]), part=0),
            PartPartition.trivial(8, part=1),
            PartPartition.trivial(8, part=2),
        ])
        with pytest.raises(ValueError, match="factor of two"):
            refinement_cascade(toy_build, skew)

    def test_empty_blocks_tolerated(self, toy_build):
        halves = np.repeat([0, 1], 4)
        padded = LayeredPartition([
            PartPartition(halves, part=0, n_blocks=3),
            PartPartition(halves, part=1),
            PartPartition(halves, part=2),
        ])
        rep = refinement_cascade(toy_build, padded)
        assert rep.levels[0].runnable

    @pytest.mark.parametrize("eps", [-1e-6, 0.0, 1.0, math.nan, math.inf])
    def test_eps_outside_unit_interval_rejected(self, toy_build, eps):
        # eps=-1e-6 turned the betas complex and raised TypeError; eps=nan
        # gave a report with every level unrunnable
        with pytest.raises(ValueError, match=rf"eps={eps} out of range \(0, 1\)"):
            refinement_cascade(toy_build, _trivial_candidate(8), eps=eps)

    def test_candidate_shape_validation(self, toy_build):
        with pytest.raises(ValueError, match="three-part"):
            refinement_cascade(toy_build, LayeredPartition(
                [PartPartition.trivial(8), PartPartition.trivial(8)]))
        with pytest.raises(ValueError, match="cover"):
            refinement_cascade(toy_build, _trivial_candidate(12))


class TestSampleUnweighted:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_box_sums_equal_reference_on_dyadic_weights(self, seed):
        params = build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                                seed=seed)
        weights = build_weighted(params, 48).weighted.weights
        result = sample_unweighted(WeightedTripartite(weights), seed=seed)
        sampled, full, boxes = reference_sample(weights, seed, 100, 0.5)
        assert np.array_equal(result.graph.to_dense(), sampled)
        assert result.report.full == full
        assert result.report.boxes == boxes
        assert result.report.n_within == sum(c.within for c in boxes)

    @pytest.mark.parametrize("shape,fraction", [
        ((17, 9, 12), 0.5), ((30, 31, 29), 0.3), ((5, 6, 7), 1.0),
    ])
    def test_box_sums_match_reference_on_random_weights(self, shape, fraction):
        weights = np.random.default_rng(len(shape) + shape[0]).random(shape)
        result = sample_unweighted(WeightedTripartite(weights), seed=4,
                                   boxes=40, box_fraction=fraction)
        sampled, full, boxes = reference_sample(weights, 4, 40, fraction)
        assert np.array_equal(result.graph.to_dense(), sampled)
        assert result.report.full == full
        for got, ref in zip(result.report.boxes, boxes, strict=True):
            assert got.within == ref.within
            assert got.observed == ref.observed
            assert got.expected == pytest.approx(ref.expected, rel=1e-12)
            assert got.sigma == pytest.approx(ref.sigma, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"boxes": -1}, {"box_fraction": 0.0}, {"box_fraction": -0.5},
        {"box_fraction": 1.5}, {"box_fraction": float("nan")},
    ])
    def test_bad_box_settings_rejected(self, toy_build, kwargs):
        with pytest.raises(ValueError):
            sample_unweighted(toy_build.weighted, seed=0, **kwargs)

    def test_no_boxes(self, toy_build):
        rep = sample_unweighted(toy_build.weighted, seed=0, boxes=0).report
        assert rep.boxes == ()
        assert rep.n_within == 0 and rep.fraction_within == 1.0

    def test_degenerate_weights(self):
        from homopart import WeightedTripartite
        w = np.zeros((2, 2, 2))
        w[0, 0, 0] = 1.0
        for seed in range(5):
            result = sample_unweighted(WeightedTripartite(w), seed=seed, boxes=3)
            dense = result.graph.to_dense()
            assert dense[0, 0, 0]
            assert dense.sum() == 1

    def test_full_box_and_subboxes_within_band(self):
        params = build_sequence(1e-18, 0.5, mode="toy", t=2, growth=2, s0=4, seed=11)
        build = build_weighted(params, 60)
        for seed in (0, 1, 2):
            result = sample_unweighted(build.weighted, seed=seed, boxes=100)
            assert result.report.full.within
            assert result.report.n_within >= 97
            assert result.report.fraction_within == result.report.n_within / 100

    def test_determinism(self, toy_build):
        a = sample_unweighted(toy_build.weighted, seed=3, boxes=10)
        b = sample_unweighted(toy_build.weighted, seed=3, boxes=10)
        assert np.array_equal(a.graph.to_dense(), b.graph.to_dense())
        assert a.report == b.report
        c = sample_unweighted(toy_build.weighted, seed=4, boxes=10)
        assert not np.array_equal(a.graph.to_dense(), c.graph.to_dense())

    def test_constant_half_weights(self):
        from homopart import WeightedTripartite
        w = np.full((6, 6, 6), 0.5)
        result = sample_unweighted(WeightedTripartite(w), seed=1, boxes=20)
        rep = result.report.full
        assert rep.expected == 0.5
        assert rep.sigma == pytest.approx(math.sqrt(216 * 0.25) / 216)
        assert rep.within
