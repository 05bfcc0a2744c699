"""Each output check accepts the program's output and rejects a
corrupted copy: one label moved, one weight changed, a VC value off by
one, a sampled edge moved, two family members made equal."""

import dataclasses

import numpy as np
import pytest

import homopart
import checks
from workloads import TOWER


def instance(family, n, seed=5):
    return homopart.generate(homopart.InstanceSpec(
        k=3, n=(n,) * 3, family=family, r=3, eps_prime=0.1, seed=seed))


def dense(h):
    return checks.unpack_words(h.words, h.part_sizes[-1])


@pytest.fixture(scope="module")
def tower():
    params = homopart.build_sequence(
        TOWER["eps"], TOWER["delta"], mode="toy", t=TOWER["t"],
        growth=TOWER["growth"], s0=TOWER["s0"], seed=3)
    return homopart.build_weighted(params, 24)


def test_unpack_matches_program():
    h = instance("uniform-random", 70).h
    assert np.array_equal(dense(h), h.to_dense())


@pytest.mark.parametrize("family", ["planted-boxes", "interval-threshold"])
def test_audit_check(family):
    inst = instance(family, 16)
    partition, _ = homopart.homogeneous_partition(inst.h, inst.oracle, 0.2, 1)
    report = homopart.homogeneity_audit(inst.h, partition, 0.2)
    tensor = dense(inst.h)
    labels = [np.array(p.labels) for p in partition]
    assert checks.check_audit(tensor, labels, 0.2, report) == []

    moved = [lab.copy() for lab in labels]
    moved[0][0] = moved[0][-1]
    assert checks.check_audit(tensor, moved, 0.2, report)

    densities = report.densities.copy()
    densities[0] = 1.0 - densities[0] if densities[0] != 0.5 else 0.25
    bad = dataclasses.replace(report, densities=densities)
    assert checks.check_audit(tensor, labels, 0.2, bad)


def test_audit_check_sees_failing_tuples():
    inst = instance("uniform-random", 12)
    trivial = homopart.LayeredPartition(
        [homopart.PartPartition.trivial(12, part=i) for i in range(3)])
    report = homopart.homogeneity_audit(inst.h, trivial, 0.2)
    assert not report.passed
    labels = [np.zeros(12, dtype=np.int64)] * 3
    assert checks.check_audit(dense(inst.h), labels, 0.2, report) == []
    flipped = dataclasses.replace(report, passed=True)
    assert checks.check_audit(dense(inst.h), labels, 0.2, flipped)


def test_partition_check():
    inst = instance("planted-boxes", 16)
    partition, rep = homopart.homogeneous_partition(inst.h, inst.oracle, 0.2, 1)
    assert checks.check_partition(partition, (16,) * 3, rep.p, 0.2) == []
    assert checks.check_partition(partition, (17, 16, 16), rep.p, 0.2)
    # a bound of 8kp/eps^2 below the block count must be reported
    assert checks.check_partition(partition, (16,) * 3, rep.p, 1e3)


def test_vc_bitmask_matches_program():
    rng = np.random.default_rng(0)
    for shape in [(6, 6), (9, 5), (5, 9), (12, 8)]:
        rows = rng.random(shape) < 0.5
        assert checks.vc_bitmask(rows) == homopart.vc_dimension(rows).dim


@pytest.mark.parametrize("family,blocks", [("uniform-random", None),
                                           ("planted-boxes", 3)])
def test_vc_check(family, blocks):
    h = instance(family, 7).h
    result = homopart.slicewise_vc(h)
    assert checks.check_vc(dense(h), result, blocks=blocks) == []
    for part in range(3):
        off = dict(result)
        off[part] += 1
        assert checks.check_vc(dense(h), off, blocks=blocks)


def test_vc_check_planted_bound():
    h = instance("uniform-random", 7).h
    result = homopart.slicewise_vc(h)
    assert result["max"] >= 2
    assert checks.check_vc(dense(h), result, blocks=3)


def test_weights_check(tower):
    weights = np.array(tower.weighted.weights)
    assert checks.check_weights(weights, 3) == []
    nonzero = tuple(np.argwhere(weights > 0)[0])
    weights[nonzero] /= 2.0
    assert checks.check_weights(weights, 3)


def test_certificate_check(tower):
    weights = np.array(tower.weighted.weights)
    kinds = set()
    for part in range(3):
        for v in range(24):
            cert = homopart.link_certificate(tower, part, v)
            check = homopart.verify_certificate(tower, cert)
            kinds.add(cert.kind)
            assert checks.check_certificate(weights, cert, check) == []
    assert kinds == {"quasirandom", "constant-boxes", "layer-constant"}

    for part, v in [(0, 3), (2, 0)]:
        cert = homopart.link_certificate(tower, part, v)
        check = homopart.verify_certificate(tower, cert)
        assert cert.kind != "quasirandom"
        changed = weights.copy()
        cell = [0, 0, 0]
        cell[part] = v
        changed[tuple(cell)] = 0.375
        assert checks.check_certificate(changed, cert, check)
        failed = dataclasses.replace(check, ok=False)
        assert checks.check_certificate(weights, cert, failed)


def test_cascade_check(tower):
    weights = np.array(tower.weighted.weights)
    n, levels = 24, tower.params.levels
    reports = []
    for level, m in enumerate(levels):
        candidate = homopart.LayeredPartition(
            [homopart.PartPartition.intervals(n, m, part=i) for i in range(3)])
        report = homopart.refinement_cascade(tower, candidate)
        assert checks.check_cascade(weights, level, 3, report) == []
        reports.append(report)
    # the trivial candidate checked as if it were level 1
    assert checks.check_cascade(weights, 1, 3, reports[0])
    witness = reports[0].levels[0].witnesses[0]
    changed = weights.copy()
    changed[tuple(s[0] for s in witness.complete.subsets)] = 0.0
    assert checks.check_cascade(changed, 0, 3, reports[0])
    changed = weights.copy()
    changed[tuple(s[0] for s in witness.empty.subsets)] = 0.5
    assert checks.check_cascade(changed, 0, 3, reports[0])


def test_sample_check(tower):
    weights = np.array(tower.weighted.weights)
    sample = homopart.sample_unweighted(tower.weighted, 4)
    words = np.array(sample.graph.words)
    assert checks.check_sample(weights, words) == []
    zero = tuple(int(v) for v in np.argwhere(weights == 0.0)[0])
    words[zero[:2] + (zero[2] // 64,)] |= np.uint64(1) << np.uint64(zero[2] % 64)
    assert checks.check_sample(weights, words)
    assert checks.check_sample(weights, np.zeros_like(words))


@pytest.mark.parametrize("m,size", [(30, 2000), (150, 300)])
def test_family_check(m, size):
    family = homopart.orthogonal_family(m, size, seed=2)
    assert checks.check_family(family, m, size) == []
    side = np.array(family.x_side)
    side[:, 1] = side[:, 0]
    assert checks.check_family(dataclasses.replace(family, x_side=side), m, size)


def test_max_agreement_matches_brute():
    rng = np.random.default_rng(1)
    side = rng.random((70, 40)) < 0.5
    brute = max((side[:, i] == side[:, j]).sum()
                for i in range(40) for j in range(40) if i != j)
    assert checks.max_agreement(side) == brute


def test_parsers_round_trip(tmp_path, tower):
    h = instance("planted-boxes", 9).h
    homopart.io.write_khg(tmp_path / "g.khg", h)
    assert np.array_equal(checks.parse_khg(tmp_path / "g.khg"), dense(h))
    homopart.io.write_w3g(tmp_path / "g.w3g", tower.weighted)
    parsed = checks.parse_w3g(tmp_path / "g.w3g")
    assert parsed.tobytes() == np.asarray(tower.weighted.weights).tobytes()
    partition = homopart.LayeredPartition(
        [homopart.PartPartition.intervals(9, 3, part=i) for i in range(3)])
    homopart.io.write_part(tmp_path / "p.part", partition)
    parsed = checks.parse_part(tmp_path / "p.part")
    assert all(np.array_equal(a, p.labels) for a, p in zip(parsed, partition))
