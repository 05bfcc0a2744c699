"""The weighted tripartite system whose regularity partitions must be
tower-large, at toy scale.

Levels double in size; each level contributes a layer of the third
part whose slab carries weights in {0, 2^-r} driven by a sign family.
Every vertex link admits a small certificate, yet refining a coarse
candidate partition fails level after level, each failure producing a
verifiable irregular triple.
"""

import numpy as np

from homopart import (
    LayeredPartition,
    PartPartition,
    build_sequence,
    build_weighted,
    link_certificate,
    orthogonal_family,
    quasirandomness_audit,
    refinement_cascade,
    sample_unweighted,
    verify_certificate,
    verify_witness,
)

params = build_sequence(1e-6, 0.5, mode="toy", t=3, growth=2, s0=4, seed=1)
print(f"levels {params.levels}, relaxations {params.relaxations}")

build = build_weighted(params, 120)
w = build.weighted.weights
support = {
    r: sorted(float(v) for v in
              np.unique(w[:, :, build.layering.layer_indices(r)]))
    for r in range(1, build.layering.t + 1)
}
print(f"weight support per layer: {support}")

# one certificate per vertex; kind depends on where the pin sits
kinds = {}
for part in range(3):
    for v in range(120):
        cert = link_certificate(build, part, v)
        kinds[cert.kind] = kinds.get(cert.kind, 0) + 1
        assert verify_certificate(build, cert).ok
print(f"360 certificates verified: {kinds}")

# audit the deepest level graph directly; condition 2's pointwise
# statistic is calibrated for much larger families, so at toy scale it
# legitimately stays inconclusive while the degree condition holds
lay = build.layering
rep = quasirandomness_audit(
    lay.graphs[-1], 0.5, b_intervals=lay.b_levels[lay.t - 1],
    level_M=params.ratio(lay.t),
)
print(f"level-{lay.t} graph: density {rep.density:.3f}, "
      f"degree violations {rep.degree_violations}, "
      f"condition2 ({rep.condition2_mode}): {rep.condition2}")

# a trivial candidate partition cannot be a refinement; the cascade
# extracts a complete/empty pair of boxes certifying the failure
candidate = LayeredPartition([
    PartPartition.trivial(120, part=i) for i in range(3)
])
cascade = refinement_cascade(build, candidate, eps=1e-6)
for level in cascade.levels:
    print(f"level {level.r}: beta={level.beta:.3g} "
          f"runnable={level.runnable} refines={level.refines} "
          f"witnesses={len(level.witnesses)}")
    for wit in level.witnesses:
        assert verify_witness(build.weighted, wit.complete) \
            == wit.complete.sub_density
        print(f"  witness gap {wit.gap} on blocks "
              f"(s={wit.s}, u={wit.u}, ell={wit.ell})")

# sampling the weights gives an unweighted graph with the same box
# densities up to Hoeffding noise
result = sample_unweighted(build.weighted, seed=0)
print(f"sampled graph: full box within 3 sigma: "
      f"{result.report.full.within}, "
      f"random boxes within: {result.report.n_within}/100")

# the sign families behind the levels: rejection-sampled so that no
# two members agree on more than 3/4 of the rows
fam = orthogonal_family(120, 1000, seed=3)
signs = 2.0 * fam.x_side - 1.0
agree = (fam.m + signs.T @ signs) / 2.0  # rows on which two members agree
off = ~np.eye(fam.M, dtype=bool)
print(f"family (m=120, M=1000): accepted after {fam.attempts} attempt(s), "
      f"worst off-diagonal agreement {int(agree[off].max())} "
      f"<= {0.75 * fam.m:.0f}")
