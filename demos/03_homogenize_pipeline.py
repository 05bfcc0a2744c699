"""Run the full homogenization pipeline and audit the result.

The pipeline composes tuple covering and the Venn atoms of class
neighborhoods into one partition per part; the audit then checks
every block tuple for density in [0, eps] or [1 - eps, 1] and reports
the mass sitting in non-homogeneous tuples. Of the link hypothesis the
pipeline reads only r, the bound on blocks per side.
"""

from homopart import (
    InstanceSpec,
    generate,
    homogeneity_audit,
    homogeneous_partition,
)

eps = 0.2
inst = generate(InstanceSpec(
    k=3, n=(60, 60, 60), family="planted-boxes", r=3, eps_prime=0.1, seed=4,
))

partition, rep = homogeneous_partition(inst.h, inst.oracle, eps, seed=4)
print(f"r={inst.oracle.r}: mode={rep.mode} inner_eps={rep.inner_eps:.4g} "
      f"p={rep.p} budget={rep.budget:.0f}")
print(f"block counts per part: {partition.block_counts()}")

audit = homogeneity_audit(inst.h, partition, eps)
print(f"audit: mass={audit.mass} normalized={audit.normalized_mass:.4g} "
      f"passed={audit.passed}")

failing = audit.failing()
if failing:
    labels, density, _ = failing[0]
    print(f"example failing tuple {labels}: density {density:.3f}")
else:
    print("no failing block tuples")
