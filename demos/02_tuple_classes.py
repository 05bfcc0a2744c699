"""Cover the source-tuple product of a 3-partite graph by
neighborhood-similarity classes.

Tuples (a, b) are grouped by the third-part neighborhood of the pair;
an anchor claims every tuple within eps*n/2 of its own neighborhood.
A product instance needs very few anchors. A uniform-random instance
is the negative control: its neighborhoods are pairwise far apart, so
the anchor budget runs out and the run reports the uncovered mass.
"""

from homopart import InstanceSpec, generate, tuple_partition
from homopart.errors import CoverageError

n = 60
eps = 0.2

inst = generate(InstanceSpec(
    k=3, n=(n, n, n), family="product", r=3, eps_prime=0.0, seed=1,
))
tp = tuple_partition(inst.h, eps, seed=1)
print(f"product: {tp.n_classes} classes cover "
      f"{n * n - tp.exceptional_count()} of {n * n} tuples "
      f"(threshold {tp.threshold:.1f})")

# class members stay pairwise close: two tuples in one class are each
# within threshold of the anchor, so within 2*threshold of each other
rows = inst.h.to_dense().reshape(n * n, n)
labels = tp.labels.ravel()
for c in range(1, tp.n_classes + 1):
    member_rows = rows[labels == c]
    a, b = tp.anchors[c - 1]
    anchor_row = rows[a * n + b]
    far = int((member_rows != anchor_row).sum(axis=1).max())
    print(f"  class {c}: {member_rows.shape[0]} tuples, "
          f"worst distance to anchor {far} (<= {tp.threshold:.0f})")

random_inst = generate(InstanceSpec(
    k=3, n=(n, n, n), family="uniform-random", r=2, eps_prime=0.0, seed=1,
))
try:
    tuple_partition(random_inst.h, eps, seed=1, max_anchors=64)
    print("uniform-random: covered (unexpected at this size)")
except CoverageError as err:
    print(f"uniform-random: coverage fails, {err.uncovered} tuples "
          f"uncovered after {err.n_anchors} anchors "
          f"(budget {err.budget:.0f})")
