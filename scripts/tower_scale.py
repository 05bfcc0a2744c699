"""Time the tower stages at one size and report peak RSS after each.

Usage, from the root of a checkout:

    python3 scripts/tower_scale.py 480
    python3 scripts/tower_scale.py 480 --src /path/to/other/checkout/src

Builds the toy tower the tower benchmark uses (t=3, growth 2, s0=4,
seed 1) at n vertices per part, then verifies one link certificate
per vertex (3n), counts the distinct links among them, runs the
refinement cascade on the interval ladder (one candidate per level)
and samples once with 100 boxes. n must be divisible by the finest
level 8 and by t=3. Last it draws the two orthogonal families the
tower benchmark draws, (m, M) = (30, 2000) on the code path and
(150, 2000) on the coin path, seed 1; they do not depend on n. Prints
one JSON line: seconds per stage and ``ru_maxrss`` in MB after it.
Run one size per process, since peak RSS never falls.

``witness_tracemalloc_mb`` is the ``tracemalloc`` peak, in MiB, of the
regularity-witness search that backs the quasirandom certificates of
the deepest level (2000 draws, seed 0), run once more after the
stages. It counts the search's own numpy and Python allocations,
whatever the BLAS build.

``distinct_links`` is the number of links the build certifies once
each: the distinct level-bit tables, which vertex v of the first part
shares with vertex v of the second because the level graphs are
symmetric, and the layers of the third part, against the 3n vertices
of ``certificates_ok``. At n=144 that is 11.
"""

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import homopart as hp

    n = args.n
    params = hp.build_sequence(1e-12, 0.5, mode="toy", t=3, growth=2, s0=4,
                               seed=1)
    out = {"n": n}

    def stage(name, fn):
        start = time.perf_counter()
        value = fn()
        out[f"{name}_s"] = round(time.perf_counter() - start, 3)
        out[f"{name}_peak_rss_mb"] = round(peak_mb(), 1)
        return value

    build = stage("build", lambda: hp.build_weighted(params, n))
    out["certificates_ok"] = stage("certify", lambda: sum(
        hp.verify_certificate(build, hp.link_certificate(build, part, v)).ok
        for part in range(3) for v in range(n)))
    lay = build.layering
    out["distinct_links"] = (len({lay.level_bits(v).tobytes() for v in range(n)})
                             + len({lay.layer_of(v) for v in range(n)}))
    ladder = [hp.LayeredPartition([hp.PartPartition.intervals(n, m, part=i)
                                   for i in range(3)])
              for m in params.levels]
    out["witnesses"] = stage("cascade", lambda: sum(
        len(level.witnesses) for candidate in ladder
        for level in hp.refinement_cascade(build, candidate).levels))
    sample = stage("sample", lambda: hp.sample_unweighted(build.weighted, 1))
    out["sampled_edges"] = sample.graph.edge_count
    for m in (30, 150):
        family = stage(f"family{m}x2000",
                       lambda: hp.orthogonal_family(m, 2000, seed=1))
        out[f"family{m}x2000_attempts"] = family.attempts
    tracemalloc.start()
    hp.bipartite_regularity_witness(lay.graphs[-1], params.delta, draws=2000)
    out["witness_tracemalloc_mb"] = round(
        tracemalloc.get_traced_memory()[1] / 2**20, 2)
    tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
