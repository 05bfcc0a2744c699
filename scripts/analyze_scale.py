"""Time the analysis stages at one size and report peak RSS after each.

Usage, from the root of a checkout:

    python3 scripts/analyze_scale.py 288
    python3 scripts/analyze_scale.py 288 --family interval-threshold
    python3 scripts/analyze_scale.py 288 --src /path/to/other/checkout/src

Generates the tripartite instance the analyze benchmark partitions
(r=3, eps'=0.1, seed 1, planted-boxes unless ``--family`` says
otherwise) with n vertices per part, runs ``homogeneous_partition`` at
eps=0.2, seed 1, and audits its output with ``homogeneity_audit`` at
the same eps. Prints one JSON line: seconds per stage and
``ru_maxrss`` in MB after it, plus the blocks per part and the number
of audited block tuples. When the partition raises
``CoverageError``, as on uniform-random, the line carries the gen
stage and the error instead. Run one size per process, since peak RSS
never falls.
"""

import argparse
import json
import os
import resource
import sys
import time


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--family", default="planted-boxes")
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import homopart as hp
    from homopart.errors import CoverageError

    eps = 0.2
    out = {"n": args.n, "family": args.family}

    def stage(name, fn):
        start = time.perf_counter()
        value = fn()
        out[f"{name}_s"] = round(time.perf_counter() - start, 3)
        out[f"{name}_peak_rss_mb"] = round(peak_mb(), 1)
        return value

    inst = stage("gen", lambda: hp.generate(hp.InstanceSpec(
        k=3, n=(args.n,) * 3, family=args.family, r=3, eps_prime=0.1,
        seed=1)))
    try:
        partition, _ = stage("partition", lambda: hp.homogeneous_partition(
            inst.h, inst.oracle, eps, 1))
    except CoverageError as exc:
        out["error"] = str(exc)
        print(json.dumps(out))
        return 1
    out["blocks"] = [p.n_blocks for p in partition]
    audit = stage("audit", lambda: hp.homogeneity_audit(inst.h, partition, eps))
    out["block_tuples"] = int(audit.densities.size)
    out["passed"] = audit.passed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
